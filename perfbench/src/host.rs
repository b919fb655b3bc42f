//! The host a result was measured on, and the process's peak memory.

use std::process::Command;

/// Facts about the machine and build behind a result.
#[derive(Clone, Debug)]
pub struct Host {
    /// Logical CPUs this process may use.
    pub cpus: usize,
    /// `Cpus_allowed_list` from `/proc/self/status`.
    pub affinity: String,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the compiler that built this binary.
    pub rustc: &'static str,
    /// The cargo profile this binary was built with.
    pub profile: &'static str,
    /// `git rev-parse HEAD` of the working directory, when it is a git
    /// checkout.
    pub git: String,
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

impl Host {
    /// Probes the current host.
    pub fn probe() -> Host {
        let git = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none (not a git checkout)".to_string());
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            affinity: proc_field("/proc/self/status", "Cpus_allowed_list")
                .unwrap_or_else(|| "unknown".to_string()),
            cpu_model: proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            git,
        }
    }

    /// The host as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpus\": {}, \"affinity\": {}, \"cpu_model\": {}, \"rustc\": {}, \
             \"profile\": {}, \"git\": {}}}",
            self.cpus,
            json_str(&self.affinity),
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(self.profile),
            json_str(&self.git),
        )
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
