//! Metric tables, summaries, and the result line.

use std::collections::BTreeMap;

use crate::host::json_str;

/// The end-to-end metrics every untraced run reports, with units. A
/// workload reports each of them; see README.md for what `throughput`
/// counts on each workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.build_s", "s"),
    ("workloads.oracle_s", "s"),
    ("workloads.oracle_calls", "count"),
    ("core.new_s", "s"),
    ("core.run_s", "s"),
    ("core.steps", "count"),
    ("core.ns_per_step", "ns"),
    ("core.residual_s", "s"),
    ("sim.sched_pops", "count"),
    ("sim.sched_pushes", "count"),
    ("sim.stale_frac", "ratio"),
    ("sim.pops_per_step", "ratio"),
    ("cpu.instructions", "count"),
    ("cpu.ipc", "ratio"),
    ("cpu.wb_full_stalls", "count"),
    ("l1.self_s", "s"),
    ("l1.ns_per_call", "ns"),
    ("l1.calls.submit", "count"),
    ("l1.calls.handle_message", "count"),
    ("l1.calls.tick", "count"),
    ("l1.calls.drain_outbox", "count"),
    ("l1.calls.next_event", "count"),
    ("l1.calls.is_quiescent", "count"),
    ("l1.calls.drain_completions", "count"),
    ("l1.calls_per_pop", "ratio"),
    ("l1.hit_frac", "ratio"),
    ("l1.retry_frac", "ratio"),
    ("l1.sends", "count"),
    ("l1.miss_rate", "ratio"),
    ("l1.selfinv", "count"),
    ("l2.self_s", "s"),
    ("l2.calls.handle_message", "count"),
    ("l2.calls.tick", "count"),
    ("l2.calls.drain_outbox", "count"),
    ("l2.calls.next_event", "count"),
    ("l2.calls.is_quiescent", "count"),
    ("l2.ns_per_msg", "ns"),
    ("l2.sends", "count"),
    ("noc.msgs", "count"),
    ("noc.flits", "count"),
    ("noc.flit_hops", "count"),
    ("noc.replay_s", "s"),
    ("noc.ns_per_msg", "ns"),
    ("check.self_s", "s"),
    ("check.schedules", "count"),
    ("check.transitions", "count"),
    ("check.sleep_blocked", "count"),
    ("check.prune_frac", "ratio"),
    ("check.ns_per_transition", "ns"),
    ("trace.overhead", "ratio"),
    ("trace.timer_ns", "ns"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: sweep points run, or programs checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why they failed.
    pub errors: Vec<String>,
    /// Metrics by name (looked up against [`END_TO_END`] or
    /// [`PER_LAYER`] when the result line is printed).
    pub metrics: BTreeMap<String, f64>,
    /// Workload-specific figures printed in the human-readable report
    /// only, with their units.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Per-pass wall seconds (untraced runs).
    pub passes: Vec<f64>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a human-readable-only figure.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_string(), value, unit));
    }

    /// The final result line over `table`. Metrics missing from the
    /// outcome report 0 (a layer the workload does not exercise).
    pub fn result_line(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(*name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_number(value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `v` as a JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which JSON cannot carry, as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `xs` (0 for an empty slice).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest percentile of `xs` that still has at least ten samples
/// above it, as `(percentile, value)`; `None` with fewer than eleven
/// samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Index n-11 leaves exactly ten samples above it.
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// A `ratio` that reads 0 when its base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let (p, v) = tail_percentile(&xs).unwrap();
        assert_eq!(v, 10.0);
        assert_eq!(p, 50.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("wall_s", 1.25);
        let line = o.result_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        o.fail("x".into());
        assert!(o
            .result_line(&END_TO_END)
            .starts_with("{\"correct\": false"));
    }

    /// The tables here and the metric lists of the repository's
    /// `BENCHMARK.json` must name the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = tsocc_bench::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
