//! The `tsocc` binary's command-line contract, driven as a user drives
//! it: every help page, strict rejection of bad input (exit 2 with the
//! usage page), and the sweep artifact's write → `--check` round trip,
//! including the drifts the check must catch.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every subcommand with exactly the flags its help page must list
/// (`--help` itself aside).
const SURFACE: [(&str, &[&str]); 6] = [
    (
        "sweep",
        &["--jobs", "--check", "--cores", "--scale", "--seed", "--out"],
    ),
    ("figures", &["--cores", "--scale", "--seed", "--jobs"]),
    ("ablation", &["--cores", "--seed", "--json"]),
    ("litmus", &["--iters"]),
    (
        "conform",
        &[
            "--budget-ms",
            "--seed",
            "--out",
            "--protocol",
            "--all-configs",
            "--jobs",
            "--min-programs",
            "--max-programs",
            "--cores",
            "--iters",
        ],
    ),
    (
        "check",
        &[
            "--budget-ms",
            "--seed",
            "--out",
            "--protocol",
            "--all-configs",
            "--cores",
            "--lines",
            "--mutations",
        ],
    ),
];

/// A fresh scratch directory, so nothing a command writes lands in the
/// source tree.
fn tmp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsocc-cli-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tsocc(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tsocc"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn tsocc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The flag names a help page lists under `flags:`.
fn listed_flags(page: &str) -> Vec<String> {
    page.lines()
        .skip_while(|l| *l != "flags:")
        .filter_map(|l| l.split_whitespace().next())
        .filter(|f| f.starts_with("--") && *f != "--help")
        .map(str::to_string)
        .collect()
}

#[test]
fn every_help_page_exits_zero_and_lists_exactly_its_flags() {
    let dir = tmp_dir();
    let top = tsocc(&dir, &["--help"]);
    assert_eq!(top.status.code(), Some(0));
    for (name, _) in SURFACE {
        assert!(
            stdout(&top).contains(&format!("  {name} ")),
            "top-level help is missing {name}:\n{}",
            stdout(&top)
        );
    }
    let mut total = 0;
    for (name, flags) in SURFACE {
        let out = tsocc(&dir, &[name, "--help"]);
        assert_eq!(out.status.code(), Some(0), "tsocc {name} --help");
        let mut listed = listed_flags(&stdout(&out));
        let mut want: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        listed.sort();
        want.sort();
        assert_eq!(listed, want, "tsocc {name} --help:\n{}", stdout(&out));
        total += flags.len();
    }
    assert_eq!(total, 32, "the whole flag surface");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_input_exits_two_with_the_usage_page() {
    let dir = tmp_dir();
    let no_subcommand = tsocc(&dir, &[]);
    assert_eq!(no_subcommand.status.code(), Some(2));
    // The fault matrix is a tier-1 test
    // (`fault_matrix_pins_the_oracle_that_catches_each_leg`), not a
    // subcommand.
    for name in ["orchestrate", "status", "faults"] {
        let unknown = tsocc(&dir, &[name]);
        assert_eq!(unknown.status.code(), Some(2), "tsocc {name}");
        assert!(stderr(&unknown).contains("usage: tsocc <subcommand>"));
    }
    for args in [
        &["sweep", "--bogus"][..],
        // The sweep keeps no result cache, so it takes no cache flags.
        &["sweep", "--no-cache"],
        &["sweep", "--cache-dir", "X"],
        // A bad entry in a core list.
        &["sweep", "--cores", "2,x", "--scale", "tiny"],
        // Core counts no machine or no protocol can honour, rejected
        // before any point runs.
        &["sweep", "--cores", "0", "--scale", "tiny"],
        &["sweep", "--cores", "129", "--scale", "tiny"],
        // `--check` rebuilds the matrix from distinct core counts.
        &["sweep", "--cores", "2,2", "--scale", "tiny"],
        &["figures", "--cores", "0", "fig3"],
        &["figures", "--cores", "129", "--scale", "tiny", "fig3"],
        &["ablation", "--cores", "0"],
        &["conform", "--cores", "0"],
        // The two-thread family needs two cores.
        &["check", "--cores", "0"],
        &["check", "--cores", "1"],
        // A misspelled scale.
        &["figures", "--scale", "tnyi", "fig2"],
        // The oracle is always TSO; the SC self-test is a tier-1 test.
        &["conform", "--oracle", "sc"],
        // The family and the reduction probe's cap are constants.
        &["check", "--ops", "2"],
        &["check", "--naive-cap", "5"],
        // The checker's address pools span one or two lines.
        &["check", "--lines", "0"],
        &["check", "--lines", "3"],
        // Zero iterations would check nothing.
        &["litmus", "--iters", "0"],
        &["conform", "--iters", "0"],
        // The drift check takes its matrix from the artifact.
        &["sweep", "--check", "A.json", "--scale", "tiny"],
        &["figures"],
        &["litmus", "--iters", "many"],
    ] {
        let out = tsocc(&dir, args);
        assert_eq!(out.status.code(), Some(2), "tsocc {args:?}");
        assert!(
            stderr(&out).contains(&format!("usage: tsocc {}", args[0])),
            "tsocc {args:?} must print its usage page:\n{}",
            stderr(&out)
        );
    }
    // A machine the checker rejects exits 2 with the reason, not a
    // panic.
    let out = tsocc(&dir, &["check", "--cores", "129", "--protocol", "MESI"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("encodes at most 128 cores"),
        "{}",
        stderr(&out)
    );
    // Nothing ran, so nothing was written.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_conform_run_that_checks_no_program_fails() {
    let dir = tmp_dir();
    let out = tsocc(
        &dir,
        &[
            "conform",
            "--budget-ms",
            "0",
            "--min-programs",
            "0",
            "--out",
            "C.json",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no program was checked"),
        "{}",
        stderr(&out)
    );
    // The report is still written, and says so.
    let report = std::fs::read_to_string(dir.join("C.json")).unwrap();
    assert!(report.contains("\"programs_checked\": 0,"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_check_run_whose_budget_expired_fails() {
    let dir = tmp_dir();
    let out = tsocc(&dir, &["check", "--budget-ms", "0", "--out", "K.json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let report = std::fs::read_to_string(dir.join("K.json")).unwrap();
    assert!(report.contains("\"programs_checked\": 0,"), "{report}");
    assert!(!report.contains("reduction_probe"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `artifact` to `dir/name`, runs `tsocc sweep --check` on it
/// and returns the exit code and stderr.
fn run_check(dir: &Path, name: &str, artifact: &str) -> (Option<i32>, String) {
    std::fs::write(dir.join(name), artifact).unwrap();
    let out = tsocc(dir, &["sweep", "--check", name]);
    (out.status.code(), stderr(&out))
}

#[test]
fn sweep_artifact_round_trips_through_the_drift_check_and_drift_fails_it() {
    let dir = tmp_dir();
    // The artifact holds simulated outcomes only: any worker count
    // writes the same bytes.
    for (jobs, out) in [("1", "A.json"), ("2", "A2.json")] {
        let write = tsocc(
            &dir,
            &[
                "sweep", "--jobs", jobs, "--cores", "2", "--scale", "tiny", "--out", out,
            ],
        );
        assert_eq!(write.status.code(), Some(0), "{}", stderr(&write));
    }
    // A write leaves its artifact and nothing else behind.
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["A.json", "A2.json"]);
    let artifact = std::fs::read_to_string(dir.join("A.json")).unwrap();
    assert_eq!(
        artifact,
        std::fs::read_to_string(dir.join("A2.json")).unwrap(),
        "--jobs 1 and --jobs 2 wrote different artifacts"
    );
    let (code, err) = run_check(&dir, "A.json", &artifact);
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("Reference"), "{err}");

    // Raise the first row's cycle count by one: the check must fail
    // and name the field. (`mem_fp` would be a poor probe: kernels
    // leave DRAM empty, so every row carries the empty-input hash.)
    let at = artifact.find("\"cycles\": ").unwrap() + "\"cycles\": ".len();
    let len = artifact[at..].find(',').unwrap();
    let cycles: u64 = artifact[at..at + len].parse().unwrap();
    let drifted = format!("{}{}{}", &artifact[..at], cycles + 1, &artifact[at + len..]);
    let (code, err) = run_check(&dir, "B.json", &drifted);
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains(&format!(".cycles: committed {}", cycles + 1)),
        "{err}"
    );

    // A field the row writer does not emit fails the check too: every
    // column of a row is compared, not a fixed list.
    let extra = artifact.replacen("\"cycles\": ", "\"wall_seconds\": 0.001, \"cycles\": ", 1);
    let (code, err) = run_check(&dir, "W.json", &extra);
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains(".wall_seconds: committed 0.001, regenerated absent"),
        "{err}"
    );

    // An artifact of the old schema is rejected before anything runs.
    let old = artifact.replacen("tsocc-sweep-baseline/v2", "tsocc-sweep-baseline/v1", 1);
    let (code, err) = run_check(&dir, "V1.json", &old);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("schema tsocc-sweep-baseline/v1"), "{err}");

    // An artifact with no rows has nothing to re-run: it is malformed,
    // not vacuously clean.
    let points = artifact.find("\"points\": [").unwrap() + "\"points\": [".len();
    let empty = format!("{}]}}\n", &artifact[..points]);
    let (code, err) = run_check(&dir, "E.json", &empty);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("empty points"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
