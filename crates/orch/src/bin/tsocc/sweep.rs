//! `tsocc sweep`: writes the committed sweep artifact, or drift-checks
//! one.
//!
//! ```text
//! tsocc sweep [--cores LIST] [--scale NAME] [--seed N] [--out PATH] [--jobs N]
//! tsocc sweep --check [PATH] [--jobs N]
//! ```
//!
//! - **Write** runs the baseline matrix
//!   ([`tsocc_bench::sweep::baseline_matrix`], default 2–128 cores at
//!   `small` scale) on the sweep engine's worker pool and writes a
//!   `tsocc-sweep-baseline/v2` artifact (default `BENCH_sweep.json`),
//!   nothing else. A row ([`tsocc_bench::sweep::PointResult::to_json`])
//!   holds simulated outcomes only, so the artifact is a pure function
//!   of the code and the matrix: any `--jobs` writes the same bytes.
//!   Host time goes to the progress lines only. A `--cores` list that
//!   repeats a count, or names one a protocol cannot build, exits 2
//!   before anything runs.
//! - **`--check [PATH]`** loads a `tsocc-sweep-baseline/v2` artifact
//!   (default `BENCH_sweep.json`; any other schema exits 2) and re-runs
//!   *its* matrix — scale, seed and core counts come from the artifact
//!   — under both steppers. It exits 1 if any field of a regenerated
//!   event-driven row differs from the committed row (a missing or
//!   extra field counts), or if the `Stepper::Reference` run differs
//!   from the event-driven one in any `RunStats` field or the memory
//!   fingerprint. Every flag but `--jobs` is rejected next to
//!   `--check`.

use std::time::Instant;

use tsocc::Stepper;
use tsocc_bench::cli::{Cli, ParsedArgs};
use tsocc_bench::json::{self, Value};
use tsocc_bench::sweep::{baseline_matrix, run_points, run_points_with, PointResult, SweepOpts};
use tsocc_workloads::{Benchmark, Scale};

pub const ABOUT: &str = "write the baseline sweep artifact, or drift-check one";

/// The artifact format the writer emits and `--check` accepts.
const SCHEMA: &str = "tsocc-sweep-baseline/v2";

/// The flags that pick the matrix or the output — meaningless next to
/// `--check`, which takes its matrix from the artifact.
const WRITE_ONLY: [&str; 4] = ["--cores", "--scale", "--seed", "--out"];

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc sweep", ABOUT)
        .opt("--jobs", "N", "worker threads (0 = one per CPU)")
        .opt_default(
            "--check",
            "PATH",
            "re-run an artifact's matrix under both steppers and fail on drift \
             (default BENCH_sweep.json)",
        )
        .opt("--cores", "LIST", "comma-separated core counts")
        .opt("--scale", "NAME", "workload scale: tiny, small, full")
        .opt("--seed", "N", "base sweep seed")
        .opt("--out", "PATH", "sweep artifact output path")
        .parse(args);
    if args.present("--check") {
        if let Some(flag) = WRITE_ONLY.iter().find(|f| args.present(f)) {
            args.fail(format!("{flag} cannot be combined with --check"));
        }
        let path = args.str("--check").unwrap_or("BENCH_sweep.json");
        let mismatches = check_against(path, args.usize("--jobs").unwrap_or(0));
        if mismatches > 0 {
            eprintln!("{mismatches} mismatch(es) against {path}");
            std::process::exit(1);
        }
        eprintln!("every row matches {path}, under both steppers");
    } else {
        write(&args);
    }
}

fn write(args: &ParsedArgs) {
    let scale = args.scale("--scale").unwrap_or(Scale::Small);
    let seed = args.u64("--seed").unwrap_or(SweepOpts::default().seed);
    let core_counts = args
        .usize_list("--cores")
        .unwrap_or_else(|| vec![2, 4, 8, 16, 32, 64, 128]);
    // `--check` rebuilds the matrix from the rows' distinct core
    // counts, so a repeated count would write an artifact it rejects.
    for (i, n) in core_counts.iter().enumerate() {
        if core_counts[..i].contains(n) {
            args.fail(format!("--cores lists {n} twice"));
        }
    }
    let out_path = args.str("--out").unwrap_or("BENCH_sweep.json");
    let points = baseline_matrix(scale, &core_counts);
    crate::vet_points(args, &points, seed);

    let start = Instant::now();
    let rows = run_points(&points, args.usize("--jobs").unwrap_or(0), seed);
    // No host field in the header either: every run of this matrix on
    // this code writes the same bytes, on any host.
    let doc = json::Object::new()
        .str("schema", SCHEMA)
        .str("bench", Benchmark::Fft.name())
        .str("scale", scale.name())
        .u64("base_seed", seed)
        .u64("points_total", rows.len() as u64)
        .raw("points", json::array(rows.iter().map(PointResult::to_json)))
        .build();
    std::fs::write(out_path, doc + "\n").expect("write sweep artifact");
    eprintln!(
        "tsocc sweep: {} points, {:.2}s; wrote {out_path}",
        rows.len(),
        start.elapsed().as_secs_f64()
    );
}

/// Re-runs the artifact's matrix under both steppers and diffs every
/// row field by field. Returns the number of mismatches; an unreadable
/// or malformed artifact, or one of another schema, exits 2.
fn check_against(path: &str, jobs: usize) -> usize {
    let bad = |msg: String| -> ! {
        eprintln!("tsocc sweep --check: {path}: {msg}");
        std::process::exit(2);
    };
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| bad(format!("cannot read: {e}")));
    let doc = json::parse(&doc).unwrap_or_else(|e| bad(format!("cannot parse: {e}")));
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        other => bad(format!(
            "schema {}, expected {SCHEMA}",
            other.unwrap_or("absent")
        )),
    }
    let field = |v: &Value, key: &str| -> u64 {
        v.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| bad(format!("missing numeric field {key:?}")))
    };
    let scale = doc
        .get("scale")
        .and_then(Value::as_str)
        .and_then(Scale::from_name)
        .unwrap_or_else(|| bad(format!("unknown scale {:?}", doc.get("scale"))));
    let base_seed = field(&doc, "base_seed");
    let committed = doc
        .get("points")
        .and_then(Value::as_arr)
        .filter(|points| !points.is_empty())
        .unwrap_or_else(|| bad("missing or empty points array".to_string()));
    // The artifact's matrix is (cores in first-appearance order) ×
    // sweep configs — rebuilt through the same `baseline_matrix` the
    // writer uses.
    let mut core_counts: Vec<usize> = Vec::new();
    for p in committed {
        let n = field(p, "n_cores") as usize;
        if !core_counts.contains(&n) {
            core_counts.push(n);
        }
    }
    let points = baseline_matrix(scale, &core_counts);
    if points.len() != committed.len() {
        bad(format!(
            "{} points, but its matrix has {}",
            committed.len(),
            points.len()
        ));
    }
    eprintln!(
        "== drift check against {path}: {} points, scale {}, seed {base_seed} ==",
        points.len(),
        scale.name()
    );
    let results = run_points_with(&points, jobs, base_seed, Stepper::EventDriven);
    eprintln!("== stepper parity leg: Reference ==");
    let reference = run_points_with(&points, jobs, base_seed, Stepper::Reference);

    let mut mismatches = 0usize;
    for ((old, new), refr) in committed.iter().zip(&results).zip(&reference) {
        let id = format!("{}/{}x{}", new.bench, new.config, new.n_cores);
        // The row writer decides the columns: compare the regenerated
        // row with the committed one over the union of their keys, so a
        // changed, missing or extra field all count.
        let row = json::parse(&new.to_json()).expect("the row writer emits valid JSON");
        let mut keys: Vec<&str> = Vec::new();
        for v in [&row, old] {
            if let Value::Obj(fields) = v {
                for (key, _) in fields {
                    if !keys.contains(&key.as_str()) {
                        keys.push(key);
                    }
                }
            }
        }
        for key in keys {
            let (want, got) = (old.get(key), row.get(key));
            if want != got {
                eprintln!(
                    "MISMATCH {id}.{key}: committed {}, regenerated {}",
                    token(want),
                    token(got)
                );
                mismatches += 1;
            }
        }
        // Full `RunStats` equality (host-side scheduler counters are
        // excluded by its `PartialEq`) plus the final-memory
        // fingerprint: the artifact must be one both steppers
        // reproduce bit-identically.
        if new.stats != refr.stats || new.mem_fp != refr.mem_fp {
            eprintln!("MISMATCH {id}: Reference stepper diverged from event-driven");
            mismatches += 1;
        }
    }
    mismatches
}

/// A row field as its raw JSON token, or `absent`.
fn token(value: Option<&Value>) -> String {
    match value {
        None => "absent".to_string(),
        Some(Value::Num(raw)) => raw.clone(),
        Some(Value::Str(s)) => json::string(s),
        Some(other) => format!("{other:?}"),
    }
}
