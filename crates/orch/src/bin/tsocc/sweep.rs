//! `tsocc sweep`: writes the committed sweep artifact, or drift-checks
//! one.
//!
//! ```text
//! tsocc sweep [--cores LIST] [--scale NAME] [--seed N] [--out PATH]
//!             [--cache-dir PATH] [--no-cache] [--jobs N] [--report PATH]
//!             [--expect-all-hits]
//! tsocc sweep --check [PATH] [--jobs N]
//! ```
//!
//! - **Write** runs the baseline matrix
//!   ([`tsocc_bench::sweep::baseline_matrix`], default 2–128 cores at
//!   `small` scale) through the cache-aware executor and writes a
//!   `tsocc-sweep-baseline/v2` artifact (default `BENCH_sweep.json`)
//!   plus a `tsocc-orch-report/v3` run report. A row
//!   ([`tsocc_bench::sweep::PointResult::to_json`]) holds simulated
//!   outcomes only, and a cached record stores it verbatim, so the
//!   artifact is a pure function of the code and the matrix: cold,
//!   warm, `--no-cache` and any `--jobs` write the same bytes.
//!   `--expect-all-hits` exits 3 unless every job was served from the
//!   cache. Host time goes to the report and the progress lines only.
//! - **`--check [PATH]`** loads a `tsocc-sweep-baseline/v2` artifact
//!   (default `BENCH_sweep.json`; any other schema exits 2) and re-runs
//!   *its* matrix — scale, seed and core counts come from the artifact
//!   — under both steppers, never touching the cache. It exits 1 if any
//!   field of a regenerated event-driven row differs from the committed
//!   row (a missing or extra field counts), or if the
//!   `Stepper::Reference` run differs from the event-driven one in any
//!   `RunStats` field or the memory fingerprint. Every flag but
//!   `--jobs` is rejected next to `--check`.

use tsocc::Stepper;
use tsocc_bench::cli::{Cli, ParsedArgs};
use tsocc_bench::json::{self, Value};
use tsocc_bench::sweep::{baseline_matrix, run_points_with, SweepOpts};
use tsocc_orch::executor::execute;
use tsocc_orch::jobs::JobSpec;
use tsocc_orch::ResultCache;
use tsocc_workloads::{Benchmark, Scale};

pub const ABOUT: &str =
    "write the baseline sweep artifact through the result cache, or drift-check one";

/// The artifact format the writer emits and `--check` accepts.
const SCHEMA: &str = "tsocc-sweep-baseline/v2";

/// The flags that pick the matrix, the outputs or the cache — all
/// meaningless next to `--check`, which takes its matrix from the
/// artifact and never opens the cache.
const WRITE_ONLY: [&str; 8] = [
    "--cores",
    "--scale",
    "--seed",
    "--out",
    "--cache-dir",
    "--no-cache",
    "--report",
    "--expect-all-hits",
];

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc sweep", ABOUT)
        .opt(
            "--cache-dir",
            "PATH",
            "content-addressed result store directory (default .tsocc-cache)",
        )
        .switch("--no-cache", "compute everything, touch no cache")
        .opt("--jobs", "N", "worker threads (0 = one per CPU)")
        .opt(
            "--report",
            "PATH",
            "tsocc-orch-report/v3 output path (per-job cache hits and wall times)",
        )
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
        .switch(
            "--expect-all-hits",
            "exit 3 unless every job was served from the cache",
        )
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
    let out_path = args.str("--out").unwrap_or("BENCH_sweep.json");
    let report_path = args.str("--report").unwrap_or("ORCH_report.json");

    let jobs: Vec<JobSpec> = baseline_matrix(scale, &core_counts)
        .into_iter()
        .map(|point| JobSpec {
            point,
            base_seed: seed,
        })
        .collect();
    let cache = open_cache(args);
    let report = execute(&jobs, args.usize("--jobs").unwrap_or(0), cache.as_ref());

    // No host field in the header either: every run of this matrix on
    // this code writes the same bytes, on any host.
    let doc = json::Object::new()
        .str("schema", SCHEMA)
        .str("bench", Benchmark::Fft.name())
        .str("scale", scale.name())
        .u64("base_seed", seed)
        .u64("points_total", report.rows.len() as u64)
        .raw(
            "points",
            json::array(report.rows.iter().map(|r| r.payload.clone())),
        )
        .build();
    std::fs::write(out_path, doc + "\n").expect("write sweep artifact");
    std::fs::write(report_path, report.to_json(cache.as_ref()) + "\n")
        .expect("write orchestrator report");

    let cached = report.cached_rows();
    let total = report.rows.len();
    let hits = match &cache {
        Some(cache) => format!(
            "{cached} cached, hit rate {:.0}%",
            cache.stats().hit_rate() * 100.0
        ),
        None => "cache disabled".to_string(),
    };
    eprintln!(
        "tsocc sweep: {total} jobs ({hits}), {:.2}s; wrote {out_path}, {report_path}",
        report.wall_seconds
    );
    if args.present("--expect-all-hits") && cached != total {
        eprintln!(
            "tsocc sweep: expected an all-hit run, but only {cached}/{total} jobs were served from the cache"
        );
        std::process::exit(3);
    }
}

/// Opens the store named by `--cache-dir` unless `--no-cache`; `None`
/// means compute-only.
fn open_cache(args: &ParsedArgs) -> Option<ResultCache> {
    if args.present("--no-cache") {
        return None;
    }
    let dir = args.str("--cache-dir").unwrap_or(".tsocc-cache");
    match ResultCache::open(dir) {
        Ok(cache) => Some(cache),
        Err(e) => args.fail(format!("cannot open cache at {dir}: {e}")),
    }
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
