//! Emits a machine-readable sweep baseline (`BENCH_sweep.json`): a
//! cores × protocol matrix with cycles and message counts per point,
//! plus serial-vs-parallel engine wall-clock so future PRs have a perf
//! trajectory to compare against.
//!
//! The matrix runs twice — once forced single-threaded, once on the
//! parallel engine — and the binary asserts the results are identical
//! before writing the artifact. A further **stepper-parity leg** then
//! re-runs the whole matrix under `Stepper::Reference` and asserts the
//! full `RunStats` and the final-memory fingerprint match the
//! event-driven results point for point, so the committed artifact is
//! always one both steppers reproduce bit-identically.
//!
//! Env: `TSOCC_SCALE` (tiny/small/full, default small like every
//! other sweep entry point), `TSOCC_SEED`, `TSOCC_THREADS`
//! (parallel-leg workers; default one per CPU), `TSOCC_SWEEP_CORES`
//! (comma-separated core counts, default `2,4,8,16,32,64,128`),
//! `TSOCC_OUT` (output path, default `BENCH_sweep.json`).
//!
//! `--check [PATH]` flips the binary into drift-check mode: instead of
//! writing an artifact, it loads the committed one (default
//! `BENCH_sweep.json`), re-runs the *same* matrix — scale, seed and
//! core counts come from the artifact, not the environment — and exits
//! nonzero if any **simulated** metric (cycles, instructions, messages,
//! flits, flit-hops, per-point seeds) differs. Wall-clock fields are
//! ignored: hosts differ, simulations must not. Flags parse through the
//! shared [`tsocc_bench::cli`] surface: `--help` documents them and
//! anything undeclared exits 2.

use std::time::Instant;

use tsocc::Stepper;
use tsocc_bench::cli::Cli;
use tsocc_bench::json::{self, Value};
use tsocc_bench::sweep::{baseline_matrix, run_points, run_points_with, SweepOpts};
use tsocc_workloads::{Benchmark, Scale};

/// Re-runs the committed artifact's matrix and diffs simulated metrics.
/// Returns the number of mismatches.
fn check_against(path: &str) -> usize {
    let doc = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed artifact {path}: {e}"));
    let doc = json::parse(&doc).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    let field = |v: &Value, key: &str| -> u64 {
        v.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("{path}: missing numeric field {key:?}"))
    };
    let scale = match doc.get("scale").and_then(Value::as_str) {
        Some("tiny") => Scale::Tiny,
        Some("small") => Scale::Small,
        Some("full") => Scale::Full,
        other => panic!("{path}: unknown scale {other:?}"),
    };
    let base_seed = field(&doc, "base_seed");
    let committed = doc
        .get("points")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{path}: missing points array"))
        .to_vec();
    // The artifact's matrix is (cores in first-appearance order) ×
    // paper configs — rebuilt through the same `baseline_matrix` the
    // writer uses.
    let mut core_counts: Vec<usize> = Vec::new();
    for p in &committed {
        let n = field(p, "n_cores") as usize;
        if !core_counts.contains(&n) {
            core_counts.push(n);
        }
    }
    let points = baseline_matrix(scale, &core_counts);
    assert_eq!(
        points.len(),
        committed.len(),
        "{path}: artifact has {} points, matrix reconstruction has {}",
        committed.len(),
        points.len()
    );
    eprintln!(
        "== drift check against {path}: {} points, scale {scale:?}, seed {base_seed} ==",
        points.len()
    );
    let results = run_points(&points, SweepOpts::from_env().threads, base_seed);
    let mut mismatches = 0usize;
    for (old, new) in committed.iter().zip(&results) {
        let sim_metrics = [
            ("seed", new.seed),
            ("cycles", new.stats.cycles),
            ("instructions", new.stats.instructions),
            ("msgs", new.stats.noc.total_messages()),
            ("flits", new.stats.total_flits()),
            ("flit_hops", new.stats.noc.flit_hops.get()),
        ];
        let id = format!("{}/{}x{}", new.bench, new.config, new.n_cores);
        let old_config = old.get("config").and_then(Value::as_str).unwrap_or("?");
        let old_bench = old.get("bench").and_then(Value::as_str).unwrap_or("?");
        if old_config != new.config
            || old_bench != new.bench
            || field(old, "n_cores") as usize != new.n_cores
        {
            eprintln!("MISMATCH {id}: committed row is {old_bench}/{old_config}");
            mismatches += 1;
            continue;
        }
        for (key, got) in sim_metrics {
            let want = field(old, key);
            if want != got {
                eprintln!("MISMATCH {id}.{key}: committed {want}, regenerated {got}");
                mismatches += 1;
            }
        }
        // The memory fingerprint is a simulated metric too, but older
        // artifacts predate it: only check it where committed.
        if let Some(want) = old.get("mem_fp").and_then(Value::as_u64) {
            if want != new.mem_fp {
                eprintln!(
                    "MISMATCH {id}.mem_fp: committed {want}, regenerated {}",
                    new.mem_fp
                );
                mismatches += 1;
            }
        }
    }
    mismatches
}

fn main() {
    let args = Cli::new(
        "sweep_baseline",
        "emit (or drift-check) the committed sweep baseline artifact",
    )
    .opt_default(
        "--check",
        "PATH",
        "drift-check against a committed artifact instead of writing one",
    )
    .parse();
    if args.present("--check") {
        let path = args.str("--check").unwrap_or("BENCH_sweep.json");
        let mismatches = check_against(path);
        if mismatches > 0 {
            eprintln!("{mismatches} simulated metric(s) drifted from {path}");
            std::process::exit(1);
        }
        eprintln!("all simulated metrics match {path}");
        return;
    }
    let opts = SweepOpts::from_env();
    let scale = opts.scale;
    let core_counts: Vec<usize> = std::env::var("TSOCC_SWEEP_CORES")
        .unwrap_or_else(|_| "2,4,8,16,32,64,128".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let out_path = std::env::var("TSOCC_OUT").unwrap_or_else(|_| "BENCH_sweep.json".to_string());

    let points = baseline_matrix(scale, &core_counts);
    assert!(
        points.len() >= 8,
        "baseline needs a >=8-point matrix, got {}",
        points.len()
    );

    eprintln!("== serial leg ({} points, 1 thread) ==", points.len());
    let t = Instant::now();
    let serial = run_points(&points, 1, opts.seed);
    let serial_wall = t.elapsed();

    eprintln!("== parallel leg ({} points) ==", points.len());
    let t = Instant::now();
    let parallel = run_points(&points, opts.threads, opts.seed);
    let parallel_wall = t.elapsed();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            (s.stats.cycles, s.stats.noc.total_messages()),
            (p.stats.cycles, p.stats.noc.total_messages()),
            "parallel sweep diverged from serial on {}/{}x{}",
            s.bench,
            s.config,
            s.n_cores,
        );
    }

    // Stepper-parity leg: the committed artifact must be one that both
    // steppers reproduce bit-identically — full `RunStats` (host-side
    // scheduler counters excluded by its `PartialEq`) and the
    // final-memory fingerprint, across the whole matrix.
    eprintln!(
        "== stepper parity leg: Reference ({} points) ==",
        points.len()
    );
    let reference = run_points_with(&points, opts.threads, opts.seed, Stepper::Reference);
    for (e, r) in serial.iter().zip(&reference) {
        let id = format!("{}/{}x{}", e.bench, e.config, e.n_cores);
        assert_eq!(
            e.stats, r.stats,
            "Reference stepper diverged from event-driven on {id}"
        );
        assert_eq!(
            e.mem_fp, r.mem_fp,
            "Reference stepper final memory diverged on {id}"
        );
    }

    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    // Aggregate throughput over the whole matrix (total simulated
    // cycles per total per-point wall time): the one number CI logs
    // surface so throughput regressions are visible at a glance.
    // Computed from the *serial* leg — parallel per-point walls are
    // inflated by cross-point contention and would make the metric
    // swing with the runner's core count.
    let total_cycles: u64 = serial.iter().map(|p| p.stats.cycles).sum();
    let total_wall: f64 = serial.iter().map(|p| p.wall.as_secs_f64()).sum();
    let aggregate_cps = total_cycles as f64 / total_wall.max(1e-9);
    let doc = json::Object::new()
        .str("schema", "tsocc-sweep-baseline/v1")
        .str("bench", Benchmark::Fft.name())
        .str("scale", &format!("{scale:?}").to_lowercase())
        .u64("base_seed", opts.seed)
        .u64(
            "host_cpus",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .u64("points_total", points.len() as u64)
        .f64("serial_wall_seconds", serial_wall.as_secs_f64())
        .f64("parallel_wall_seconds", parallel_wall.as_secs_f64())
        .f64("parallel_speedup", speedup)
        .f64("aggregate_sim_cycles_per_second", aggregate_cps)
        .str(
            "stepper_parity",
            "EventDriven == Reference (RunStats + memory fingerprint)",
        )
        .raw("points", json::array(parallel.iter().map(|p| p.to_json())))
        .build();
    std::fs::write(&out_path, doc + "\n").expect("write baseline artifact");
    eprintln!(
        "wrote {out_path}: {} points, serial {serial_wall:.2?} vs parallel {parallel_wall:.2?} ({speedup:.2}x)",
        points.len()
    );
    eprintln!("aggregate sim_cycles_per_second: {aggregate_cps:.0}");
}
