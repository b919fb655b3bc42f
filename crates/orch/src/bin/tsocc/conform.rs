//! `tsocc conform`: the conformance campaign (§4.3 grown into CI) —
//! runs a budgeted randomized N-thread litmus campaign against the
//! operational memory-model oracle and writes a JSON report.
//!
//! ```text
//! tsocc conform [--budget-ms N] [--seed N] [--jobs N]
//!               [--min-programs N] [--max-programs N]
//!               [--cores N] [--iters N] [--oracle tso|sc]
//!               [--all-configs] [--protocol NAME]... [--out PATH]
//! ```
//!
//! Defaults: 2000 ms budget, ≥ 500 programs, 3 threads per program,
//! MESI + TSO-CC-realistic(12,3), TSO oracle, `CONFORM_report.json`.
//! `--protocol` (repeatable, any `Protocol::from_name` display name,
//! e.g. `MESI-P2-G2`) replaces the default protocol list; the first use
//! clears it. `--protocol` and `--all-configs` are mutually exclusive.
//! `--oracle sc` deliberately strengthens the oracle to sequential
//! consistency — a TSO machine then *must* produce violations, which
//! demonstrates (and in CI smoke-tests) the catcher + shrinker end to
//! end.
//!
//! Exit status: nonzero iff violations were found under the TSO oracle
//! (under `--oracle sc` violations are the expected outcome and the
//! exit flips: zero iff at least one violation was caught and shrunk).

use std::time::Duration;

use tsocc_bench::cli::Cli;
use tsocc_bench::json;
use tsocc_conform::{litmus_text, op_count, run_campaign, CampaignOpts, GenConfig};
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::tso_model::ModelMode;

pub const ABOUT: &str = "budgeted randomized litmus campaign against the TSO/SC oracle";

fn parse_args(args: Vec<String>) -> (CampaignOpts, String) {
    let args = Cli::new("tsocc conform", ABOUT)
        .campaign_flags()
        .protocol_flags()
        .opt("--jobs", "N", "campaign worker threads (0 = one per CPU)")
        .opt("--min-programs", "N", "minimum programs to check")
        .opt("--max-programs", "N", "maximum programs to check")
        .opt("--cores", "N", "threads per generated program")
        .opt("--iters", "N", "simulator runs per (program, protocol)")
        .opt(
            "--oracle",
            "tso|sc",
            "memory-model oracle (sc injects a deliberate mismatch)",
        )
        .parse(args);
    let mut opts = CampaignOpts {
        budget: Duration::from_millis(2000),
        min_programs: 500,
        gen: GenConfig {
            threads: 3,
            ..GenConfig::default()
        },
        ..Default::default()
    };
    if let Some(ms) = args.u64("--budget-ms") {
        opts.budget = Duration::from_millis(ms);
    }
    if let Some(seed) = args.u64("--seed") {
        opts.seed = seed;
    }
    if let Some(workers) = args.usize("--jobs") {
        opts.workers = workers;
    }
    if let Some(n) = args.usize("--min-programs") {
        opts.min_programs = n;
    }
    if let Some(n) = args.usize("--max-programs") {
        opts.max_programs = n;
    }
    if let Some(n) = args.usize("--cores") {
        opts.gen.threads = n;
    }
    if let Some(n) = args.u64("--iters") {
        opts.iters_per_program = n;
    }
    opts.oracle = match args.str("--oracle") {
        None | Some("tso") => ModelMode::Tso,
        Some("sc") => ModelMode::Sc,
        Some(other) => args.fail(format!("--oracle must be tso or sc, got {other:?}")),
    };
    opts.protocols = args.protocols(vec![
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
    ]);
    let out = args
        .str("--out")
        .unwrap_or("CONFORM_report.json")
        .to_string();
    (opts, out)
}

pub fn main(args: Vec<String>) {
    let (opts, out_path) = parse_args(args);
    let report = run_campaign(&opts);
    eprintln!("{}", report.summary());

    let histogram = |h: &[u64]| json::array(h.iter().map(u64::to_string));
    let violations = report.violations.iter().map(|v| {
        let outcome = match &v.outcome {
            Some(o) => json::array(o.iter().map(u64::to_string)),
            None => "null".to_string(),
        };
        json::Object::new()
            .u64("program_index", v.program_index as u64)
            .u64("program_seed", v.program_seed)
            .str("protocol", &v.protocol)
            .raw("outcome", outcome)
            .str("error", v.error.as_deref().unwrap_or(""))
            .u64("original_ops", op_count(&v.program) as u64)
            .u64("shrunk_ops", op_count(&v.shrunk) as u64)
            .str("shrunk_litmus", &litmus_text(&v.shrunk))
            .build()
    });
    let doc = json::Object::new()
        .str("schema", "tsocc-conform-campaign/v1")
        .u64("seed", opts.seed)
        .u64("budget_ms", opts.budget.as_millis() as u64)
        .str(
            "oracle",
            match opts.oracle {
                ModelMode::Tso => "tso",
                ModelMode::Sc => "sc",
            },
        )
        .u64("gen_threads", opts.gen.threads as u64)
        .u64("gen_max_ops", opts.gen.max_ops as u64)
        .u64("gen_locations", opts.gen.locations as u64)
        .raw(
            "protocols",
            json::array(report.protocols.iter().map(|p| json::string(p))),
        )
        .u64("programs_checked", report.programs_checked as u64)
        .u64("programs_skipped_too_large", report.programs_skipped as u64)
        .u64("sim_runs", report.sim_runs)
        .u64("model_states_total", report.states_total)
        .u64("max_state_space", report.max_state_space as u64)
        .raw(
            "state_space_histogram_log2",
            histogram(&report.state_space_histogram),
        )
        .raw(
            "outcome_coverage_histogram_deciles",
            histogram(&report.coverage_histogram),
        )
        .u64("allowed_outcomes_total", report.allowed_outcomes_total)
        .u64("observed_outcomes_total", report.observed_outcomes_total)
        .u64("violations_total", report.violations_total)
        .raw("violations", json::array(violations))
        .f64("elapsed_seconds", report.elapsed.as_secs_f64())
        .build();
    std::fs::write(&out_path, doc + "\n").expect("write campaign report");
    eprintln!("wrote {out_path}");

    let failed = match opts.oracle {
        // Real oracle: any violation is a conformance bug.
        ModelMode::Tso => report.violations_total > 0,
        // Injected fault: the campaign must catch it and shrink small.
        ModelMode::Sc => !report.violations.iter().any(|v| op_count(&v.shrunk) <= 6),
    };
    if failed {
        std::process::exit(1);
    }
}
