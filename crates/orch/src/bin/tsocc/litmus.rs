//! `tsocc litmus`: the §4.3 verification — runs the TSO litmus suite
//! against every paper protocol configuration, prints the outcome
//! histograms, and exits 1 on any forbidden outcome.
//!
//! ```text
//! tsocc litmus [--iters N]
//! ```

use tsocc_bench::cli::Cli;
use tsocc_protocols::Protocol;
use tsocc_workloads::{litmus_suite, run_litmus};

pub const ABOUT: &str = "run the TSO litmus suite on every paper configuration";

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc litmus", ABOUT)
        .opt(
            "--iters",
            "N",
            "iterations per (test, configuration) (default 200)",
        )
        .parse(args);
    let iters = args.u64("--iters").unwrap_or(200);
    let mut failures = 0u64;
    println!(
        "{:<16} {:<16} {:>6} {:>10} {:>8}  outcomes",
        "test", "config", "iters", "forbidden", "relaxed"
    );
    for protocol in Protocol::paper_configs() {
        for test in litmus_suite() {
            let report = run_litmus(&test, protocol, iters, 0xBEEF);
            failures += report.forbidden_count;
            println!(
                "{:<16} {:<16} {:>6} {:>10} {:>8}  {:?}",
                test.name,
                protocol.name(),
                report.iterations,
                report.forbidden_count,
                if report.relaxed_seen { "yes" } else { "-" },
                report
                    .outcomes
                    .iter()
                    .map(|(k, v)| format!("{k:?}x{v}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
        }
    }
    if failures == 0 {
        println!("\nTSO SATISFIED: no forbidden outcomes across all configurations.");
    } else {
        println!("\nTSO VIOLATED: {failures} forbidden outcomes!");
        std::process::exit(1);
    }
}
