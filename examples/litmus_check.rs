//! Litmus-test verification (paper §4.3) in miniature.
//!
//! Runs the TSO litmus suite against the MESI baseline and the best
//! TSO-CC configuration, printing the outcome histograms. No forbidden
//! outcome may ever appear; the SB test should show its TSO-allowed
//! `[0, 0]` relaxation at least once, proving the write buffer really
//! reorders.
//!
//! Run with: `cargo run --release --example litmus_check`
//! (The full sweep over all seven configurations is
//! `cargo run --release -p tsocc-orch --bin tsocc -- litmus`.)

use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::{litmus_suite, run_litmus};

fn main() {
    let protocols = [
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
    ];
    let iters = 60;
    let mut all_passed = true;
    for protocol in protocols {
        println!("== {} ==", protocol.name());
        for test in litmus_suite() {
            let report = run_litmus(&test, protocol, iters, 0x5EED);
            let verdict = if report.passed() {
                "ok"
            } else {
                "FORBIDDEN OUTCOME"
            };
            all_passed &= report.passed();
            println!(
                "  {:<16} {:<18} outcomes: {}",
                test.name,
                verdict,
                report
                    .outcomes
                    .iter()
                    .map(|(k, v)| format!("{k:?}x{v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
    assert!(all_passed, "a forbidden outcome was observed");
    println!("\nAll litmus tests satisfied TSO.");
}
