//! Systematic litmus sweep with a machine-checked oracle.
//!
//! diy (the tool the paper uses, §4.3) enumerates litmus shapes
//! systematically and derives their verdicts from the x86-TSO model.
//! This test does the same end-to-end: every generated two-thread
//! program is (1) run through the exhaustive operational TSO reference
//! model to compute its exact allowed-outcome set, then (2) executed on
//! the full simulator repeatedly under randomized timing — every
//! observed outcome must be in the allowed set.

use tsocc::FaultPlan;
use tsocc_conform::{run_litmus, LitmusTest};
use tsocc_proto::{TsParams, TsoCcConfig};
use tsocc_protocols::Protocol;
use tsocc_workloads::tso_model::generate_two_thread_programs;

/// Distinct cache lines for the model's two locations. (The campaign's
/// default pool adds same-line words; the systematic family keeps the
/// historical two-line layout.)
const ADDRS: [u64; 2] = [0x2000, 0x2040];

/// Runs every `stride`-th generated program `iters` times through the
/// litmus suite's runner: compiled and judged exactly as the suite's
/// loop-free shapes are.
fn sweep(protocol: Protocol, ops_per_thread: usize, iters: u64, stride: usize) {
    let programs = generate_two_thread_programs(ops_per_thread);
    for (pi, program) in programs.iter().enumerate().step_by(stride) {
        let test = LitmusTest::model("generated", program, &ADDRS);
        let report = run_litmus(&test, protocol, iters, pi as u64, FaultPlan::none())
            .unwrap_or_else(|(e, hang)| {
                panic!(
                    "program {pi} under {}: {e}; {}",
                    protocol.name(),
                    hang.summary()
                )
            });
        assert_eq!(
            report.forbidden_count,
            0,
            "program {pi} ({program:?}) under {}: TSO-forbidden outcomes in {:?} \
             (allowed: {:?})",
            protocol.name(),
            report.outcomes,
            test.allowed
        );
    }
}

#[test]
fn one_op_threads_exhaustive() {
    // All 9 one-op-per-thread programs, every protocol, many timings.
    for protocol in Protocol::paper_configs() {
        sweep(protocol, 1, 6, 1);
    }
}

#[test]
fn two_op_threads_sampled_on_key_configs() {
    // 280 two-op programs; sample every 5th on the headline configs
    // and a reset-stress config.
    let configs = [
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
        Protocol::TsoCc(TsoCcConfig::basic()),
        Protocol::TsoCc(TsoCcConfig {
            write_ts: Some(TsParams {
                ts_bits: 4,
                write_group_bits: 0,
            }),
            ..TsoCcConfig::realistic(12, 3)
        }),
    ];
    for protocol in configs {
        sweep(protocol, 2, 3, 5);
    }
}
