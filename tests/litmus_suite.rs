//! §4.3 verification: the full TSO litmus suite against every protocol
//! configuration, plus a stress configuration with 4-bit timestamps
//! that forces frequent timestamp resets and epoch wraparound.

use tsocc::FaultPlan;
use tsocc_conform::{litmus_suite, run_litmus, LitmusReport, LitmusTest};
use tsocc_mesi_coarse::MesiCoarseConfig;
use tsocc_proto::{TsParams, TsoCcConfig};
use tsocc_protocols::Protocol;

/// [`run_litmus`] on the healthy simulator; a hung iteration fails the
/// test with the machine's hang diagnosis.
fn run(test: &LitmusTest, protocol: Protocol, iters: u64, seed: u64) -> LitmusReport {
    run_litmus(test, protocol, iters, seed, FaultPlan::none()).unwrap_or_else(|(e, hang)| {
        panic!(
            "{} under {} hung: {e}; {}",
            test.name,
            protocol.name(),
            hang.summary()
        )
    })
}

fn stress_configs() -> Vec<Protocol> {
    let mut configs = Protocol::sweep_configs();
    // A one-pointer, two-core-group directory: every second sharer
    // collapses the set to coarse groups, so invalidation broadcasts
    // constantly over-approximate.
    configs.push(Protocol::MesiCoarse(MesiCoarseConfig::new(1, 2)));
    // 4-bit timestamps with write-group 1: a reset every 15 writes —
    // the §3.5 reset/epoch machinery fires constantly.
    configs.push(Protocol::TsoCc(TsoCcConfig {
        write_ts: Some(TsParams {
            ts_bits: 4,
            write_group_bits: 0,
        }),
        ..TsoCcConfig::realistic(12, 3)
    }));
    // 4-bit timestamps with grouping.
    configs.push(Protocol::TsoCc(TsoCcConfig {
        write_ts: Some(TsParams {
            ts_bits: 4,
            write_group_bits: 2,
        }),
        ..TsoCcConfig::realistic(12, 3)
    }));
    configs
}

#[test]
fn no_forbidden_outcomes_under_any_configuration() {
    let iters = 25;
    for protocol in stress_configs() {
        for test in litmus_suite() {
            let report = run(&test, protocol, iters, 0xFACE);
            assert_eq!(
                report.forbidden_count,
                0,
                "{} under {} produced a forbidden outcome: {:?}",
                test.name,
                protocol.name(),
                report.outcomes
            );
            assert_eq!(report.iterations, iters);
        }
    }
}

#[test]
fn store_buffer_relaxation_is_visible() {
    // The TSO-allowed SB outcome [0,0] must actually appear — proof
    // that the write buffer relaxes w->r like real TSO hardware.
    let suite = litmus_suite();
    let sb = suite.iter().find(|t| t.name == "SB").expect("SB present");
    for protocol in [
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
        Protocol::TsoCc(TsoCcConfig::basic()),
    ] {
        let report = run(sb, protocol, 60, 0xAB);
        assert!(
            report.relaxed_seen,
            "{}: SB never showed the relaxed [0,0] outcome: {:?}",
            protocol.name(),
            report.outcomes
        );
    }
}

#[test]
fn fences_restore_sequential_consistency_for_sb() {
    let suite = litmus_suite();
    let sbf = suite
        .iter()
        .find(|t| t.name == "SB+mfences")
        .expect("present");
    for protocol in Protocol::paper_configs() {
        let report = run(sbf, protocol, 40, 0xCD);
        assert!(report.passed(), "{}", protocol.name());
        // The [0,0] outcome must be absent entirely.
        assert!(
            !report.outcomes.keys().any(|o| o == &vec![0, 0]),
            "{}: fenced SB still reordered",
            protocol.name()
        );
    }
}

#[test]
fn message_passing_liveness_with_spinning_consumer() {
    // The paper's Figure 1 with a real spin: termination itself is the
    // write-propagation guarantee (§3.1).
    let suite = litmus_suite();
    let mp = suite
        .iter()
        .find(|t| t.name == "MP+spin (Fig.1)")
        .expect("present");
    for protocol in stress_configs() {
        let report = run(mp, protocol, 25, 0xEF);
        assert!(report.passed(), "{}", protocol.name());
        // Every iteration the consumer must have seen data = 7.
        for outcome in report.outcomes.keys() {
            assert_eq!(outcome[1], 7, "{}: stale data read", protocol.name());
        }
    }
}
