//! Clean-protocol exhaustive runs: every protocol family must pass a
//! full 2-core/1-line store-buffering enumeration with zero violations
//! and realize exactly the TSO-allowed outcome set.

use tsocc_check::{check_model, pool_for_lines, CheckOpts};
use tsocc_coherence::FaultPlan;
use tsocc_mesi_coarse::MesiCoarseConfig;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::tso_model::{ModelOp, ModelProgram};

fn sb() -> ModelProgram {
    let st = |addr, value| ModelOp::Store { addr, value };
    let ld = |addr| ModelOp::Load { addr };
    vec![vec![st(0, 1), ld(1)], vec![st(1, 1), ld(0)]]
}

#[test]
fn every_protocol_family_is_clean_on_exhaustive_sb() {
    // One representative per family: the full-vector MESI baseline,
    // the coarse directory at its tightest paper point (P2, G2), and
    // lazy TSO-CC. Both words of the pool share one cache line, so the
    // run exercises same-line conflict detection end to end. Each
    // carries the explored tree's (schedules, transitions,
    // sleep-blocked) totals: any change to the exploration order, the
    // race detection or the sleep sets moves them.
    let families = [
        (Protocol::Mesi, (5_376, 42_587, 3_544)),
        (
            Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)),
            (5_376, 42_587, 3_544),
        ),
        (Protocol::TsoCc(TsoCcConfig::basic()), (1_344, 12_347, 688)),
    ];
    let pool = pool_for_lines(1);
    for (protocol, tree) in families {
        let report = check_model(
            &protocol,
            FaultPlan::none(),
            &sb(),
            &pool,
            &CheckOpts::default(),
        )
        .unwrap();
        assert!(report.complete, "{}: hit the schedule cap", protocol.name());
        assert!(
            report.violations.is_empty(),
            "{}: {:?}",
            protocol.name(),
            report.violations
        );
        assert_eq!(
            report.outcomes,
            report.allowed,
            "{}: outcome set diverges from the TSO oracle",
            protocol.name()
        );
        assert_eq!(
            (report.schedules, report.transitions, report.sleep_blocked),
            tree,
            "{}: the explored tree changed",
            protocol.name()
        );
    }
}
