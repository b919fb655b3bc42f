//! Clean-protocol exhaustive runs: every protocol family must pass a
//! full 2-core enumeration of three store-buffer programs with zero
//! violations and realize exactly the TSO-allowed outcome set.

use tsocc_check::{check_model, pool_for_lines, CheckOpts};
use tsocc_coherence::FaultPlan;
use tsocc_mesi_coarse::MesiCoarseConfig;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::tso_model::ModelOp;

fn st(addr: u8, value: u64) -> ModelOp {
    ModelOp::Store { addr, value }
}

fn ld(addr: u8) -> ModelOp {
    ModelOp::Load { addr }
}

#[test]
fn every_protocol_family_is_clean_on_exhaustive_store_buffer_programs() {
    // Each program reaches the store buffer that the timed core and the
    // checker share:
    // - SB with both words on one cache line runs same-line conflict
    //   detection end to end;
    // - MP on two lines lets both stores miss at once, so a buffer that
    //   offers a store past its in-flight head reorders them;
    // - a thread that stores 1 then 2 to one word must load 2 from it:
    //   a buffer that forwards the oldest matching store loads 1.
    let sb = vec![vec![st(0, 1), ld(1)], vec![st(1, 1), ld(0)]];
    let mp = vec![vec![st(0, 1), st(1, 1)], vec![ld(1), ld(0)]];
    let forward = vec![vec![st(0, 1), st(0, 2), ld(0)], vec![ld(0)]];
    // Each program with its explored trees' (schedules, transitions,
    // sleep-blocked) totals: one for the full-vector MESI baseline,
    // which the coarse directory at its tightest paper point (P2, G2)
    // matches, and one for lazy TSO-CC. Any change to the exploration
    // order, the race detection, the sleep sets or the store buffer
    // moves them.
    let programs = [
        ("SB", sb, 1, [(5_376, 42_587, 3_544), (1_344, 12_347, 688)]),
        ("MP", mp, 2, [(402, 4_436, 763), (144, 2_113, 261)]),
        (
            "St x=1; St x=2; Ld x || Ld x",
            forward,
            1,
            [(891, 5_429, 292), (171, 1_460, 127)],
        ),
    ];
    for (name, program, lines, [mesi, tsocc]) in programs {
        let families = [
            (Protocol::Mesi, mesi),
            (Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)), mesi),
            (Protocol::TsoCc(TsoCcConfig::basic()), tsocc),
        ];
        let pool = pool_for_lines(lines);
        for (protocol, tree) in families {
            let what = format!("{name} on {}", protocol.name());
            let report = check_model(
                &protocol,
                FaultPlan::none(),
                &program,
                &pool,
                &CheckOpts::default(),
            )
            .unwrap();
            assert!(
                report.violations.is_empty(),
                "{what}: {:?}",
                report.violations
            );
            assert!(report.complete, "{what}: hit the schedule cap");
            assert_eq!(
                report.outcomes, report.allowed,
                "{what}: outcome set diverges from the TSO oracle"
            );
            assert_eq!(
                (report.schedules, report.transitions, report.sleep_blocked),
                tree,
                "{what}: the explored tree changed"
            );
        }
    }
}
