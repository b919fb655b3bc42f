//! The fault-injection axis end to end: a hand-crafted `HoldMshr`
//! deadlock must produce an enriched [`RunError::Deadlock`] and a
//! structured [`HangReport`] whose wait-for cycle names the held line,
//! identically under both steppers, and a litmus run must report it as
//! a hang; every protocol mutation must be caught by the oracle its
//! matrix row pins, while benign NoC jitter stays clean; and jitter
//! must change latency without changing correctness or breaking the
//! bit-identity of the two steppers.

use tsocc::{
    FaultPlan, NocFault, ProtocolFault, RunError, RunStats, Stepper, System, SystemConfig,
};
use tsocc_conform::{run_campaign, CampaignOpts, GenConfig};
use tsocc_isa::{Asm, Program, Reg};
use tsocc_mem::{LineAddr, LineData};
use tsocc_mesi_coarse::MesiCoarseConfig;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::litmus::{litmus_suite, run_litmus};
use tsocc_workloads::{Benchmark, Scale};

/// The line of address `0x2000` under 64-byte lines.
const LINE_X: LineAddr = LineAddr::new(0x80);

/// Core 0 touches `0x2000` (and must wedge when its MSHR is held);
/// core 1 idles.
fn wedge_programs() -> Vec<Program> {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x2000);
    a.halt();
    let mut b = Asm::new();
    b.halt();
    vec![a.finish(), b.finish()]
}

fn held_mshr_system(protocol: Protocol, stepper: Stepper) -> System {
    let mut cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(protocol)
        .build()
        .expect("valid config");
    cfg.stepper = stepper;
    cfg.faults = FaultPlan {
        protocol: Some(ProtocolFault::HoldMshr {
            core: 0,
            line: LINE_X,
        }),
        ..FaultPlan::none()
    };
    System::new(cfg, wedge_programs())
}

#[test]
fn held_mshr_deadlocks_with_enriched_error() {
    let mut sys = held_mshr_system(Protocol::Mesi, Stepper::EventDriven);
    let err = sys.run(1_000_000).expect_err("held MSHR must deadlock");
    let RunError::Deadlock {
        cores_unfinished,
        busy_controllers,
        first_blocked_line,
        ..
    } = &err
    else {
        panic!("expected a deadlock, got {err}");
    };
    assert_eq!(*cores_unfinished, 1);
    assert!(*busy_controllers >= 1);
    assert_eq!(*first_blocked_line, Some(LINE_X));
    // The Display form carries the outstanding-work counters and the
    // blocked line so a bare `{e}` in a driver is already diagnostic.
    let msg = err.to_string();
    assert!(msg.contains("busy controllers"), "{msg}");
    assert!(msg.contains("L0x80"), "{msg}");
}

#[test]
fn hang_report_names_the_held_line() {
    let mut sys = held_mshr_system(Protocol::Mesi, Stepper::EventDriven);
    sys.run(1_000_000).expect_err("held MSHR must deadlock");
    let report = sys.hang_report();
    assert_eq!(report.cores_unfinished, 1);
    assert_eq!(report.first_blocked_line(), Some(LINE_X));
    // Core 0's L1 shows the held MSHR entry...
    let l1 = report
        .l1s
        .iter()
        .find(|h| h.core == 0)
        .expect("L1#0 must have outstanding work");
    assert!(l1.probe.mshr_lines.contains(&LINE_X));
    // ...and the wait-for graph has an edge from it, naming the line.
    assert!(report
        .edges
        .iter()
        .any(|e| e.from == "L1#0" && e.line == LINE_X));
    assert!(report.summary().contains("L0x80"), "{}", report.summary());
}

/// A deadlock that leaves controllers busy, under both steppers: the
/// error, the hang report and the statistics must be equal, and the
/// error's counts must be the report's.
#[test]
fn held_mshr_deadlock_is_identical_across_steppers() {
    for protocol in [Protocol::Mesi, Protocol::TsoCc(TsoCcConfig::default())] {
        let run = |stepper| {
            let mut sys = held_mshr_system(protocol, stepper);
            let err = sys.run(1_000_000).expect_err("held MSHR must deadlock");
            (err, sys.hang_report(), sys.collect_stats())
        };
        let (err, report, stats) = run(Stepper::EventDriven);
        let (ref_err, ref_report, ref_stats) = run(Stepper::Reference);
        let name = protocol.name();
        assert_eq!(err, ref_err, "{name}");
        assert_eq!(report, ref_report, "{name}");
        assert_eq!(stats, ref_stats, "{name}");
        let RunError::Deadlock {
            cores_unfinished,
            busy_controllers,
            first_blocked_line,
            ..
        } = err
        else {
            panic!("{name}: expected a deadlock, got {err}");
        };
        assert_eq!(
            (cores_unfinished, busy_controllers, first_blocked_line),
            (
                report.cores_unfinished,
                report.busy_controllers,
                report.first_blocked_line()
            ),
            "{name}"
        );
        assert!(busy_controllers >= 1, "{name}: {err}");
    }
}

#[test]
fn litmus_flags_the_held_mshr_as_hung() {
    let suite = litmus_suite();
    let mp = suite.iter().find(|t| t.name == "MP").unwrap();
    let plan = FaultPlan {
        protocol: Some(ProtocolFault::HoldMshr {
            core: 0,
            line: LINE_X,
        }),
        ..FaultPlan::none()
    };
    match run_litmus(mp, Protocol::Mesi, 4, 7, plan) {
        Err((_, report)) => {
            assert_eq!(report.first_blocked_line(), Some(LINE_X));
        }
        Ok(report) => panic!(
            "expected a hang, got {}/{} iterations forbidden",
            report.forbidden_count, report.iterations
        ),
    }
}

/// Runs one small benchmark under `stepper` with the given plan.
fn run_fft(plan: FaultPlan, stepper: Stepper) -> (RunStats, Vec<(LineAddr, LineData)>) {
    let workload = Benchmark::Fft.build(4, Scale::Tiny, 7);
    let mut cfg = SystemConfig::builder()
        .small()
        .cores(4)
        .protocol(Protocol::TsoCc(TsoCcConfig::default()))
        .build()
        .expect("valid config");
    cfg.stepper = stepper;
    cfg.faults = plan;
    let mut sys = System::new(cfg, workload.programs.clone());
    let stats = sys.run(5_000_000).expect("benign plan must complete");
    (stats, sys.memory_image())
}

#[test]
fn noc_jitter_changes_latency_not_results() {
    let jitter = FaultPlan {
        seed: 11,
        noc: Some(NocFault {
            extra_delay_max: 7,
            vnet: None,
        }),
        ..FaultPlan::none()
    };
    let (clean, clean_mem) = run_fft(FaultPlan::none(), Stepper::EventDriven);
    let (jittered, jittered_mem) = run_fft(jitter, Stepper::EventDriven);
    // Same answers, different timing: the jitter really fired.
    assert_eq!(clean_mem, jittered_mem);
    assert_ne!(clean.cycles, jittered.cycles);

    // The jittered run stays bit-identical across both steppers:
    // injected delays ride the deterministic arrival path.
    let (reference, ref_mem) = run_fft(jitter, Stepper::Reference);
    assert_eq!(jittered, reference);
    assert_eq!(jittered_mem, ref_mem);
}

#[test]
fn noc_jitter_keeps_litmus_clean() {
    let jitter = FaultPlan {
        seed: 3,
        noc: Some(NocFault {
            extra_delay_max: 5,
            vnet: None,
        }),
        ..FaultPlan::none()
    };
    let suite = litmus_suite();
    for name in ["SB", "MP", "MP+rounds", "IRIW"] {
        let test = suite.iter().find(|t| t.name == name).unwrap();
        for protocol in [Protocol::Mesi, Protocol::TsoCc(TsoCcConfig::default())] {
            match run_litmus(test, protocol, 8, 7, jitter) {
                Ok(report) => assert!(
                    report.passed(),
                    "benign jitter flagged {name} on {}",
                    protocol.name()
                ),
                Err((e, hang)) => panic!(
                    "benign jitter hung {name} on {}: {e}; {}",
                    protocol.name(),
                    hang.summary()
                ),
            }
        }
    }
}

/// The oracle that flags a fault plan, and where.
#[derive(Debug, PartialEq)]
enum Caught {
    /// The named litmus test is the first in the suite to hang, and
    /// the hang report's first blocked line is the given one.
    Hang(&'static str, Option<LineAddr>),
    /// The named litmus test is the first in the suite to produce a
    /// TSO-forbidden outcome.
    Forbidden(&'static str),
    /// The conformance campaign finds a program whose simulated run
    /// falls outside the enumerated TSO model.
    Conform,
    /// Nothing: every litmus test (or every campaign program) stays
    /// clean.
    Clean,
}

/// One leg of the fault matrix: a plan, the protocol it targets, and
/// the oracle that must flag it.
struct Row {
    name: &'static str,
    protocol: Protocol,
    plan: FaultPlan,
    caught: Caught,
}

/// Seed of every plan, litmus run and campaign in the matrix.
const SEED: u64 = 7;

fn matrix() -> Vec<Row> {
    let mutation = |fault| FaultPlan {
        seed: SEED,
        noc: None,
        protocol: Some(fault),
    };
    let jitter = FaultPlan {
        seed: SEED,
        noc: Some(NocFault {
            extra_delay_max: 7,
            vnet: None,
        }),
        protocol: None,
    };
    let hold_mshr = mutation(ProtocolFault::HoldMshr {
        core: 0,
        line: LINE_X,
    });
    let corrupt_sharers = mutation(ProtocolFault::CorruptSharers { tile: 0 });
    // A 1-bit timestamp source wraps on every write, so the faulted
    // core hits the (skipped) reset path constantly; max-accesses of 2
    // forces re-fetches through the acquire check every other read,
    // where the skipped self-invalidation becomes an observable stale
    // read. Wider configs hide the mutation behind cache hits.
    let tsocc_tiny_ts = Protocol::TsoCc(TsoCcConfig {
        max_acc: 2,
        ..TsoCcConfig::realistic(1, 0)
    });
    let tsocc = Protocol::TsoCc(TsoCcConfig::default());
    vec![
        // Dropped invalidation ack: the writer's miss never completes.
        Row {
            name: "drop-inv-ack",
            protocol: Protocol::Mesi,
            plan: mutation(ProtocolFault::DropInvAck { core: 1 }),
            caught: Caught::Hang("SB", Some(LINE_X)),
        },
        // Corrupted sharer set: one L1 keeps a stale copy of the data
        // line. Exercised on both the full-vector and the
        // coarse-vector directory (the fan-out seam is shared).
        Row {
            name: "corrupt-sharers",
            protocol: Protocol::Mesi,
            plan: corrupt_sharers,
            caught: Caught::Forbidden("SB+mfences"),
        },
        Row {
            name: "corrupt-sharers-coarse",
            protocol: Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)),
            plan: corrupt_sharers,
            caught: Caught::Forbidden("SB+mfences"),
        },
        // The same corruption under the conformance oracle: random
        // programs checked against the enumerated TSO model, proving
        // the campaign's detector also has teeth.
        Row {
            name: "corrupt-sharers-conform",
            protocol: Protocol::Mesi,
            plan: corrupt_sharers,
            caught: Caught::Conform,
        },
        // Silently wrapped timestamp source: acquire checks in remote
        // L1s stop self-invalidating, so stale reads survive past the
        // point TSO allows. Only the two-round `MP+rounds` litmus test
        // can see it — this row is why that test exists.
        Row {
            name: "skip-ts-reset",
            protocol: tsocc_tiny_ts,
            plan: mutation(ProtocolFault::SkipTsReset { core: 0 }),
            caught: Caught::Forbidden("MP+rounds"),
        },
        // Held MSHR: the hand-crafted deadlock, on both protocols.
        Row {
            name: "hold-mshr",
            protocol: Protocol::Mesi,
            plan: hold_mshr,
            caught: Caught::Hang("SB", Some(LINE_X)),
        },
        Row {
            name: "hold-mshr-tsocc",
            protocol: tsocc,
            plan: hold_mshr,
            caught: Caught::Hang("SB", Some(LINE_X)),
        },
        // Benign NoC jitter: latency changes, correctness must not.
        Row {
            name: "noc-jitter-benign",
            protocol: Protocol::Mesi,
            plan: jitter,
            caught: Caught::Clean,
        },
        Row {
            name: "noc-jitter-benign-tsocc",
            protocol: tsocc,
            plan: jitter,
            caught: Caught::Clean,
        },
    ]
}

/// Walks the litmus suite in order, 8 iterations per test, and names
/// the first test that flags `plan`, with a line of detail.
fn litmus_oracle(protocol: Protocol, plan: FaultPlan) -> (Caught, String) {
    let suite = litmus_suite();
    for test in &suite {
        match run_litmus(test, protocol, 8, SEED, plan) {
            Err((e, hang)) => {
                let detail = format!("{} hung: {e}; {}", test.name, hang.summary());
                return (Caught::Hang(test.name, hang.first_blocked_line()), detail);
            }
            Ok(report) if report.forbidden_count > 0 => {
                let detail = format!(
                    "{}: {}/{} iterations forbidden",
                    test.name, report.forbidden_count, report.iterations
                );
                return (Caught::Forbidden(test.name), detail);
            }
            Ok(_) => {}
        }
    }
    (
        Caught::Clean,
        format!("all {} litmus tests clean", suite.len()),
    )
}

/// Checks the first 60 generated two-thread programs under `plan`
/// against the enumerated TSO model. The programs are longer than the
/// campaign default so a faulted core accumulates enough accesses for
/// the mutation to matter within one program.
fn conform_oracle(protocol: Protocol, plan: FaultPlan) -> (Caught, String) {
    let report = run_campaign(&CampaignOpts {
        seed: SEED,
        min_programs: 60,
        max_programs: 60,
        protocols: vec![protocol],
        gen: GenConfig {
            threads: 2,
            min_ops: 4,
            max_ops: 8,
            ..GenConfig::default()
        },
        max_violations: 1,
        faults: plan,
        ..CampaignOpts::default()
    });
    let caught = if report.violations_total > 0 {
        Caught::Conform
    } else {
        Caught::Clean
    };
    (caught, report.summary())
}

#[test]
fn fault_matrix_pins_the_oracle_that_catches_each_leg() {
    for row in matrix() {
        let (caught, detail) = match row.caught {
            Caught::Conform => conform_oracle(row.protocol, row.plan),
            _ => litmus_oracle(row.protocol, row.plan),
        };
        assert_eq!(
            caught,
            row.caught,
            "{} on {}: {detail}",
            row.name,
            row.protocol.name()
        );
    }
}
