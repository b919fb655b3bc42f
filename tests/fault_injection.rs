//! The fault-injection axis end to end: a hand-crafted `HoldMshr`
//! deadlock must produce an enriched [`RunError::Deadlock`] and a
//! structured [`HangReport`] whose wait-for cycle names the held line;
//! the report must survive a JSON round trip; and benign NoC jitter
//! must change latency without changing correctness or breaking the
//! bit-identity of the two steppers.

use tsocc::{
    FaultPlan, NocFault, ProtocolFault, RunError, RunStats, Stepper, System, SystemConfig,
};
use tsocc_bench::hang::{hang_report_json, parse_hang_report};
use tsocc_isa::{Asm, Program, Reg};
use tsocc_mem::{LineAddr, LineData};
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::litmus::{litmus_suite, run_litmus_faulted, FaultVerdict};
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

fn held_mshr_system(protocol: Protocol) -> System {
    let mut cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(protocol)
        .build()
        .expect("valid config");
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
    let mut sys = held_mshr_system(Protocol::Mesi);
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
    let mut sys = held_mshr_system(Protocol::Mesi);
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

#[test]
fn hang_report_round_trips_through_bench_json() {
    let mut sys = held_mshr_system(Protocol::TsoCc(TsoCcConfig::default()));
    sys.run(1_000_000).expect_err("held MSHR must deadlock");
    let report = sys.hang_report();
    let doc = hang_report_json(&report);
    let back = parse_hang_report(&doc).expect("report JSON must parse");
    assert_eq!(back, report);
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
    match run_litmus_faulted(mp, Protocol::Mesi, 4, 7, plan) {
        FaultVerdict::Hung { report, .. } => {
            assert_eq!(report.first_blocked_line(), Some(LINE_X));
        }
        other => panic!(
            "expected a hang, got {}",
            if other.detected() {
                "forbidden"
            } else {
                "clean"
            }
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
            let verdict = run_litmus_faulted(test, protocol, 8, 7, jitter);
            assert!(
                !verdict.detected(),
                "benign jitter flagged {name} on {}",
                protocol.name()
            );
        }
    }
}
