use tsocc_isa::{Asm, Program, Reg};
use tsocc_mem::Addr;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;

use super::*;
use crate::config::{Stepper, SystemConfig};

fn all_protocols() -> Vec<Protocol> {
    Protocol::paper_configs()
}

fn run_programs(protocol: Protocol, programs: Vec<Program>) -> (System, RunStats) {
    let n = programs.len().max(2);
    let cfg = SystemConfig::builder()
        .small()
        .cores(n)
        .protocol(protocol)
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, programs);
    let stats = sys
        .run(2_000_000)
        .unwrap_or_else(|e| panic!("{}: {e}", protocol.name()));
    (sys, stats)
}

#[test]
fn single_core_store_load_roundtrip_all_protocols() {
    for protocol in all_protocols() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 1234);
        a.store_abs(Reg::R1, 0x4000);
        a.load_abs(Reg::R2, 0x4000);
        a.halt();
        let (sys, _) = run_programs(protocol, vec![a.finish()]);
        assert_eq!(
            sys.core(0).thread().reg(Reg::R2),
            1234,
            "{}",
            protocol.name()
        );
    }
}

#[test]
fn producer_consumer_flag_handshake_all_protocols() {
    // The paper's Figure 1: proc A writes data then flag; proc B spins
    // on flag then must see data (write propagation + r→r order).
    let data = 0x8000u64;
    let flag = 0x8040u64; // different line
    for protocol in all_protocols() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 77);
        a.store_abs(Reg::R1, data); // a1
        a.movi(Reg::R2, 1);
        a.store_abs(Reg::R2, flag); // a2
        a.halt();

        let mut b = Asm::new();
        let spin = b.new_label();
        b.bind(spin);
        b.load_abs(Reg::R1, flag); // b1
        b.beq(Reg::R1, Reg::R0, spin);
        b.load_abs(Reg::R2, data); // b2
        b.halt();

        let (sys, _) = run_programs(protocol, vec![a.finish(), b.finish()]);
        assert_eq!(
            sys.core(1).thread().reg(Reg::R2),
            77,
            "{}: consumer must observe data once flag is visible",
            protocol.name()
        );
    }
}

#[test]
fn rmw_mutual_exclusion_counter_all_protocols() {
    // Four cores each fetch-add the same counter 50 times; the final
    // value must be exactly 200 (RMW atomicity at the L1).
    let counter = 0x9000u64;
    for protocol in all_protocols() {
        let make = || {
            let mut a = Asm::new();
            a.movi(Reg::R1, 1);
            a.movi(Reg::R2, 0);
            let top = a.new_label();
            a.bind(top);
            a.fetch_add(Reg::R3, Reg::R0, counter, Reg::R1);
            a.addi(Reg::R2, Reg::R2, 1);
            a.blt_imm(Reg::R2, 50, top);
            a.halt();
            a.finish()
        };
        let programs = vec![make(), make(), make(), make()];
        let (sys, _) = run_programs(protocol, programs);
        // Read the final value coherently: one more program would be
        // overkill; instead check the sum of returned old values.
        // The largest old value any core saw must be 199 and the
        // counter in memory/caches is 200. We verify via a 5th-core
        // read in other tests; here check monotonic outcome per core.
        let mut max_old = 0;
        for i in 0..4 {
            max_old = max_old.max(sys.core(i).thread().reg(Reg::R3));
        }
        assert_eq!(max_old, 199, "{}", protocol.name());
    }
}

#[test]
fn writes_migrate_between_cores_all_protocols() {
    // Core 0 writes X, signals; core 1 then writes X (ownership
    // transfer), signals; core 0 reads X back.
    let x = 0xa000u64;
    let f1 = 0xa040u64;
    let f2 = 0xa080u64;
    for protocol in all_protocols() {
        let mut a = Asm::new();
        a.movi(Reg::R1, 10);
        a.store_abs(Reg::R1, x);
        a.movi(Reg::R1, 1);
        a.store_abs(Reg::R1, f1);
        let spin = a.new_label();
        a.bind(spin);
        a.load_abs(Reg::R2, f2);
        a.beq(Reg::R2, Reg::R0, spin);
        a.load_abs(Reg::R3, x);
        a.halt();

        let mut b = Asm::new();
        let spin = b.new_label();
        b.bind(spin);
        b.load_abs(Reg::R2, f1);
        b.beq(Reg::R2, Reg::R0, spin);
        b.load_abs(Reg::R4, x);
        b.movi(Reg::R1, 20);
        b.store_abs(Reg::R1, x);
        b.movi(Reg::R1, 1);
        b.store_abs(Reg::R1, f2);
        b.halt();

        let (sys, _) = run_programs(protocol, vec![a.finish(), b.finish()]);
        assert_eq!(sys.core(1).thread().reg(Reg::R4), 10, "{}", protocol.name());
        assert_eq!(
            sys.core(0).thread().reg(Reg::R3),
            20,
            "{}: core 0 must see core 1's write",
            protocol.name()
        );
    }
}

#[test]
fn capacity_evictions_preserve_data_all_protocols() {
    // Write more lines than the tiny L1 (16 lines) and L2 (64 lines)
    // can hold, then read them all back.
    for protocol in all_protocols() {
        let n_lines = 200u64;
        let base = 0x10000u64;
        let mut a = Asm::new();
        // for i in 0..n: mem[base + i*64] = i + 1
        a.movi(Reg::R1, 0);
        let wr = a.new_label();
        a.bind(wr);
        a.muli(Reg::R2, Reg::R1, 64);
        a.addi(Reg::R2, Reg::R2, base);
        a.addi(Reg::R3, Reg::R1, 1);
        a.store(Reg::R3, Reg::R2, 0);
        a.addi(Reg::R1, Reg::R1, 1);
        a.blt_imm(Reg::R1, n_lines, wr);
        // Read back and accumulate into R5.
        a.movi(Reg::R1, 0);
        a.movi(Reg::R5, 0);
        let rd = a.new_label();
        a.bind(rd);
        a.muli(Reg::R2, Reg::R1, 64);
        a.addi(Reg::R2, Reg::R2, base);
        a.load(Reg::R4, Reg::R2, 0);
        a.add(Reg::R5, Reg::R5, Reg::R4);
        a.addi(Reg::R1, Reg::R1, 1);
        a.blt_imm(Reg::R1, n_lines, rd);
        a.halt();

        let (sys, stats) = run_programs(protocol, vec![a.finish()]);
        let expected: u64 = (1..=n_lines).sum();
        assert_eq!(
            sys.core(0).thread().reg(Reg::R5),
            expected,
            "{}",
            protocol.name()
        );
        assert!(
            stats.l2.writebacks.get() > 0,
            "{}: evictions must occur",
            protocol.name()
        );
    }
}

#[test]
fn fence_orders_and_self_invalidates() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 5);
    a.store_abs(Reg::R1, 0x4000);
    a.fence();
    a.load_abs(Reg::R2, 0x4000);
    a.halt();
    let (sys, stats) = run_programs(
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
        vec![a.finish()],
    );
    assert_eq!(sys.core(0).thread().reg(Reg::R2), 5);
    assert_eq!(
        stats.l1.selfinv_events[tsocc_coherence::SelfInvCause::Fence.index()].get(),
        1
    );
}

#[test]
fn shared_reads_expire_after_max_acc() {
    // Core 1 takes a Shared copy and reads it many times; the access
    // counter must force re-requests (read_miss_shared > 0).
    let x = 0xb000u64;
    let stop = 0xb040u64;
    let mut writer = Asm::new();
    writer.movi(Reg::R1, 1);
    writer.store_abs(Reg::R1, x);
    // Wait for the reader to finish, then stop.
    let spin = writer.new_label();
    writer.bind(spin);
    writer.load_abs(Reg::R2, stop);
    writer.beq(Reg::R2, Reg::R0, spin);
    writer.halt();

    let mut reader = Asm::new();
    // Force the line to Shared: read after the writer owned it.
    reader.delay(400);
    reader.movi(Reg::R3, 0);
    let top = reader.new_label();
    reader.bind(top);
    reader.load_abs(Reg::R1, x);
    reader.addi(Reg::R3, Reg::R3, 1);
    reader.blt_imm(Reg::R3, 200, top);
    reader.movi(Reg::R1, 1);
    reader.store_abs(Reg::R1, stop);
    reader.halt();

    let (_, stats) = run_programs(
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
        vec![writer.finish(), reader.finish()],
    );
    assert!(
        stats.l1.read_miss_shared.get() > 5,
        "expired shared reads: {}",
        stats.l1.read_miss_shared.get()
    );
    assert!(stats.l1.read_hit_shared.get() > 100);
}

#[test]
fn deterministic_across_runs() {
    for protocol in [Protocol::Mesi, Protocol::TsoCc(TsoCcConfig::default())] {
        let build = || {
            let mut a = Asm::new();
            a.rand_delay(50);
            a.movi(Reg::R1, 3);
            a.fetch_add(Reg::R2, Reg::R0, 0xc000, Reg::R1);
            a.halt();
            a.finish()
        };
        let (_, s1) = run_programs(protocol, vec![build(), build()]);
        let (_, s2) = run_programs(protocol, vec![build(), build()]);
        assert_eq!(s1.cycles, s2.cycles, "{}", protocol.name());
        assert_eq!(s1.total_flits(), s2.total_flits(), "{}", protocol.name());
    }
}

#[test]
fn mesi_never_counts_shared_expiry_misses() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.store_abs(Reg::R1, 0x4000);
    a.load_abs(Reg::R2, 0x4000);
    a.halt();
    let (_, stats) = run_programs(Protocol::Mesi, vec![a.finish()]);
    assert_eq!(stats.l1.read_miss_shared.get(), 0);
    assert_eq!(stats.l1.read_hit_sharedro.get(), 0);
}

#[test]
fn timeout_reported_for_infinite_programs() {
    let mut a = Asm::new();
    let top = a.new_label();
    a.bind(top);
    a.load_abs(Reg::R1, 0x4000);
    a.jump(top);
    let cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, vec![a.finish()]);
    match sys.run(5_000) {
        Err(RunError::Timeout { max_cycles }) => assert_eq!(max_cycles, 5_000),
        other => panic!("unexpected {other:?}"),
    }
}

/// Runs `program` on core 0 of the 2-core `small` MESI machine under
/// `stepper` with a budget of `max_cycles`, and returns the run's error
/// with the machine's statistics after it.
/// A hang report lists in-flight messages by every field. Cores 0 and
/// 3 of the 2×2 machine miss on lines 9 and 5, both homed on tile 1,
/// one hop from each over disjoint links: their two `GetS` tie on
/// arrival cycle, destination and kind, and core 0's (line 9) was
/// injected first. The report must still list line 5 first.
#[test]
fn hang_report_orders_in_flight_messages_by_every_field() {
    let programs = [0x240u64, 0, 0, 0x140]
        .into_iter()
        .map(|addr| {
            let mut a = Asm::new();
            if addr != 0 {
                a.load_abs(Reg::R1, addr);
            }
            a.halt();
            a.finish()
        })
        .collect();
    let cfg = SystemConfig::builder()
        .small()
        .cores(4)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, programs);
    assert_eq!(sys.run(3).unwrap_err(), RunError::Timeout { max_cycles: 3 });
    let get_s = |line| NetHang {
        at: 4,
        dst: 1,
        kind: "GetS",
        line: Some(LineAddr::new(line)),
    };
    assert_eq!(sys.hang_report().in_flight, vec![get_s(5), get_s(9)]);
}

fn failed_run(program: &Program, stepper: Stepper, max_cycles: u64) -> (RunError, RunStats) {
    let mut cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    cfg.stepper = stepper;
    let mut sys = System::new(cfg, vec![program.clone()]);
    let err = sys.run(max_cycles).expect_err("the program never halts");
    (err, sys.collect_stats())
}

/// A failed run stops where the cycle-by-cycle machine stops: its
/// statistics count exactly the instructions issued before the first
/// cycle the run loop does not execute, under both steppers.
#[test]
fn failed_runs_count_only_the_cycles_they_ran() {
    let load_loop = {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.load_abs(Reg::R1, 0x4000);
        a.jump(top);
        a.finish()
    };
    let register_loop = {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.addi(Reg::R1, Reg::R1, 1);
        a.jump(top);
        a.finish()
    };
    let timeout = RunError::Timeout { max_cycles: 5_000 };
    // No message ever moves, so the register loop deadlocks one window
    // after cycle 0 (core 1's empty program halts at once).
    let deadlock = RunError::Deadlock {
        stalled_at: 200_001,
        cores_unfinished: 1,
        busy_controllers: 0,
        msgs_in_flight: 0,
        first_blocked_line: None,
    };
    let cases = [
        (&load_loop, 5_000, &timeout, 5_000, 3_314),
        (&register_loop, 5_000, &timeout, 5_000, 5_001),
        (&register_loop, 1_000_000, &deadlock, 200_001, 200_002),
    ];
    for (program, max_cycles, error, cycles, instructions) in cases {
        for stepper in [Stepper::EventDriven, Stepper::Reference] {
            let (err, stats) = failed_run(program, stepper, max_cycles);
            assert_eq!(&err, error, "{stepper:?}");
            assert_eq!(
                (stats.cycles, stats.instructions),
                (cycles, instructions),
                "{stepper:?}: {err}"
            );
        }
    }
}

#[test]
#[should_panic]
fn too_many_programs_panics() {
    let cfg = SystemConfig::builder()
        .small()
        .cores(1)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    let p = || Program::new(vec![tsocc_isa::Instr::Halt]);
    let _ = System::new(cfg, vec![p(), p(), p()]);
}

#[test]
fn memory_image_is_sorted_and_complete() {
    // The sorted-by-line-address guarantee of `memory_image` (and of
    // `MainMemory::lines` underneath) is what parity tests compare
    // across steppers and protocols; pin it with scrambled writes that
    // land on different memory controllers and far-apart pages.
    let cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, vec![]);
    let addrs = [0x9_0000u64, 0x40, 0x10_0000, 0x0, 0x80, 0x4_1000, 0xc0];
    for (i, &a) in addrs.iter().enumerate() {
        sys.write_word(Addr::new(a), i as u64 + 1);
    }
    let image = sys.memory_image();
    let mut want: Vec<u64> = addrs
        .iter()
        .map(|a| Addr::new(*a).line().as_u64())
        .collect();
    want.sort_unstable();
    let got: Vec<u64> = image.iter().map(|(l, _)| l.as_u64()).collect();
    assert_eq!(got, want, "memory_image must be sorted by line address");
    for (i, &a) in addrs.iter().enumerate() {
        assert_eq!(sys.read_mem_word(Addr::new(a)), i as u64 + 1);
    }
}

#[test]
fn memory_word_init_visible_to_programs() {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x7000);
    a.halt();
    let cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(Protocol::TsoCc(TsoCcConfig::basic()))
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, vec![a.finish()]);
    sys.write_word(Addr::new(0x7000), 4242);
    sys.run(1_000_000).unwrap();
    assert_eq!(sys.core(0).thread().reg(Reg::R1), 4242);
}

#[test]
fn protocol_trace_records_message_flow() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 5);
    a.store_abs(Reg::R1, 0x4000);
    a.load_abs(Reg::R2, 0x4040);
    a.halt();
    let cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(Protocol::TsoCc(TsoCcConfig::default()))
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, vec![a.finish()]);
    sys.set_trace(true);
    sys.run(1_000_000).unwrap();
    let lines = sys.trace().lines();
    assert!(!lines.is_empty());
    assert!(
        lines.iter().any(|l| l.contains("GetX")),
        "trace: {}",
        sys.trace().tail(10)
    );
    assert!(lines.iter().any(|l| l.contains("GetS")));
    assert!(lines.iter().any(|l| l.contains("MemRead")));
    assert!(lines.iter().any(|l| l.contains("Unblock")));
}

#[test]
fn trace_disabled_by_default() {
    let mut a = Asm::new();
    a.store_abs(Reg::R0, 0x4000);
    a.halt();
    let cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, vec![a.finish()]);
    sys.run(1_000_000).unwrap();
    assert!(sys.trace().lines().is_empty());
}

/// Two cores ping-ponging a line through the protocol, run under both
/// steppers: everything observable must be bit-identical, while the
/// event-driven scheduler executes fewer host steps.
#[test]
fn steppers_are_bit_identical_on_all_protocols() {
    for protocol in all_protocols() {
        let programs = || {
            let data = 0x8000u64;
            let flag = 0x8040u64;
            let mut a = Asm::new();
            a.movi(Reg::R1, 77);
            a.store_abs(Reg::R1, data);
            a.movi(Reg::R2, 1);
            a.store_abs(Reg::R2, flag);
            a.fence();
            a.halt();
            let mut b = Asm::new();
            let spin = b.new_label();
            b.bind(spin);
            b.load_abs(Reg::R1, flag);
            b.beq(Reg::R1, Reg::R0, spin);
            b.load_abs(Reg::R2, data);
            b.fence();
            b.halt();
            vec![a.finish(), b.finish()]
        };
        let run = |stepper: Stepper| {
            let mut cfg = SystemConfig::builder()
                .small()
                .cores(2)
                .protocol(protocol)
                .build()
                .expect("valid config");
            cfg.stepper = stepper;
            let mut sys = System::new(cfg, programs());
            let stats = sys.run(2_000_000).unwrap();
            (stats, sys.memory_image(), sys.steps_executed())
        };
        let (ev_stats, ev_mem, ev_steps) = run(Stepper::EventDriven);
        let (ref_stats, ref_mem, ref_steps) = run(Stepper::Reference);
        assert_eq!(ev_stats, ref_stats, "{}", protocol.name());
        assert_eq!(ev_mem, ref_mem, "{}", protocol.name());
        assert!(
            ev_steps < ref_steps,
            "{}: {ev_steps} vs {ref_steps} host steps",
            protocol.name()
        );
        assert_eq!(
            ref_steps, ref_stats.cycles,
            "the reference stepper walks every cycle"
        );
    }
}

/// Wakes armed further ahead than the calendar's window wait on its
/// overflow list: two cores `Delay` 3,000 and 5,000 cycles between
/// loads and stores, and core 1 first spins through short delays
/// across both of core 0's long ones, so the ring is busy when core 0's
/// overflowed wakes come due. The event-driven run must still match
/// the reference stepper bit for bit.
#[test]
fn steppers_agree_across_delays_past_the_calendar_window() {
    let (a, b, c) = (0x8000u64, 0x9040u64, 0xa080u64);
    let programs = || {
        let mut p0 = Asm::new();
        p0.movi(Reg::R1, 11);
        p0.store_abs(Reg::R1, a);
        p0.delay(3_000);
        p0.load_abs(Reg::R2, b);
        p0.store_abs(Reg::R2, c);
        p0.delay(5_000);
        p0.load_abs(Reg::R3, a);
        p0.addi(Reg::R3, Reg::R3, 1);
        p0.store_abs(Reg::R3, b);
        p0.halt();
        let mut p1 = Asm::new();
        let top = p1.new_label();
        p1.movi(Reg::R4, 250);
        p1.bind(top);
        p1.load_abs(Reg::R2, a);
        p1.store_abs(Reg::R4, c);
        p1.delay(37);
        p1.subi(Reg::R4, Reg::R4, 1);
        p1.bne(Reg::R4, Reg::R0, top);
        p1.delay(5_000);
        p1.load_abs(Reg::R2, c);
        p1.store_abs(Reg::R2, a);
        p1.delay(3_000);
        p1.load_abs(Reg::R3, b);
        p1.halt();
        vec![p0.finish(), p1.finish()]
    };
    for protocol in all_protocols() {
        let run = |stepper: Stepper| {
            let mut cfg = SystemConfig::builder()
                .small()
                .cores(2)
                .protocol(protocol)
                .build()
                .expect("valid config");
            cfg.stepper = stepper;
            let mut sys = System::new(cfg, programs());
            let stats = sys.run(2_000_000).unwrap();
            (stats, sys.memory_image())
        };
        let (ev_stats, ev_mem) = run(Stepper::EventDriven);
        let (ref_stats, ref_mem) = run(Stepper::Reference);
        assert!(ev_stats.cycles > 16_000, "{}", protocol.name());
        assert_eq!(ev_stats, ref_stats, "{}", protocol.name());
        assert_eq!(ev_mem, ref_mem, "{}", protocol.name());
    }
}

/// Timeout must be reported identically: same error, same simulated
/// state, regardless of how idle cycles were traversed.
#[test]
fn steppers_agree_on_timeout() {
    let program = || {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.load_abs(Reg::R1, 0x4000);
        a.jump(top);
        a.finish()
    };
    let run = |stepper: Stepper| {
        let mut cfg = SystemConfig::builder()
            .small()
            .cores(2)
            .protocol(Protocol::Mesi)
            .build()
            .expect("valid config");
        cfg.stepper = stepper;
        let mut sys = System::new(cfg, vec![program()]);
        let err = sys.run(5_000).unwrap_err();
        (err, sys.collect_stats())
    };
    let (ev_err, ev_stats) = run(Stepper::EventDriven);
    let (ref_err, ref_stats) = run(Stepper::Reference);
    assert_eq!(ev_err, ref_err);
    assert_eq!(ev_stats, ref_stats);
}

/// A machine stalled on long memory round trips is exactly where the
/// wake-list pays off: far fewer host steps than simulated cycles.
#[test]
fn event_driven_skips_idle_memory_latency() {
    let mut a = Asm::new();
    for i in 0..8u64 {
        a.load_abs(Reg::R1, 0x4000 + i * 0x1000);
    }
    a.halt();
    let cfg = SystemConfig::builder()
        .small()
        .cores(2)
        .protocol(Protocol::Mesi)
        .build()
        .expect("valid config");
    let mut sys = System::new(cfg, vec![a.finish()]);
    let stats = sys.run(2_000_000).unwrap();
    assert!(
        sys.steps_executed() * 2 < stats.cycles,
        "{} steps for {} cycles: the miss latency should be skipped",
        sys.steps_executed(),
        stats.cycles
    );
}
