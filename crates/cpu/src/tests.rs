use std::collections::HashMap;
use std::collections::VecDeque;

use tsocc_coherence::{
    Agent, CacheController, Completion, CoreOp, L1Controller, L1Stats, Msg, NetMsg, Submit,
};
use tsocc_isa::{Asm, Reg};
use tsocc_sim::Cycle;

use super::*;

/// A functional mock L1: word-addressed flat memory, configurable miss
/// behaviour, records the order in which ops were performed.
struct MockL1 {
    mem: HashMap<u64, u64>,
    /// Ops complete `miss_latency` cycles later when nonzero.
    miss_latency: u64,
    inflight: VecDeque<(Cycle, Completion)>,
    log: Vec<CoreOp>,
    /// The cycle of each `log` entry's submit.
    log_at: Vec<Cycle>,
    stats: L1Stats,
    now: Cycle,
}

impl MockL1 {
    fn hit() -> Self {
        MockL1 {
            mem: HashMap::new(),
            miss_latency: 0,
            inflight: VecDeque::new(),
            log: Vec::new(),
            log_at: Vec::new(),
            stats: L1Stats::default(),
            now: Cycle::ZERO,
        }
    }

    fn missy(latency: u64) -> Self {
        let mut m = MockL1::hit();
        m.miss_latency = latency;
        m
    }

    fn perform(&mut self, op: CoreOp) -> u64 {
        self.log.push(op);
        match op {
            CoreOp::Load(a) => self.mem.get(&a.as_u64()).copied().unwrap_or(0),
            CoreOp::Store(a, v) => {
                self.mem.insert(a.as_u64(), v);
                0
            }
            CoreOp::Rmw(a, rmw) => {
                let old = self.mem.get(&a.as_u64()).copied().unwrap_or(0);
                self.mem.insert(a.as_u64(), rmw.apply(old));
                old
            }
            CoreOp::Fence => 0,
        }
    }
}

impl CacheController for MockL1 {
    fn handle_message(&mut self, _now: Cycle, _src: Agent, _msg: Msg) {}
    fn tick(&mut self, now: Cycle) {
        self.now = now;
    }
    fn drain_outbox(&mut self, _now: Cycle, _out: &mut Vec<NetMsg>) {}
    fn is_quiescent(&self) -> bool {
        self.inflight.is_empty()
    }
    fn next_event(&self) -> Cycle {
        self.inflight.front().map_or(Cycle::MAX, |&(t, _)| t)
    }
}

impl L1Controller for MockL1 {
    fn submit(&mut self, now: Cycle, op: CoreOp) -> Submit {
        self.log_at.push(now);
        if self.miss_latency == 0 || matches!(op, CoreOp::Fence) {
            Submit::Hit(self.perform(op))
        } else {
            let value = self.perform(op);
            let done = now + self.miss_latency;
            let completion = match op {
                CoreOp::Store(..) => Completion::Store,
                _ => Completion::Load(value),
            };
            self.inflight.push_back((done, completion));
            Submit::Miss
        }
    }

    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        while let Some(&(t, c)) = self.inflight.front() {
            if t > self.now {
                break;
            }
            self.inflight.pop_front();
            out.push(c);
        }
    }

    fn stats(&self) -> &L1Stats {
        &self.stats
    }
}

fn run(core: &mut Core, l1: &mut MockL1, max_cycles: u64) -> u64 {
    for t in 0..max_cycles {
        let now = Cycle::new(t);
        l1.tick(now);
        core.tick(now, Cycle::MAX, l1);
        if core.is_done() {
            return t;
        }
    }
    panic!("core did not finish in {max_cycles} cycles");
}

#[test]
fn straight_line_program_completes() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 42);
    a.store_abs(Reg::R1, 0x100);
    a.load_abs(Reg::R2, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::hit();
    run(&mut core, &mut l1, 1000);
    assert_eq!(core.thread().reg(Reg::R2), 42);
    assert_eq!(core.stats().loads.get(), 1);
    assert_eq!(core.stats().stores.get(), 1);
}

#[test]
fn load_forwards_from_write_buffer() {
    // With a huge miss latency, the store sits in the write buffer; the
    // following load must still see it (TSO bypass) without touching L1.
    let mut a = Asm::new();
    a.movi(Reg::R1, 7);
    a.store_abs(Reg::R1, 0x200);
    a.load_abs(Reg::R2, 0x200);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(500);
    run(&mut core, &mut l1, 3000);
    assert_eq!(core.thread().reg(Reg::R2), 7);
    assert_eq!(core.stats().wb_forwards.get(), 1);
}

#[test]
fn forwarding_picks_youngest_store() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.store_abs(Reg::R1, 0x200);
    a.movi(Reg::R1, 2);
    a.store_abs(Reg::R1, 0x200);
    a.load_abs(Reg::R2, 0x200);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(200);
    run(&mut core, &mut l1, 3000);
    assert_eq!(core.thread().reg(Reg::R2), 2);
}

#[test]
fn stores_drain_in_fifo_order() {
    let mut a = Asm::new();
    for i in 0..5u64 {
        a.movi(Reg::R1, i + 10);
        a.store_abs(Reg::R1, 0x100 + i * 8);
    }
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(17);
    run(&mut core, &mut l1, 3000);
    let stores: Vec<u64> = l1
        .log
        .iter()
        .filter_map(|op| match op {
            CoreOp::Store(a, _) => Some(a.as_u64()),
            _ => None,
        })
        .collect();
    assert_eq!(stores, vec![0x100, 0x108, 0x110, 0x118, 0x120]);
    assert_eq!(l1.mem[&0x120], 14);
    // One at a time: only one store may be in flight, so each store is
    // submitted no earlier than the previous one's 17-cycle miss ends.
    let submits: Vec<u64> = l1
        .log
        .iter()
        .zip(&l1.log_at)
        .filter(|(op, _)| matches!(op, CoreOp::Store(..)))
        .map(|(_, at)| at.as_u64())
        .collect();
    assert!(
        submits.windows(2).all(|w| w[1] - w[0] >= 17),
        "store submits at {submits:?}"
    );
}

#[test]
fn fence_waits_for_drain() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 5);
    a.store_abs(Reg::R1, 0x100);
    a.fence();
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(100);
    run(&mut core, &mut l1, 2000);
    // The fence must be performed after the store completed.
    let fence_pos = l1
        .log
        .iter()
        .position(|o| matches!(o, CoreOp::Fence))
        .unwrap();
    let store_pos = l1
        .log
        .iter()
        .position(|o| matches!(o, CoreOp::Store(..)))
        .unwrap();
    assert!(fence_pos > store_pos);
    assert_eq!(core.stats().fences.get(), 1);
}

#[test]
fn rmw_drains_then_executes_atomically() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 3);
    a.store_abs(Reg::R1, 0x300); // buffered store to another line
    a.movi(Reg::R2, 1);
    a.fetch_add(Reg::R3, Reg::R0, 0x400, Reg::R2);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(50);
    run(&mut core, &mut l1, 3000);
    assert_eq!(core.thread().reg(Reg::R3), 0, "old value");
    assert_eq!(l1.mem[&0x400], 1);
    // RMW must be ordered after the buffered store drained.
    let rmw_pos = l1
        .log
        .iter()
        .position(|o| matches!(o, CoreOp::Rmw(..)))
        .unwrap();
    let store_pos = l1
        .log
        .iter()
        .position(|o| matches!(o, CoreOp::Store(..)))
        .unwrap();
    assert!(rmw_pos > store_pos);
    assert!(core.stats().rmw_latency.count() == 1);
}

#[test]
fn write_buffer_capacity_stalls() {
    let cfg = CoreConfig {
        write_buffer_entries: 2,
        l1_hit_latency: 3,
    };
    let mut a = Asm::new();
    for i in 0..6u64 {
        a.movi(Reg::R1, i);
        a.store_abs(Reg::R1, 0x100 + i * 8);
    }
    a.halt();
    let mut core = Core::new(0, a.finish(), cfg, 1);
    let mut l1 = MockL1::missy(40);
    run(&mut core, &mut l1, 5000);
    assert!(core.stats().wb_full_stalls.get() > 0);
    assert_eq!(l1.mem[&0x128], 5, "all stores eventually landed");
}

#[test]
fn done_requires_drained_write_buffer() {
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.store_abs(Reg::R1, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(100);
    // Run a few cycles: thread halts quickly but the store is in flight.
    for t in 0..10 {
        l1.tick(Cycle::new(t));
        core.tick(Cycle::new(t), Cycle::MAX, &mut l1);
    }
    assert!(core.thread().is_halted());
    assert!(!core.is_done(), "store still draining");
    run(&mut core, &mut l1, 1000);
}

#[test]
fn load_latency_recorded_for_misses() {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(64);
    run(&mut core, &mut l1, 1000);
    assert_eq!(core.stats().load_latency.count(), 1);
    assert!(core.stats().load_latency.mean() >= 64.0);
}

#[test]
fn rand_delay_is_deterministic_per_seed() {
    let build = || {
        let mut a = Asm::new();
        a.rand_delay(100);
        a.rand_delay(100);
        a.halt();
        a.finish()
    };
    let mut c1 = Core::new(0, build(), CoreConfig::default(), 42);
    let mut c2 = Core::new(0, build(), CoreConfig::default(), 42);
    let mut l1a = MockL1::hit();
    let mut l1b = MockL1::hit();
    let t1 = run(&mut c1, &mut l1a, 10_000);
    let t2 = run(&mut c2, &mut l1b, 10_000);
    assert_eq!(t1, t2, "same seed, same timing");
}

#[test]
fn halted_core_stays_done() {
    let mut a = Asm::new();
    a.halt();
    let mut core = Core::new(3, a.finish(), CoreConfig::default(), 9);
    let mut l1 = MockL1::hit();
    run(&mut core, &mut l1, 100);
    assert!(core.is_done());
    assert_eq!(core.id(), 3);
    core.tick(Cycle::new(999), Cycle::MAX, &mut l1);
    assert!(core.is_done());
}

#[test]
fn next_event_of_a_fresh_core_is_immediate() {
    let mut a = Asm::new();
    a.halt();
    let core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    assert_eq!(core.next_event(Cycle::new(5)), Cycle::new(5));
}

#[test]
fn next_event_of_a_done_core_is_never() {
    let mut a = Asm::new();
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::hit();
    run(&mut core, &mut l1, 100);
    assert_eq!(core.next_event(Cycle::new(50)), Cycle::MAX);
}

#[test]
fn next_event_while_blocked_on_load_is_never() {
    let mut a = Asm::new();
    a.load_abs(Reg::R1, 0x100);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(500);
    // Tick until the load has been issued and the core is waiting.
    for t in 0..5 {
        let now = Cycle::new(t);
        l1.tick(now);
        core.tick(now, Cycle::MAX, &mut l1);
    }
    assert!(!core.is_done());
    assert_eq!(
        core.next_event(Cycle::new(5)),
        Cycle::MAX,
        "a core blocked on an L1 miss has no self-driven wake"
    );
}

#[test]
fn next_event_with_buffered_store_is_immediate() {
    // A store parked in the write buffer is re-submitted every cycle,
    // so the core must not be skipped while the head is not in flight.
    let mut a = Asm::new();
    a.movi(Reg::R1, 1);
    a.store_abs(Reg::R1, 0x100);
    a.store_abs(Reg::R1, 0x140);
    a.halt();
    let mut core = Core::new(0, a.finish(), CoreConfig::default(), 1);
    let mut l1 = MockL1::missy(500);
    for t in 0..4 {
        let now = Cycle::new(t);
        l1.tick(now);
        core.tick(now, Cycle::MAX, &mut l1);
    }
    // One store is in flight at the L1 and one still sits in the
    // buffer; the buffered one submits as soon as the first completes,
    // which is message-driven — until then ticks are no-ops.
    assert!(!core.is_done());
    assert_eq!(core.next_event(Cycle::new(4)), Cycle::MAX);
}

#[test]
fn skipping_to_next_event_matches_per_cycle_ticking() {
    // Drive two identical cores to completion, one ticked every cycle,
    // one ticked only at next_event() wake-ups (plus completion
    // cycles), and require identical timing and statistics.
    let build = || {
        let mut a = Asm::new();
        a.movi(Reg::R1, 3);
        a.store_abs(Reg::R1, 0x100);
        a.load_abs(Reg::R2, 0x180);
        a.delay(17);
        a.load_abs(Reg::R3, 0x100);
        a.halt();
        a.finish()
    };
    // (program, L1 miss latency, whether the event-driven leg must tick
    // fewer times than it executes instructions). The every-class
    // program runs ahead through its loop and delays; the first one has
    // no two thread-private instructions in a row.
    let cases = [
        (build(), 40, false),
        (every_class_program(), 0, true),
        (every_class_program(), 40, true),
    ];
    for (program, miss_latency, runs_ahead) in cases {
        let mut ref_core = Core::new(0, program.clone(), CoreConfig::default(), 7);
        let mut ref_l1 = MockL1::missy(miss_latency);
        let done_ref = run(&mut ref_core, &mut ref_l1, 10_000);

        let mut ev_core = Core::new(0, program, CoreConfig::default(), 7);
        let mut ev_l1 = MockL1::missy(miss_latency);
        let mut ticked = 0u64;
        let mut done_ev = None;
        for t in 0..10_000u64 {
            let now = Cycle::new(t);
            // The MockL1's completion deadline stands in for the mesh wake.
            let wake = ev_core.next_event(now).min(ev_l1.next_event());
            if wake > now {
                continue;
            }
            ev_l1.tick(now);
            ev_core.tick(now, Cycle::MAX, &mut ev_l1);
            ticked += 1;
            if ev_core.is_done() {
                done_ev = Some(t);
                break;
            }
        }
        assert_eq!(done_ev, Some(done_ref), "event-driven timing must match");
        assert!(ticked < done_ref, "some idle cycles must have been skipped");
        assert_eq!(
            ev_core.stats().instructions.get(),
            ref_core.stats().instructions.get()
        );
        assert_eq!(ev_core.stats().loads.get(), ref_core.stats().loads.get());
        assert_eq!(ev_l1.log_at, ref_l1.log_at, "same submit cycles");
        if runs_ahead {
            assert!(
                ticked < ev_core.stats().instructions.get(),
                "{ticked} ticks for {} instructions",
                ev_core.stats().instructions.get()
            );
        }
    }
}

/// One program that exercises every instruction class the core
/// distinguishes: register-only ALU work in a loop (`Movi`, `Alu`,
/// `Alui`, a taken and a fall-through `Branch`, a `Jump`), delays of 0,
/// 1 and 5 cycles, a random delay, a load, a load that forwards from
/// the write buffer when the store before it is still buffered, a
/// store, an RMW, a fence and a halt.
fn every_class_program() -> Program {
    let mut a = Asm::new();
    a.movi(Reg::R1, 3);
    let top = a.new_label();
    a.bind(top);
    a.add(Reg::R3, Reg::R3, Reg::R1);
    a.subi(Reg::R1, Reg::R1, 1);
    a.delay(0);
    a.bne(Reg::R1, Reg::R0, top);
    a.delay(1);
    a.delay(5);
    a.rand_delay(6);
    a.load_abs(Reg::R4, 0x100);
    a.addi(Reg::R4, Reg::R4, 1);
    a.store_abs(Reg::R3, 0x140);
    a.load_abs(Reg::R5, 0x140);
    a.movi(Reg::R2, 2);
    a.fetch_add(Reg::R6, Reg::R0, 0x180, Reg::R2);
    let over = a.new_label();
    a.jump(over);
    a.halt();
    a.bind(over);
    a.rand_delay(0);
    a.store_abs(Reg::R5, 0x1c0);
    a.fence();
    a.delay(5);
    a.halt();
    a.finish()
}

#[test]
fn every_instruction_class_keeps_its_per_cycle_timing() {
    // (L1, done cycle, core statistics, cycle of each L1 submit).
    let cases: [(MockL1, u64, &str, &[u64]); 2] = [
        (
            MockL1::hit(),
            55,
            "CoreStats { instructions: Counter(28), loads: Counter(2), wb_forwards: Counter(0), \
             stores: Counter(2), rmws: Counter(1), fences: Counter(1), wb_full_stalls: Counter(0), \
             load_latency: Histogram { count: 0, sum: 0, min: None, max: None }, \
             rmw_latency: Histogram { count: 1, sum: 3, min: Some(3), max: Some(3) } }",
            &[27, 33, 33, 39, 47, 48],
        ),
        (
            MockL1::missy(40),
            200,
            "CoreStats { instructions: Counter(28), loads: Counter(2), wb_forwards: Counter(1), \
             stores: Counter(2), rmws: Counter(1), fences: Counter(1), wb_full_stalls: Counter(0), \
             load_latency: Histogram { count: 1, sum: 40, min: Some(40), max: Some(40) }, \
             rmw_latency: Histogram { count: 1, sum: 40, min: Some(40), max: Some(40) } }",
            &[27, 69, 109, 153, 193],
        ),
    ];
    for (mut l1, done, stats, submits) in cases {
        let mut core = Core::new(0, every_class_program(), CoreConfig::default(), 5);
        assert_eq!(run(&mut core, &mut l1, 10_000), done);
        assert_eq!(format!("{:?}", core.stats()), stats);
        let at: Vec<u64> = l1.log_at.iter().map(|c| c.as_u64()).collect();
        assert_eq!(at, submits, "{:?}", l1.log);
    }
}
