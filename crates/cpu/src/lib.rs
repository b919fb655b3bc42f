#![warn(missing_docs)]

//! Core timing model: the operational x86-TSO machine.
//!
//! Each simulated core executes one TVM program with the standard
//! operational TSO semantics (Sewell et al., "x86-TSO"):
//!
//! - stores retire into a **FIFO store buffer** ([`StoreBuffer`], 32
//!   entries, Table 2) and drain to the L1 in program order, one
//!   outstanding store at a time (the next store issues only after the
//!   previous one's state change is acknowledged — this is what gives
//!   TSO-CC its `w → w` ordering, paper §3.1),
//! - loads **bypass the store buffer**: a load first forwards from the
//!   youngest matching buffered store, otherwise accesses the L1 and
//!   blocks the thread until the value returns (`r → r` and `r → w`
//!   order),
//! - **fences** and **RMWs** wait for the store buffer to drain before
//!   executing; RMWs are atomic at the L1.
//!
//! The model checker (`tsocc::scheduler`) drives the same
//! [`StoreBuffer`] through its thread shims, so the buffer the timed
//! simulator runs is the buffer the checker explores exhaustively.
//!
//! Timing is one instruction issue per cycle; a load or RMW that hits
//! in the L1 stalls the thread for the hit latency, and `Delay` /
//! `RandDelay` stall it for their cycle count. A [`Core::tick`] runs
//! the thread up to its next externally visible action: after the
//! instruction it issues, it also executes every following
//! *thread-private* instruction (`Movi`, `Alu`, `Alui`, `Branch`,
//! `Jump`, `Delay`, `RandDelay`, which touch only registers, the pc and
//! the core's own PRNG) at the cycle it would have issued, and then
//! wakes once, at the cycle the next memory operation, `Halt` or the
//! end of the program issues. Nothing outside the core can observe the
//! run-ahead, so every L1 submit, store-buffer push and
//! [`Core::is_done`] change happens at the same cycle as under
//! one-instruction-per-tick stepping.
//!
//! Substitution note: the paper's cores are simple out-of-order with a
//! 40-entry ROB. The consistency-relevant behaviour of such a core is
//! exactly the in-order-issue + store-buffer model implemented here;
//! store-side memory-level parallelism is retained (the buffer drains
//! while the core keeps executing).

use std::collections::VecDeque;

use tsocc_coherence::{Completion, CoreOp, L1Controller, Submit};
use tsocc_isa::{Effect, Instr, MemOp, Program, ThreadState};
use tsocc_mem::Addr;
use tsocc_sim::{Counter, Cycle, Histogram, Xoshiro256StarStar};

/// Core timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Write-buffer capacity in entries (32 in Table 2).
    pub write_buffer_entries: usize,
    /// L1 hit latency in cycles (3 in Table 2).
    pub l1_hit_latency: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            write_buffer_entries: 32,
            l1_hit_latency: 3,
        }
    }
}

/// Per-core execution statistics.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Instructions executed (including memory ops).
    pub instructions: Counter,
    /// Loads executed (including write-buffer forwards).
    pub loads: Counter,
    /// Loads satisfied by write-buffer forwarding.
    pub wb_forwards: Counter,
    /// Stores executed.
    pub stores: Counter,
    /// RMWs executed.
    pub rmws: Counter,
    /// Fences executed.
    pub fences: Counter,
    /// Cycles stalled because the write buffer was full.
    pub wb_full_stalls: Counter,
    /// Load-to-use latency of L1-missing loads.
    pub load_latency: Histogram,
    /// RMW issue-to-complete latency (the paper's Figure 8 metric).
    pub rmw_latency: Histogram,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Pending {
    /// Ready to execute the next instruction.
    None,
    /// Last submit returned `Retry`; try the same op again.
    Resubmit { op: CoreOp, first_issued: Cycle },
    /// Blocked on an L1 load miss.
    WaitLoad { issued: Cycle },
    /// Blocked on an L1 RMW miss.
    WaitRmw { issued: Cycle },
    /// RMW waiting for the store buffer to drain.
    DrainForRmw { addr: Addr, op: tsocc_isa::RmwOp },
    /// Fence waiting for the store buffer to drain.
    DrainForFence,
    /// Store stalled on a full store buffer.
    WbFull { addr: Addr, value: u64 },
    /// The next instruction issues at the given cycle: the one after an
    /// L1 hit or a delay, or the first one a run-ahead left for its own
    /// tick (a memory operation, `Halt`, the end of the program, or an
    /// instruction issuing at or after the stop cycle).
    IssueAt(Cycle),
}

/// The cycle at which the instruction after a `cycles`-cycle stall
/// issues, when the stalling instruction issued at `at`. The stall
/// ends at `at + cycles` but no earlier than the next cycle, and the
/// next instruction issues one cycle after it ends.
fn issue_after_stall(at: Cycle, cycles: u64) -> Cycle {
    at + cycles.max(1) + 1
}

/// Whether `instr` touches only the thread's registers, its pc and the
/// core's PRNG, so nothing outside the core can observe when it runs.
fn is_thread_private(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Movi { .. }
            | Instr::Alu { .. }
            | Instr::Alui { .. }
            | Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::Delay { .. }
            | Instr::RandDelay { .. }
    )
}

/// The x86-TSO store buffer (Sewell et al., CACM 2010): a FIFO of
/// retired stores, oldest first, that drains to the L1 in program order
/// with at most one store in flight.
///
/// An in-flight head — offered to the L1, answered [`Submit::Miss`],
/// awaiting its [`Completion::Store`] — stays in the FIFO: loads still
/// forward from it, no younger store is offered past it, and the buffer
/// is empty only once it completes.
///
/// Each [`Core`] drains one, and the model checker's thread shims
/// (`tsocc::scheduler`) drive the same type, so the checker explores
/// exactly the buffer the timed simulator runs.
#[derive(Debug)]
pub struct StoreBuffer {
    stores: VecDeque<(Addr, u64)>,
    capacity: usize,
    head_in_flight: bool,
}

impl StoreBuffer {
    /// An empty buffer of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        StoreBuffer {
            stores: VecDeque::new(),
            capacity,
            head_in_flight: false,
        }
    }

    /// Whether a store can be pushed.
    pub fn has_room(&self) -> bool {
        self.stores.len() < self.capacity
    }

    /// Buffers a retired store; the caller checked [`Self::has_room`].
    pub fn push(&mut self, addr: Addr, value: u64) {
        debug_assert!(self.has_room(), "push into a full store buffer");
        self.stores.push_back((addr, value));
    }

    /// The youngest buffered store to `addr`, if any (TSO load
    /// forwarding).
    pub fn forward(&self, addr: Addr) -> Option<u64> {
        self.stores
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map(|&(_, v)| v)
    }

    /// Whether [`Self::offer_head`] would submit: a store is buffered
    /// and none is in flight.
    pub fn can_offer(&self) -> bool {
        !self.head_in_flight && !self.stores.is_empty()
    }

    /// Submits the head store to `l1` at `now` unless it is in flight:
    /// pops it on [`Submit::Hit`], marks it in flight on
    /// [`Submit::Miss`] and keeps it on [`Submit::Retry`]. Returns the
    /// offered store's address and the L1's answer, or `None` when there
    /// was nothing to offer.
    pub fn offer_head(&mut self, now: Cycle, l1: &mut dyn L1Controller) -> Option<(Addr, Submit)> {
        if self.head_in_flight {
            return None;
        }
        let &(addr, value) = self.stores.front()?;
        let answer = l1.submit(now, CoreOp::Store(addr, value));
        match answer {
            Submit::Hit(_) => {
                self.stores.pop_front();
            }
            Submit::Miss => self.head_in_flight = true,
            Submit::Retry => {}
        }
        Some((addr, answer))
    }

    /// Retires the in-flight head on its [`Completion::Store`].
    ///
    /// # Panics
    ///
    /// Panics if no store is in flight.
    pub fn complete(&mut self) {
        assert!(
            self.head_in_flight,
            "store completion with no store in flight"
        );
        self.head_in_flight = false;
        self.stores.pop_front();
    }

    /// Whether no store is buffered or in flight: what fences and RMWs
    /// wait for.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Makes `self` a copy of `src`, keeping `self`'s storage. Lists
    /// every field, so a new one cannot be forgotten here.
    pub fn copy_from(&mut self, src: &StoreBuffer) {
        let StoreBuffer {
            stores,
            capacity,
            head_in_flight,
        } = self;
        stores.clone_from(&src.stores);
        *capacity = src.capacity;
        *head_in_flight = src.head_in_flight;
    }
}

/// One simulated core: thread state, store buffer and pipeline control.
///
/// Drive it with [`Core::tick`] at every cycle [`Core::next_event`]
/// names (or simply every cycle), passing the core's L1 controller and
/// the run's stop cycle. The core is finished when [`Core::is_done`] —
/// the thread has halted *and* the store buffer has fully drained.
#[derive(Debug)]
pub struct Core {
    id: usize,
    program: Program,
    thread: ThreadState,
    cfg: CoreConfig,
    rng: Xoshiro256StarStar,
    pending: Pending,
    store_buffer: StoreBuffer,
    /// Scratch buffer handed to `L1Controller::drain_completions` every
    /// tick, so the core↔L1 boundary allocates nothing per cycle.
    completions: Vec<Completion>,
    stats: CoreStats,
}

impl Core {
    /// Creates core `id` executing `program`.
    pub fn new(id: usize, program: Program, cfg: CoreConfig, seed: u64) -> Self {
        Core {
            id,
            program,
            thread: ThreadState::new(),
            cfg,
            rng: Xoshiro256StarStar::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
            pending: Pending::None,
            store_buffer: StoreBuffer::new(cfg.write_buffer_entries),
            completions: Vec::new(),
            stats: CoreStats::default(),
        }
    }

    /// Core id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The architectural thread state (final registers for litmus
    /// outcome checking).
    pub fn thread(&self) -> &ThreadState {
        &self.thread
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Whether the thread has halted and all stores have drained.
    pub fn is_done(&self) -> bool {
        self.thread.is_halted()
            && self.store_buffer.is_empty()
            && matches!(self.pending, Pending::None)
    }

    /// The earliest cycle at or after `now` at which this core's
    /// [`Core::tick`] could change machine state, assuming no L1
    /// completions arrive in between (message deliveries wake the
    /// system independently). Returns [`Cycle::MAX`] when the core is
    /// finished or blocked purely on its memory system. A thread that
    /// is only stalled or computing wakes once, at the cycle its next
    /// memory operation (or halt) issues: the run-ahead of the last
    /// tick already executed the thread-private instructions before it.
    ///
    /// This is the event-driven scheduler's contract: every skipped
    /// cycle strictly before the returned value must be one where
    /// `tick` would have been a no-op — no instruction executed, no L1
    /// submit attempted, no statistic counted — so skipping preserves
    /// bit-identical simulation results.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.is_done() {
            return Cycle::MAX;
        }
        // The store-buffer head is (re)submitted on every tick while no
        // store is in flight; a submit can change L1 state (MSHR
        // allocation, recency), so those cycles must actually run.
        if self.store_buffer.can_offer() {
            return now;
        }
        match self.pending {
            // Blocked on an outstanding L1 transaction: only a message
            // delivery (a separate wake source) can unblock.
            Pending::WaitLoad { .. } | Pending::WaitRmw { .. } => Cycle::MAX,
            // Waiting on the store buffer: a head to offer returned
            // above, so a non-empty buffer has its head in flight, which
            // must complete first (message-driven); an empty one lets
            // the op issue this tick.
            Pending::DrainForRmw { .. } | Pending::DrainForFence => {
                if self.store_buffer.is_empty() {
                    now
                } else {
                    Cycle::MAX
                }
            }
            Pending::IssueAt(t) => t.max(now),
            // Retries submit, and a full-buffer stall counts a stall
            // statistic, every cycle; neither may be skipped.
            Pending::Resubmit { .. } | Pending::WbFull { .. } => now,
            Pending::None => {
                if self.thread.is_halted() {
                    // Halted with a store in flight (is_done and the
                    // head-submit rule handled the other cases).
                    Cycle::MAX
                } else {
                    now
                }
            }
        }
    }

    /// Advances the core against its L1 at cycle `now`: collects L1
    /// completions, offers the store-buffer head to the L1, issues the
    /// instruction due at `now` (if any), and then runs ahead.
    ///
    /// The run-ahead executes each following thread-private instruction
    /// at the cycle it issues under one-instruction-per-cycle timing,
    /// up to the next memory operation, `Halt` or the end of the
    /// program, which is left pending for the tick at its issue cycle
    /// (see [`Core::next_event`]). `stop` is the first cycle the caller
    /// will not tick — the run's cycle budget or deadlock horizon — and
    /// no instruction issuing at or after it runs ahead, so the
    /// statistics of a run that stops early count exactly the
    /// instructions of the cycles it ran. Pass [`Cycle::MAX`] when
    /// ticking without a stop cycle.
    pub fn tick(&mut self, now: Cycle, stop: Cycle, l1: &mut dyn L1Controller) {
        // 1. Collect completions of outstanding L1 transactions into
        // the reusable scratch buffer (moved out for the loop so the
        // body may borrow `self`, moved back to keep its capacity).
        let mut completions = std::mem::take(&mut self.completions);
        debug_assert!(completions.is_empty());
        l1.drain_completions(&mut completions);
        for completion in completions.drain(..) {
            match completion {
                Completion::Load(value) => match self.pending {
                    Pending::WaitLoad { issued } => {
                        self.thread.complete_load(value);
                        self.stats.load_latency.record(now - issued);
                        self.pending = Pending::None;
                    }
                    Pending::WaitRmw { issued } => {
                        self.thread.complete_load(value);
                        self.stats.rmw_latency.record(now - issued);
                        self.pending = Pending::None;
                    }
                    ref other => panic!("core {}: load completion while {:?}", self.id, other),
                },
                Completion::Store => self.store_buffer.complete(),
            }
        }
        self.completions = completions;

        // 2. Drain the store buffer: offer its head unless in flight.
        self.store_buffer.offer_head(now, l1);

        // 3. Advance the pipeline.
        match self.pending.clone() {
            Pending::WaitLoad { .. } | Pending::WaitRmw { .. } => {}
            Pending::IssueAt(t) => {
                if now >= t {
                    self.pending = Pending::None;
                    self.execute_one(now, l1);
                }
            }
            Pending::WbFull { addr, value } => {
                if self.store_buffer.has_room() {
                    self.store_buffer.push(addr, value);
                    self.pending = Pending::None;
                } else {
                    self.stats.wb_full_stalls.inc();
                }
            }
            Pending::DrainForRmw { addr, op } => {
                if self.store_buffer.is_empty() {
                    self.issue_rmw(now, l1, addr, op);
                }
            }
            Pending::DrainForFence => {
                if self.store_buffer.is_empty() {
                    match l1.submit(now, CoreOp::Fence) {
                        Submit::Hit(_) => self.pending = Pending::None,
                        Submit::Miss => panic!("fences complete immediately at the L1"),
                        Submit::Retry => {}
                    }
                }
            }
            Pending::Resubmit { op, first_issued } => match op {
                CoreOp::Load(addr) => self.issue_load(now, l1, addr, first_issued),
                CoreOp::Rmw(addr, rmw) => self.issue_rmw(first_issued.max(now), l1, addr, rmw),
                other => panic!("core {}: unexpected resubmit of {other:?}", self.id),
            },
            Pending::None => {
                if !self.thread.is_halted() {
                    self.execute_one(now, l1);
                }
            }
        }

        // 4. Run ahead through thread-private instructions.
        self.run_ahead(now, stop);
    }

    /// Executes every thread-private instruction that issues before
    /// `stop`, each at its own issue cycle, starting with the next one
    /// after the state `tick` left at `now`, and arms
    /// [`Pending::IssueAt`] for the first instruction it does not run.
    fn run_ahead(&mut self, now: Cycle, stop: Cycle) {
        let mut issue = match self.pending {
            // Nothing stalls the thread: its next instruction issues at
            // the next cycle.
            Pending::None if !self.thread.is_halted() => now + 1,
            Pending::IssueAt(t) => t,
            _ => return,
        };
        while issue < stop
            && self
                .program
                .fetch(self.thread.pc())
                .is_some_and(is_thread_private)
        {
            self.stats.instructions.inc();
            issue = match self.thread.step(&self.program) {
                Effect::Continue => issue + 1,
                Effect::Delay(c) => issue_after_stall(issue, u64::from(c)),
                Effect::RandDelay(max) => issue_after_stall(issue, self.rand_delay(max)),
                other => unreachable!("core {}: {other:?} is not thread-private", self.id),
            };
            self.pending = Pending::IssueAt(issue);
        }
    }

    /// Draws a `RandDelay` length in `[0, max]` from the core's PRNG.
    fn rand_delay(&mut self, max: u32) -> u64 {
        if max == 0 {
            0
        } else {
            self.rng.range(0, u64::from(max) + 1)
        }
    }

    fn execute_one(&mut self, now: Cycle, l1: &mut dyn L1Controller) {
        self.stats.instructions.inc();
        match self.thread.step(&self.program) {
            Effect::Continue | Effect::Halted => {}
            Effect::Delay(c) => {
                self.pending = Pending::IssueAt(issue_after_stall(now, u64::from(c)));
            }
            Effect::RandDelay(max) => {
                let d = self.rand_delay(max);
                self.pending = Pending::IssueAt(issue_after_stall(now, d));
            }
            Effect::Mem(MemOp::Load { addr }) => {
                self.stats.loads.inc();
                let addr = Addr::new(addr);
                if let Some(value) = self.store_buffer.forward(addr) {
                    // TSO: reads must see the core's own buffered stores.
                    self.stats.wb_forwards.inc();
                    self.thread.complete_load(value);
                } else {
                    self.issue_load(now, l1, addr, now);
                }
            }
            Effect::Mem(MemOp::Store { addr, value }) => {
                self.stats.stores.inc();
                let addr = Addr::new(addr);
                if self.store_buffer.has_room() {
                    self.store_buffer.push(addr, value);
                } else {
                    self.stats.wb_full_stalls.inc();
                    self.pending = Pending::WbFull { addr, value };
                }
            }
            Effect::Mem(MemOp::Rmw { addr, op }) => {
                self.stats.rmws.inc();
                // RMWs drain the buffer first: x86 locked ops flush the
                // store buffer before executing.
                self.pending = Pending::DrainForRmw {
                    addr: Addr::new(addr),
                    op,
                };
            }
            Effect::Mem(MemOp::Fence) => {
                self.stats.fences.inc();
                self.pending = Pending::DrainForFence;
            }
        }
    }

    fn issue_load(
        &mut self,
        now: Cycle,
        l1: &mut dyn L1Controller,
        addr: Addr,
        first_issued: Cycle,
    ) {
        match l1.submit(now, CoreOp::Load(addr)) {
            Submit::Hit(value) => {
                self.thread.complete_load(value);
                self.pending = Pending::IssueAt(issue_after_stall(now, self.cfg.l1_hit_latency));
            }
            Submit::Miss => {
                self.pending = Pending::WaitLoad {
                    issued: first_issued,
                };
            }
            Submit::Retry => {
                self.pending = Pending::Resubmit {
                    op: CoreOp::Load(addr),
                    first_issued,
                };
            }
        }
    }

    fn issue_rmw(
        &mut self,
        now: Cycle,
        l1: &mut dyn L1Controller,
        addr: Addr,
        op: tsocc_isa::RmwOp,
    ) {
        match l1.submit(now, CoreOp::Rmw(addr, op)) {
            Submit::Hit(old) => {
                self.thread.complete_load(old);
                self.stats.rmw_latency.record(self.cfg.l1_hit_latency);
                self.pending = Pending::IssueAt(issue_after_stall(now, self.cfg.l1_hit_latency));
            }
            Submit::Miss => {
                self.pending = Pending::WaitRmw { issued: now };
            }
            Submit::Retry => {
                self.pending = Pending::Resubmit {
                    op: CoreOp::Rmw(addr, op),
                    first_issued: now,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests;
