//! The scheduler seam: a replayable, choice-at-a-time drive of the
//! coherence controllers for the stateless model checker
//! (`tsocc-check`).
//!
//! [`crate::System`] resolves every race by *timing*: one deterministic
//! interleaving per seed. Model checking needs the opposite — explicit
//! control over every nondeterministic choice so a depth-first search
//! can replay a prefix and branch differently. [`ScheduledSystem`]
//! rebuilds the machine around that need:
//!
//! - **The mesh becomes per-channel FIFO queues.** A channel is a
//!   `(src, dst, vnet)` triple. The real mesh (XY routing, per-link
//!   per-vnet FIFO queues, no fault-injected jitter) delivers any two
//!   messages of one channel in order but freely interleaves messages
//!   of different channels depending on congestion and distance, so
//!   "pop any non-empty channel" is exactly the real network's
//!   nondeterminism, no more and no less.
//! - **The core pipeline becomes an explicit TSO store-buffer shim.**
//!   Each thread runs a list of [`CoreOp`]s: stores enter a FIFO
//!   buffer (its own transition), buffered stores drain to the L1 as a
//!   *separate* transition (TSO's store→load relaxation, mirroring the
//!   flush transition of `tsocc_workloads::tso_model`), loads forward
//!   from the youngest matching buffer entry or bypass to the L1, and
//!   fences/RMWs wait for an empty buffer.
//! - **Time is frozen at [`Cycle::ZERO`].** Latencies (tag arrays, L2,
//!   memory) only order events in the timed simulator; here ordering
//!   *is* the transition sequence, so every internal latency is zero
//!   and a controller is driven to a fixpoint ("settled") after each
//!   transition. This also keeps controller state independent of the
//!   schedule prefix length (no LRU timestamps diverge), which the
//!   checker's partial-order reduction relies on: independent
//!   transitions commute to the *identical* state.
//!
//! The enabled-choice enumeration is deliberately conservative about
//! [`Submit::Retry`]: a retry is a proven no-op (the policies return it
//! before mutating anything), so the choice is disabled until a message
//! delivery to that L1 — the only event that can free the conflicting
//! MSHR — re-enables it. This keeps the search space free of silent
//! self-loops without hiding any real interleaving.

use std::collections::{BTreeMap, VecDeque};

use tsocc_coherence::{
    Agent, CacheController, CoherenceDiscipline, Completion, CoreOp, L1Controller, L2Controller,
    LineAccess, MemCtrl, Msg, NetMsg, Submit,
};
use tsocc_mem::{LineAddr, MainMemory};
use tsocc_noc::VNet;
use tsocc_sim::Cycle;

use crate::config::{ConfigError, SystemConfig};

/// A message channel: every pair of agents is connected by one FIFO
/// queue per virtual network, the checker's sound abstraction of the
/// jitter-free mesh (same-channel messages stay ordered; distinct
/// channels interleave freely).
pub type Channel = (Agent, Agent, VNet);

/// One nondeterministic choice the machine can take next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Choice {
    /// Thread `thread` executes its next program operation (store →
    /// buffer push; load/fence/RMW → L1 submit or buffer forward).
    Issue {
        /// The issuing thread (= core = L1 index).
        thread: usize,
    },
    /// Thread `thread` drains its oldest buffered store to the L1 —
    /// the store becomes globally orderable here, later than its
    /// program position: the TSO relaxation.
    Drain {
        /// The draining thread.
        thread: usize,
    },
    /// The head message of `channel` is delivered to its destination
    /// controller.
    Deliver {
        /// The (src, dst, vnet) FIFO being popped.
        channel: Channel,
    },
}

/// What one applied [`Choice`] touched — the dependence footprint the
/// checker's dynamic partial-order reduction is computed from.
#[derive(Clone, Debug)]
pub struct StepInfo {
    /// The controller whose state the transition read or wrote: the
    /// issuing thread's L1 for [`Choice::Issue`]/[`Choice::Drain`], the
    /// destination for [`Choice::Deliver`].
    pub ctrl: Agent,
    /// The cache line the transition concerned, when it names one
    /// (the delivered message's line, or the issued op's line).
    pub line: Option<LineAddr>,
    /// Channels this transition pushed messages into (in order, with
    /// duplicates collapsed).
    pub emitted: Vec<Channel>,
}

/// Why [`ScheduledSystem::enabled`] came back empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// Every thread finished, every buffer drained, every channel
    /// empty: a genuine end state whose observations are checkable.
    Done,
    /// Some thread still has work but no transition is enabled — the
    /// protocol lost a message or wedged a resource (this is how the
    /// checker catches `DropInvAck`/`HoldMshr`-style mutations).
    Deadlock,
}

/// What a thread is waiting on after a `Submit::Miss`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Waiting {
    /// A load miss: the completion value is observed.
    Load,
    /// An RMW miss: the completion (old) value is observed.
    Rmw,
}

/// The explicit TSO store-buffer shim standing in for one core
/// pipeline.
#[derive(Debug)]
struct ThreadShim {
    ops: Vec<CoreOp>,
    pc: usize,
    /// FIFO store buffer: `(addr, value)`, oldest first.
    buffer: VecDeque<(tsocc_mem::Addr, u64)>,
    /// The buffer head was accepted by the L1 (`Submit::Miss`) and
    /// awaits its `Completion::Store`; it stays forwardable but no
    /// further store may drain past it (TSO stores commit in order).
    head_issued: bool,
    /// An outstanding load/RMW miss.
    waiting: Option<Waiting>,
    /// `Issue`/`Drain` returned `Submit::Retry`; cleared by the next
    /// message delivery to this thread's L1.
    issue_blocked: bool,
    drain_blocked: bool,
    /// Values observed by loads and RMWs, in program order.
    observed: Vec<u64>,
}

impl ThreadShim {
    fn done(&self) -> bool {
        self.pc == self.ops.len() && self.buffer.is_empty() && self.waiting.is_none()
    }

    /// Youngest buffered store to `addr`, if any (x86-TSO forwarding).
    fn forward(&self, addr: tsocc_mem::Addr) -> Option<u64> {
        self.buffer
            .iter()
            .rev()
            .find(|(a, _)| *a == addr)
            .map(|&(_, v)| v)
    }
}

/// Picks among enabled choices; `None` stops the run. Implemented by
/// the checker's DFS driver and by [`ReplaySchedule`].
pub trait Scheduler {
    /// Returns the index into `enabled` of the choice to apply next.
    fn pick(&mut self, enabled: &[Choice]) -> Option<usize>;
}

/// Replays a recorded choice sequence — the checker's way of driving
/// the system back down an explored prefix before branching.
#[derive(Clone, Debug, Default)]
pub struct ReplaySchedule {
    choices: Vec<Choice>,
    at: usize,
}

impl ReplaySchedule {
    /// A schedule that replays `choices` in order, then stops.
    pub fn new(choices: Vec<Choice>) -> Self {
        ReplaySchedule { choices, at: 0 }
    }
}

impl Scheduler for ReplaySchedule {
    fn pick(&mut self, enabled: &[Choice]) -> Option<usize> {
        let next = self.choices.get(self.at)?;
        let idx = enabled.iter().position(|c| c == next)?;
        self.at += 1;
        Some(idx)
    }
}

/// The machine rebuilt around explicit scheduling: the configured
/// protocol's own L1/L2/memory controllers (built through the same
/// [`tsocc_coherence::ProtocolFactory`] seam as [`crate::System`]),
/// FIFO channels in place of the mesh, and store-buffer shims in place
/// of the core pipelines.
pub struct ScheduledSystem {
    l1s: Vec<Box<dyn L1Controller>>,
    l2s: Vec<Box<dyn L2Controller>>,
    mems: Vec<MemCtrl>,
    channels: BTreeMap<Channel, VecDeque<Msg>>,
    threads: Vec<ThreadShim>,
    wb_capacity: usize,
    discipline: CoherenceDiscipline,
    transitions: u64,
    scratch_msgs: Vec<NetMsg>,
    scratch_completions: Vec<Completion>,
}

impl ScheduledSystem {
    /// Builds the machine for `cfg` with one op list per core.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if the configuration is invalid or the program
    /// has more threads than the machine has cores.
    pub fn new(cfg: &SystemConfig, programs: Vec<Vec<CoreOp>>) -> Result<Self, ConfigError> {
        cfg.validate().map_err(ConfigError)?;
        if programs.len() != cfg.n_cores {
            return Err(ConfigError(format!(
                "{} thread programs for {} cores",
                programs.len(),
                cfg.n_cores
            )));
        }
        // Zero every latency: transition order, not time, sequences the
        // checked machine (see the module docs).
        let mut shape = cfg.shape();
        shape.l1_issue_latency = 0;
        shape.l2_latency = 0;
        let l1s = (0..cfg.n_cores)
            .map(|i| cfg.protocol.l1(i, &shape))
            .collect();
        let l2s = (0..cfg.n_tiles())
            .map(|t| cfg.protocol.l2(t, &shape))
            .collect();
        let mems = (0..cfg.n_mem)
            .map(|j| MemCtrl::new(j, MainMemory::new(), 0))
            .collect();
        let threads = programs
            .into_iter()
            .map(|ops| ThreadShim {
                ops,
                pc: 0,
                buffer: VecDeque::new(),
                head_issued: false,
                waiting: None,
                issue_blocked: false,
                drain_blocked: false,
                observed: Vec::new(),
            })
            .collect();
        Ok(ScheduledSystem {
            l1s,
            l2s,
            mems,
            channels: BTreeMap::new(),
            threads,
            wb_capacity: cfg.core.write_buffer_entries,
            discipline: cfg.protocol.coherence_discipline(),
            transitions: 0,
            scratch_msgs: Vec::new(),
            scratch_completions: Vec::new(),
        })
    }

    /// The set of enabled choices, in a deterministic order (issues,
    /// drains, then deliveries by channel key).
    pub fn enabled(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for (t, th) in self.threads.iter().enumerate() {
            if th.waiting.is_none() && th.pc < th.ops.len() {
                let ok = match th.ops[th.pc] {
                    CoreOp::Store(..) => th.buffer.len() < self.wb_capacity,
                    CoreOp::Load(addr) => th.forward(addr).is_some() || !th.issue_blocked,
                    CoreOp::Fence => th.buffer.is_empty(),
                    CoreOp::Rmw(..) => th.buffer.is_empty() && !th.issue_blocked,
                };
                if ok {
                    out.push(Choice::Issue { thread: t });
                }
            }
        }
        for (t, th) in self.threads.iter().enumerate() {
            if !th.buffer.is_empty() && !th.head_issued && !th.drain_blocked {
                out.push(Choice::Drain { thread: t });
            }
        }
        for (&channel, q) in &self.channels {
            if !q.is_empty() {
                out.push(Choice::Deliver { channel });
            }
        }
        out
    }

    /// Classifies an empty enabled set; `None` while choices remain.
    pub fn terminal(&self) -> Option<Terminal> {
        self.enabled().is_empty().then(|| self.stuck())
    }

    /// Classifies a state the caller already found to have an empty
    /// [`Self::enabled`] set, without enumerating it again.
    pub fn stuck(&self) -> Terminal {
        if self.threads.iter().all(ThreadShim::done) {
            Terminal::Done
        } else {
            Terminal::Deadlock
        }
    }

    /// Applies one choice (which must currently be enabled) and settles
    /// the touched controller.
    pub fn apply(&mut self, choice: Choice) -> StepInfo {
        self.transitions += 1;
        match choice {
            Choice::Issue { thread } => self.apply_issue(thread),
            Choice::Drain { thread } => self.apply_drain(thread),
            Choice::Deliver { channel } => self.apply_deliver(channel),
        }
    }

    fn apply_issue(&mut self, t: usize) -> StepInfo {
        let op = self.threads[t].ops[self.threads[t].pc];
        let ctrl = Agent::L1(t);
        match op {
            CoreOp::Store(addr, value) => {
                let th = &mut self.threads[t];
                th.buffer.push_back((addr, value));
                th.pc += 1;
                StepInfo {
                    ctrl,
                    line: Some(addr.line()),
                    emitted: Vec::new(),
                }
            }
            CoreOp::Load(addr) => {
                if let Some(v) = self.threads[t].forward(addr) {
                    let th = &mut self.threads[t];
                    th.observed.push(v);
                    th.pc += 1;
                    return StepInfo {
                        ctrl,
                        line: Some(addr.line()),
                        emitted: Vec::new(),
                    };
                }
                match self.l1s[t].submit(Cycle::ZERO, op) {
                    Submit::Hit(v) => {
                        let th = &mut self.threads[t];
                        th.observed.push(v);
                        th.pc += 1;
                    }
                    Submit::Miss => self.threads[t].waiting = Some(Waiting::Load),
                    Submit::Retry => self.threads[t].issue_blocked = true,
                }
                let emitted = self.settle(ctrl);
                StepInfo {
                    ctrl,
                    line: Some(addr.line()),
                    emitted,
                }
            }
            CoreOp::Fence => {
                match self.l1s[t].submit(Cycle::ZERO, op) {
                    Submit::Hit(_) => self.threads[t].pc += 1,
                    other => panic!("fence submit returned {other:?}"),
                }
                let emitted = self.settle(ctrl);
                StepInfo {
                    ctrl,
                    line: None,
                    emitted,
                }
            }
            CoreOp::Rmw(addr, _) => {
                match self.l1s[t].submit(Cycle::ZERO, op) {
                    Submit::Hit(old) => {
                        let th = &mut self.threads[t];
                        th.observed.push(old);
                        th.pc += 1;
                    }
                    Submit::Miss => self.threads[t].waiting = Some(Waiting::Rmw),
                    Submit::Retry => self.threads[t].issue_blocked = true,
                }
                let emitted = self.settle(ctrl);
                StepInfo {
                    ctrl,
                    line: Some(addr.line()),
                    emitted,
                }
            }
        }
    }

    fn apply_drain(&mut self, t: usize) -> StepInfo {
        let ctrl = Agent::L1(t);
        let (addr, value) = *self.threads[t].buffer.front().expect("drain needs a store");
        match self.l1s[t].submit(Cycle::ZERO, CoreOp::Store(addr, value)) {
            Submit::Hit(_) => {
                self.threads[t].buffer.pop_front();
            }
            Submit::Miss => self.threads[t].head_issued = true,
            Submit::Retry => self.threads[t].drain_blocked = true,
        }
        let emitted = self.settle(ctrl);
        StepInfo {
            ctrl,
            line: Some(addr.line()),
            emitted,
        }
    }

    fn apply_deliver(&mut self, channel: Channel) -> StepInfo {
        let (src, dst, _) = channel;
        let msg = self
            .channels
            .get_mut(&channel)
            .and_then(VecDeque::pop_front)
            .expect("deliver needs a queued message");
        let line = msg.line();
        self.ctrl_mut(dst).handle_message(Cycle::ZERO, src, msg);
        let emitted = self.settle(dst);
        if let Agent::L1(t) = dst {
            // Only message handling at this L1 can free an MSHR or
            // writeback entry, so a delivery is the one event that can
            // turn a proven-Retry choice live again.
            self.threads[t].issue_blocked = false;
            self.threads[t].drain_blocked = false;
            self.route_completions(t);
        }
        StepInfo {
            ctrl: dst,
            line,
            emitted,
        }
    }

    /// Runs choices from `scheduler` until it stops, no choice is
    /// enabled, or `max_steps` transitions were applied. Returns the
    /// terminal classification if the run ended in one.
    pub fn run(&mut self, scheduler: &mut impl Scheduler, max_steps: u64) -> Option<Terminal> {
        for _ in 0..max_steps {
            let enabled = self.enabled();
            if enabled.is_empty() {
                return Some(self.stuck());
            }
            let idx = scheduler.pick(&enabled)?;
            self.apply(enabled[idx]);
        }
        None
    }

    /// The values observed by every thread's loads and RMWs, in program
    /// order, concatenated thread-major — the layout of
    /// `tsocc_workloads::tso_model` outcomes.
    pub fn outcome(&self) -> Vec<u64> {
        self.threads
            .iter()
            .flat_map(|t| t.observed.iter().copied())
            .collect()
    }

    /// Per-core view of resident lines and their permissions, for the
    /// coherence axioms.
    pub fn l1_access(&self) -> Vec<Vec<(LineAddr, LineAccess)>> {
        self.l1s.iter().map(|l1| l1.access_lines()).collect()
    }

    /// The configured protocol's declared coherence discipline.
    pub fn discipline(&self) -> CoherenceDiscipline {
        self.discipline
    }

    /// Transitions applied so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Number of threads (= cores).
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    fn ctrl_mut(&mut self, agent: Agent) -> &mut dyn CacheController {
        match agent {
            Agent::L1(i) => self.l1s[i].as_mut(),
            Agent::L2(t) => self.l2s[t].as_mut(),
            Agent::Mem(j) => &mut self.mems[j],
        }
    }

    /// Drives `agent` to its internal fixpoint at the frozen time:
    /// replays queued directory requests, flushes the outbox into the
    /// channels, and repeats until the controller reports no
    /// self-driven work. Returns the channels pushed into.
    fn settle(&mut self, agent: Agent) -> Vec<Channel> {
        let mut emitted = Vec::new();
        for _ in 0..100_000 {
            let next = match agent {
                Agent::L1(i) => self.l1s[i].next_event(),
                Agent::L2(t) => self.l2s[t].next_event(),
                Agent::Mem(j) => self.mems[j].next_event(),
            };
            if next == Cycle::MAX {
                return emitted;
            }
            debug_assert!(next <= Cycle::ZERO, "zero-latency machine woke at {next}");
            let mut out = std::mem::take(&mut self.scratch_msgs);
            out.clear();
            {
                let ctrl = self.ctrl_mut(agent);
                ctrl.tick(Cycle::ZERO);
                ctrl.drain_outbox(Cycle::ZERO, &mut out);
            }
            for m in out.drain(..) {
                let key = (m.src, m.dst, m.msg.vnet());
                if !emitted.contains(&key) {
                    emitted.push(key);
                }
                self.channels.entry(key).or_default().push_back(m.msg);
            }
            self.scratch_msgs = out;
        }
        panic!("controller {agent:?} failed to settle (livelocked protocol?)");
    }

    /// Routes every ready completion at core `t`'s L1 to its shim.
    fn route_completions(&mut self, t: usize) {
        let mut done = std::mem::take(&mut self.scratch_completions);
        done.clear();
        self.l1s[t].drain_completions(&mut done);
        for c in done.drain(..) {
            let th = &mut self.threads[t];
            match c {
                Completion::Load(v) => {
                    let waiting = th.waiting.take().expect("load completion without a miss");
                    debug_assert!(matches!(waiting, Waiting::Load | Waiting::Rmw));
                    th.observed.push(v);
                    th.pc += 1;
                }
                Completion::Store => {
                    debug_assert!(th.head_issued, "store completion without a drained store");
                    th.buffer.pop_front();
                    th.head_issued = false;
                }
            }
        }
        self.scratch_completions = done;
    }
}

impl std::fmt::Debug for ScheduledSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduledSystem")
            .field("threads", &self.threads.len())
            .field("transitions", &self.transitions)
            .field(
                "queued",
                &self.channels.values().map(VecDeque::len).sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_mem::Addr;
    use tsocc_protocols::Protocol;

    const X: u64 = 0x2000;
    const Y: u64 = 0x2008; // same line as X: the 1-line configuration

    fn sys(protocol: Protocol, programs: Vec<Vec<CoreOp>>) -> ScheduledSystem {
        let cfg = SystemConfig::builder()
            .small()
            .cores(programs.len())
            .protocol(protocol)
            .build()
            .unwrap();
        ScheduledSystem::new(&cfg, programs).unwrap()
    }

    fn st(a: u64, v: u64) -> CoreOp {
        CoreOp::Store(Addr::new(a), v)
    }

    fn ld(a: u64) -> CoreOp {
        CoreOp::Load(Addr::new(a))
    }

    /// A first-enabled-choice schedule: drains stores eagerly, delivers
    /// messages in key order. Any fixed policy must reach Done.
    struct FirstChoice;

    impl Scheduler for FirstChoice {
        fn pick(&mut self, _enabled: &[Choice]) -> Option<usize> {
            Some(0)
        }
    }

    #[test]
    fn two_thread_message_passing_reaches_done() {
        for protocol in [
            Protocol::Mesi,
            Protocol::TsoCc(tsocc_proto::TsoCcConfig::default()),
        ] {
            let mut s = sys(protocol, vec![vec![st(X, 1), st(Y, 1)], vec![ld(Y), ld(X)]]);
            let end = s.run(&mut FirstChoice, 10_000);
            assert_eq!(end, Some(Terminal::Done), "{protocol:?}");
            let outcome = s.outcome();
            assert_eq!(outcome.len(), 2, "{protocol:?}: two loads observed");
            // Message passing: y==1 implies x==1 under TSO.
            if outcome[0] == 1 {
                assert_eq!(outcome[1], 1, "{protocol:?}: MP violation {outcome:?}");
            }
        }
    }

    #[test]
    fn store_buffering_outcome_is_reachable_by_delaying_drains() {
        // SB litmus: St x=1; Ld y || St y=1; Ld x. Issue both stores,
        // forward nothing, let both loads read 0 from memory *before*
        // any drain: the classic TSO-only outcome (0,0).
        let mut s = sys(
            Protocol::Mesi,
            vec![vec![st(X, 1), ld(Y)], vec![st(Y, 1), ld(X)]],
        );
        // Both stores enter the buffers.
        s.apply(Choice::Issue { thread: 0 });
        s.apply(Choice::Issue { thread: 1 });
        // Both loads bypass the (non-matching) buffered stores.
        let mut first = FirstChoice;
        // Drive to completion but force loads before drains by issuing
        // them now: each load misses, and deliveries complete them.
        for t in [0, 1] {
            s.apply(Choice::Issue { thread: t });
            while self::pending_load(&s, t) {
                let enabled = s.enabled();
                let deliver = enabled
                    .iter()
                    .position(|c| matches!(c, Choice::Deliver { .. }))
                    .expect("a delivery must be pending");
                s.apply(enabled[deliver]);
            }
        }
        let end = s.run(&mut first, 10_000);
        assert_eq!(end, Some(Terminal::Done));
        assert_eq!(s.outcome(), vec![0, 0], "both loads ran ahead of drains");
    }

    fn pending_load(s: &ScheduledSystem, t: usize) -> bool {
        s.threads[t].waiting.is_some()
    }

    #[test]
    fn store_forwarding_reads_own_buffered_store() {
        let mut s = sys(Protocol::Mesi, vec![vec![st(X, 7), ld(X)]]);
        s.apply(Choice::Issue { thread: 0 });
        // The load must forward from the buffer without touching the L1.
        let info = s.apply(Choice::Issue { thread: 0 });
        assert!(info.emitted.is_empty(), "forwarded load sent {info:?}");
        assert_eq!(s.outcome(), vec![7]);
        assert_eq!(s.run(&mut FirstChoice, 1_000), Some(Terminal::Done));
    }

    #[test]
    fn fence_requires_empty_buffer() {
        let mut s = sys(Protocol::Mesi, vec![vec![st(X, 1), CoreOp::Fence, ld(Y)]]);
        s.apply(Choice::Issue { thread: 0 });
        let enabled = s.enabled();
        assert!(
            !enabled.contains(&Choice::Issue { thread: 0 }),
            "fence must wait for the drain: {enabled:?}"
        );
        assert!(enabled.contains(&Choice::Drain { thread: 0 }));
        assert_eq!(s.run(&mut FirstChoice, 1_000), Some(Terminal::Done));
    }

    #[test]
    fn access_probe_reports_single_writer() {
        let mut s = sys(Protocol::Mesi, vec![vec![st(X, 1)], vec![]]);
        assert_eq!(s.run(&mut FirstChoice, 1_000), Some(Terminal::Done));
        let access = s.l1_access();
        let writers: usize = access
            .iter()
            .map(|l1| {
                l1.iter()
                    .filter(|(l, a)| *l == Addr::new(X).line() && *a == LineAccess::Write)
                    .count()
            })
            .sum();
        assert_eq!(
            writers, 1,
            "exactly the writing core holds the line: {access:?}"
        );
        assert_eq!(s.discipline(), CoherenceDiscipline::Eager);
    }

    #[test]
    fn replay_reproduces_the_same_outcome() {
        let programs = || vec![vec![st(X, 1), ld(Y)], vec![st(Y, 1), ld(X)]];
        let mut s = sys(Protocol::Mesi, programs());
        let mut trace = Vec::new();
        loop {
            let enabled = s.enabled();
            if enabled.is_empty() {
                break;
            }
            // A fixed but non-trivial policy: rotate by trace length.
            let c = enabled[trace.len() % enabled.len()];
            trace.push(c);
            s.apply(c);
        }
        assert_eq!(s.terminal(), Some(Terminal::Done));
        let mut replayed = sys(Protocol::Mesi, programs());
        let end = replayed.run(&mut ReplaySchedule::new(trace), 100_000);
        assert_eq!(end, Some(Terminal::Done));
        assert_eq!(replayed.outcome(), s.outcome());
        assert_eq!(replayed.transitions(), s.transitions());
    }
}
