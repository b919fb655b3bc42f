//! The scheduler seam: a choice-at-a-time drive of the coherence
//! controllers for the stateless model checker (`tsocc-check`), with an
//! undo log to backtrack through.
//!
//! [`crate::System`] resolves every race by *timing*: one deterministic
//! interleaving per seed. Model checking needs the opposite — explicit
//! control over every nondeterministic choice so a depth-first search
//! can return to an earlier state and branch differently.
//! [`ScheduledSystem`] rebuilds the machine around that need:
//!
//! - **The mesh becomes per-channel FIFO queues.** A channel is a
//!   `(src, dst, vnet)` triple. The real mesh (XY routing, per-link
//!   per-vnet FIFO queues, no fault-injected jitter) delivers any two
//!   messages of one channel in order but freely interleaves messages
//!   of different channels depending on congestion and distance, so
//!   "pop any non-empty channel" is exactly the real network's
//!   nondeterminism, no more and no less. The queues sit in one dense
//!   table whose index order is [`Channel`] order, so deliveries are
//!   enumerated in ascending channel order.
//! - **The core pipeline becomes a thread shim around the timed core's
//!   own store buffer.** Each thread runs a list of [`CoreOp`]s through
//!   a [`StoreBuffer`], the one [`tsocc_cpu::Core`] drains: stores enter
//!   it (their own transition), its head is offered to the L1 as a
//!   *separate* transition (TSO's store→load relaxation, mirroring the
//!   flush transition of `tsocc_workloads::tso_model`), loads forward
//!   from it or bypass to the L1, and fences/RMWs wait for it to empty.
//!   So every forwarding or drain-order fault in the buffer is a fault
//!   the exhaustive search can reach.
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
//!
//! A search backtracks by undoing transitions ([`ScheduledSystem::undo`]).
//! Every transition touches exactly one controller, so before applying
//! one the machine saves a copy of that controller
//! ([`CacheController::copy_from`], into a buffer from the controller's
//! own pool, which the protocol factory builds once) and, for an L1, of
//! its thread's shim, and it marks a journal of the channel pushes and
//! pops. Undo swaps the saved copies back in, without copying, and rolls
//! the channels back to the mark. The log of these records is the
//! current path: [`ScheduledSystem::reset`] undoes all of it, and
//! [`ScheduledSystem::transitions`] is its length. [`ReplaySchedule`]
//! drives a machine down a recorded choice sequence, which is how a
//! violation the checker reports is reproduced.

use std::collections::VecDeque;

use tsocc_coherence::{
    Agent, CacheController, CoherenceDiscipline, Completion, CoreOp, L1Controller, L2Controller,
    LineAccess, MachineShape, MemCtrl, Msg, NetMsg, ProtocolHandle, Submit,
};
use tsocc_cpu::StoreBuffer;
use tsocc_mem::{Addr, LineAddr, MainMemory};
use tsocc_noc::VNet;
use tsocc_sim::Cycle;

use crate::config::{ConfigError, SystemConfig};

/// A message channel: every pair of agents is connected by one FIFO
/// queue per virtual network, the checker's sound abstraction of the
/// jitter-free mesh (same-channel messages stay ordered; distinct
/// channels interleave freely).
pub type Channel = (Agent, Agent, VNet);

/// Every channel's FIFO in one dense table, indexed so that ascending
/// index is ascending [`Channel`] order: agents are numbered L1s, then
/// L2 tiles, then memory controllers (the order of [`Agent`]'s derived
/// `Ord`), and a channel's index is `(src * n_agents + dst) * 3 + vnet`.
/// An occupancy bitset beside the table lets enumeration visit only the
/// non-empty queues. The machine numbers its controllers the same way.
///
/// Every push and pop is journaled, so [`Self::roll_back`] can take the
/// table back to any earlier [`Self::mark`].
struct ChannelTable {
    n_cores: usize,
    n_tiles: usize,
    n_mem: usize,
    n_agents: usize,
    queues: Vec<VecDeque<Msg>>,
    /// Bit `i` is set while `queues[i]` is non-empty.
    occupied: Vec<u64>,
    journal: Vec<Change>,
}

/// One journaled change to the channel table.
enum Change {
    /// A message was queued at the back of queue `i`.
    Pushed(usize),
    /// The head of queue `i` was taken: this message.
    Popped(usize, Msg),
}

impl ChannelTable {
    fn new(shape: &MachineShape) -> Self {
        let n_agents = shape.n_cores + shape.n_tiles + shape.n_mem;
        let len = n_agents * n_agents * VNet::ALL.len();
        ChannelTable {
            n_cores: shape.n_cores,
            n_tiles: shape.n_tiles,
            n_mem: shape.n_mem,
            n_agents,
            queues: (0..len).map(|_| VecDeque::new()).collect(),
            occupied: vec![0; len.div_ceil(64)],
            journal: Vec::new(),
        }
    }

    fn agent_index(&self, agent: Agent) -> usize {
        let (base, i, n) = match agent {
            Agent::L1(i) => (0, i, self.n_cores),
            Agent::L2(t) => (self.n_cores, t, self.n_tiles),
            Agent::Mem(j) => (self.n_cores + self.n_tiles, j, self.n_mem),
        };
        assert!(i < n, "{agent:?} is not an agent of this machine");
        base + i
    }

    fn agent_at(&self, index: usize) -> Agent {
        if index < self.n_cores {
            Agent::L1(index)
        } else if index < self.n_cores + self.n_tiles {
            Agent::L2(index - self.n_cores)
        } else {
            Agent::Mem(index - self.n_cores - self.n_tiles)
        }
    }

    fn index(&self, (src, dst, vnet): Channel) -> usize {
        (self.agent_index(src) * self.n_agents + self.agent_index(dst)) * VNet::ALL.len()
            + vnet.index()
    }

    fn channel(&self, index: usize) -> Channel {
        let pair = index / VNet::ALL.len();
        (
            self.agent_at(pair / self.n_agents),
            self.agent_at(pair % self.n_agents),
            VNet::ALL[index % VNet::ALL.len()],
        )
    }

    fn push(&mut self, channel: Channel, msg: Msg) {
        let i = self.index(channel);
        self.queues[i].push_back(msg);
        self.occupied[i / 64] |= 1 << (i % 64);
        self.journal.push(Change::Pushed(i));
    }

    fn pop(&mut self, channel: Channel) -> Option<Msg> {
        let i = self.index(channel);
        let msg = self.queues[i].pop_front()?;
        if self.queues[i].is_empty() {
            self.occupied[i / 64] &= !(1 << (i % 64));
        }
        self.journal.push(Change::Popped(i, msg.clone()));
        Some(msg)
    }

    /// The indices of the non-empty queues, ascending.
    fn occupied(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.occupied)
    }

    /// The journal's length: the table's state now, for a later
    /// [`Self::roll_back`].
    fn mark(&self) -> usize {
        self.journal.len()
    }

    /// Takes back every push and pop made since `mark`, newest first: a
    /// pushed message leaves the back of its queue, a popped one returns
    /// to the front.
    fn roll_back(&mut self, mark: usize) {
        for change in self.journal.drain(mark..).rev() {
            let i = match change {
                Change::Pushed(i) => {
                    self.queues[i].pop_back().expect("a journaled push");
                    i
                }
                Change::Popped(i, msg) => {
                    self.queues[i].push_front(msg);
                    i
                }
            };
            if self.queues[i].is_empty() {
                self.occupied[i / 64] &= !(1 << (i % 64));
            } else {
                self.occupied[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Messages queued over all channels.
    fn queued(&self) -> usize {
        self.occupied().map(|i| self.queues[i].len()).sum()
    }
}

/// The positions of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

/// One nondeterministic choice the machine can take next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Choice {
    /// Thread `thread` executes its next program operation (store →
    /// buffer push; load/fence/RMW → L1 submit or buffer forward).
    Issue {
        /// The issuing thread (= core = L1 index).
        thread: usize,
    },
    /// Thread `thread` offers its store buffer's head to the L1
    /// ([`StoreBuffer::offer_head`]) — the store becomes globally
    /// orderable here, later than its program position: the TSO
    /// relaxation.
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepInfo {
    /// The controller whose state the transition read or wrote: the
    /// issuing thread's L1 for [`Choice::Issue`]/[`Choice::Drain`], the
    /// destination for [`Choice::Deliver`]. No other controller
    /// changes.
    pub ctrl: Agent,
    /// The cache line the transition concerned, when it names one
    /// (the delivered message's line, or the issued op's line).
    pub line: Option<LineAddr>,
    /// Channels this transition pushed messages into, in first-push
    /// order with duplicates collapsed.
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

/// One thread's progress through its program (the machine keeps the
/// programs), standing in for a core pipeline around its
/// [`StoreBuffer`].
#[derive(Debug)]
struct ThreadShim {
    pc: usize,
    buffer: StoreBuffer,
    /// An outstanding load/RMW miss awaits its value.
    waiting: bool,
    /// `Issue`/`Drain` returned `Submit::Retry`; cleared by the next
    /// message delivery to this thread's L1.
    issue_blocked: bool,
    drain_blocked: bool,
    /// Values observed by loads and RMWs, in program order.
    observed: Vec<u64>,
}

impl ThreadShim {
    fn new(buffer_entries: usize) -> Self {
        ThreadShim {
            pc: 0,
            buffer: StoreBuffer::new(buffer_entries),
            waiting: false,
            issue_blocked: false,
            drain_blocked: false,
            observed: Vec::new(),
        }
    }

    /// Makes `self` a copy of `src`, keeping `self`'s storage. Lists
    /// every field, so a new one cannot be forgotten here.
    fn copy_from(&mut self, src: &ThreadShim) {
        let ThreadShim {
            pc,
            buffer,
            waiting,
            issue_blocked,
            drain_blocked,
            observed,
        } = self;
        *pc = src.pc;
        buffer.copy_from(&src.buffer);
        *waiting = src.waiting;
        *issue_blocked = src.issue_blocked;
        *drain_blocked = src.drain_blocked;
        observed.clone_from(&src.observed);
    }

    fn done(&self, program: &[CoreOp]) -> bool {
        self.pc == program.len() && self.buffer.is_empty() && !self.waiting
    }
}

/// Picks among enabled choices for [`ScheduledSystem::run`]; `None`
/// stops the run. Implemented by [`ReplaySchedule`].
pub trait Scheduler {
    /// Returns the index into `enabled` of the choice to apply next.
    fn pick(&mut self, enabled: &[Choice]) -> Option<usize>;
}

/// Replays a recorded choice sequence, such as the schedule of a
/// violation the checker reports.
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

/// A controller saved before a transition touched it, of the live
/// controller's own type so that an undo swaps it back instead of
/// copying it. An L1 is saved with its thread's shim, the one other
/// state its transitions change.
enum Saved {
    L1(Box<dyn L1Controller>, ThreadShim),
    L2(Box<dyn L2Controller>),
    Mem(MemCtrl),
}

/// One applied transition on the undo log.
struct Record {
    info: StepInfo,
    /// The touched controller as it was before the transition.
    saved: Saved,
    /// The channel journal's [`ChannelTable::mark`] before the
    /// transition.
    mark: usize,
}

/// The machine rebuilt around explicit scheduling: the configured
/// protocol's own L1/L2/memory controllers (built through the same
/// [`tsocc_coherence::ProtocolFactory`] seam as [`crate::System`]),
/// FIFO channels in place of the mesh, and thread shims around the
/// timed core's [`StoreBuffer`] in place of the core pipelines.
///
/// One machine serves a whole search. It logs every applied transition
/// with what undoing it needs, so [`Self::undo`] takes back the last
/// one and [`Self::reset`] all of them. Backtracking allocates no new
/// machine, channel table or program copy, and once the path has been
/// as deep as it gets, no controller either.
pub struct ScheduledSystem {
    /// The factory and the zero-latency shape every controller is
    /// built from, kept to build the buffers controllers are saved
    /// into.
    protocol: ProtocolHandle,
    shape: MachineShape,
    l1s: Vec<Box<dyn L1Controller>>,
    l2s: Vec<Box<dyn L2Controller>>,
    mems: Vec<MemCtrl>,
    channels: ChannelTable,
    /// Each thread's operations, indexed like `threads`.
    programs: Vec<Vec<CoreOp>>,
    threads: Vec<ThreadShim>,
    discipline: CoherenceDiscipline,
    /// The undo log: one record per applied transition, oldest first.
    log: Vec<Record>,
    /// Each controller's spare buffers to save it into, indexed by
    /// agent number (the channel table's numbering).
    pools: Vec<Vec<Saved>>,
    /// The `emitted` lists of undone records, reused by later ones.
    spare_emitted: Vec<Vec<Channel>>,
    scratch_msgs: Vec<NetMsg>,
    scratch_completions: Vec<Completion>,
    scratch_access: Vec<(LineAddr, LineAccess)>,
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
        let protocol = cfg.protocol.clone();
        let channels = ChannelTable::new(&shape);
        let n_agents = channels.n_agents;
        Ok(ScheduledSystem {
            l1s: (0..shape.n_cores).map(|i| protocol.l1(i, &shape)).collect(),
            l2s: (0..shape.n_tiles).map(|t| protocol.l2(t, &shape)).collect(),
            mems: (0..shape.n_mem).map(ScheduledSystem::mem_ctrl).collect(),
            protocol,
            shape,
            channels,
            threads: programs
                .iter()
                .map(|_| ThreadShim::new(cfg.core.write_buffer_entries))
                .collect(),
            programs,
            discipline: cfg.protocol.coherence_discipline(),
            log: Vec::new(),
            pools: (0..n_agents).map(|_| Vec::new()).collect(),
            spare_emitted: Vec::new(),
            scratch_msgs: Vec::new(),
            scratch_completions: Vec::new(),
            scratch_access: Vec::new(),
        })
    }

    /// Memory controller `j` of the checked machine: empty memory, no
    /// latency.
    fn mem_ctrl(j: usize) -> MemCtrl {
        MemCtrl::new(j, MainMemory::new(), 0)
    }

    /// Returns the machine to its initial state, as [`Self::new`] left
    /// it, by undoing every applied transition. A fault plan's one-shot
    /// triggers are armed again.
    pub fn reset(&mut self) {
        while self.undo() {}
    }

    /// Takes back the last applied transition: swaps the saved copy of
    /// the controller it touched (and, for an L1, of its thread's shim)
    /// back in, and rolls the channels back to their state before it.
    /// Returns `false`, changing nothing, when no transition is left.
    pub fn undo(&mut self) -> bool {
        let Some(Record {
            info,
            mut saved,
            mark,
        }) = self.log.pop()
        else {
            return false;
        };
        match (&mut saved, info.ctrl) {
            (Saved::L1(ctrl, shim), Agent::L1(i)) => {
                std::mem::swap(ctrl, &mut self.l1s[i]);
                std::mem::swap(shim, &mut self.threads[i]);
            }
            (Saved::L2(ctrl), Agent::L2(t)) => std::mem::swap(ctrl, &mut self.l2s[t]),
            (Saved::Mem(ctrl), Agent::Mem(j)) => std::mem::swap(ctrl, &mut self.mems[j]),
            _ => unreachable!("{:?} saved as another agent", info.ctrl),
        }
        self.channels.roll_back(mark);
        self.pools[self.channels.agent_index(info.ctrl)].push(saved);
        self.spare_emitted.push(info.emitted);
        true
    }

    /// A copy of `agent` (with its thread's shim, for an L1) as it is
    /// now, in a buffer from its pool or, when the pool is empty, in
    /// one the factory builds.
    fn save(&mut self, agent: Agent) -> Saved {
        let mut saved = match self.pools[self.channels.agent_index(agent)].pop() {
            Some(buffer) => buffer,
            None => match agent {
                Agent::L1(i) => Saved::L1(self.protocol.l1(i, &self.shape), ThreadShim::new(0)),
                Agent::L2(t) => Saved::L2(self.protocol.l2(t, &self.shape)),
                Agent::Mem(j) => Saved::Mem(ScheduledSystem::mem_ctrl(j)),
            },
        };
        match (&mut saved, agent) {
            (Saved::L1(ctrl, shim), Agent::L1(i)) => {
                ctrl.copy_from(self.l1s[i].as_ref());
                shim.copy_from(&self.threads[i]);
            }
            (Saved::L2(ctrl), Agent::L2(t)) => ctrl.copy_from(self.l2s[t].as_ref()),
            (Saved::Mem(ctrl), Agent::Mem(j)) => ctrl.copy_from(&self.mems[j]),
            _ => unreachable!("{agent:?} pooled as another agent"),
        }
        saved
    }

    /// The set of enabled choices, in a deterministic order (issues,
    /// drains, then deliveries in ascending [`Channel`] order).
    pub fn enabled(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        self.enabled_into(&mut out);
        out
    }

    /// [`Self::enabled`] written into `out` (cleared first), so a caller
    /// enumerating many states can recycle one list.
    pub fn enabled_into(&self, out: &mut Vec<Choice>) {
        out.clear();
        for (t, (th, program)) in self.threads.iter().zip(&self.programs).enumerate() {
            if !th.waiting && th.pc < program.len() {
                let ok = match program[th.pc] {
                    CoreOp::Store(..) => th.buffer.has_room(),
                    CoreOp::Load(addr) => th.buffer.forward(addr).is_some() || !th.issue_blocked,
                    CoreOp::Fence => th.buffer.is_empty(),
                    CoreOp::Rmw(..) => th.buffer.is_empty() && !th.issue_blocked,
                };
                if ok {
                    out.push(Choice::Issue { thread: t });
                }
            }
        }
        for (t, th) in self.threads.iter().enumerate() {
            if th.buffer.can_offer() && !th.drain_blocked {
                out.push(Choice::Drain { thread: t });
            }
        }
        out.extend(self.channels.occupied().map(|i| Choice::Deliver {
            channel: self.channels.channel(i),
        }));
    }

    /// Classifies a state the caller already found to have an empty
    /// [`Self::enabled`] set, without enumerating it again.
    pub fn stuck(&self) -> Terminal {
        let done = self
            .threads
            .iter()
            .zip(&self.programs)
            .all(|(th, program)| th.done(program));
        if done {
            Terminal::Done
        } else {
            Terminal::Deadlock
        }
    }

    /// Applies one choice (which must currently be enabled), settles
    /// the touched controller and logs the transition. Returns what it
    /// touched, which stays on the log (see [`Self::path`]) until the
    /// transition is undone.
    pub fn apply(&mut self, choice: Choice) -> &StepInfo {
        let ctrl = match choice {
            Choice::Issue { thread } | Choice::Drain { thread } => Agent::L1(thread),
            Choice::Deliver { channel } => channel.1,
        };
        let saved = self.save(ctrl);
        let mark = self.channels.mark();
        let mut emitted = self.spare_emitted.pop().unwrap_or_default();
        emitted.clear();
        let line = match choice {
            Choice::Issue { thread } => self.apply_issue(thread, &mut emitted),
            Choice::Drain { thread } => self.apply_drain(thread, &mut emitted),
            Choice::Deliver { channel } => self.apply_deliver(channel, &mut emitted),
        };
        self.log.push(Record {
            info: StepInfo {
                ctrl,
                line,
                emitted,
            },
            saved,
            mark,
        });
        &self.log.last().expect("the record just logged").info
    }

    /// What each transition on the current path touched, oldest first:
    /// the [`StepInfo`]s [`Self::apply`] returned, less those undone.
    pub fn path(&self) -> impl DoubleEndedIterator<Item = &StepInfo> + ExactSizeIterator {
        self.log.iter().map(|record| &record.info)
    }

    /// Issues thread `t`'s next op: a store enters the store buffer, a
    /// load forwards from it if it can, and every other op goes to the
    /// L1. Returns the op's line.
    fn apply_issue(&mut self, t: usize, emitted: &mut Vec<Channel>) -> Option<LineAddr> {
        let th = &mut self.threads[t];
        let op = self.programs[t][th.pc];
        let line = op.addr().map(Addr::line);
        let forwarded = match op {
            CoreOp::Store(addr, value) => {
                th.buffer.push(addr, value);
                th.pc += 1;
                return line;
            }
            CoreOp::Load(addr) => th.buffer.forward(addr),
            CoreOp::Rmw(..) | CoreOp::Fence => None,
        };
        if let Some(v) = forwarded {
            th.observed.push(v);
            th.pc += 1;
            return line;
        }
        match self.l1s[t].submit(Cycle::ZERO, op) {
            Submit::Hit(_) if op == CoreOp::Fence => th.pc += 1,
            Submit::Hit(v) => {
                th.observed.push(v);
                th.pc += 1;
            }
            other if op == CoreOp::Fence => panic!("fence submit returned {other:?}"),
            Submit::Miss => th.waiting = true,
            Submit::Retry => th.issue_blocked = true,
        }
        self.settle(Agent::L1(t), emitted);
        line
    }

    /// Offers thread `t`'s store-buffer head to its L1. Returns the
    /// store's line.
    fn apply_drain(&mut self, t: usize, emitted: &mut Vec<Channel>) -> Option<LineAddr> {
        let th = &mut self.threads[t];
        let (addr, answer) = th
            .buffer
            .offer_head(Cycle::ZERO, self.l1s[t].as_mut())
            .expect("drain needs a store to offer");
        th.drain_blocked = answer == Submit::Retry;
        self.settle(Agent::L1(t), emitted);
        Some(addr.line())
    }

    /// Delivers `channel`'s head message. Returns the message's line.
    fn apply_deliver(&mut self, channel: Channel, emitted: &mut Vec<Channel>) -> Option<LineAddr> {
        let (src, dst, _) = channel;
        let msg = self
            .channels
            .pop(channel)
            .expect("deliver needs a queued message");
        let line = msg.line();
        self.ctrl_mut(dst).handle_message(Cycle::ZERO, src, msg);
        self.settle(dst, emitted);
        if let Agent::L1(t) = dst {
            // Only message handling at this L1 can free an MSHR or
            // writeback entry, so a delivery is the one event that can
            // turn a proven-Retry choice live again.
            self.threads[t].issue_blocked = false;
            self.threads[t].drain_blocked = false;
            self.route_completions(t);
        }
        line
    }

    /// Runs choices from `scheduler` until it stops, no choice is
    /// enabled, or `max_steps` transitions were applied. Returns the
    /// terminal classification if the run ended in one.
    pub fn run(&mut self, scheduler: &mut impl Scheduler, max_steps: u64) -> Option<Terminal> {
        let mut enabled = Vec::new();
        for _ in 0..max_steps {
            self.enabled_into(&mut enabled);
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
        let mut out = Vec::new();
        self.outcome_into(&mut out);
        out
    }

    /// [`Self::outcome`] written into `out` (cleared first), so a caller
    /// checking many terminal states can recycle one buffer.
    pub fn outcome_into(&self, out: &mut Vec<u64>) {
        out.clear();
        for t in &self.threads {
            out.extend_from_slice(&t.observed);
        }
    }

    /// Per-core view of resident lines and their permissions, for the
    /// coherence axioms.
    pub fn l1_access(&self) -> Vec<Vec<(LineAddr, LineAccess)>> {
        self.l1s.iter().map(|l1| l1.access_lines()).collect()
    }

    /// [`Self::l1_access`] flattened into `out` (cleared first) as
    /// `(line, access, core)` triples, so a caller checking many states
    /// can recycle one buffer. Allocates nothing once the buffers are
    /// large enough.
    pub fn l1_access_into(&mut self, out: &mut Vec<(LineAddr, LineAccess, usize)>) {
        out.clear();
        let lines = &mut self.scratch_access;
        for (core, l1) in self.l1s.iter().enumerate() {
            lines.clear();
            l1.access_lines_into(lines);
            out.extend(lines.iter().map(|&(line, access)| (line, access, core)));
        }
    }

    /// The configured protocol's declared coherence discipline.
    pub fn discipline(&self) -> CoherenceDiscipline {
        self.discipline
    }

    /// Transitions applied since [`Self::new`], less those undone: the
    /// depth of the current state, and the length of the undo log.
    pub fn transitions(&self) -> u64 {
        self.log.len() as u64
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
    /// self-driven work. Adds the channels pushed into to `emitted`.
    fn settle(&mut self, agent: Agent, emitted: &mut Vec<Channel>) {
        for _ in 0..100_000 {
            let next = match agent {
                Agent::L1(i) => self.l1s[i].next_event(),
                Agent::L2(t) => self.l2s[t].next_event(),
                Agent::Mem(j) => self.mems[j].next_event(),
            };
            if next == Cycle::MAX {
                return;
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
                self.channels.push(key, m.msg);
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
        let th = &mut self.threads[t];
        for c in done.drain(..) {
            match c {
                Completion::Load(v) => {
                    assert!(th.waiting, "load completion without a miss");
                    th.waiting = false;
                    th.observed.push(v);
                    th.pc += 1;
                }
                Completion::Store => th.buffer.complete(),
            }
        }
        self.scratch_completions = done;
    }
}

impl std::fmt::Debug for ScheduledSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduledSystem")
            .field("threads", &self.threads.len())
            .field("transitions", &self.log.len())
            .field("queued", &self.channels.queued())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_coherence::{FaultPlan, ProtocolFactory, ProtocolFault};
    use tsocc_mem::Addr;
    use tsocc_mesi_coarse::MesiCoarseConfig;
    use tsocc_proto::TsoCcConfig;
    use tsocc_protocols::Protocol;
    use tsocc_sim::SplitMix64;

    const X: u64 = 0x2000;
    const Y: u64 = 0x2008; // same line as X: the 1-line configuration
    const Z: u64 = 0x2040; // the next line, in the next cache set
    const W: u64 = 0x2080; // homed on X's tile

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
        s.threads[t].waiting
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
        assert_eq!(s.stuck(), Terminal::Done);
        let mut replayed = sys(Protocol::Mesi, programs());
        let end = replayed.run(&mut ReplaySchedule::new(trace), 100_000);
        assert_eq!(end, Some(Terminal::Done));
        assert_eq!(replayed.outcome(), s.outcome());
        assert_eq!(replayed.transitions(), s.transitions());
    }

    /// A seeded, uniformly random schedule.
    struct RandomChoice(SplitMix64);

    impl Scheduler for RandomChoice {
        fn pick(&mut self, enabled: &[Choice]) -> Option<usize> {
            Some((self.0.next_u64() % enabled.len() as u64) as usize)
        }
    }

    /// Whether applying `c` delivers an invalidation to core 0's L1,
    /// where `DropInvAck { core: 0 }` strikes.
    fn invalidates_core_0(s: &ScheduledSystem, c: Choice) -> bool {
        let Choice::Deliver { channel } = c else {
            return false;
        };
        let head = s.channels.queues[s.channels.index(channel)].front();
        channel.1 == Agent::L1(0) && matches!(head, Some(Msg::Inv { .. }))
    }

    /// Requires `a` and `b` to hold the same state: the same queued
    /// messages, thread shims and applied-transition count, and
    /// controllers that agree on every probe.
    fn same_state(a: &ScheduledSystem, b: &ScheduledSystem, what: &str) {
        assert_eq!(a.channels.queues, b.channels.queues, "{what}: channels");
        assert_eq!(a.channels.occupied, b.channels.occupied, "{what}");
        assert_eq!(
            format!("{:?}", a.threads),
            format!("{:?}", b.threads),
            "{what}: thread shims"
        );
        assert_eq!(a.transitions(), b.transitions(), "{what}: transitions()");
        let ctrls = |s: &ScheduledSystem| {
            let l1s = s
                .l1s
                .iter()
                .map(|c| (c.probe(), c.next_event(), c.stats().clone()));
            let l2s = s
                .l2s
                .iter()
                .map(|c| (c.probe(), c.next_event(), c.stats().clone()));
            let mems = s
                .mems
                .iter()
                .map(|c| (c.probe(), c.next_event(), c.reads, c.writes));
            format!(
                "{:?} {:?} {:?} {:?}",
                l1s.collect::<Vec<_>>(),
                l2s.collect::<Vec<_>>(),
                mems.collect::<Vec<_>>(),
                s.l1_access()
            )
        };
        assert_eq!(ctrls(a), ctrls(b), "{what}: controllers");
    }

    /// Steps `machine` and `fresh` through the schedule `pick` draws, in
    /// lockstep, until no choice is enabled, requiring every observable
    /// to agree at every step and no step to list a channel twice.
    /// Returns how often an invalidation to core 0 sent no ack.
    fn lockstep(
        machine: &mut ScheduledSystem,
        fresh: &mut ScheduledSystem,
        pick: &mut impl Scheduler,
        what: &str,
    ) -> usize {
        let mut dropped = 0;
        loop {
            let enabled = fresh.enabled();
            let step = fresh.transitions();
            assert_eq!(
                machine.enabled(),
                enabled,
                "{what}: enabled() at step {step}"
            );
            same_state(machine, fresh, &format!("{what}, step {step}"));
            if enabled.is_empty() {
                break;
            }
            let c = enabled[pick.pick(&enabled).expect("a choice")];
            let inv = invalidates_core_0(fresh, c);
            let info = fresh.apply(c).clone();
            assert_eq!(machine.apply(c), &info, "{what}: {c:?} at step {step}");
            assert_eq!(machine.path().last(), Some(&info), "{what}: path()");
            let mut channels = info.emitted.clone();
            channels.sort_unstable();
            channels.dedup();
            assert_eq!(
                channels.len(),
                info.emitted.len(),
                "{what}: {c:?} at step {step} lists a channel twice: {info:?}"
            );
            dropped += usize::from(inv && info.emitted.is_empty());
        }
        assert_eq!(machine.outcome(), fresh.outcome(), "{what}: outcome()");
        assert_eq!(machine.stuck(), fresh.stuck(), "{what}: stuck()");
        dropped
    }

    #[test]
    fn a_reset_machine_behaves_like_a_new_one() {
        let drop_inv_ack = FaultPlan {
            protocol: Some(ProtocolFault::DropInvAck { core: 0 }),
            ..FaultPlan::none()
        };
        let machines = [
            ("MESI", Protocol::Mesi, FaultPlan::none()),
            (
                "MESI-P2-G2",
                Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)),
                FaultPlan::none(),
            ),
            (
                "TSO-CC-4-basic",
                Protocol::TsoCc(TsoCcConfig::basic()),
                FaultPlan::none(),
            ),
            ("MESI with DropInvAck", Protocol::Mesi, drop_inv_ack),
        ];
        // Core 0 reads X before or after core 1 reads and writes it (an
        // invalidation, the path DropInvAck hides in, or a forward),
        // while a second line carries a store and two loads.
        let programs = || vec![vec![ld(X), st(Z, 1), ld(Z)], vec![ld(X), st(X, 1), ld(Z)]];
        for (name, protocol, faults) in machines {
            let cfg = SystemConfig::builder()
                .small()
                .cores(2)
                .protocol(protocol)
                .faults(faults)
                .build()
                .unwrap();
            let build = || ScheduledSystem::new(&cfg, programs()).unwrap();
            let mut deadlocks = 0;
            for seed in 0..8 {
                let what = format!("{name}, seed {seed}");
                let mut machine = build();
                let mut pick = RandomChoice(SplitMix64::new(seed));
                if seed % 2 == 0 {
                    // Reset from a terminal state.
                    let end = machine.run(&mut pick, 10_000);
                    assert!(end.is_some(), "{what}: no terminal state");
                    deadlocks += usize::from(end == Some(Terminal::Deadlock));
                } else {
                    // Reset mid-run, with messages in flight.
                    loop {
                        let enabled = machine.enabled();
                        let in_flight = enabled.iter().any(|c| matches!(c, Choice::Deliver { .. }));
                        if in_flight && machine.transitions() > seed {
                            break;
                        }
                        assert!(
                            !enabled.is_empty(),
                            "{what}: ended with no message in flight"
                        );
                        machine.apply(enabled[pick.pick(&enabled).unwrap()]);
                    }
                }
                machine.reset();
                let mut pick = RandomChoice(SplitMix64::new(seed + 100));
                lockstep(&mut machine, &mut build(), &mut pick, &what);
            }
            if faults.protocol.is_some() {
                assert!(deadlocks > 0, "{name}: no first run deadlocked");
            }
        }
    }

    /// Steps `a` and `b` through `msgs` (each delivered at cycle 0, then
    /// both outboxes drained at `drain_at`), requiring them to agree on
    /// every observable before and after each message.
    fn agree<C: CacheController + ?Sized>(
        a: &mut C,
        b: &mut C,
        msgs: &[(Agent, Msg)],
        drain_at: Cycle,
        what: &str,
    ) {
        let same = |a: &C, b: &C, when: &str| {
            assert_eq!(a.probe(), b.probe(), "{what}: probe() {when}");
            assert_eq!(a.next_event(), b.next_event(), "{what}: {when}");
            assert_eq!(a.access_lines(), b.access_lines(), "{what}: {when}");
        };
        same(a, b, "after the copy");
        for (src, msg) in msgs {
            let when = format!("after {msg:?}");
            a.handle_message(Cycle::ZERO, *src, msg.clone());
            b.handle_message(Cycle::ZERO, *src, msg.clone());
            same(a, b, &when);
            let (mut sent_a, mut sent_b) = (Vec::new(), Vec::new());
            a.drain_outbox(drain_at, &mut sent_a);
            b.drain_outbox(drain_at, &mut sent_b);
            assert_eq!(sent_a, sent_b, "{what}: sent {when}");
        }
    }

    #[test]
    fn a_controller_copy_carries_its_outbox_transactions_and_fault_state() {
        use tsocc_coherence::{Epoch, Grant, MeshTopology, Ts};
        use tsocc_mem::{CacheParams, LineData};
        let shape = MachineShape {
            n_cores: 2,
            n_tiles: 2,
            n_mem: 1,
            mesh: MeshTopology::for_tiles(2),
            l2_banks: 1,
            l1_params: CacheParams::new(8, 2),
            l2_params: CacheParams::new(16, 4),
            l1_issue_latency: 1,
            l2_latency: 4,
            faults: FaultPlan {
                protocol: Some(ProtocolFault::DropInvAck { core: 0 }),
                ..FaultPlan::none()
            },
        };
        // Both lines are homed on tile 0.
        let (x, y) = (Addr::new(0x2000), Addr::new(0x2080));
        let data = Msg::Data {
            line: x.line(),
            data: LineData::zeroed(),
            grant: Grant::Exclusive,
            writer: usize::MAX,
            ts: Ts::INVALID,
            epoch: Epoch::ZERO,
            ts_source: None,
            acks_expected: 0,
            with_payload: true,
            ack_required: true,
        };
        for p in [
            Protocol::Mesi,
            Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)),
            Protocol::TsoCc(TsoCcConfig::basic()),
        ] {
            let what = p.name();
            // MESI's requester collects the acks, TSO-CC's home tile.
            let inv = Msg::Inv {
                line: y.line(),
                ack_to_requester: (p.coherence_discipline() == CoherenceDiscipline::Eager)
                    .then_some(1),
            };
            // An L1 whose one-shot fault has fired (under MESI) and whose
            // load miss waits in its outbox and its MSHR table.
            let mut l1 = p.l1(0, &shape);
            l1.handle_message(Cycle::ZERO, Agent::L2(0), inv.clone());
            assert_eq!(l1.submit(Cycle::ZERO, CoreOp::Load(x)), Submit::Miss);
            let mut copy = p.l1(0, &shape);
            copy.copy_from(l1.as_ref());
            assert_eq!(copy.stats(), l1.stats(), "{what}");
            let msgs = [(Agent::L2(0), inv.clone()), (Agent::L2(0), data.clone())];
            agree(l1.as_mut(), copy.as_mut(), &msgs, Cycle::new(1), &what);
            let (mut done_l1, mut done_copy) = (Vec::new(), Vec::new());
            l1.drain_completions(&mut done_l1);
            copy.drain_completions(&mut done_copy);
            assert_eq!(done_l1, done_copy, "{what}");
            assert_eq!(done_l1.len(), 1, "{what}: the load completed");

            // A tile with a memory fetch in flight and its request in
            // its outbox.
            let mut l2 = p.l2(0, &shape);
            l2.handle_message(Cycle::ZERO, Agent::L1(0), Msg::GetS { line: x.line() });
            let mut copy = p.l2(0, &shape);
            copy.copy_from(l2.as_ref());
            assert_eq!(copy.stats(), l2.stats(), "{what}");
            let msgs = [
                (Agent::L1(1), Msg::GetS { line: x.line() }),
                (
                    Agent::Mem(0),
                    Msg::MemData {
                        line: x.line(),
                        data: LineData::zeroed(),
                    },
                ),
            ];
            agree(l2.as_mut(), copy.as_mut(), &msgs, Cycle::new(4), &what);
        }
    }

    /// Whether `s` has messages queued on two or more channels, two or
    /// more of them on one, and some thread's store-buffer head in
    /// flight at its L1.
    fn busy(s: &ScheduledSystem) -> bool {
        let queued: Vec<usize> = s
            .channels
            .occupied()
            .map(|i| s.channels.queues[i].len())
            .collect();
        let in_flight = s
            .threads
            .iter()
            .any(|th| !th.buffer.is_empty() && !th.buffer.can_offer());
        queued.len() >= 2 && queued.iter().any(|&n| n >= 2) && in_flight
    }

    #[test]
    fn an_undone_machine_behaves_like_one_that_replayed_its_prefix() {
        let drop_inv_ack = FaultPlan {
            protocol: Some(ProtocolFault::DropInvAck { core: 0 }),
            ..FaultPlan::none()
        };
        let machines = [
            ("MESI", Protocol::Mesi, FaultPlan::none()),
            (
                "MESI-P2-G2",
                Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)),
                FaultPlan::none(),
            ),
            (
                "TSO-CC-4-basic",
                Protocol::TsoCc(TsoCcConfig::basic()),
                FaultPlan::none(),
            ),
            ("MESI with DropInvAck", Protocol::Mesi, drop_inv_ack),
        ];
        // Core 1 reads X after or before core 0 does, then writes it: an
        // invalidation of core 0's copy (where DropInvAck strikes) or a
        // forward. Core 0 can have its store to W in flight while its
        // load of X misses, both requests queued to their one home tile.
        let programs = || vec![vec![st(W, 1), ld(X), ld(Z)], vec![ld(X), st(X, 1), ld(Z)]];
        for (name, protocol, faults) in machines {
            let cfg = SystemConfig::builder()
                .small()
                .cores(2)
                .protocol(protocol)
                .faults(faults)
                .build()
                .unwrap();
            let build = || ScheduledSystem::new(&cfg, programs()).unwrap();
            let (mut checked, mut fired, mut refired) = (0, 0, 0);
            for seed in 0..32 {
                let what = format!("{name}, seed {seed}");
                let mut machine = build();
                let mut pick = RandomChoice(SplitMix64::new(seed));
                // A random prefix to a busy state.
                let mut prefix = Vec::new();
                while !busy(&machine) {
                    let enabled = machine.enabled();
                    if enabled.is_empty() {
                        break;
                    }
                    let c = enabled[pick.pick(&enabled).unwrap()];
                    prefix.push(c);
                    machine.apply(c);
                }
                if !busy(&machine) {
                    continue;
                }
                checked += 1;
                // Run on k steps to a terminal state.
                let mut suffix = Vec::new();
                let mut dropped = 0;
                loop {
                    let enabled = machine.enabled();
                    if enabled.is_empty() {
                        break;
                    }
                    let c = enabled[pick.pick(&enabled).unwrap()];
                    suffix.push(c);
                    let inv = invalidates_core_0(&machine, c);
                    let sent = machine.apply(c).emitted.len();
                    dropped += usize::from(inv && sent == 0);
                }
                fired += usize::from(dropped > 0);
                // Undo the k steps, then step in lockstep with a machine
                // that replayed the prefix: first down the same suffix,
                // where the one-shot fault must fire again, then down a
                // new one.
                for round in 0..2 {
                    let what = format!("{what}, undo {round}");
                    for _ in prefix.len() as u64..machine.transitions() {
                        assert!(machine.undo(), "{what}: the log ran out");
                    }
                    let mut replayed = build();
                    let end = replayed.run(&mut ReplaySchedule::new(prefix.clone()), u64::MAX);
                    assert_eq!(end, None, "{what}: the prefix ended the run");
                    assert_eq!(replayed.transitions(), prefix.len() as u64, "{what}");
                    same_state(&machine, &replayed, &what);
                    if round == 0 {
                        let mut same = ReplaySchedule::new(suffix.clone());
                        let again = lockstep(&mut machine, &mut replayed, &mut same, &what);
                        assert_eq!(again, dropped, "{what}: acks dropped");
                        refired += usize::from(again > 0);
                    } else {
                        let mut new = RandomChoice(SplitMix64::new(seed + 100));
                        lockstep(&mut machine, &mut replayed, &mut new, &what);
                    }
                }
                // Undoing past the prefix reaches the initial state.
                machine.reset();
                assert!(!machine.undo(), "{what}: undo past the initial state");
                same_state(&machine, &build(), &format!("{what}, reset"));
            }
            assert!(
                checked >= 8,
                "{name}: only {checked} runs reached a busy state"
            );
            if faults.protocol.is_some() {
                // The one-shot fault fired after the busy state, and
                // fired again after the undo.
                assert!(fired > 0, "{name}: the fault never fired");
                assert_eq!(refired, fired, "{name}: the fault fired once only");
            } else {
                assert_eq!(fired, 0, "{name}: an invalidation went unacknowledged");
            }
        }
    }

    #[test]
    fn the_channel_table_keeps_channel_order() {
        for cores in [2, 3, 4] {
            let cfg = SystemConfig::builder()
                .small()
                .cores(cores)
                .protocol(Protocol::Mesi)
                .build()
                .unwrap();
            assert!(cores == 2 || cfg.n_mem < cores, "{cores} cores");
            // Each core reads its own line, then stores to and reads its
            // neighbours': every pair of L1s shares a line, and the
            // lines are homed on different tiles.
            let line = |i: usize| X + 0x40 * (i % cores) as u64;
            let programs = (0..cores)
                .map(|i| {
                    vec![
                        ld(line(i)),
                        st(line(i + 1), 1),
                        ld(line(i + 2)),
                        st(line(i), 2),
                    ]
                })
                .collect();
            let mut machine = ScheduledSystem::new(&cfg, programs).unwrap();

            // Ascending index is ascending channel order, and every
            // channel of the machine round-trips through its index.
            let table = &machine.channels;
            for i in 0..table.queues.len() {
                assert_eq!(table.index(table.channel(i)), i, "{cores} cores");
                if i > 0 {
                    assert!(
                        table.channel(i - 1) < table.channel(i),
                        "{cores} cores, {i}"
                    );
                }
            }
            let agents: Vec<Agent> = (0..cores)
                .map(Agent::L1)
                .chain((0..cfg.n_tiles()).map(Agent::L2))
                .chain((0..cfg.n_mem).map(Agent::Mem))
                .collect();
            assert_eq!(table.queues.len(), agents.len().pow(2) * VNet::ALL.len());
            for &src in &agents {
                for &dst in &agents {
                    for vnet in VNet::ALL {
                        let channel = (src, dst, vnet);
                        assert_eq!(table.channel(table.index(channel)), channel);
                    }
                }
            }

            // Along a schedule that issues and drains whenever it can
            // (so messages pile up) and otherwise delivers at random,
            // enabled() lists exactly the non-empty channels, in
            // ascending channel order.
            let mut rng = SplitMix64::new(cores as u64);
            let (mut most, mut mixed) = (0, false);
            loop {
                let enabled = machine.enabled();
                if enabled.is_empty() {
                    break;
                }
                let listed: Vec<Channel> = enabled
                    .iter()
                    .filter_map(|c| match c {
                        Choice::Deliver { channel } => Some(*channel),
                        _ => None,
                    })
                    .collect();
                let mut queued: Vec<Channel> = (0..machine.channels.queues.len())
                    .filter(|&i| !machine.channels.queues[i].is_empty())
                    .map(|i| machine.channels.channel(i))
                    .collect();
                queued.sort_unstable();
                assert_eq!(
                    listed, queued,
                    "{cores} cores: deliveries out of channel order"
                );
                most = most.max(listed.len());
                mixed |= listed.iter().any(|ch| ch.2 != listed[0].2);
                let local = enabled.len() - listed.len();
                let c = if local > 0 {
                    enabled[0]
                } else {
                    enabled[(rng.next_u64() % enabled.len() as u64) as usize]
                };
                machine.apply(c);
            }
            assert_eq!(machine.stuck(), Terminal::Done, "{cores} cores");
            assert!(
                most > cores,
                "{cores} cores: at most {most} channels queued at once"
            );
            assert!(mixed, "{cores} cores: never two vnets queued at once");
        }
    }
}
