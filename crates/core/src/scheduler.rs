//! The scheduler seam: a choice-at-a-time drive of the coherence
//! controllers for the stateless model checker (`tsocc-check`), with
//! checkpoints to backtrack to.
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
//! A search backtracks through a stack of checkpoints
//! ([`ScheduledSystem::checkpoint`], [`ScheduledSystem::restore`]).
//! Every transition touches exactly one controller, so the machine
//! versions its controllers: a checkpoint saves a copy only of the
//! controllers a transition touched since they were last saved or
//! restored, and a restore copies back only the controllers whose
//! version differs from the checkpoint's. Copies are made in place
//! ([`CacheController::copy_from`]) into buffers the protocol factory
//! built once and that the machine reuses; a checkpoint also holds the
//! queued messages and the thread shims. The state [`ScheduledSystem::new`]
//! builds is the root checkpoint, which [`ScheduledSystem::reset`]
//! restores. [`ReplaySchedule`] drives a machine down a recorded choice
//! sequence, which is how a violation the checker reports is
//! reproduced.

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
/// An occupancy bitset beside the table lets enumeration, saving and
/// clearing visit only the non-empty queues. The machine numbers its
/// controllers the same way.
struct ChannelTable {
    n_cores: usize,
    n_tiles: usize,
    n_mem: usize,
    n_agents: usize,
    queues: Vec<VecDeque<Msg>>,
    /// Bit `i` is set while `queues[i]` is non-empty.
    occupied: Vec<u64>,
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
        self.push_at(self.index(channel), msg);
    }

    fn push_at(&mut self, i: usize, msg: Msg) {
        self.queues[i].push_back(msg);
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    fn pop(&mut self, channel: Channel) -> Option<Msg> {
        let i = self.index(channel);
        let msg = self.queues[i].pop_front();
        if self.queues[i].is_empty() {
            self.occupied[i / 64] &= !(1 << (i % 64));
        }
        msg
    }

    /// The indices of the non-empty queues, ascending.
    fn occupied(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.occupied)
    }

    /// Writes every queued message into `out` (cleared first) as
    /// `(queue index, message)` pairs: ascending index, and FIFO order
    /// within a queue.
    fn save_into(&self, out: &mut Vec<(usize, Msg)>) {
        out.clear();
        for i in self.occupied() {
            out.extend(self.queues[i].iter().map(|msg| (i, msg.clone())));
        }
    }

    /// Empties every queue, keeping its capacity, then queues `saved`,
    /// a list [`Self::save_into`] wrote.
    fn restore(&mut self, saved: &[(usize, Msg)]) {
        for i in set_bits(&self.occupied) {
            self.queues[i].clear();
        }
        self.occupied.fill(0);
        for (i, msg) in saved {
            self.push_at(*i, msg.clone());
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

/// A machine state saved by [`ScheduledSystem::checkpoint`], named by
/// its place on the machine's checkpoint stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint(usize);

impl Checkpoint {
    /// The state [`ScheduledSystem::new`] built: the bottom of the
    /// stack, which no restore drops.
    pub const ROOT: Checkpoint = Checkpoint(0);
}

/// The version of a controller a transition touched since it was last
/// saved or restored: its state equals no saved copy.
const UNSAVED: u64 = 0;

/// One saved copy of a controller.
struct SavedCopy {
    /// The stack index of the checkpoint that saved it.
    checkpoint: usize,
    /// The version it saved.
    version: u64,
    ctrl: Box<dyn CacheController>,
}

/// A checkpoint's state besides the controller copies.
struct Saved {
    /// Every controller's version when the checkpoint was taken.
    versions: Vec<u64>,
    /// The queued messages, as [`ChannelTable::save_into`] lists them.
    messages: Vec<(usize, Msg)>,
    threads: Vec<ThreadShim>,
    transitions: u64,
}

/// The machine rebuilt around explicit scheduling: the configured
/// protocol's own L1/L2/memory controllers (built through the same
/// [`tsocc_coherence::ProtocolFactory`] seam as [`crate::System`]),
/// FIFO channels in place of the mesh, and thread shims around the
/// timed core's [`StoreBuffer`] in place of the core pipelines.
///
/// One machine serves a whole search. It keeps a stack of checkpoints
/// whose bottom is the state [`Self::new`] built; [`Self::restore`]
/// returns the machine to any checkpoint on the stack, copying back
/// only the controllers that changed since, and [`Self::reset`] to the
/// root. Backtracking allocates no new machine, channel table or
/// program copy, and once the stack has been as deep as it gets, no
/// controller either.
pub struct ScheduledSystem {
    /// The factory and the zero-latency shape every controller is
    /// built from, kept so checkpoints can build buffers to copy
    /// controllers into.
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
    transitions: u64,
    /// Each live controller's version, indexed by agent number (the
    /// channel table's numbering): the version of the saved copy its
    /// state equals, or [`UNSAVED`].
    versions: Vec<u64>,
    /// The last version handed out.
    last_version: u64,
    /// Each controller's saved copies, oldest first.
    copies: Vec<Vec<SavedCopy>>,
    /// Each controller's buffers of dropped copies, reused by later
    /// saves.
    spare_copies: Vec<Vec<Box<dyn CacheController>>>,
    /// The checkpoint stack, root first.
    checkpoints: Vec<Saved>,
    /// Dropped checkpoints, reused by later ones.
    spare_checkpoints: Vec<Saved>,
    scratch_msgs: Vec<NetMsg>,
    scratch_completions: Vec<Completion>,
    scratch_access: Vec<(LineAddr, LineAccess)>,
}

impl ScheduledSystem {
    /// Builds the machine for `cfg` with one op list per core, and
    /// saves its state as the root checkpoint.
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
        let mut sys = ScheduledSystem {
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
            transitions: 0,
            versions: vec![UNSAVED; n_agents],
            last_version: UNSAVED,
            copies: (0..n_agents).map(|_| Vec::new()).collect(),
            spare_copies: (0..n_agents).map(|_| Vec::new()).collect(),
            checkpoints: Vec::new(),
            spare_checkpoints: Vec::new(),
            scratch_msgs: Vec::new(),
            scratch_completions: Vec::new(),
            scratch_access: Vec::new(),
        };
        assert_eq!(sys.checkpoint(), Checkpoint::ROOT);
        Ok(sys)
    }

    /// Memory controller `j` of the checked machine: empty memory, no
    /// latency.
    fn mem_ctrl(j: usize) -> MemCtrl {
        MemCtrl::new(j, MainMemory::new(), 0)
    }

    /// Returns the machine to its initial state, as [`Self::new`] left
    /// it: restores [`Checkpoint::ROOT`], dropping every other
    /// checkpoint. A fault plan's one-shot triggers are armed again.
    pub fn reset(&mut self) {
        self.restore(Checkpoint::ROOT);
    }

    /// Saves the machine's state on top of the checkpoint stack.
    /// Copies only the controllers that a transition touched since they
    /// were last saved or restored; the others' latest copies already
    /// hold their state.
    pub fn checkpoint(&mut self) -> Checkpoint {
        let index = self.checkpoints.len();
        for i in 0..self.versions.len() {
            if self.versions[i] != UNSAVED {
                continue;
            }
            let agent = self.channels.agent_at(i);
            let mut copy = match self.spare_copies[i].pop() {
                Some(buffer) => buffer,
                None => self.build(agent),
            };
            copy.copy_from(self.ctrl(agent));
            self.last_version += 1;
            self.versions[i] = self.last_version;
            self.copies[i].push(SavedCopy {
                checkpoint: index,
                version: self.last_version,
                ctrl: copy,
            });
        }
        let mut saved = self.spare_checkpoints.pop().unwrap_or_else(|| Saved {
            versions: Vec::new(),
            messages: Vec::new(),
            threads: self.threads.iter().map(|_| ThreadShim::new(0)).collect(),
            transitions: 0,
        });
        saved.versions.clone_from(&self.versions);
        self.channels.save_into(&mut saved.messages);
        for (into, from) in saved.threads.iter_mut().zip(&self.threads) {
            into.copy_from(from);
        }
        saved.transitions = self.transitions;
        self.checkpoints.push(saved);
        Checkpoint(index)
    }

    /// Returns the machine to `checkpoint`'s state and drops every
    /// checkpoint taken after it (their handles are then invalid).
    /// Copies back only the controllers whose version differs from the
    /// checkpoint's.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint` was dropped.
    pub fn restore(&mut self, checkpoint: Checkpoint) {
        let Checkpoint(index) = checkpoint;
        assert!(index < self.checkpoints.len(), "{checkpoint:?} was dropped");
        self.spare_checkpoints
            .extend(self.checkpoints.drain(index + 1..));
        for (copies, spare) in self.copies.iter_mut().zip(&mut self.spare_copies) {
            while let Some(copy) = copies.pop_if(|c| c.checkpoint > index) {
                spare.push(copy.ctrl);
            }
        }
        let saved = &self.checkpoints[index];
        for (i, &version) in saved.versions.iter().enumerate() {
            if self.versions[i] == version {
                continue;
            }
            // The checkpoints above `index` are gone, so the latest
            // copy is the one this checkpoint saved or kept.
            let copy = self.copies[i].last().expect("a saved copy");
            assert_eq!(copy.version, version, "the latest copy of agent {i}");
            // Each arm borrows one controller list, not the machine as
            // `ctrl_mut` would, while `copy` borrows the copies.
            match self.channels.agent_at(i) {
                Agent::L1(c) => self.l1s[c].copy_from(copy.ctrl.as_ref()),
                Agent::L2(t) => self.l2s[t].copy_from(copy.ctrl.as_ref()),
                Agent::Mem(j) => self.mems[j].copy_from(copy.ctrl.as_ref()),
            }
            self.versions[i] = version;
        }
        self.channels.restore(&saved.messages);
        for (into, from) in self.threads.iter_mut().zip(&saved.threads) {
            into.copy_from(from);
        }
        self.transitions = saved.transitions;
    }

    /// A new controller for `agent`, built as [`Self::new`] builds it.
    fn build(&self, agent: Agent) -> Box<dyn CacheController> {
        match agent {
            Agent::L1(i) => self.protocol.l1(i, &self.shape),
            Agent::L2(t) => self.protocol.l2(t, &self.shape),
            Agent::Mem(j) => Box::new(ScheduledSystem::mem_ctrl(j)),
        }
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

    /// Applies one choice (which must currently be enabled) and settles
    /// the touched controller.
    pub fn apply(&mut self, choice: Choice) -> StepInfo {
        self.apply_reusing(choice, Vec::new())
    }

    /// [`Self::apply`] that writes [`StepInfo::emitted`] into `emitted`
    /// (cleared first), so a caller applying many choices can recycle
    /// the list of a step it no longer needs.
    pub fn apply_reusing(&mut self, choice: Choice, mut emitted: Vec<Channel>) -> StepInfo {
        emitted.clear();
        self.transitions += 1;
        let (ctrl, line) = match choice {
            Choice::Issue { thread } => (Agent::L1(thread), self.apply_issue(thread, &mut emitted)),
            Choice::Drain { thread } => (Agent::L1(thread), self.apply_drain(thread, &mut emitted)),
            Choice::Deliver { channel } => (channel.1, self.apply_deliver(channel, &mut emitted)),
        };
        // The one controller a transition touches no longer equals its
        // saved copy.
        self.versions[self.channels.agent_index(ctrl)] = UNSAVED;
        StepInfo {
            ctrl,
            line,
            emitted,
        }
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

    /// Transitions applied since [`Self::new`], less those a restore
    /// took back: the depth of the current state.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Number of threads (= cores).
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    fn ctrl(&self, agent: Agent) -> &dyn CacheController {
        match agent {
            Agent::L1(i) => self.l1s[i].as_ref(),
            Agent::L2(t) => self.l2s[t].as_ref(),
            Agent::Mem(j) => &self.mems[j],
        }
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
            .field("transitions", &self.transitions)
            .field("queued", &self.channels.queued())
            .field("checkpoints", &self.checkpoints.len())
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

    /// Steps `reset` and `fresh` through one random schedule in
    /// lockstep, requiring every observable to agree at every step.
    /// `reset` records each step into the previous step's recycled
    /// `emitted` list, which must come back as a new one would, with no
    /// channel listed twice.
    fn lockstep(reset: &mut ScheduledSystem, fresh: &mut ScheduledSystem, seed: u64, what: &str) {
        let mut pick = RandomChoice(SplitMix64::new(seed));
        let mut recycled = Vec::new();
        loop {
            let enabled = fresh.enabled();
            let step = fresh.transitions();
            assert_eq!(reset.enabled(), enabled, "{what}: enabled() at step {step}");
            if enabled.is_empty() {
                break;
            }
            let c = enabled[pick.pick(&enabled).unwrap()];
            let info = fresh.apply(c);
            assert_eq!(
                reset.apply_reusing(c, recycled),
                info,
                "{what}: {c:?} at step {step}"
            );
            let mut channels = info.emitted.clone();
            channels.sort_unstable();
            channels.dedup();
            assert_eq!(
                channels.len(),
                info.emitted.len(),
                "{what}: {c:?} at step {step} lists a channel twice: {info:?}"
            );
            recycled = info.emitted;
        }
        assert_eq!(reset.outcome(), fresh.outcome(), "{what}: outcome()");
        assert_eq!(reset.stuck(), fresh.stuck(), "{what}: stuck()");
        assert_eq!(reset.l1_access(), fresh.l1_access(), "{what}: l1_access()");
        assert_eq!(
            reset.transitions(),
            fresh.transitions(),
            "{what}: transitions()"
        );
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
                lockstep(&mut machine, &mut build(), seed + 100, &what);
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

    /// Whether some thread's store-buffer head is in flight at its L1.
    fn store_in_flight(s: &ScheduledSystem) -> bool {
        s.threads
            .iter()
            .any(|th| !th.buffer.is_empty() && !th.buffer.can_offer())
    }

    #[test]
    fn a_restored_machine_behaves_like_one_that_replayed_its_prefix() {
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
        // The programs of `a_reset_machine_behaves_like_a_new_one`: an
        // invalidation of core 0's copy of X (where DropInvAck strikes)
        // races a store and loads on a second line.
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
            let (mut checked, mut deadlocks, mut replayed_deadlocks) = (0, 0, 0);
            for seed in 0..16 {
                let what = format!("{name}, seed {seed}");
                let mut machine = build();
                let mut pick = RandomChoice(SplitMix64::new(seed));
                // Run to a state with messages queued on several
                // channels and a store in flight.
                let mut prefix = Vec::new();
                let reached = loop {
                    let enabled = machine.enabled();
                    let queued = enabled
                        .iter()
                        .filter(|c| matches!(c, Choice::Deliver { .. }))
                        .count();
                    if queued >= 2 && store_in_flight(&machine) {
                        break true;
                    }
                    if enabled.is_empty() {
                        break false;
                    }
                    let c = enabled[pick.pick(&enabled).unwrap()];
                    prefix.push(c);
                    machine.apply(c);
                };
                if !reached {
                    continue;
                }
                checked += 1;
                let checkpoint = machine.checkpoint();
                // Run on to a terminal state, checkpointing once more on
                // the way; restoring the first drops the second.
                for step in 0.. {
                    let enabled = machine.enabled();
                    if enabled.is_empty() {
                        break;
                    }
                    if step == 3 {
                        machine.checkpoint();
                    }
                    machine.apply(enabled[pick.pick(&enabled).unwrap()]);
                }
                deadlocks += usize::from(machine.stuck() == Terminal::Deadlock);
                // Restore twice: each time the machine must step like
                // one that replayed the prefix from scratch.
                for round in 0..2 {
                    let what = format!("{what}, restore {round}");
                    machine.restore(checkpoint);
                    assert_eq!(machine.checkpoints.len(), 2, "{what}: checkpoints left");
                    let mut replayed = build();
                    let end = replayed.run(&mut ReplaySchedule::new(prefix.clone()), u64::MAX);
                    assert_eq!(end, None, "{what}: the prefix ended the run");
                    assert_eq!(replayed.transitions(), prefix.len() as u64, "{what}");
                    lockstep(&mut machine, &mut replayed, seed * 2 + round + 100, &what);
                    replayed_deadlocks += usize::from(replayed.stuck() == Terminal::Deadlock);
                }
            }
            assert!(
                checked >= 8,
                "{name}: only {checked} runs reached the state"
            );
            if faults.protocol.is_some() {
                // The one-shot fault fired after the checkpoint, and
                // fired again after the restores.
                assert!(deadlocks > 0, "{name}: no run deadlocked");
                assert!(replayed_deadlocks > 0, "{name}: no restored run deadlocked");
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
