//! The shared cache-controller chassis: every protocol-independent
//! piece of an L1 or L2 controller, hoisted out of the per-protocol
//! crates.
//!
//! A coherence controller splits into two layers:
//!
//! - the **chassis** — line arrays, MSHR allocation, the writeback
//!   buffer, the latency-modelling outbox, transaction (busy-table)
//!   bookkeeping, replay queues, and the `drain`/`next_event`/
//!   quiescence plumbing the run loop drives. None of this depends on
//!   *which* coherence protocol runs on top.
//! - the **policy** — the per-protocol line-state type plus the
//!   transition rules: what a GetS does to a Shared line, when to
//!   self-invalidate, which messages a forward produces.
//!
//! This module owns the chassis. A protocol implements [`L1Policy`] /
//! [`L2Policy`] over its own line/MSHR/transaction types and is wrapped
//! in [`L1Ctl`] / [`L2Ctl`], which provide the entire
//! [`CacheController`]/[`L1Controller`]/[`L2Controller`] surface.
//!
//! ## Which paper baseline is which policy
//!
//! Three protocols ship on this chassis (see `tsocc_protocols`):
//!
//! - **MESI** (`tsocc-mesi`) — the paper's §4.2 baseline: a blocking
//!   NUCA-L2 directory with a *full sharing vector* (one bit per core,
//!   the storage cost TSO-CC attacks).
//! - **MESI-coarse** (`tsocc-mesi-coarse`) — the classic
//!   limited-pointer / coarse-vector directory MESI is traditionally
//!   compared against: exact sharer pointers up to a configurable
//!   budget, falling back to a coarse group vector on overflow. Same L1
//!   policy as MESI; only the directory representation differs.
//! - **TSO-CC** (`tsocc-proto`) — the paper's contribution:
//!   consistency-directed coherence with no sharer tracking at all
//!   (§3), in every §4.2 configuration.
//!
//! The wake-list contract of the event-driven scheduler is implemented
//! once, here: both controller kinds are message-driven, so between
//! steps the only self-driven deadline is the outbox head (plus a
//! pending replay queue at the L2, which demands an immediate tick).

use std::collections::VecDeque;

use tsocc_faults::FaultState;
use tsocc_mem::{CacheArray, CacheParams, InsertOutcome, LineAddr, LineData, LineMap};
use tsocc_sim::Cycle;

use crate::iface::{
    same_type, BusyProbe, CacheController, Completion, CoreOp, CtrlProbe, L1Controller,
    L2Controller, LineAccess, Submit,
};
use crate::msg::{Agent, Epoch, Msg, NetMsg, Ts};
use crate::outbox::Outbox;
use crate::stats::{L1Stats, L2Stats};
use crate::wb::WritebackBuffer;

// ---------------------------------------------------------------------------
// MSHR table

/// Miss-status holding registers: one in-flight transaction per line.
///
/// A thin, intention-revealing wrapper over [`LineMap`] that enforces
/// the one-MSHR-per-line invariant both L1 policies rely on (allocation
/// panics on a duplicate; `line_free` checks go through
/// [`MshrTable::contains`]).
#[derive(Clone, Debug, Default)]
pub struct MshrTable<R> {
    entries: LineMap<R>,
}

impl<R> MshrTable<R> {
    /// Creates an empty table.
    pub fn new() -> Self {
        MshrTable {
            entries: LineMap::new(),
        }
    }

    /// Allocates an MSHR for `line`.
    ///
    /// # Panics
    ///
    /// Panics if the line already has one (callers must check
    /// [`MshrTable::contains`] / the chassis `line_free` first).
    pub fn alloc(&mut self, line: LineAddr, req: R) {
        let prev = self.entries.insert(line, req);
        assert!(prev.is_none(), "duplicate MSHR for {line}");
    }

    /// Whether `line` has an in-flight transaction.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.contains_key(line)
    }

    /// The MSHR for `line`, if any.
    pub fn get(&self, line: LineAddr) -> Option<&R> {
        self.entries.get(line)
    }

    /// Mutable access to the MSHR for `line`.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut R> {
        self.entries.get_mut(line)
    }

    /// Retires the MSHR for `line`.
    pub fn remove(&mut self, line: LineAddr) -> Option<R> {
        self.entries.remove(line)
    }

    /// Whether no transactions are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of in-flight transactions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over every in-flight transaction.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &R)> {
        self.entries.iter()
    }
}

impl<R: Clone> MshrTable<R> {
    /// Makes `self` a copy of `src`, keeping `self`'s table.
    pub fn copy_from(&mut self, src: &MshrTable<R>) {
        let MshrTable { entries } = self;
        entries.copy_from(&src.entries);
    }
}

// ---------------------------------------------------------------------------
// L1 chassis

/// Outcome of installing a line into an L1 array.
#[derive(Clone, Copy, Debug)]
pub enum Install<L> {
    /// The line is resident (installed fresh or replaced in place).
    Done,
    /// Installed; this victim was displaced and must be written back or
    /// dropped by the policy.
    Evicted(LineAddr, L),
    /// No evictable way (every way pinned by an in-flight MSHR); the
    /// policy completes the access without caching.
    NoWay,
}

/// The protocol-independent core of an L1 controller: geometry, the
/// line array, MSHRs, the writeback buffer, the outbox, the completion
/// queue and statistics.
///
/// Generic over the protocol's line state `L` and MSHR payload `R`; the
/// protocol's transition rules live in an [`L1Policy`] that receives
/// `&mut L1Chassis` on every submit and message.
#[derive(Debug)]
pub struct L1Chassis<L, R> {
    id: usize,
    n_cores: usize,
    n_tiles: usize,
    l2_banks: usize,
    issue_latency: u64,
    /// The data/tag array.
    pub cache: CacheArray<L>,
    /// In-flight misses, one per line.
    pub mshrs: MshrTable<R>,
    /// Evicted-but-unacknowledged lines (eviction/forward races).
    pub wb: WritebackBuffer,
    /// Outgoing messages, held for the modelled issue latency.
    pub outbox: Outbox,
    /// Finished misses awaiting the core's drain.
    pub completions: Vec<Completion>,
    /// Per-L1 statistics (the paper's Figures 5–9 breakdowns).
    pub stats: L1Stats,
    /// The fault-injection seam: inert by default, armed by the
    /// protocol factory when a [`tsocc_faults::FaultPlan`] targets this
    /// controller. Policies consult it at their mutation hook sites.
    pub faults: FaultState,
}

impl<L: Copy, R> L1Chassis<L, R> {
    /// Creates the chassis for core `id` on a machine with `n_cores`
    /// cores and `n_tiles` L2 tiles of `l2_banks` banks each (the
    /// line→home interleaving granularity; `1` for the paper's Table 2
    /// machine).
    pub fn new(
        id: usize,
        n_cores: usize,
        n_tiles: usize,
        l2_banks: usize,
        issue_latency: u64,
        params: CacheParams,
    ) -> Self {
        L1Chassis {
            id,
            n_cores,
            n_tiles,
            l2_banks,
            issue_latency,
            cache: CacheArray::new(params),
            mshrs: MshrTable::new(),
            wb: WritebackBuffer::new(),
            outbox: Outbox::new(),
            completions: Vec::new(),
            stats: L1Stats::default(),
            faults: FaultState::none(),
        }
    }

    /// This core's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of cores in the machine (reset broadcasts).
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Number of L2 tiles (home interleaving).
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// This controller's network address.
    pub fn agent(&self) -> Agent {
        Agent::L1(self.id)
    }

    /// The home L2 tile of `line`. Mirrors
    /// `MachineShape::home_tile` — the two must agree or requests and
    /// memory-controller routing diverge.
    pub fn home(&self, line: LineAddr) -> Agent {
        Agent::L2(line.home_banked(self.n_tiles, self.l2_banks))
    }

    /// Queues `msg` to `dst`, charged with the tag-array issue latency.
    pub fn send(&mut self, now: Cycle, dst: Agent, msg: Msg) {
        self.outbox.push(
            now + self.issue_latency,
            NetMsg {
                src: self.agent(),
                dst,
                msg,
            },
        );
    }

    /// Whether a new transaction may start on `line` (no MSHR and no
    /// in-flight writeback).
    pub fn line_free(&self, line: LineAddr) -> bool {
        !self.mshrs.contains(line) && self.wb.get(line).is_none()
    }

    /// Sends the directory Unblock that closes an acknowledged grant.
    pub fn send_unblock(&mut self, now: Cycle, line: LineAddr) {
        let home = self.home(line);
        let from = self.id;
        self.send(now, home, Msg::Unblock { line, from });
    }

    /// Parks an evicted line in the writeback buffer and sends the
    /// matching PUT to its home tile: PutE for clean lines, PutM (with
    /// the given timestamp/epoch) for dirty ones.
    pub fn park_writeback(
        &mut self,
        now: Cycle,
        line: LineAddr,
        data: LineData,
        dirty: bool,
        ts: Ts,
        epoch: Epoch,
    ) {
        self.wb.insert(line, data, dirty, ts, epoch);
        let home = self.home(line);
        let msg = if dirty {
            Msg::PutM {
                line,
                data,
                ts,
                epoch,
            }
        } else {
            Msg::PutE { line }
        };
        self.send(now, home, msg);
    }

    /// Installs a line delivered by a data response: replaces a
    /// resident copy in place, otherwise inserts — never displacing a
    /// line with an in-flight MSHR. The policy writes back (or drops)
    /// the victim of an [`Install::Evicted`] outcome.
    pub fn install(&mut self, now: Cycle, line: LineAddr, entry: L) -> Install<L> {
        if let Some(resident) = self.cache.peek_mut(line) {
            *resident = entry;
            return Install::Done;
        }
        let mshrs = &self.mshrs;
        let outcome = self
            .cache
            .insert(line, entry, now.as_u64(), |la, _| !mshrs.contains(la));
        match outcome {
            InsertOutcome::Installed => Install::Done,
            InsertOutcome::Evicted(victim, old) => Install::Evicted(victim, old),
            InsertOutcome::SetFull => Install::NoWay,
        }
    }
}

impl<L: Copy, R: Clone> L1Chassis<L, R> {
    /// Makes `self` a copy of `src`, a chassis of the same geometry,
    /// keeping `self`'s allocations. Lists every field, so a new one
    /// cannot be forgotten here.
    pub fn copy_from(&mut self, src: &Self) {
        let L1Chassis {
            id,
            n_cores,
            n_tiles,
            l2_banks,
            issue_latency,
            cache,
            mshrs,
            wb,
            outbox,
            completions,
            stats,
            faults,
        } = self;
        *id = src.id;
        *n_cores = src.n_cores;
        *n_tiles = src.n_tiles;
        *l2_banks = src.l2_banks;
        *issue_latency = src.issue_latency;
        cache.copy_from(&src.cache);
        mshrs.copy_from(&src.mshrs);
        wb.copy_from(&src.wb);
        outbox.copy_from(&src.outbox);
        completions.clone_from(&src.completions);
        stats.clone_from(&src.stats);
        *faults = src.faults;
    }
}

/// A coherence protocol's L1 transition rules, layered over an
/// [`L1Chassis`].
///
/// Policies hold only protocol-specific state (timestamp tables,
/// configuration); everything structural lives in the chassis handed to
/// every method. [`L1Ctl`] wires a policy + chassis pair into the full
/// [`L1Controller`] surface.
pub trait L1Policy {
    /// Per-line protocol state (Invalid is represented by absence).
    type Line: Copy + std::fmt::Debug;
    /// Per-miss MSHR payload.
    type Mshr: Clone + std::fmt::Debug;

    /// Makes `self` a copy of `src`, keeping `self`'s allocations (see
    /// [`CacheController::copy_from`]).
    fn copy_from(&mut self, src: &Self);

    /// Attempts a core operation (load/store/RMW/fence).
    fn submit(
        &mut self,
        ch: &mut L1Chassis<Self::Line, Self::Mshr>,
        now: Cycle,
        op: CoreOp,
    ) -> Submit;

    /// Delivers one network message.
    fn handle_message(
        &mut self,
        ch: &mut L1Chassis<Self::Line, Self::Mshr>,
        now: Cycle,
        src: Agent,
        msg: Msg,
    );

    /// Classifies a resident line's current core-facing permission for
    /// [`CacheController::access_lines`]. The conservative default
    /// (read-only) keeps every axiom trivially satisfied for policies
    /// that don't opt in; MESI and TSO-CC override it.
    fn line_access(&self, _line: &Self::Line) -> LineAccess {
        LineAccess::Read
    }
}

/// An L1 controller assembled from an [`L1Chassis`] and an
/// [`L1Policy`]: the concrete `MesiL1` / `TsoCcL1` types are aliases of
/// this.
#[derive(Debug)]
pub struct L1Ctl<P: L1Policy> {
    /// The protocol-independent machinery.
    pub chassis: L1Chassis<P::Line, P::Mshr>,
    /// The protocol's transition rules and private state.
    pub policy: P,
}

impl<P: L1Policy> L1Ctl<P> {
    /// Assembles a controller.
    pub fn assemble(chassis: L1Chassis<P::Line, P::Mshr>, policy: P) -> Self {
        L1Ctl { chassis, policy }
    }
}

impl<P: L1Policy + 'static> CacheController for L1Ctl<P> {
    fn handle_message(&mut self, now: Cycle, src: Agent, msg: Msg) {
        self.policy.handle_message(&mut self.chassis, now, src, msg);
    }

    fn tick(&mut self, _now: Cycle) {}

    fn drain_outbox(&mut self, now: Cycle, out: &mut Vec<NetMsg>) {
        self.chassis.outbox.drain_ready_into(now, out);
    }

    fn is_quiescent(&self) -> bool {
        self.chassis.mshrs.is_empty()
            && self.chassis.wb.is_empty()
            && self.chassis.outbox.is_empty()
    }

    fn next_event(&self) -> Cycle {
        // MSHRs and writeback entries complete on message arrival; the
        // only self-driven action is injecting queued outbox messages.
        self.chassis.outbox.next_ready()
    }

    fn probe(&self) -> CtrlProbe {
        let mut mshr_lines: Vec<LineAddr> = self.chassis.mshrs.iter().map(|(l, _)| l).collect();
        mshr_lines.sort_unstable();
        let mut wb_lines: Vec<LineAddr> = self.chassis.wb.lines().collect();
        wb_lines.sort_unstable();
        CtrlProbe {
            mshr_lines,
            wb_lines,
            busy: Vec::new(),
            replay: 0,
            outbox: self.chassis.outbox.len(),
        }
    }

    fn access_lines(&self) -> Vec<(LineAddr, LineAccess)> {
        let mut lines = Vec::new();
        self.access_lines_into(&mut lines);
        lines
    }

    fn access_lines_into(&self, out: &mut Vec<(LineAddr, LineAccess)>) {
        let start = out.len();
        out.extend(
            self.chassis
                .cache
                .iter()
                .map(|(line, l)| (line, self.policy.line_access(l))),
        );
        out[start..].sort_unstable();
    }

    fn copy_from(&mut self, src: &dyn CacheController) {
        let src: &Self = same_type(src);
        let L1Ctl { chassis, policy } = self;
        chassis.copy_from(&src.chassis);
        policy.copy_from(&src.policy);
    }
}

impl<P: L1Policy + 'static> L1Controller for L1Ctl<P> {
    fn submit(&mut self, now: Cycle, op: CoreOp) -> Submit {
        self.policy.submit(&mut self.chassis, now, op)
    }

    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.chassis.completions);
    }

    fn stats(&self) -> &L1Stats {
        &self.chassis.stats
    }
}

// ---------------------------------------------------------------------------
// L2 chassis

/// One in-flight directory transaction: the protocol's state machine
/// `K` plus the bookkeeping every blocking directory shares — whether a
/// requester Unblock and/or owner data are still owed, and the requests
/// queued behind the line.
#[derive(Debug)]
pub struct Txn<K> {
    /// Protocol-specific transaction state.
    pub kind: K,
    /// A requester Unblock is still outstanding.
    pub need_unblock: bool,
    /// Owner-supplied data (downgrade/recall/acks) is still
    /// outstanding.
    pub need_owner_data: bool,
    /// Requests that arrived while the line was busy, replayed in
    /// arrival order once the transaction finishes.
    pub waiting: VecDeque<(Agent, Msg)>,
}

impl<K> Txn<K> {
    /// A fresh transaction with an empty waiting queue.
    pub fn new(kind: K, need_unblock: bool, need_owner_data: bool) -> Self {
        Txn {
            kind,
            need_unblock,
            need_owner_data,
            waiting: VecDeque::new(),
        }
    }
}

impl<K: Clone> Clone for Txn<K> {
    fn clone(&self) -> Self {
        Txn {
            kind: self.kind.clone(),
            need_unblock: self.need_unblock,
            need_owner_data: self.need_owner_data,
            waiting: self.waiting.clone(),
        }
    }

    /// Copies `src` field by field, keeping `self`'s waiting queue.
    fn clone_from(&mut self, src: &Self) {
        let Txn {
            kind,
            need_unblock,
            need_owner_data,
            waiting,
        } = self;
        kind.clone_from(&src.kind);
        *need_unblock = src.need_unblock;
        *need_owner_data = src.need_owner_data;
        waiting.clone_from(&src.waiting);
    }
}

/// The protocol-independent core of an L2 tile controller: geometry,
/// the line array, the busy (transaction) table, the replay queue, the
/// outbox and statistics.
#[derive(Debug)]
pub struct L2Chassis<L, K> {
    tile: usize,
    n_cores: usize,
    n_mem: usize,
    latency: u64,
    /// The data/directory array.
    pub cache: CacheArray<L>,
    /// In-flight transactions, one per line.
    pub busy: LineMap<Txn<K>>,
    /// Requests unblocked by a finished transaction, reprocessed on the
    /// same cycle's tick.
    pub replay: VecDeque<(Agent, Msg)>,
    /// Outgoing messages, held for the modelled array latency.
    pub outbox: Outbox,
    /// Per-tile statistics.
    pub stats: L2Stats,
    /// The fault-injection seam: inert by default, armed by the
    /// protocol factory when a [`tsocc_faults::FaultPlan`] targets this
    /// tile. Policies consult it at their mutation hook sites.
    pub faults: FaultState,
}

impl<L: Copy, K> L2Chassis<L, K> {
    /// Creates the chassis for tile `tile`.
    pub fn new(
        tile: usize,
        n_cores: usize,
        n_mem: usize,
        latency: u64,
        params: CacheParams,
    ) -> Self {
        L2Chassis {
            tile,
            n_cores,
            n_mem,
            latency,
            cache: CacheArray::new(params),
            busy: LineMap::new(),
            replay: VecDeque::new(),
            outbox: Outbox::new(),
            stats: L2Stats::default(),
            faults: FaultState::none(),
        }
    }

    /// This tile's index.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Number of cores (invalidation fan-out).
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// This controller's network address.
    pub fn agent(&self) -> Agent {
        Agent::L2(self.tile)
    }

    /// The memory controller backing this tile.
    pub fn mem(&self) -> Agent {
        Agent::Mem(self.tile % self.n_mem)
    }

    /// Queues `msg` to `dst`, charged with the array access latency.
    pub fn send(&mut self, now: Cycle, dst: Agent, msg: Msg) {
        self.outbox.push(
            now + self.latency,
            NetMsg {
                src: self.agent(),
                dst,
                msg,
            },
        );
    }

    /// Opens a transaction on `line`.
    ///
    /// # Panics
    ///
    /// Panics if the line is already busy (requests against busy lines
    /// queue in [`Txn::waiting`] and never reach the policy).
    pub fn begin(&mut self, line: LineAddr, txn: Txn<K>) {
        let prev = self.busy.insert(line, txn);
        assert!(
            prev.is_none(),
            "L2[{}]: double transaction on {line}",
            self.tile
        );
    }

    /// Finishes the transaction on `line` if all terminal events
    /// (Unblock, owner data) have arrived, releasing queued requests to
    /// the replay queue.
    pub fn maybe_finish(&mut self, line: LineAddr) {
        let done = self
            .busy
            .get(line)
            .is_some_and(|t| !t.need_unblock && !t.need_owner_data);
        if done {
            let txn = self.busy.remove(line).expect("checked");
            self.replay.extend(txn.waiting);
        }
    }

    /// Unconditionally closes the transaction on `line`, releasing its
    /// queued requests, and returns it (for terminal handlers like
    /// RecallData that consume the transaction state). `None` when the
    /// line was idle — policies turn that into their own "stray
    /// message" panic with protocol context.
    pub fn finish(&mut self, line: LineAddr) -> Option<Txn<K>> {
        let mut txn = self.busy.remove(line)?;
        self.replay.extend(std::mem::take(&mut txn.waiting));
        Some(txn)
    }

    /// Installs a fetched line; returns the displaced victim (which the
    /// policy evicts) if one was chosen. Never displaces a busy line.
    ///
    /// # Panics
    ///
    /// Panics if every way of the set is pinned busy (directories size
    /// their busy tables so this cannot happen).
    pub fn install(&mut self, now: Cycle, line: LineAddr, entry: L) -> Option<(LineAddr, L)> {
        let busy = &self.busy;
        let outcome = self
            .cache
            .insert(line, entry, now.as_u64(), |la, _| !busy.contains_key(la));
        match outcome {
            InsertOutcome::Installed => None,
            InsertOutcome::Evicted(victim, old) => Some((victim, old)),
            InsertOutcome::SetFull => {
                panic!("L2[{}]: no evictable way for {line}", self.tile)
            }
        }
    }
}

impl<L: Copy, K: Clone> L2Chassis<L, K> {
    /// Makes `self` a copy of `src`, a chassis of the same geometry,
    /// keeping `self`'s allocations. Lists every field, so a new one
    /// cannot be forgotten here.
    pub fn copy_from(&mut self, src: &Self) {
        let L2Chassis {
            tile,
            n_cores,
            n_mem,
            latency,
            cache,
            busy,
            replay,
            outbox,
            stats,
            faults,
        } = self;
        *tile = src.tile;
        *n_cores = src.n_cores;
        *n_mem = src.n_mem;
        *latency = src.latency;
        cache.copy_from(&src.cache);
        busy.copy_from(&src.busy);
        replay.clone_from(&src.replay);
        outbox.copy_from(&src.outbox);
        stats.clone_from(&src.stats);
        *faults = src.faults;
    }
}

/// A coherence protocol's L2 (directory) transition rules, layered over
/// an [`L2Chassis`].
///
/// The chassis driver ([`L2Ctl`]) owns the blocking-directory
/// discipline shared by every protocol: requests against busy lines
/// queue and replay in order, Unblock messages close grants, and the
/// replay queue drains on tick. Policies see only requests against idle
/// lines plus their own protocol's response messages.
pub trait L2Policy {
    /// Per-line directory state (absence = not present).
    type Line: Copy + std::fmt::Debug;
    /// Protocol-specific transaction state machine.
    type Busy: Clone + std::fmt::Debug;

    /// Makes `self` a copy of `src`, keeping `self`'s allocations (see
    /// [`CacheController::copy_from`]).
    fn copy_from(&mut self, src: &Self);

    /// A GetS (read request) against an idle line.
    fn gets(
        &mut self,
        ch: &mut L2Chassis<Self::Line, Self::Busy>,
        now: Cycle,
        line: LineAddr,
        requester: usize,
    );

    /// A GetX (write/upgrade request) against an idle line.
    fn getx(
        &mut self,
        ch: &mut L2Chassis<Self::Line, Self::Busy>,
        now: Cycle,
        line: LineAddr,
        requester: usize,
    );

    /// A PutE (`data == None`) or PutM (`data == Some`) against an idle
    /// line; `ts`/`epoch` carry the writer's timestamp for protocols
    /// that track one.
    #[allow(clippy::too_many_arguments)]
    fn put(
        &mut self,
        ch: &mut L2Chassis<Self::Line, Self::Busy>,
        now: Cycle,
        line: LineAddr,
        from: usize,
        data: Option<LineData>,
        ts: Ts,
        epoch: Epoch,
    );

    /// Every message that is neither a queueable request nor an
    /// Unblock: data/ack responses, recalls, resets.
    fn handle_message(
        &mut self,
        ch: &mut L2Chassis<Self::Line, Self::Busy>,
        now: Cycle,
        src: Agent,
        msg: Msg,
    );
}

/// An L2 tile controller assembled from an [`L2Chassis`] and an
/// [`L2Policy`]: the concrete `MesiL2` / `TsoCcL2` types are aliases of
/// this.
#[derive(Debug)]
pub struct L2Ctl<P: L2Policy> {
    /// The protocol-independent machinery.
    pub chassis: L2Chassis<P::Line, P::Busy>,
    /// The protocol's transition rules and private state.
    pub policy: P,
}

impl<P: L2Policy> L2Ctl<P> {
    /// Assembles a controller.
    pub fn assemble(chassis: L2Chassis<P::Line, P::Busy>, policy: P) -> Self {
        L2Ctl { chassis, policy }
    }

    /// Queues the request if its line is busy, otherwise dispatches it
    /// to the policy — the blocking-directory discipline.
    fn process_request(&mut self, now: Cycle, src: Agent, msg: Msg) {
        let line = match &msg {
            Msg::GetS { line } | Msg::GetX { line } | Msg::PutE { line } => *line,
            Msg::PutM { line, .. } => *line,
            other => unreachable!("not a queueable request: {other:?}"),
        };
        if let Some(txn) = self.chassis.busy.get_mut(line) {
            txn.waiting.push_back((src, msg));
            return;
        }
        let requester = match src {
            Agent::L1(i) => i,
            other => panic!("request from non-L1 {other}"),
        };
        match msg {
            Msg::GetS { .. } => self.policy.gets(&mut self.chassis, now, line, requester),
            Msg::GetX { .. } => self.policy.getx(&mut self.chassis, now, line, requester),
            Msg::PutE { .. } => self.policy.put(
                &mut self.chassis,
                now,
                line,
                requester,
                None,
                Ts::INVALID,
                Epoch::ZERO,
            ),
            Msg::PutM {
                data, ts, epoch, ..
            } => self.policy.put(
                &mut self.chassis,
                now,
                line,
                requester,
                Some(data),
                ts,
                epoch,
            ),
            _ => unreachable!(),
        }
    }
}

impl<P: L2Policy + 'static> CacheController for L2Ctl<P> {
    fn handle_message(&mut self, now: Cycle, src: Agent, msg: Msg) {
        match msg {
            Msg::GetS { .. } | Msg::GetX { .. } | Msg::PutE { .. } | Msg::PutM { .. } => {
                self.process_request(now, src, msg);
            }
            Msg::Unblock { line, .. } => {
                let tile = self.chassis.tile;
                let txn = self
                    .chassis
                    .busy
                    .get_mut(line)
                    .unwrap_or_else(|| panic!("L2[{tile}]: Unblock for idle {line}"));
                txn.need_unblock = false;
                self.chassis.maybe_finish(line);
            }
            other => self
                .policy
                .handle_message(&mut self.chassis, now, src, other),
        }
    }

    fn tick(&mut self, now: Cycle) {
        // Only the requests queued when the tick starts: those released
        // while they are processed wait for the next tick.
        for _ in 0..self.chassis.replay.len() {
            let (src, msg) = self.chassis.replay.pop_front().expect("a queued request");
            self.process_request(now, src, msg);
        }
    }

    fn drain_outbox(&mut self, now: Cycle, out: &mut Vec<NetMsg>) {
        self.chassis.outbox.drain_ready_into(now, out);
    }

    fn is_quiescent(&self) -> bool {
        self.chassis.busy.is_empty()
            && self.chassis.replay.is_empty()
            && self.chassis.outbox.is_empty()
    }

    fn next_event(&self) -> Cycle {
        // The replay queue is filled by message handling and drained by
        // the same cycle's tick, so between steps it is empty; if a
        // driver queries mid-cycle anyway, demand an immediate tick.
        if !self.chassis.replay.is_empty() {
            return Cycle::ZERO;
        }
        self.chassis.outbox.next_ready()
    }

    fn probe(&self) -> CtrlProbe {
        let mut busy: Vec<BusyProbe> = self
            .chassis
            .busy
            .iter()
            .map(|(line, txn)| BusyProbe {
                line,
                need_unblock: txn.need_unblock,
                need_owner_data: txn.need_owner_data,
                queued: txn.waiting.len(),
            })
            .collect();
        busy.sort_unstable_by_key(|b| b.line);
        CtrlProbe {
            mshr_lines: Vec::new(),
            wb_lines: Vec::new(),
            busy,
            replay: self.chassis.replay.len(),
            outbox: self.chassis.outbox.len(),
        }
    }

    fn copy_from(&mut self, src: &dyn CacheController) {
        let src: &Self = same_type(src);
        let L2Ctl { chassis, policy } = self;
        chassis.copy_from(&src.chassis);
        policy.copy_from(&src.policy);
    }
}

impl<P: L2Policy + 'static> L2Controller for L2Ctl<P> {
    fn stats(&self) -> &L2Stats {
        &self.chassis.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_mem::Addr;

    #[test]
    fn mshr_table_invariants() {
        let mut t: MshrTable<u32> = MshrTable::new();
        let line = Addr::new(0x40).line();
        assert!(t.is_empty());
        t.alloc(line, 7);
        assert!(t.contains(line));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(line), Some(&7));
        *t.get_mut(line).unwrap() = 9;
        assert_eq!(t.remove(line), Some(9));
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic]
    fn duplicate_mshr_panics() {
        let mut t: MshrTable<u32> = MshrTable::new();
        let line = Addr::new(0x40).line();
        t.alloc(line, 1);
        t.alloc(line, 2);
    }

    #[test]
    fn txn_lifecycle() {
        let mut ch: L2Chassis<u8, u8> = L2Chassis::new(0, 2, 1, 1, CacheParams::new(4, 2));
        let line = Addr::new(0x40).line();
        ch.begin(line, Txn::new(0, true, false));
        ch.maybe_finish(line);
        assert!(ch.busy.contains_key(line), "unblock still owed");
        ch.busy.get_mut(line).unwrap().need_unblock = false;
        ch.maybe_finish(line);
        assert!(ch.busy.is_empty());
    }
}
