//! TSO-CC private L1 cache controller, as a policy over the shared
//! [`L1Chassis`].

use tsocc_coherence::{
    Agent, Completion, CoreOp, Epoch, Grant, Install, L1Chassis, L1Ctl, L1Policy, LineAccess, Msg,
    SelfInvCause, Submit, Ts, TsSource,
};
use tsocc_isa::RmwOp;
use tsocc_mem::{Addr, CacheParams, LineAddr, LineData};
use tsocc_sim::Cycle;

use crate::config::TsoCcConfig;

/// L1 line states (Invalid is represented by absence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Untracked shared copy; may hit `max_acc` times before a forced
    /// re-request; removed by self-invalidation sweeps.
    Shared,
    /// Shared read-only copy; hits without limit; invalidated by
    /// broadcast on remote writes; survives sweeps.
    SharedRO,
    Exclusive,
    Modified,
}

/// One resident TSO-CC L1 line (opaque outside the policy).
#[derive(Clone, Copy, Debug)]
pub struct Line {
    state: State,
    data: LineData,
    /// Hits consumed since the line was (re-)obtained (`b.acnt`).
    acnt: u64,
    /// Last-written timestamp (`b.ts`), valid only once written by this
    /// core.
    ts: Ts,
}

#[derive(Clone, Copy, Debug)]
enum MshrOp {
    Load { word: usize },
    Store { word: usize, value: u64 },
    Rmw { word: usize, op: RmwOp },
}

/// One in-flight TSO-CC L1 miss (opaque outside the policy).
#[derive(Clone, Debug)]
pub struct Mshr {
    op: MshrOp,
    /// An invalidation raced past the data response (SharedRO broadcast
    /// invalidation or inclusive L2 eviction). The arriving shared data
    /// is usable for the access but must not be cached (§3.4 races).
    poisoned: bool,
}

/// Structural configuration of a TSO-CC L1 (the protocol parameters
/// live in [`TsoCcConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct TsoCcL1Config {
    /// This core's id.
    pub id: usize,
    /// Total number of cores (for reset broadcasts).
    pub n_cores: usize,
    /// Number of L2 tiles.
    pub n_tiles: usize,
    /// L2 banks per tile (home-interleaving granularity; 1 in Table 2).
    pub l2_banks: usize,
    /// Cache geometry (32 KiB 4-way in Table 2).
    pub params: CacheParams,
    /// Tag-array latency charged before an outgoing request (cycles).
    pub issue_latency: u64,
    /// Protocol parameters.
    pub proto: TsoCcConfig,
}

impl TsoCcL1Config {
    /// Builds the controller: a [`TsoCcL1Policy`] over a fresh chassis.
    pub fn build(self) -> TsoCcL1 {
        L1Ctl::assemble(
            L1Chassis::new(
                self.id,
                self.n_cores,
                self.n_tiles,
                self.l2_banks,
                self.issue_latency,
                self.params,
            ),
            TsoCcL1Policy::new(self.proto, self.n_cores, self.n_tiles),
        )
    }
}

/// The TSO-CC L1 controller for one core.
pub type TsoCcL1 = L1Ctl<TsoCcL1Policy>;

/// The TSO-CC L1 transition rules and per-core protocol state.
///
/// Owns the core-local timestamp source, the write-group counter, the
/// last-seen timestamp tables (`ts_L1`, `ts_L2`) and the epoch-id tables
/// of Table 1 — everything structural (lines, MSHRs, the writeback
/// buffer) lives in the chassis.
#[derive(Debug)]
pub struct TsoCcL1Policy {
    proto: TsoCcConfig,
    /// Current write timestamp source.
    ts_src: Ts,
    /// Writes consumed in the current timestamp group.
    wg_count: u64,
    /// Current epoch of this core's timestamp source.
    epoch: Epoch,
    /// Last-seen write timestamp per remote core (`ts_L1`), indexed by
    /// core id; [`Ts::INVALID`] means "never seen" (every recorded
    /// timestamp is valid, so the sentinel is unambiguous).
    ts_l1: Vec<Ts>,
    /// Expected epoch per remote core's timestamp source, indexed by
    /// core id ([`Epoch::ZERO`] until a reset is observed).
    epochs_l1: Vec<Epoch>,
    /// Last-seen SharedRO timestamp per L2 tile (`ts_L2`), indexed by
    /// tile; [`Ts::INVALID`] means "never seen".
    ts_l2: Vec<Ts>,
    /// Expected epoch per L2 tile's timestamp source, indexed by tile.
    epochs_l2: Vec<Epoch>,
}

type Ch = L1Chassis<Line, Mshr>;

impl TsoCcL1Policy {
    /// Creates the policy state for one core.
    fn new(proto: TsoCcConfig, n_cores: usize, n_tiles: usize) -> Self {
        TsoCcL1Policy {
            proto,
            ts_src: Ts::SMALLEST_VALID,
            wg_count: 0,
            epoch: Epoch::ZERO,
            ts_l1: vec![Ts::INVALID; n_cores],
            epochs_l1: vec![Epoch::ZERO; n_cores],
            ts_l2: vec![Ts::INVALID; n_tiles],
            epochs_l2: vec![Epoch::ZERO; n_tiles],
        }
    }

    // ---- timestamp management (§3.3 / §3.5) -----------------------------

    /// Consumes one write: returns the timestamp to stamp the line with
    /// and advances the group/source counters, broadcasting a reset on
    /// wrap-around.
    fn on_write(&mut self, ch: &mut Ch, now: Cycle) -> Ts {
        let Some(params) = self.proto.write_ts else {
            return Ts::INVALID;
        };
        let stamp = self.ts_src;
        self.wg_count += 1;
        if self.wg_count >= params.group_size() {
            self.wg_count = 0;
            if self.ts_src.as_u64() >= params.max_ts() {
                self.reset_ts(ch, now);
            } else {
                self.ts_src = self.ts_src.next();
            }
        }
        stamp
    }

    /// Wraps the timestamp source: new epoch, broadcast, restart just
    /// above the smallest valid timestamp (§3.5).
    fn reset_ts(&mut self, ch: &mut Ch, now: Cycle) {
        if ch.faults.skip_ts_reset() {
            // Injected fault: wrap the source silently — no epoch
            // advance, no broadcast. Small post-wrap timestamps then
            // defeat remote `ts >= last_seen` acquire checks, so stale
            // lines survive where the protocol demands
            // self-invalidation.
            self.ts_src = Ts::SMALLEST_VALID.next();
            return;
        }
        self.epoch = self.epoch.next(self.proto.epoch_bits);
        self.ts_src = Ts::SMALLEST_VALID.next();
        ch.stats.ts_resets.inc();
        let msg = Msg::TsReset {
            source: TsSource::L1(ch.id()),
            epoch: self.epoch,
        };
        for core in 0..ch.n_cores() {
            if core != ch.id() {
                ch.send(now, Agent::L1(core), msg.clone());
            }
        }
        for tile in 0..ch.n_tiles() {
            ch.send(now, Agent::L2(tile), msg.clone());
        }
    }

    /// Clamps a line timestamp against the current source ("compare
    /// against the current timestamp-source", §3.5): a timestamp from a
    /// previous epoch must not be sent out larger than the source.
    fn clamp_own_ts(&self, ts: Ts) -> Ts {
        if !ts.is_valid() {
            Ts::INVALID
        } else if ts <= self.ts_src {
            ts
        } else {
            Ts::SMALLEST_VALID
        }
    }

    // ---- self-invalidation (§3.2 / §3.3 / §3.4) --------------------------

    /// Invalidates all Shared lines (SharedRO, Exclusive and Modified
    /// lines survive).
    fn self_invalidate(&mut self, ch: &mut Ch, cause: SelfInvCause) {
        let removed = ch.cache.retain(|_, l| l.state != State::Shared);
        ch.stats.record_selfinv(cause, removed as u64);
    }

    /// Applies the potential-acquire detection rules to a data
    /// response; called for every L1 miss response before installing.
    fn acquire_check(
        &mut self,
        ch: &mut Ch,
        grant: Grant,
        writer: usize,
        ts: Ts,
        epoch: Epoch,
        ts_source: Option<TsSource>,
    ) {
        match grant {
            Grant::SharedRO => {
                let Some(TsSource::L2(tile)) = ts_source else {
                    // No SharedRO timestamps (CC-shared-to-L2): always a
                    // mandatory self-invalidation.
                    self.self_invalidate(ch, SelfInvCause::InvalidTs);
                    return;
                };
                // Epoch mismatch: handle as if the reset message arrived
                // (the response raced past a TsReset broadcast).
                if epoch != self.epochs_l2[tile] {
                    self.epochs_l2[tile] = epoch;
                    self.ts_l2[tile] = Ts::INVALID;
                }
                if !ts.is_valid() {
                    self.self_invalidate(ch, SelfInvCause::InvalidTs);
                    return;
                }
                let seen = self.ts_l2[tile];
                if !seen.is_valid() {
                    // Never read from this tile (or reset dropped the
                    // entry): mandatory self-invalidation.
                    self.self_invalidate(ch, SelfInvCause::InvalidTs);
                    self.ts_l2[tile] = ts;
                } else if ts > seen {
                    // SharedRO timestamps are grouped (§3.4), so the
                    // potential-acquire rule is "larger than".
                    self.self_invalidate(ch, SelfInvCause::AcquireSro);
                    self.ts_l2[tile] = ts;
                }
            }
            Grant::Exclusive | Grant::Shared => {
                if writer == ch.id() {
                    // Reading our own last write implies no new
                    // happened-before edge: no self-invalidation (§3.2).
                    return;
                }
                let Some(params) = self.proto.write_ts else {
                    // Basic protocol: every remote data response
                    // self-invalidates; the timestamp is (vacuously)
                    // invalid.
                    self.self_invalidate(ch, SelfInvCause::InvalidTs);
                    return;
                };
                if writer == usize::MAX || !ts.is_valid() {
                    self.self_invalidate(ch, SelfInvCause::InvalidTs);
                    return;
                }
                if let Some(TsSource::L1(w)) = ts_source {
                    debug_assert_eq!(w, writer);
                    if epoch != self.epochs_l1[w] {
                        self.epochs_l1[w] = epoch;
                        self.ts_l1[w] = Ts::INVALID;
                    }
                }
                let seen = self.ts_l1[writer];
                if !seen.is_valid() {
                    // Never read from this writer before (§3.3).
                    self.self_invalidate(ch, SelfInvCause::InvalidTs);
                    self.ts_l1[writer] = ts;
                } else {
                    // Write groups share timestamps, so with groups
                    // the rule is >=; with group size 1 it is > (§3.3).
                    let acquire = if params.group_size() > 1 {
                        ts >= seen
                    } else {
                        ts > seen
                    };
                    if acquire {
                        self.self_invalidate(ch, SelfInvCause::AcquireNonSro);
                    }
                    if ts > seen {
                        self.ts_l1[writer] = ts;
                    }
                }
            }
        }
    }

    // ---- eviction / install ----------------------------------------------

    /// Writes an evicted line back: silent for Shared/SharedRO, PutE /
    /// timestamped PutM for private lines.
    fn writeback(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr, l: Line) {
        match l.state {
            // Shared and SharedRO lines are untracked: silent (§3.2,
            // §3.4 — the coarse group vector stays conservatively set).
            State::Shared | State::SharedRO => {}
            State::Exclusive => {
                ch.park_writeback(now, line, l.data, false, Ts::INVALID, Epoch::ZERO);
            }
            State::Modified => {
                let ts = self.clamp_own_ts(l.ts);
                ch.park_writeback(now, line, l.data, true, ts, self.epoch);
            }
        }
    }

    /// Handles an arriving data response for an outstanding miss.
    fn complete_miss(
        &mut self,
        ch: &mut Ch,
        now: Cycle,
        line: LineAddr,
        data: LineData,
        grant: Grant,
        ack_required: bool,
    ) {
        if ch.faults.hold_mshr(line) {
            // Injected fault: the MSHR never completes. The request
            // wedges and the system's hang diagnosis takes over.
            return;
        }
        let mshr = ch
            .mshrs
            .remove(line)
            .unwrap_or_else(|| panic!("L1[{}]: data for no MSHR {line}", ch.id()));
        let poisoned = mshr.poisoned;
        let mut data = data;
        let (entry, completion) = match mshr.op {
            MshrOp::Load { word } => {
                let value = data.read_word(word);
                let state = match grant {
                    Grant::Exclusive => State::Exclusive,
                    Grant::Shared => State::Shared,
                    Grant::SharedRO => State::SharedRO,
                };
                let entry = Line {
                    state,
                    data,
                    acnt: 0,
                    ts: Ts::INVALID,
                };
                (Some(entry), Completion::Load(value))
            }
            MshrOp::Store { word, value } => {
                assert_eq!(grant, Grant::Exclusive, "stores need exclusive grants");
                data.write_word(word, value);
                let ts = self.on_write(ch, now);
                let entry = Line {
                    state: State::Modified,
                    data,
                    acnt: 0,
                    ts,
                };
                (Some(entry), Completion::Store)
            }
            MshrOp::Rmw { word, op } => {
                assert_eq!(grant, Grant::Exclusive, "RMWs need exclusive grants");
                let old = data.read_word(word);
                data.write_word(word, op.apply(old));
                let ts = self.on_write(ch, now);
                let entry = Line {
                    state: State::Modified,
                    data,
                    acnt: 0,
                    ts,
                };
                (Some(entry), Completion::Load(old))
            }
        };
        if let Some(entry) = entry {
            // CC-shared-to-L2 never caches Shared data; poisoned shared
            // grants (a racing invalidation) must not be cached either.
            let cacheable = !((entry.state == State::Shared && self.proto.max_acc == 0)
                || (poisoned && matches!(entry.state, State::Shared | State::SharedRO)));
            if cacheable {
                match ch.install(now, line, entry) {
                    Install::Done => {}
                    Install::Evicted(victim, old) => self.writeback(ch, now, victim, old),
                    Install::NoWay => {
                        // No evictable way: hand the line straight back.
                        self.writeback(ch, now, line, entry);
                    }
                }
            } else if ch.cache.peek(line).is_some() {
                // An expired or invalidation-raced resident copy must
                // not linger with stale data.
                ch.cache.remove(line);
            }
        }
        if ack_required {
            ch.send_unblock(now, line);
        }
        ch.completions.push(completion);
    }
}

impl L1Policy for TsoCcL1Policy {
    type Line = Line;
    type Mshr = Mshr;

    /// Lists every field, so a new one cannot be forgotten here.
    fn copy_from(&mut self, src: &Self) {
        let TsoCcL1Policy {
            proto,
            ts_src,
            wg_count,
            epoch,
            ts_l1,
            epochs_l1,
            ts_l2,
            epochs_l2,
        } = self;
        *proto = src.proto;
        *ts_src = src.ts_src;
        *wg_count = src.wg_count;
        *epoch = src.epoch;
        ts_l1.clone_from(&src.ts_l1);
        epochs_l1.clone_from(&src.epochs_l1);
        ts_l2.clone_from(&src.ts_l2);
        epochs_l2.clone_from(&src.epochs_l2);
    }

    fn submit(&mut self, ch: &mut Ch, now: Cycle, op: CoreOp) -> Submit {
        match op {
            CoreOp::Fence => {
                // Fences self-invalidate all Shared lines (§3.6).
                self.self_invalidate(ch, SelfInvCause::Fence);
                Submit::Hit(0)
            }
            CoreOp::Load(addr) => self.submit_load(ch, now, addr),
            CoreOp::Store(addr, value) => self.submit_store(ch, now, addr, value),
            CoreOp::Rmw(addr, rmw) => self.submit_rmw(ch, now, addr, rmw),
        }
    }

    fn line_access(&self, line: &Line) -> LineAccess {
        match line.state {
            State::Shared | State::SharedRO => LineAccess::Read,
            State::Exclusive | State::Modified => LineAccess::Write,
        }
    }

    fn handle_message(&mut self, ch: &mut Ch, now: Cycle, _src: Agent, msg: Msg) {
        match msg {
            Msg::Data {
                line,
                data,
                grant,
                writer,
                ts,
                epoch,
                ts_source,
                ack_required,
                ..
            } => {
                // Potential-acquire detection happens on every L1 miss
                // data response, before the new line is installed so the
                // sweep cannot remove it (§3.2).
                self.acquire_check(ch, grant, writer, ts, epoch, ts_source);
                self.complete_miss(ch, now, line, data, grant, ack_required);
            }
            Msg::FwdGetS { line, requester } => {
                // The owner downgrades to Shared, supplies the requester
                // and refreshes the L2 copy (§3.2).
                let (data, dirty, ts) = if let Some(l) = ch.cache.peek_mut(line) {
                    let dirty = l.state == State::Modified;
                    let ts = l.ts;
                    l.state = State::Shared;
                    l.acnt = 0;
                    (l.data, dirty, ts)
                } else if let Some(entry) = ch.wb.get_mut(line) {
                    entry.forwarded = true;
                    (entry.data, entry.dirty, entry.ts)
                } else {
                    panic!("L1[{}]: FwdGetS for absent line {line}", ch.id());
                };
                let (resp_ts, writer) = if dirty {
                    (self.clamp_own_ts(ts), ch.id())
                } else {
                    // A clean Exclusive copy was never written by us; we
                    // cannot vouch for a timestamp (the L2 will move the
                    // line to SharedRO).
                    (Ts::INVALID, usize::MAX)
                };
                let id = ch.id();
                ch.send(
                    now,
                    Agent::L1(requester),
                    Msg::Data {
                        line,
                        data,
                        grant: Grant::Shared,
                        writer,
                        ts: resp_ts,
                        epoch: self.epoch,
                        ts_source: Some(TsSource::L1(id)),
                        acks_expected: 0,
                        with_payload: true,
                        ack_required: false,
                    },
                );
                let home = ch.home(line);
                ch.send(
                    now,
                    home,
                    Msg::DowngradeData {
                        line,
                        data,
                        dirty,
                        ts: resp_ts,
                        epoch: self.epoch,
                        from: id,
                    },
                );
            }
            Msg::FwdGetX { line, requester } => {
                let (data, ts, writer) = if let Some(l) = ch.cache.remove(line) {
                    if l.state == State::Modified {
                        (l.data, self.clamp_own_ts(l.ts), ch.id())
                    } else {
                        (l.data, Ts::INVALID, usize::MAX)
                    }
                } else if let Some(entry) = ch.wb.get_mut(line) {
                    entry.forwarded = true;
                    if entry.dirty {
                        (entry.data, entry.ts, ch.id())
                    } else {
                        (entry.data, Ts::INVALID, usize::MAX)
                    }
                } else {
                    panic!("L1[{}]: FwdGetX for absent line {line}", ch.id());
                };
                let id = ch.id();
                ch.send(
                    now,
                    Agent::L1(requester),
                    Msg::Data {
                        line,
                        data,
                        grant: Grant::Exclusive,
                        writer,
                        ts,
                        epoch: self.epoch,
                        ts_source: Some(TsSource::L1(id)),
                        acks_expected: 0,
                        with_payload: true,
                        ack_required: true,
                    },
                );
            }
            Msg::Inv {
                line,
                ack_to_requester,
            } => {
                // SharedRO broadcast invalidation or inclusive L2
                // eviction; shared copies are removed blindly.
                if let Some(l) = ch.cache.peek(line) {
                    debug_assert!(
                        matches!(l.state, State::Shared | State::SharedRO),
                        "Inv must not target private lines"
                    );
                    ch.cache.remove(line);
                }
                if let Some(m) = ch.mshrs.get_mut(line) {
                    if matches!(m.op, MshrOp::Load { .. }) {
                        m.poisoned = true;
                    }
                }
                debug_assert!(ack_to_requester.is_none(), "TSO-CC collects acks at the L2");
                let home = ch.home(line);
                let from = ch.id();
                ch.send(now, home, Msg::InvAckToL2 { line, from });
            }
            Msg::Recall { line } => {
                let (data, dirty, ts) = if let Some(l) = ch.cache.remove(line) {
                    (l.data, l.state == State::Modified, self.clamp_own_ts(l.ts))
                } else if let Some(entry) = ch.wb.get_mut(line) {
                    entry.forwarded = true;
                    (entry.data, entry.dirty, entry.ts)
                } else {
                    panic!("L1[{}]: Recall for absent line {line}", ch.id());
                };
                let home = ch.home(line);
                let from = ch.id();
                ch.send(
                    now,
                    home,
                    Msg::RecallData {
                        line,
                        data,
                        dirty,
                        ts,
                        epoch: self.epoch,
                        from,
                    },
                );
            }
            Msg::PutAck { line } => {
                ch.wb.remove(line);
            }
            Msg::TsReset { source, epoch } => match source {
                TsSource::L1(core) => {
                    self.ts_l1[core] = Ts::INVALID;
                    self.epochs_l1[core] = epoch;
                }
                TsSource::L2(tile) => {
                    self.ts_l2[tile] = Ts::INVALID;
                    self.epochs_l2[tile] = epoch;
                }
            },
            other => panic!("L1[{}]: unexpected {other:?}", ch.id()),
        }
    }
}

impl TsoCcL1Policy {
    fn submit_load(&mut self, ch: &mut Ch, now: Cycle, addr: Addr) -> Submit {
        let line = addr.line();
        let word = addr.word_index();
        let max_acc = self.proto.max_acc;
        let mut expired_shared = false;
        if let Some(l) = ch.cache.lookup_mut(line) {
            match l.state {
                State::Exclusive | State::Modified => {
                    ch.stats.read_hit_private.inc();
                    return Submit::Hit(l.data.read_word(word));
                }
                State::SharedRO => {
                    ch.stats.read_hit_sharedro.inc();
                    return Submit::Hit(l.data.read_word(word));
                }
                State::Shared => {
                    if l.acnt < max_acc {
                        // Bounded staleness: a Shared line may serve up
                        // to 2^Bmaxacc hits before a forced re-request
                        // guarantees write propagation (§3.1).
                        l.acnt += 1;
                        ch.stats.read_hit_shared.inc();
                        return Submit::Hit(l.data.read_word(word));
                    }
                    expired_shared = true;
                }
            }
        }
        if !ch.line_free(line) {
            return Submit::Retry;
        }
        if expired_shared {
            ch.stats.read_miss_shared.inc();
        } else {
            ch.stats.read_miss_invalid.inc();
        }
        ch.mshrs.alloc(
            line,
            Mshr {
                op: MshrOp::Load { word },
                poisoned: false,
            },
        );
        let home = ch.home(line);
        ch.send(now, home, Msg::GetS { line });
        Submit::Miss
    }

    fn submit_store(&mut self, ch: &mut Ch, now: Cycle, addr: Addr, value: u64) -> Submit {
        let line = addr.line();
        let word = addr.word_index();
        let private = matches!(
            ch.cache.peek(line).map(|l| l.state),
            Some(State::Exclusive | State::Modified)
        );
        if private {
            // Exclusive→Modified transitions are silent (§3.2).
            let ts = self.on_write(ch, now);
            let l = ch.cache.lookup_mut(line).expect("checked resident");
            l.state = State::Modified;
            l.data.write_word(word, value);
            l.ts = ts;
            ch.stats.write_hit_private.inc();
            return Submit::Hit(0);
        }
        if !ch.line_free(line) {
            return Submit::Retry;
        }
        match ch.cache.peek(line).map(|l| l.state) {
            Some(State::Shared) => ch.stats.write_miss_shared.inc(),
            Some(State::SharedRO) => ch.stats.write_miss_sharedro.inc(),
            _ => ch.stats.write_miss_invalid.inc(),
        }
        ch.mshrs.alloc(
            line,
            Mshr {
                op: MshrOp::Store { word, value },
                poisoned: false,
            },
        );
        let home = ch.home(line);
        ch.send(now, home, Msg::GetX { line });
        Submit::Miss
    }

    fn submit_rmw(&mut self, ch: &mut Ch, now: Cycle, addr: Addr, rmw: RmwOp) -> Submit {
        let line = addr.line();
        let word = addr.word_index();
        let private = matches!(
            ch.cache.peek(line).map(|l| l.state),
            Some(State::Exclusive | State::Modified)
        );
        if private {
            let ts = self.on_write(ch, now);
            let l = ch.cache.lookup_mut(line).expect("checked resident");
            l.state = State::Modified;
            let old = l.data.read_word(word);
            l.data.write_word(word, rmw.apply(old));
            l.ts = ts;
            ch.stats.rmw_hit.inc();
            ch.stats.write_hit_private.inc();
            return Submit::Hit(old);
        }
        if !ch.line_free(line) {
            return Submit::Retry;
        }
        ch.stats.rmw_miss.inc();
        match ch.cache.peek(line).map(|l| l.state) {
            Some(State::Shared) => ch.stats.write_miss_shared.inc(),
            Some(State::SharedRO) => ch.stats.write_miss_sharedro.inc(),
            _ => ch.stats.write_miss_invalid.inc(),
        }
        ch.mshrs.alloc(
            line,
            Mshr {
                op: MshrOp::Rmw { word, op: rmw },
                poisoned: false,
            },
        );
        let home = ch.home(line);
        ch.send(now, home, Msg::GetX { line });
        Submit::Miss
    }
}
