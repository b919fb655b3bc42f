//! TSO-CC NUCA L2 tile — the sharing-vector-free directory — as a
//! policy over the shared [`L2Chassis`].

use tsocc_coherence::{Agent, Epoch, Grant, L2Chassis, L2Ctl, L2Policy, Msg, Ts, TsSource, Txn};
use tsocc_mem::{CacheParams, LineAddr, LineData};
use tsocc_sim::Cycle;

use crate::config::TsoCcConfig;

/// Directory state of a resident line (absence = not present; §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Valid in the L2, no L1 copies.
    Uncached,
    /// Private: `owner` holds the line Exclusive/Modified.
    Exclusive,
    /// Shared, untracked; `owner` records the *last writer*.
    Shared,
    /// Shared read-only; `groups` is the coarse sharer group vector.
    SharedRO,
}

/// One resident directory line (opaque outside the policy).
#[derive(Clone, Copy, Debug)]
pub struct Line {
    state: State,
    data: LineData,
    /// Whether the L2 copy differs from memory.
    dirty: bool,
    /// `b.owner`: owner (Exclusive), last writer (Shared/Uncached);
    /// `usize::MAX` when unknown (fresh from memory).
    owner: usize,
    /// Coarse sharer group vector (SharedRO only) — the `b.owner` bits
    /// reused, one bit per group of cores (§3.4).
    groups: u32,
    /// `b.ts`: last-written timestamp (Shared/Uncached/Exclusive) or the
    /// tile's SharedRO timestamp (SharedRO).
    ts: Ts,
    /// Epoch of the source `ts` was drawn from.
    ts_epoch: Epoch,
}

/// Transaction states of the TSO-CC directory (opaque outside the
/// policy).
#[derive(Clone, Debug)]
pub enum BusyKind {
    /// Waiting for memory data, then granting Exclusive to `requester`.
    Fetch { requester: usize },
    /// Waiting for the requester's Unblock after an Exclusive grant.
    Grant,
    /// Waiting for the old owner's DowngradeData after forwarding GetS.
    FwdS { requester: usize },
    /// Waiting for the requester's Unblock after forwarding GetX.
    FwdX,
    /// SharedRO write: collecting invalidation acks before granting
    /// Exclusive to `requester` (§3.4).
    SroInv { requester: usize, acks_left: u32 },
    /// L2 eviction of a SharedRO (acks) or Exclusive (recall) line.
    Dying {
        acks_left: u32,
        data: LineData,
        dirty: bool,
    },
}

/// Structural configuration of a TSO-CC L2 tile.
#[derive(Clone, Copy, Debug)]
pub struct TsoCcL2Config {
    /// This tile's index.
    pub tile: usize,
    /// Number of cores.
    pub n_cores: usize,
    /// Number of memory controllers.
    pub n_mem: usize,
    /// Tile geometry (1 MiB 16-way in Table 2).
    pub params: CacheParams,
    /// Array access latency charged before responses (cycles).
    pub latency: u64,
    /// Protocol parameters.
    pub proto: TsoCcConfig,
}

impl TsoCcL2Config {
    /// Builds the tile controller: a [`TsoCcL2Policy`] over a fresh
    /// chassis.
    pub fn build(self) -> TsoCcL2 {
        L2Ctl::assemble(
            L2Chassis::new(
                self.tile,
                self.n_cores,
                self.n_mem,
                self.latency,
                self.params,
            ),
            TsoCcL2Policy::new(self.proto, self.n_cores),
        )
    }
}

/// One TSO-CC L2 tile.
pub type TsoCcL2 = L2Ctl<TsoCcL2Policy>;

/// The TSO-CC directory transition rules and per-tile protocol state.
///
/// Owns the tile's SharedRO timestamp source, the increment flags of
/// §3.4, and the per-core last-seen timestamp table of §3.5.
#[derive(Debug)]
pub struct TsoCcL2Policy {
    proto: TsoCcConfig,
    /// SharedRO timestamp source for this tile (§3.4).
    tile_ts: Ts,
    /// Epoch of the tile's timestamp source.
    tile_epoch: Epoch,
    /// Increment flag 1: a dirty line was evicted from the L2, or a
    /// GetS hit a modified Uncached line (§3.4, condition 1).
    flag_dirty_path: bool,
    /// Increment flag 2: a line entered the Shared state (§3.4,
    /// condition 2).
    flag_entered_shared: bool,
    /// Last-seen write timestamp per core (`ts_L1` at the L2, §3.5),
    /// indexed by core id; [`Ts::INVALID`] means "never seen".
    ts_l1: Vec<Ts>,
    /// Expected epoch per core's timestamp source, indexed by core id.
    epochs_l1: Vec<Epoch>,
}

type Ch = L2Chassis<Line, BusyKind>;

impl TsoCcL2Policy {
    /// Creates the policy state for one tile.
    fn new(proto: TsoCcConfig, n_cores: usize) -> Self {
        TsoCcL2Policy {
            proto,
            tile_ts: Ts::SMALLEST_VALID,
            tile_epoch: Epoch::ZERO,
            flag_dirty_path: false,
            flag_entered_shared: false,
            ts_l1: vec![Ts::INVALID; n_cores],
            epochs_l1: vec![Epoch::ZERO; n_cores],
        }
    }

    /// Number of coarse sharer groups: `b.owner` has `log2(n)` bits to
    /// reuse (§3.4), so there are `log2(n_cores)` groups.
    fn n_groups(&self, n_cores: usize) -> usize {
        usize::BITS as usize - (n_cores.max(2) - 1).leading_zeros() as usize
    }

    /// The coarse group a core belongs to.
    fn group_of(&self, n_cores: usize, core: usize) -> usize {
        core % self.n_groups(n_cores)
    }

    // ---- timestamp helpers (§3.4 / §3.5) ---------------------------------

    /// Records a writer-supplied timestamp into the tile's last-seen
    /// table, handling epoch changes.
    fn note_writer_ts(&mut self, writer: usize, ts: Ts, epoch: Epoch) {
        if !ts.is_valid() {
            return;
        }
        if epoch != self.epochs_l1[writer] {
            self.epochs_l1[writer] = epoch;
            self.ts_l1[writer] = ts;
            return;
        }
        // `ts` is valid and the sentinel is zero, so this also covers
        // the first-ever record from `writer` (entry-or-insert).
        if ts > self.ts_l1[writer] {
            self.ts_l1[writer] = ts;
        }
    }

    /// The timestamp/epoch to attach to a response for a non-SharedRO
    /// line: the line's own timestamp if the last-seen table proves it
    /// is from the writer's current epoch, the smallest valid timestamp
    /// otherwise (§3.5).
    fn writer_response_ts(&self, line: &Line) -> (usize, Ts, Epoch, Option<TsSource>) {
        let w = line.owner;
        if w == usize::MAX || !line.ts.is_valid() {
            return (w, Ts::INVALID, Epoch::ZERO, None);
        }
        let cur_epoch = self.epochs_l1[w];
        let ts = if line.ts_epoch == cur_epoch && self.ts_l1[w] >= line.ts {
            line.ts
        } else {
            Ts::SMALLEST_VALID
        };
        (w, ts, cur_epoch, Some(TsSource::L1(w)))
    }

    /// Advances the tile's SharedRO timestamp source if an increment
    /// flag is set; returns the timestamp to assign (§3.4).
    fn next_sro_ts(&mut self, ch: &mut Ch, now: Cycle) -> (Ts, Epoch) {
        if !self.proto.sro_ts {
            return (Ts::INVALID, Epoch::ZERO);
        }
        if self.flag_dirty_path || self.flag_entered_shared {
            self.flag_dirty_path = false;
            self.flag_entered_shared = false;
            let max = if self.proto.sro_ts_bits() >= 63 {
                u64::MAX
            } else {
                (1u64 << self.proto.sro_ts_bits()) - 1
            };
            if self.tile_ts.as_u64() >= max {
                // Reset the tile source and notify every L1 (§3.5).
                self.tile_epoch = self.tile_epoch.next(self.proto.epoch_bits);
                self.tile_ts = Ts::SMALLEST_VALID.next();
                ch.stats.ts_resets.inc();
                let msg = Msg::TsReset {
                    source: TsSource::L2(ch.tile()),
                    epoch: self.tile_epoch,
                };
                for core in 0..ch.n_cores() {
                    ch.send(now, Agent::L1(core), msg.clone());
                }
            } else {
                self.tile_ts = self.tile_ts.next();
            }
        }
        (self.tile_ts, self.tile_epoch)
    }

    /// Transitions a resident line to SharedRO, assigning a tile
    /// timestamp, and returns (groups already set ∪ extra cores).
    fn make_sharedro(&mut self, ch: &mut Ch, now: Cycle, line_addr: LineAddr, cores: &[usize]) {
        let (ts, epoch) = self.next_sro_ts(ch, now);
        let n_cores = ch.n_cores();
        let mut groups = 0u32;
        for &c in cores {
            if c != usize::MAX {
                groups |= 1 << self.group_of(n_cores, c);
            }
        }
        let l = ch.cache.peek_mut(line_addr).expect("resident");
        l.state = State::SharedRO;
        l.groups = groups;
        l.ts = ts;
        l.ts_epoch = epoch;
    }

    // ---- transaction plumbing --------------------------------------------

    fn start_eviction(&mut self, ch: &mut Ch, now: Cycle, victim: LineAddr, old: Line) {
        if old.dirty {
            // Condition 1 for SharedRO timestamp increments: a dirty
            // line leaves the L2 (§3.4).
            self.flag_dirty_path = true;
        }
        match old.state {
            State::Uncached | State::Shared => {
                // Shared lines are untracked and evict silently (§3.2);
                // stale L1 copies age out via their access counters.
                ch.stats.writebacks.inc();
                if old.dirty {
                    let mem = ch.mem();
                    ch.send(
                        now,
                        mem,
                        Msg::MemWrite {
                            line: victim,
                            data: old.data,
                        },
                    );
                }
            }
            State::SharedRO => {
                // SharedRO copies hit forever in L1s, so an L2 eviction
                // must invalidate the sharer groups to preserve write
                // propagation.
                ch.stats.writebacks.inc();
                let n_cores = ch.n_cores();
                let mut acks = 0u32;
                for core in 0..n_cores {
                    if old.groups & (1 << self.group_of(n_cores, core)) != 0 {
                        ch.send(
                            now,
                            Agent::L1(core),
                            Msg::Inv {
                                line: victim,
                                ack_to_requester: None,
                            },
                        );
                        acks += 1;
                    }
                }
                if acks == 0 {
                    if old.dirty {
                        let mem = ch.mem();
                        ch.send(
                            now,
                            mem,
                            Msg::MemWrite {
                                line: victim,
                                data: old.data,
                            },
                        );
                    }
                    return;
                }
                ch.begin(
                    victim,
                    Txn::new(
                        BusyKind::Dying {
                            acks_left: acks,
                            data: old.data,
                            dirty: old.dirty,
                        },
                        false,
                        true,
                    ),
                );
            }
            State::Exclusive => {
                ch.stats.writebacks.inc();
                ch.send(now, Agent::L1(old.owner), Msg::Recall { line: victim });
                ch.begin(
                    victim,
                    Txn::new(
                        BusyKind::Dying {
                            acks_left: 0,
                            data: old.data,
                            dirty: old.dirty,
                        },
                        false,
                        true,
                    ),
                );
            }
        }
    }

    fn install(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr, entry: Line) {
        if let Some((victim, old)) = ch.install(now, line, entry) {
            self.start_eviction(ch, now, victim, old);
        }
    }

    fn grant_exclusive(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr, requester: usize) {
        let l = *ch.cache.peek(line).expect("resident");
        let (writer, ts, epoch, ts_source) = if l.state == State::SharedRO {
            // SharedRO lines carry the tile's timestamp (§3.4).
            (usize::MAX, l.ts, l.ts_epoch, Some(TsSource::L2(ch.tile())))
        } else {
            self.writer_response_ts(&l)
        };
        {
            let lm = ch.cache.peek_mut(line).expect("resident");
            lm.state = State::Exclusive;
            lm.owner = requester;
            lm.groups = 0;
        }
        ch.begin(line, Txn::new(BusyKind::Grant, true, false));
        ch.send(
            now,
            Agent::L1(requester),
            Msg::Data {
                line,
                data: l.data,
                grant: Grant::Exclusive,
                writer,
                ts,
                epoch,
                ts_source,
                acks_expected: 0,
                with_payload: true,
                ack_required: true,
            },
        );
    }

    fn respond_sharedro(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr, requester: usize) {
        let l = *ch.cache.peek(line).expect("resident");
        debug_assert_eq!(l.state, State::SharedRO);
        let ts_source = if self.proto.sro_ts {
            Some(TsSource::L2(ch.tile()))
        } else {
            None
        };
        ch.send(
            now,
            Agent::L1(requester),
            Msg::Data {
                line,
                data: l.data,
                grant: Grant::SharedRO,
                writer: usize::MAX,
                ts: l.ts,
                epoch: l.ts_epoch,
                ts_source,
                acks_expected: 0,
                with_payload: true,
                ack_required: false,
            },
        );
    }
}

impl L2Policy for TsoCcL2Policy {
    type Line = Line;
    type Busy = BusyKind;

    /// Lists every field, so a new one cannot be forgotten here.
    fn copy_from(&mut self, src: &Self) {
        let TsoCcL2Policy {
            proto,
            tile_ts,
            tile_epoch,
            flag_dirty_path,
            flag_entered_shared,
            ts_l1,
            epochs_l1,
        } = self;
        *proto = src.proto;
        *tile_ts = src.tile_ts;
        *tile_epoch = src.tile_epoch;
        *flag_dirty_path = src.flag_dirty_path;
        *flag_entered_shared = src.flag_entered_shared;
        ts_l1.clone_from(&src.ts_l1);
        epochs_l1.clone_from(&src.epochs_l1);
    }

    fn gets(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr, requester: usize) {
        let Some(l) = ch.cache.lookup(line).copied() else {
            ch.stats.misses.inc();
            ch.begin(line, Txn::new(BusyKind::Fetch { requester }, true, false));
            let mem = ch.mem();
            ch.send(now, mem, Msg::MemRead { line });
            return;
        };
        ch.stats.hits.inc();
        match l.state {
            State::Uncached => {
                // Reads to lines with no L1 copies get Exclusive grants
                // (§3.2). A modified data path sets increment flag 1.
                if l.dirty {
                    self.flag_dirty_path = true;
                }
                self.grant_exclusive(ch, now, line, requester);
            }
            State::Exclusive => {
                debug_assert_ne!(l.owner, requester, "owner re-requesting GetS");
                ch.begin(line, Txn::new(BusyKind::FwdS { requester }, false, true));
                ch.send(now, Agent::L1(l.owner), Msg::FwdGetS { line, requester });
            }
            State::Shared => {
                // Decay check: untouched-for-long Shared lines become
                // SharedRO (§3.4).
                let decayed = self.proto.decay_ts_units().is_some_and(|units| {
                    l.ts.is_valid()
                        && l.owner != usize::MAX
                        && self.ts_l1[l.owner].distance_from(l.ts) > units
                });
                if decayed {
                    ch.stats.decays.inc();
                    self.make_sharedro(ch, now, line, &[l.owner, requester]);
                    self.respond_sharedro(ch, now, line, requester);
                } else {
                    // Shared responses are immediate and unacknowledged
                    // (§3.2).
                    let (writer, ts, epoch, ts_source) = self.writer_response_ts(&l);
                    ch.send(
                        now,
                        Agent::L1(requester),
                        Msg::Data {
                            line,
                            data: l.data,
                            grant: Grant::Shared,
                            writer,
                            ts,
                            epoch,
                            ts_source,
                            acks_expected: 0,
                            with_payload: true,
                            ack_required: false,
                        },
                    );
                }
            }
            State::SharedRO => {
                let n_cores = ch.n_cores();
                let group = 1 << self.group_of(n_cores, requester);
                let lm = ch.cache.peek_mut(line).expect("resident");
                lm.groups |= group;
                self.respond_sharedro(ch, now, line, requester);
            }
        }
    }

    fn getx(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr, requester: usize) {
        let Some(l) = ch.cache.lookup(line).copied() else {
            ch.stats.misses.inc();
            ch.begin(line, Txn::new(BusyKind::Fetch { requester }, true, false));
            let mem = ch.mem();
            ch.send(now, mem, Msg::MemRead { line });
            return;
        };
        ch.stats.hits.inc();
        match l.state {
            State::Uncached | State::Shared => {
                // Writes to Shared lines respond immediately with the
                // full line; stale L1 copies expire via their access
                // counters and self-invalidation (§3.2).
                self.grant_exclusive(ch, now, line, requester);
            }
            State::Exclusive => {
                debug_assert_ne!(l.owner, requester, "owner re-requesting GetX");
                {
                    let lm = ch.cache.peek_mut(line).expect("resident");
                    lm.owner = requester;
                }
                ch.begin(line, Txn::new(BusyKind::FwdX, true, false));
                ch.send(now, Agent::L1(l.owner), Msg::FwdGetX { line, requester });
            }
            State::SharedRO => {
                // Broadcast invalidation to the coarse sharer groups,
                // collect acks at the L2, then grant (§3.4).
                ch.stats.sro_invalidations.inc();
                let n_cores = ch.n_cores();
                let mut acks = 0u32;
                for core in 0..n_cores {
                    if core != requester && l.groups & (1 << self.group_of(n_cores, core)) != 0 {
                        ch.send(
                            now,
                            Agent::L1(core),
                            Msg::Inv {
                                line,
                                ack_to_requester: None,
                            },
                        );
                        acks += 1;
                    }
                }
                if acks == 0 {
                    self.grant_exclusive(ch, now, line, requester);
                } else {
                    ch.begin(
                        line,
                        Txn::new(
                            BusyKind::SroInv {
                                requester,
                                acks_left: acks,
                            },
                            true,
                            true,
                        ),
                    );
                }
            }
        }
    }

    fn put(
        &mut self,
        ch: &mut Ch,
        now: Cycle,
        line: LineAddr,
        from: usize,
        data: Option<LineData>,
        ts: Ts,
        epoch: Epoch,
    ) {
        if let Some(l) = ch.cache.peek_mut(line) {
            if l.state == State::Exclusive && l.owner == from {
                l.state = State::Uncached;
                if let Some(d) = data {
                    l.data = d;
                    l.dirty = true;
                    l.ts = ts;
                    l.ts_epoch = epoch;
                }
                // Owner stays recorded as the last writer.
                if data.is_some() {
                    self.note_writer_ts(from, ts, epoch);
                }
            }
            // Otherwise the PUT is stale; just acknowledge.
        }
        ch.send(now, Agent::L1(from), Msg::PutAck { line });
    }

    fn handle_message(&mut self, ch: &mut Ch, now: Cycle, _src: Agent, msg: Msg) {
        match msg {
            Msg::DowngradeData {
                line,
                data,
                dirty,
                ts,
                epoch,
                from,
            } => {
                let tile = ch.tile();
                let requester = {
                    let txn = ch
                        .busy
                        .get_mut(line)
                        .unwrap_or_else(|| panic!("L2[{tile}]: stray DowngradeData {line}"));
                    let BusyKind::FwdS { requester } = txn.kind else {
                        panic!("L2[{tile}]: DowngradeData outside FwdS");
                    };
                    txn.need_owner_data = false;
                    requester
                };
                self.note_writer_ts(from, ts, epoch);
                if dirty {
                    // The owner modified the line: it becomes Shared with
                    // the owner recorded as last writer (§3.2), setting
                    // increment flag 2 (§3.4).
                    let l = ch.cache.peek_mut(line).expect("forwarded line resident");
                    l.state = State::Shared;
                    l.owner = from;
                    l.data = data;
                    l.dirty = true;
                    l.ts = ts;
                    l.ts_epoch = epoch;
                    self.flag_entered_shared = true;
                } else {
                    // Clean downgrade: the line was not modified by the
                    // previous owner and becomes SharedRO (§3.4).
                    self.make_sharedro(ch, now, line, &[from, requester]);
                }
                ch.maybe_finish(line);
            }
            Msg::RecallData {
                line,
                data,
                dirty,
                ts,
                epoch,
                from,
            } => {
                let tile = ch.tile();
                let txn = ch
                    .finish(line)
                    .unwrap_or_else(|| panic!("L2[{tile}]: stray RecallData {line}"));
                let BusyKind::Dying {
                    data: old_data,
                    dirty: old_dirty,
                    ..
                } = txn.kind
                else {
                    panic!("L2[{tile}]: RecallData outside Dying");
                };
                self.note_writer_ts(from, ts, epoch);
                let (wb_data, wb_dirty) = if dirty {
                    (data, true)
                } else {
                    (old_data, old_dirty)
                };
                if wb_dirty {
                    self.flag_dirty_path = true;
                    let mem = ch.mem();
                    ch.send(
                        now,
                        mem,
                        Msg::MemWrite {
                            line,
                            data: wb_data,
                        },
                    );
                }
            }
            Msg::InvAckToL2 { line, .. } => {
                let tile = ch.tile();
                let txn = ch
                    .busy
                    .get_mut(line)
                    .unwrap_or_else(|| panic!("L2[{tile}]: stray InvAckToL2 {line}"));
                match &mut txn.kind {
                    BusyKind::SroInv {
                        requester,
                        acks_left,
                    } => {
                        *acks_left -= 1;
                        if *acks_left == 0 {
                            let requester = *requester;
                            txn.need_owner_data = false;
                            // The grant below replaces this busy entry.
                            let waiting = std::mem::take(&mut txn.waiting);
                            ch.busy.remove(line);
                            self.grant_exclusive(ch, now, line, requester);
                            ch.busy
                                .get_mut(line)
                                .expect("grant_exclusive sets busy")
                                .waiting = waiting;
                        }
                    }
                    BusyKind::Dying {
                        acks_left,
                        data,
                        dirty,
                    } => {
                        *acks_left -= 1;
                        if *acks_left == 0 {
                            let (data, dirty) = (*data, *dirty);
                            ch.finish(line).expect("present");
                            if dirty {
                                let mem = ch.mem();
                                ch.send(now, mem, Msg::MemWrite { line, data });
                            }
                        }
                    }
                    other => panic!("L2[{tile}]: InvAckToL2 during {other:?}"),
                }
            }
            Msg::MemData { line, data } => {
                let tile = ch.tile();
                let requester = {
                    let txn = ch
                        .busy
                        .get_mut(line)
                        .unwrap_or_else(|| panic!("L2[{tile}]: stray MemData {line}"));
                    let BusyKind::Fetch { requester } = txn.kind else {
                        panic!("L2[{tile}]: MemData outside Fetch");
                    };
                    txn.kind = BusyKind::Grant;
                    requester
                };
                // Timestamps are not propagated to main memory (§3.3):
                // the refetched line has an invalid timestamp.
                self.install(
                    ch,
                    now,
                    line,
                    Line {
                        state: State::Uncached,
                        data,
                        dirty: false,
                        owner: usize::MAX,
                        groups: 0,
                        ts: Ts::INVALID,
                        ts_epoch: Epoch::ZERO,
                    },
                );
                // Temporarily drop the busy entry so grant_exclusive can
                // install its own (preserving queued waiters).
                let txn = ch.busy.remove(line).expect("present");
                self.grant_exclusive(ch, now, line, requester);
                ch.busy
                    .get_mut(line)
                    .expect("grant_exclusive sets busy")
                    .waiting = txn.waiting;
            }
            Msg::TsReset { source, epoch } => {
                let TsSource::L1(core) = source else {
                    panic!("L2[{}]: TsReset from an L2 tile", ch.tile());
                };
                self.ts_l1[core] = Ts::INVALID;
                self.epochs_l1[core] = epoch;
            }
            other => panic!("L2[{}]: unexpected {other:?}", ch.tile()),
        }
    }
}
