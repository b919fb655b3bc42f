//! MESI NUCA L2 tile with an embedded directory, as a policy over the
//! shared [`L2Chassis`].
//!
//! The policy is generic over the directory's sharer-set representation
//! ([`SharerSet`]): the baseline instantiates it with a [`FullVector`]
//! (one bit per core — the storage cost the paper attacks), while the
//! `tsocc-mesi-coarse` crate plugs in a limited-pointer / coarse-vector
//! set. Everything else about the protocol — the blocking directory,
//! forwards, recalls, invalidation acks — is identical between the two.

use tsocc_coherence::{Agent, Epoch, Grant, L2Chassis, L2Ctl, L2Policy, Msg, Ts, Txn};
use tsocc_mem::{CacheParams, LineAddr, LineData};
use tsocc_sim::Cycle;

/// A directory's sharer-set representation: the storage/precision axis
/// on which the paper's directory baselines differ.
///
/// `add`/`holds`/`may_hold` all take the representation's configuration
/// so compact encodings (pointer budgets, coarse granularities) need no
/// per-line storage beyond the set itself. Implementations must be
/// conservative: `may_hold` may over-approximate (spurious
/// invalidations are acked blindly by MESI L1s), but must never miss a
/// real sharer.
pub trait SharerSet: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// Per-machine configuration (pointer budget, group granularity).
    type Cfg: Copy + std::fmt::Debug + Send + Sync + 'static;

    /// The empty set.
    fn empty(cfg: &Self::Cfg) -> Self;

    /// Records `core` as a sharer; returns `true` when precision was
    /// lost (the representation fell back to a coarse encoding).
    fn add(&mut self, cfg: &Self::Cfg, core: usize) -> bool;

    /// Exactly whether `core` holds a copy, or `None` when the current
    /// encoding cannot tell.
    fn holds(&self, cfg: &Self::Cfg, core: usize) -> Option<bool>;

    /// Whether `core` may hold a copy — the invalidation fan-out test.
    fn may_hold(&self, cfg: &Self::Cfg, core: usize) -> bool;

    /// The largest core count this representation can encode, or `None`
    /// when unbounded. Factories check the machine shape against this
    /// **before** construction, turning what would be a shift overflow
    /// on core ids `>= capacity` into a clean configuration error.
    fn capacity(cfg: &Self::Cfg) -> Option<usize>;
}

/// Checks a machine's core count against what the sharer-set
/// representation `S` can encode — the shared half of every MESI-family
/// [`tsocc_coherence::ProtocolFactory::validate_shape`] override.
///
/// # Errors
///
/// Names the representation and both numbers when `n_cores` exceeds the
/// capacity.
pub fn check_sharer_capacity<S: SharerSet>(
    cfg: &S::Cfg,
    n_cores: usize,
    representation: &str,
) -> Result<(), String> {
    match S::capacity(cfg) {
        Some(cap) if n_cores > cap => Err(format!(
            "{representation} encodes at most {cap} cores, machine has {n_cores}"
        )),
        _ => Ok(()),
    }
}

/// The paper's baseline representation: a full sharing vector, one bit
/// per core (up to 128 cores).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FullVector(u128);

impl SharerSet for FullVector {
    type Cfg = ();

    fn empty(_: &()) -> Self {
        FullVector(0)
    }

    fn add(&mut self, _: &(), core: usize) -> bool {
        self.0 |= 1u128 << core;
        false
    }

    fn holds(&self, _: &(), core: usize) -> Option<bool> {
        Some(self.0 & (1u128 << core) != 0)
    }

    fn may_hold(&self, _: &(), core: usize) -> bool {
        self.0 & (1u128 << core) != 0
    }

    fn capacity(_: &()) -> Option<usize> {
        Some(u128::BITS as usize)
    }
}

/// Directory state of a resident line (absence = not present).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Valid in the L2, no L1 copies.
    Idle,
    /// One or more L1 sharers (read-only copies).
    Shared,
    /// Exactly one L1 owner with read/write permission.
    Private,
}

/// One resident directory line (opaque outside the policy).
#[derive(Clone, Copy, Debug)]
pub struct Line<S> {
    state: State,
    /// The sharer set; only meaningful in `Shared`.
    sharers: S,
    /// Owner core id; only meaningful in `Private`.
    owner: usize,
    data: LineData,
    /// Whether the L2 copy differs from memory.
    dirty: bool,
}

/// Transaction states of the blocking MESI directory (opaque outside
/// the policy).
#[derive(Clone, Debug)]
pub enum BusyKind {
    /// Waiting for memory data, then granting Exclusive to `requester`.
    Fetch { requester: usize },
    /// Waiting for the requester's Unblock after an Exclusive/upgrade
    /// grant.
    Grant,
    /// Waiting for the old owner's DowngradeData and the requester's
    /// Unblock after forwarding a GetS.
    FwdS { requester: usize },
    /// Waiting for the requester's Unblock after forwarding a GetX.
    FwdX,
    /// L2 eviction in progress: collecting invalidation acks from
    /// sharers, or the owner's RecallData.
    Dying {
        acks_left: u32,
        data: LineData,
        dirty: bool,
    },
}

/// Configuration of a MESI L2 tile.
#[derive(Clone, Copy, Debug)]
pub struct MesiL2Config {
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
}

impl MesiL2Config {
    /// Builds the baseline full-sharing-vector tile.
    pub fn build(self) -> MesiL2 {
        self.build_with::<FullVector>(())
    }

    /// Builds a tile with an alternative sharer-set representation
    /// (how `tsocc-mesi-coarse` assembles its directory).
    pub fn build_with<S: SharerSet>(self, dir_cfg: S::Cfg) -> L2Ctl<MesiL2Policy<S>> {
        L2Ctl::assemble(
            L2Chassis::new(
                self.tile,
                self.n_cores,
                self.n_mem,
                self.latency,
                self.params,
            ),
            MesiL2Policy { dir_cfg },
        )
    }
}

/// One MESI L2 tile (directory + data) with the baseline full sharing
/// vector.
pub type MesiL2 = L2Ctl<MesiL2Policy<FullVector>>;

/// The MESI directory transition rules, generic over the sharer-set
/// representation.
#[derive(Clone, Copy, Debug)]
pub struct MesiL2Policy<S: SharerSet> {
    /// Sharer-set configuration (pointer budgets etc.).
    dir_cfg: S::Cfg,
}

type Ch<S> = L2Chassis<Line<S>, BusyKind>;

impl<S: SharerSet> MesiL2Policy<S> {
    fn data_msg(
        line: LineAddr,
        data: LineData,
        grant: Grant,
        acks_expected: u32,
        with_payload: bool,
        ack_required: bool,
    ) -> Msg {
        Msg::Data {
            line,
            data,
            grant,
            writer: usize::MAX,
            ts: Ts::INVALID,
            epoch: Epoch::ZERO,
            ts_source: None,
            acks_expected,
            with_payload,
            ack_required,
        }
    }

    /// Starts eviction of `victim` (already removed from the array).
    fn start_eviction(&mut self, ch: &mut Ch<S>, now: Cycle, victim: LineAddr, old: Line<S>) {
        ch.stats.writebacks.inc();
        match old.state {
            State::Idle => {
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
            State::Shared => {
                let mut acks = 0u32;
                for core in 0..ch.n_cores() {
                    if old.sharers.may_hold(&self.dir_cfg, core) {
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
            State::Private => {
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

    /// Installs a fetched line, possibly starting a victim eviction.
    fn install(&mut self, ch: &mut Ch<S>, now: Cycle, line: LineAddr, entry: Line<S>) {
        if let Some((victim, old)) = ch.install(now, line, entry) {
            self.start_eviction(ch, now, victim, old);
        }
    }
}

impl<S: SharerSet> L2Policy for MesiL2Policy<S> {
    type Line = Line<S>;
    type Busy = BusyKind;

    fn copy_from(&mut self, src: &Self) {
        *self = *src;
    }

    fn gets(&mut self, ch: &mut Ch<S>, now: Cycle, line: LineAddr, requester: usize) {
        let Some(l) = ch.cache.lookup_mut(line) else {
            ch.stats.misses.inc();
            ch.begin(line, Txn::new(BusyKind::Fetch { requester }, true, false));
            let mem = ch.mem();
            ch.send(now, mem, Msg::MemRead { line });
            return;
        };
        ch.stats.hits.inc();
        match l.state {
            State::Idle => {
                // Reads to uncached lines get Exclusive grants (E).
                l.state = State::Private;
                l.owner = requester;
                let data = l.data;
                ch.begin(line, Txn::new(BusyKind::Grant, true, false));
                ch.send(
                    now,
                    Agent::L1(requester),
                    Self::data_msg(line, data, Grant::Exclusive, 0, true, true),
                );
            }
            State::Shared => {
                l.sharers.add(&self.dir_cfg, requester);
                let data = l.data;
                ch.send(
                    now,
                    Agent::L1(requester),
                    Self::data_msg(line, data, Grant::Shared, 0, true, false),
                );
            }
            State::Private => {
                let owner = l.owner;
                debug_assert_ne!(owner, requester, "owner re-requesting GetS");
                ch.begin(line, Txn::new(BusyKind::FwdS { requester }, true, true));
                ch.send(now, Agent::L1(owner), Msg::FwdGetS { line, requester });
            }
        }
    }

    fn getx(&mut self, ch: &mut Ch<S>, now: Cycle, line: LineAddr, requester: usize) {
        let Some(l) = ch.cache.lookup_mut(line) else {
            ch.stats.misses.inc();
            ch.begin(line, Txn::new(BusyKind::Fetch { requester }, true, false));
            let mem = ch.mem();
            ch.send(now, mem, Msg::MemRead { line });
            return;
        };
        ch.stats.hits.inc();
        match l.state {
            State::Idle => {
                l.state = State::Private;
                l.owner = requester;
                let data = l.data;
                ch.begin(line, Txn::new(BusyKind::Grant, true, false));
                ch.send(
                    now,
                    Agent::L1(requester),
                    Self::data_msg(line, data, Grant::Exclusive, 0, true, true),
                );
            }
            State::Shared => {
                let sharers = l.sharers;
                // With a coarse encoding the directory cannot tell
                // whether the requester still holds a copy; sending the
                // payload is always correct (the L2's copy is current in
                // the Shared state).
                let requester_holds = sharers.holds(&self.dir_cfg, requester) == Some(true);
                l.state = State::Private;
                l.owner = requester;
                l.sharers = S::empty(&self.dir_cfg);
                let data = l.data;
                let mut acks = 0u32;
                for core in 0..ch.n_cores() {
                    if core != requester && sharers.may_hold(&self.dir_cfg, core) {
                        if ch.faults.fire_corrupt_sharers() {
                            // Injected fault: this sharer vanishes from
                            // the fan-out. It keeps a stale Shared copy
                            // while the requester is granted Exclusive.
                            continue;
                        }
                        ch.send(
                            now,
                            Agent::L1(core),
                            Msg::Inv {
                                line,
                                ack_to_requester: Some(requester),
                            },
                        );
                        acks += 1;
                    }
                }
                ch.begin(line, Txn::new(BusyKind::Grant, true, false));
                // Upgrades reuse the requester's valid Shared copy.
                ch.send(
                    now,
                    Agent::L1(requester),
                    Self::data_msg(line, data, Grant::Exclusive, acks, !requester_holds, true),
                );
            }
            State::Private => {
                let owner = l.owner;
                debug_assert_ne!(owner, requester, "owner re-requesting GetX");
                l.owner = requester;
                ch.begin(line, Txn::new(BusyKind::FwdX, true, false));
                ch.send(now, Agent::L1(owner), Msg::FwdGetX { line, requester });
            }
        }
    }

    fn put(
        &mut self,
        ch: &mut Ch<S>,
        now: Cycle,
        line: LineAddr,
        from: usize,
        data: Option<LineData>,
        _ts: Ts,
        _epoch: Epoch,
    ) {
        if let Some(l) = ch.cache.peek_mut(line) {
            if l.state == State::Private && l.owner == from {
                l.state = State::Idle;
                if let Some(d) = data {
                    l.data = d;
                    l.dirty = true;
                }
            }
            // Otherwise the PUT is stale (a racing forward already moved
            // ownership); just acknowledge.
        }
        ch.send(now, Agent::L1(from), Msg::PutAck { line });
    }

    fn handle_message(&mut self, ch: &mut Ch<S>, now: Cycle, _src: Agent, msg: Msg) {
        match msg {
            Msg::DowngradeData {
                line, data, dirty, ..
            } => {
                let tile = ch.tile();
                let txn = ch
                    .busy
                    .get_mut(line)
                    .unwrap_or_else(|| panic!("L2[{tile}]: stray DowngradeData {line}"));
                let BusyKind::FwdS { requester } = txn.kind else {
                    panic!("L2[{tile}]: DowngradeData outside FwdS");
                };
                txn.need_owner_data = false;
                let dir_cfg = self.dir_cfg;
                let l = ch
                    .cache
                    .peek_mut(line)
                    .expect("forwarded line must be resident");
                let old_owner = l.owner;
                l.state = State::Shared;
                let mut sharers = S::empty(&dir_cfg);
                sharers.add(&dir_cfg, old_owner);
                sharers.add(&dir_cfg, requester);
                l.sharers = sharers;
                if dirty {
                    l.data = data;
                    l.dirty = true;
                }
                ch.maybe_finish(line);
            }
            Msg::RecallData {
                line, data, dirty, ..
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
                let (wb_data, wb_dirty) = if dirty {
                    (data, true)
                } else {
                    (old_data, old_dirty)
                };
                if wb_dirty {
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
                let BusyKind::Dying {
                    ref mut acks_left,
                    data,
                    dirty,
                    ..
                } = txn.kind
                else {
                    panic!("L2[{tile}]: InvAckToL2 outside Dying");
                };
                *acks_left -= 1;
                if *acks_left == 0 {
                    ch.finish(line).expect("present");
                    if dirty {
                        let mem = ch.mem();
                        ch.send(now, mem, Msg::MemWrite { line, data });
                    }
                }
            }
            Msg::MemData { line, data } => {
                let tile = ch.tile();
                let txn = ch
                    .busy
                    .get_mut(line)
                    .unwrap_or_else(|| panic!("L2[{tile}]: stray MemData {line}"));
                let BusyKind::Fetch { requester } = txn.kind else {
                    panic!("L2[{tile}]: MemData outside Fetch");
                };
                txn.kind = BusyKind::Grant;
                self.install(
                    ch,
                    now,
                    line,
                    Line {
                        state: State::Private,
                        sharers: S::empty(&self.dir_cfg),
                        owner: requester,
                        data,
                        dirty: false,
                    },
                );
                ch.send(
                    now,
                    Agent::L1(requester),
                    Self::data_msg(line, data, Grant::Exclusive, 0, true, true),
                );
            }
            other => panic!("L2[{}]: unexpected {other:?}", ch.tile()),
        }
    }
}
