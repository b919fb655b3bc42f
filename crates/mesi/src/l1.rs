//! MESI private L1 cache controller, as a policy over the shared
//! [`L1Chassis`].

use tsocc_coherence::{
    Agent, Completion, CoreOp, Epoch, Grant, Install, L1Chassis, L1Ctl, L1Policy, LineAccess, Msg,
    Submit, Ts,
};
use tsocc_isa::RmwOp;
use tsocc_mem::{Addr, CacheParams, LineAddr, LineData};
use tsocc_sim::Cycle;

/// L1 line states (Invalid is represented by absence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Shared,
    Exclusive,
    Modified,
}

/// One resident MESI L1 line (opaque outside the policy).
#[derive(Clone, Copy, Debug)]
pub struct Line {
    state: State,
    data: LineData,
}

#[derive(Clone, Copy, Debug)]
enum MshrOp {
    Load { word: usize },
    Store { word: usize, value: u64 },
    Rmw { word: usize, op: RmwOp },
}

/// One in-flight MESI L1 miss (opaque outside the policy).
#[derive(Clone, Debug)]
pub struct Mshr {
    op: MshrOp,
    /// Grant + data, once the data response has arrived.
    data: Option<(Grant, LineData, bool)>, // (grant, data, ack_required)
    acks_expected: Option<u32>,
    acks_received: u32,
    /// An invalidation raced past the data response (it invalidated the
    /// address while our GetS was in flight). The arriving Shared data
    /// is stale-but-ordered: usable for the load, not cacheable.
    poisoned: bool,
}

/// Configuration of a MESI L1.
#[derive(Clone, Copy, Debug)]
pub struct MesiL1Config {
    /// This core's id.
    pub id: usize,
    /// Total number of cores in the machine.
    pub n_cores: usize,
    /// Number of L2 tiles (for home-tile interleaving).
    pub n_tiles: usize,
    /// L2 banks per tile (home-interleaving granularity; 1 in Table 2).
    pub l2_banks: usize,
    /// Cache geometry (32 KiB 4-way in Table 2).
    pub params: CacheParams,
    /// Tag-array latency charged before an outgoing request (cycles).
    pub issue_latency: u64,
}

impl MesiL1Config {
    /// Builds the controller: a [`MesiL1Policy`] over a fresh chassis.
    pub fn build(self) -> MesiL1 {
        L1Ctl::assemble(
            L1Chassis::new(
                self.id,
                self.n_cores,
                self.n_tiles,
                self.l2_banks,
                self.issue_latency,
                self.params,
            ),
            MesiL1Policy,
        )
    }
}

/// The MESI L1 controller for one core.
pub type MesiL1 = L1Ctl<MesiL1Policy>;

/// The MESI L1 transition rules. Stateless: eager invalidation-based
/// MESI keeps everything it needs (lines, MSHRs, the writeback buffer)
/// in the chassis. Shared verbatim by the MESI-coarse protocol, whose
/// directory change is invisible to the private caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MesiL1Policy;

type Ch = L1Chassis<Line, Mshr>;

impl MesiL1Policy {
    /// Writes an evicted line back: silent for Shared, PutE/PutM (via
    /// the chassis writeback buffer) for private lines.
    fn writeback(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr, l: Line) {
        match l.state {
            State::Shared => {
                // Silent shared replacement; the directory's sharer bit
                // goes stale and later invalidations are acked blindly.
            }
            State::Exclusive => {
                ch.park_writeback(now, line, l.data, false, Ts::INVALID, Epoch::ZERO);
            }
            State::Modified => {
                ch.park_writeback(now, line, l.data, true, Ts::INVALID, Epoch::ZERO);
            }
        }
    }

    /// Completes an MSHR whose data and acks have all arrived.
    fn try_complete(&mut self, ch: &mut Ch, now: Cycle, line: LineAddr) {
        if ch.faults.hold_mshr(line) {
            // Injected fault: the MSHR never completes. The request
            // wedges and the system's hang diagnosis takes over.
            return;
        }
        let Some(entry) = ch.mshrs.get(line) else {
            return;
        };
        let Some((grant, _, _)) = entry.data else {
            return;
        };
        let needed = entry.acks_expected.unwrap_or(0);
        if entry.acks_received < needed {
            return;
        }
        let entry = ch.mshrs.remove(line).expect("checked above");
        // Payload-less (upgrade) grants were already substituted with the
        // resident copy's data in `handle_message`.
        let (_, mut data, ack_required) = entry.data.expect("checked above");
        let (state, completion) = match entry.op {
            MshrOp::Load { word } => {
                let state = match grant {
                    Grant::Exclusive => State::Exclusive,
                    Grant::Shared | Grant::SharedRO => State::Shared,
                };
                if entry.poisoned && state == State::Shared {
                    // A racing invalidation means this Shared copy must
                    // not linger; the value itself is correctly ordered
                    // (the directory serialized our read before the
                    // write that invalidated).
                    if ack_required {
                        ch.send_unblock(now, line);
                    }
                    ch.completions.push(Completion::Load(data.read_word(word)));
                    return;
                }
                (state, Completion::Load(data.read_word(word)))
            }
            MshrOp::Store { word, value } => {
                assert_eq!(grant, Grant::Exclusive, "stores need exclusive grants");
                data.write_word(word, value);
                (State::Modified, Completion::Store)
            }
            MshrOp::Rmw { word, op } => {
                assert_eq!(grant, Grant::Exclusive, "RMWs need exclusive grants");
                let old = data.read_word(word);
                data.write_word(word, op.apply(old));
                (State::Modified, Completion::Load(old))
            }
        };
        match ch.install(now, line, Line { state, data }) {
            Install::Done => {}
            Install::Evicted(victim, old) => self.writeback(ch, now, victim, old),
            Install::NoWay => {
                // No evictable way: keep the directory consistent by
                // immediately writing the line back.
                self.writeback(ch, now, line, Line { state, data });
            }
        }
        if ack_required {
            ch.send_unblock(now, line);
        }
        ch.completions.push(completion);
    }

    fn submit_load(&mut self, ch: &mut Ch, now: Cycle, addr: Addr) -> Submit {
        let line = addr.line();
        let word = addr.word_index();
        if let Some(l) = ch.cache.lookup(line) {
            match l.state {
                State::Shared => ch.stats.read_hit_shared.inc(),
                State::Exclusive | State::Modified => ch.stats.read_hit_private.inc(),
            }
            return Submit::Hit(l.data.read_word(word));
        }
        if !ch.line_free(line) {
            return Submit::Retry;
        }
        ch.stats.read_miss_invalid.inc();
        ch.mshrs.alloc(
            line,
            Mshr {
                op: MshrOp::Load { word },
                data: None,
                acks_expected: None,
                acks_received: 0,
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
        if let Some(l) = ch.cache.lookup_mut(line) {
            match l.state {
                State::Exclusive | State::Modified => {
                    l.state = State::Modified;
                    l.data.write_word(word, value);
                    ch.stats.write_hit_private.inc();
                    return Submit::Hit(0);
                }
                State::Shared => {
                    // Upgrade: needs a GetX transaction.
                    if !ch.line_free(line) {
                        return Submit::Retry;
                    }
                    ch.stats.write_miss_shared.inc();
                }
            }
        } else {
            if !ch.line_free(line) {
                return Submit::Retry;
            }
            ch.stats.write_miss_invalid.inc();
        }
        ch.mshrs.alloc(
            line,
            Mshr {
                op: MshrOp::Store { word, value },
                data: None,
                acks_expected: None,
                acks_received: 0,
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
        if let Some(l) = ch.cache.lookup_mut(line) {
            if matches!(l.state, State::Exclusive | State::Modified) {
                l.state = State::Modified;
                let old = l.data.read_word(word);
                l.data.write_word(word, rmw.apply(old));
                ch.stats.rmw_hit.inc();
                ch.stats.write_hit_private.inc();
                return Submit::Hit(old);
            }
        }
        if !ch.line_free(line) {
            return Submit::Retry;
        }
        ch.stats.rmw_miss.inc();
        if ch.cache.peek(line).is_some() {
            ch.stats.write_miss_shared.inc();
        } else {
            ch.stats.write_miss_invalid.inc();
        }
        ch.mshrs.alloc(
            line,
            Mshr {
                op: MshrOp::Rmw { word, op: rmw },
                data: None,
                acks_expected: None,
                acks_received: 0,
                poisoned: false,
            },
        );
        let home = ch.home(line);
        ch.send(now, home, Msg::GetX { line });
        Submit::Miss
    }
}

impl L1Policy for MesiL1Policy {
    type Line = Line;
    type Mshr = Mshr;

    fn copy_from(&mut self, src: &Self) {
        *self = *src;
    }

    fn submit(&mut self, ch: &mut Ch, now: Cycle, op: CoreOp) -> Submit {
        match op {
            CoreOp::Fence => Submit::Hit(0), // MESI is eager; fences are core-local
            CoreOp::Load(addr) => self.submit_load(ch, now, addr),
            CoreOp::Store(addr, value) => self.submit_store(ch, now, addr, value),
            CoreOp::Rmw(addr, rmw) => self.submit_rmw(ch, now, addr, rmw),
        }
    }

    fn line_access(&self, line: &Line) -> LineAccess {
        match line.state {
            State::Shared => LineAccess::Read,
            // Exclusive counts as write permission: the E→M upgrade is
            // silent, so an Exclusive holder excludes every other copy
            // exactly like a Modified one.
            State::Exclusive | State::Modified => LineAccess::Write,
        }
    }

    fn handle_message(&mut self, ch: &mut Ch, now: Cycle, _src: Agent, msg: Msg) {
        match msg {
            Msg::Data {
                line,
                data,
                grant,
                acks_expected,
                with_payload,
                ack_required,
                ..
            } => {
                let id = ch.id();
                let resident = ch.cache.peek(line).map(|l| l.data);
                let entry = ch
                    .mshrs
                    .get_mut(line)
                    .unwrap_or_else(|| panic!("L1[{id}]: data for no MSHR {line}"));
                let data = if with_payload {
                    data
                } else {
                    // Upgrade grant: our resident Shared copy is valid.
                    resident.unwrap_or(data)
                };
                entry.data = Some((grant, data, ack_required));
                entry.acks_expected = Some(acks_expected);
                self.try_complete(ch, now, line);
            }
            Msg::InvAck { line, .. } => {
                if let Some(entry) = ch.mshrs.get_mut(line) {
                    entry.acks_received += 1;
                    self.try_complete(ch, now, line);
                } else {
                    panic!("L1[{}]: stray InvAck for {line}", ch.id());
                }
            }
            Msg::FwdGetS { line, requester } => {
                if let Some(l) = ch.cache.peek_mut(line) {
                    let dirty = l.state == State::Modified;
                    l.state = State::Shared;
                    let data = l.data;
                    self.forward_shared(ch, now, line, requester, data, dirty);
                } else if let Some(entry) = ch.wb.get_mut(line) {
                    entry.forwarded = true;
                    let (data, dirty) = (entry.data, entry.dirty);
                    self.forward_shared(ch, now, line, requester, data, dirty);
                } else {
                    panic!("L1[{}]: FwdGetS for absent line {line}", ch.id());
                }
            }
            Msg::FwdGetX { line, requester } => {
                let data = if let Some(l) = ch.cache.remove(line) {
                    l.data
                } else if let Some(entry) = ch.wb.get_mut(line) {
                    entry.forwarded = true;
                    entry.data
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
                        writer: id,
                        ts: Ts::INVALID,
                        epoch: Epoch::ZERO,
                        ts_source: None,
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
                if let Some(l) = ch.cache.peek(line) {
                    debug_assert_eq!(l.state, State::Shared, "Inv must target shared copies");
                    ch.cache.remove(line);
                }
                if let Some(m) = ch.mshrs.get_mut(line) {
                    if matches!(m.op, MshrOp::Load { .. }) {
                        m.poisoned = true;
                    }
                }
                let id = ch.id();
                if ch.faults.fire_drop_inv_ack() {
                    // Injected fault: swallow the acknowledgement. The
                    // requester (or the L2) waits for it forever.
                } else {
                    match ack_to_requester {
                        Some(r) => {
                            debug_assert_ne!(r, id);
                            ch.send(now, Agent::L1(r), Msg::InvAck { line, from: id });
                        }
                        None => {
                            let home = ch.home(line);
                            ch.send(now, home, Msg::InvAckToL2 { line, from: id });
                        }
                    }
                }
            }
            Msg::Recall { line } => {
                let (data, dirty) = if let Some(l) = ch.cache.remove(line) {
                    (l.data, l.state == State::Modified)
                } else if let Some(entry) = ch.wb.get_mut(line) {
                    entry.forwarded = true;
                    (entry.data, entry.dirty)
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
                        ts: Ts::INVALID,
                        epoch: Epoch::ZERO,
                        from,
                    },
                );
            }
            Msg::PutAck { line } => {
                ch.wb.remove(line);
            }
            other => panic!("L1[{}]: unexpected {other:?}", ch.id()),
        }
    }
}

impl MesiL1Policy {
    /// Serves a FwdGetS: supplies the requester with a Shared copy and
    /// refreshes the home tile via DowngradeData.
    fn forward_shared(
        &mut self,
        ch: &mut Ch,
        now: Cycle,
        line: LineAddr,
        requester: usize,
        data: LineData,
        dirty: bool,
    ) {
        let id = ch.id();
        ch.send(
            now,
            Agent::L1(requester),
            Msg::Data {
                line,
                data,
                grant: Grant::Shared,
                writer: id,
                ts: Ts::INVALID,
                epoch: Epoch::ZERO,
                ts_source: None,
                acks_expected: 0,
                with_payload: true,
                ack_required: true,
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
                ts: Ts::INVALID,
                epoch: Epoch::ZERO,
                from: id,
            },
        );
    }
}
