#![warn(missing_docs)]

//! Deterministic, seeded fault injection for the simulator.
//!
//! A [`FaultPlan`] is an axis on the system configuration that injects
//! faults at two layers:
//!
//! - **NoC** ([`NocFault`]): bounded extra message delay, optionally
//!   targeted at one virtual network. The extra delay is a *pure hash*
//!   of `(seed, src, dst, vnet, cycle)` — not a stateful RNG — so it
//!   is independent of send-call order and both steppers (reference
//!   and event-driven) derive the identical delay for the identical
//!   message.
//! - **Protocol** ([`ProtocolFault`]): policy-level mutations behind
//!   the [`FaultState`] seam in the coherence chassis — drop an
//!   invalidation ack, skip a TSO-CC timestamp reset (wrapping the
//!   timestamp source without an epoch advance), corrupt a sharer set
//!   or coarse-vector group, or hold an MSHR past its release. These
//!   are *mutation testing for the verification stack*: each must be
//!   caught by at least one existing oracle (litmus forbidden
//!   outcomes, conformance model mismatches, or a deadlock report).
//!
//! [`FaultPlan::none`] is the default everywhere; with it, every
//! simulated outcome is byte-identical to a build without this crate.

use tsocc_mem::LineAddr;
use tsocc_noc::VNet;

/// Extra network delay, deterministically derived per message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocFault {
    /// Upper bound (inclusive) on the injected extra delay in cycles.
    pub extra_delay_max: u64,
    /// Restrict the jitter to one virtual network (`None` = all).
    pub vnet: Option<VNet>,
}

/// A policy-level coherence-protocol mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolFault {
    /// The first invalidation ack core `core`'s L1 would send is
    /// silently dropped. The requester's miss never completes — a
    /// protocol deadlock the run loop must detect and report.
    DropInvAck {
        /// The faulty core.
        core: usize,
    },
    /// Every timestamp reset at core `core` is replaced by a *silent
    /// wrap*: the timestamp source restarts from the smallest valid
    /// timestamp without advancing the epoch or broadcasting
    /// `TsReset`. Subsequent writes carry small timestamps in the old
    /// epoch, defeating the `ts >= seen` acquire check in remote L1s —
    /// stale reads the TSO oracles must flag. (Merely skipping the
    /// broadcast is self-healing: epoch mismatches on data responses
    /// already force conservative self-invalidation.)
    SkipTsReset {
        /// The faulty core.
        core: usize,
    },
    /// On the first invalidation fan-out at tile `tile` with at least
    /// one invalidatable sharer, one sharer is silently dropped from
    /// the set: it keeps a stale copy while the writer proceeds — a
    /// coherence violation the oracles must observe as a stale read.
    CorruptSharers {
        /// The faulty L2 tile.
        tile: usize,
    },
    /// The MSHR for `line` at core `core` is never released: the miss
    /// hangs forever, wedging the home tile's transaction — the
    /// hand-crafted deadlock behind the `HangReport` tests, with a
    /// known line to look for in the wait-for cycle.
    HoldMshr {
        /// The faulty core.
        core: usize,
        /// The line whose MSHR is held.
        line: LineAddr,
    },
}

/// The full fault-injection plan, carried on the system configuration
/// and the machine shape. All-`Copy` so the shape stays `Copy`.
///
/// The default ([`FaultPlan::none`]) injects nothing and is
/// byte-identical to a fault-free build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the NoC delay hash (independent of the workload seed
    /// so jitter can vary while the workload stays fixed).
    pub seed: u64,
    /// Network-layer fault, if any.
    pub noc: Option<NocFault>,
    /// Protocol-layer mutation, if any.
    pub protocol: Option<ProtocolFault>,
}

/// One round of the splitmix64 output permutation: a high-quality
/// 64-bit mix used as the order-independent delay hash.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The inert plan: injects nothing anywhere.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            noc: None,
            protocol: None,
        }
    }

    /// Whether this plan injects nothing (the common fast path).
    pub fn is_none(&self) -> bool {
        self.noc.is_none() && self.protocol.is_none()
    }

    /// Extra delivery delay for a message injected at `cycle` from
    /// router `src` to router `dst` on `vnet`: `0` without a NoC
    /// fault, otherwise a pure hash of the plan seed and the message
    /// coordinates in `0..=extra_delay_max`.
    ///
    /// Being a pure function of per-message data (no RNG state), the
    /// delay is independent of the order in which sends are issued —
    /// which is what keeps both steppers bit-identical under an active
    /// NoC fault.
    pub fn noc_extra_delay(&self, cycle: u64, src: usize, dst: usize, vnet: VNet) -> u64 {
        let Some(f) = self.noc else { return 0 };
        if f.extra_delay_max == 0 {
            return 0;
        }
        if let Some(v) = f.vnet {
            if v != vnet {
                return 0;
            }
        }
        let key = self
            .seed
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(cycle)
            .wrapping_add((src as u64) << 40)
            .wrapping_add((dst as u64) << 20)
            .wrapping_add(vnet.index() as u64);
        mix64(key) % (f.extra_delay_max + 1)
    }
}

/// Per-controller runtime fault state, installed on the coherence
/// chassis by the protocol factories. Holds the (already filtered)
/// mutation targeting this controller plus its one-shot trigger
/// bookkeeping. The default is inert.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultState {
    fault: Option<ProtocolFault>,
    fired: bool,
}

impl FaultState {
    /// The inert state (also the `Default`).
    pub const fn none() -> FaultState {
        FaultState {
            fault: None,
            fired: false,
        }
    }

    /// The fault state for core `core`'s L1 under `plan`: keeps the
    /// protocol mutation iff it targets this L1.
    pub fn for_l1(plan: &FaultPlan, core: usize) -> FaultState {
        let fault = match plan.protocol {
            Some(ProtocolFault::DropInvAck { core: c }) if c == core => plan.protocol,
            Some(ProtocolFault::SkipTsReset { core: c }) if c == core => plan.protocol,
            Some(ProtocolFault::HoldMshr { core: c, .. }) if c == core => plan.protocol,
            _ => None,
        };
        FaultState {
            fault,
            fired: false,
        }
    }

    /// The fault state for tile `tile`'s L2 under `plan`: keeps the
    /// protocol mutation iff it targets this tile.
    pub fn for_l2(plan: &FaultPlan, tile: usize) -> FaultState {
        let fault = match plan.protocol {
            Some(ProtocolFault::CorruptSharers { tile: t }) if t == tile => plan.protocol,
            _ => None,
        };
        FaultState {
            fault,
            fired: false,
        }
    }

    /// Whether any mutation is armed on this controller.
    pub fn is_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// One-shot: returns `true` exactly once if this controller is to
    /// drop its next invalidation ack.
    pub fn fire_drop_inv_ack(&mut self) -> bool {
        match self.fault {
            Some(ProtocolFault::DropInvAck { .. }) if !self.fired => {
                self.fired = true;
                true
            }
            _ => false,
        }
    }

    /// Persistent: whether timestamp resets at this L1 are replaced by
    /// a silent wrap (no epoch advance, no broadcast).
    pub fn skip_ts_reset(&self) -> bool {
        matches!(self.fault, Some(ProtocolFault::SkipTsReset { .. }))
    }

    /// One-shot: returns `true` exactly once if this tile is to drop
    /// one sharer from its next invalidation fan-out. Call only when a
    /// droppable sharer actually exists, so the single shot is never
    /// wasted on an empty fan-out.
    pub fn fire_corrupt_sharers(&mut self) -> bool {
        match self.fault {
            Some(ProtocolFault::CorruptSharers { .. }) if !self.fired => {
                self.fired = true;
                true
            }
            _ => false,
        }
    }

    /// Persistent: whether the MSHR for `line` must be held past its
    /// release (the completion path returns early, forever).
    pub fn hold_mshr(&self, line: LineAddr) -> bool {
        matches!(self.fault, Some(ProtocolFault::HoldMshr { line: l, .. }) if l == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_none());
        assert_eq!(plan, FaultPlan::none());
        assert_eq!(plan.noc_extra_delay(100, 0, 1, VNet::Request), 0);
        assert!(!FaultState::for_l1(&plan, 0).is_armed());
        assert!(!FaultState::for_l2(&plan, 0).is_armed());
    }

    #[test]
    fn noc_delay_is_bounded_deterministic_and_vnet_targeted() {
        let plan = FaultPlan {
            seed: 7,
            noc: Some(NocFault {
                extra_delay_max: 5,
                vnet: Some(VNet::Response),
            }),
            ..FaultPlan::none()
        };
        for cycle in 0..200 {
            let d = plan.noc_extra_delay(cycle, 3, 9, VNet::Response);
            assert!(d <= 5);
            // Pure function: same inputs, same delay.
            assert_eq!(d, plan.noc_extra_delay(cycle, 3, 9, VNet::Response));
            // Other vnets are untouched.
            assert_eq!(plan.noc_extra_delay(cycle, 3, 9, VNet::Request), 0);
        }
        // The hash actually varies (not constant zero).
        let spread: std::collections::BTreeSet<u64> = (0..200)
            .map(|c| plan.noc_extra_delay(c, 3, 9, VNet::Response))
            .collect();
        assert!(spread.len() > 1, "jitter must vary: {spread:?}");
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let mk = |seed| FaultPlan {
            seed,
            noc: Some(NocFault {
                extra_delay_max: 63,
                vnet: None,
            }),
            ..FaultPlan::none()
        };
        let (a, b) = (mk(1), mk(2));
        let diff = (0..100)
            .filter(|&c| {
                a.noc_extra_delay(c, 0, 1, VNet::Request)
                    != b.noc_extra_delay(c, 0, 1, VNet::Request)
            })
            .count();
        assert!(diff > 50, "seeds must decorrelate jitter ({diff}/100)");
    }

    #[test]
    fn l1_fault_filtering_targets_one_core() {
        let plan = FaultPlan {
            protocol: Some(ProtocolFault::DropInvAck { core: 2 }),
            ..FaultPlan::none()
        };
        assert!(!FaultState::for_l1(&plan, 1).is_armed());
        let mut st = FaultState::for_l1(&plan, 2);
        assert!(st.is_armed());
        assert!(st.fire_drop_inv_ack(), "first ack is dropped");
        assert!(!st.fire_drop_inv_ack(), "one-shot");
        // An L1 fault never arms an L2.
        assert!(!FaultState::for_l2(&plan, 2).is_armed());
    }

    #[test]
    fn l2_fault_filtering_targets_one_tile() {
        let plan = FaultPlan {
            protocol: Some(ProtocolFault::CorruptSharers { tile: 3 }),
            ..FaultPlan::none()
        };
        assert!(!FaultState::for_l2(&plan, 0).is_armed());
        let mut st = FaultState::for_l2(&plan, 3);
        assert!(st.fire_corrupt_sharers());
        assert!(!st.fire_corrupt_sharers(), "one-shot");
    }

    #[test]
    fn hold_mshr_is_line_exact_and_persistent() {
        let line = LineAddr::new(0x80);
        let plan = FaultPlan {
            protocol: Some(ProtocolFault::HoldMshr { core: 0, line }),
            ..FaultPlan::none()
        };
        let st = FaultState::for_l1(&plan, 0);
        assert!(st.hold_mshr(line));
        assert!(st.hold_mshr(line), "persistent");
        assert!(!st.hold_mshr(LineAddr::new(0x81)));
    }

    #[test]
    fn skip_ts_reset_is_persistent() {
        let plan = FaultPlan {
            protocol: Some(ProtocolFault::SkipTsReset { core: 1 }),
            ..FaultPlan::none()
        };
        let st = FaultState::for_l1(&plan, 1);
        assert!(st.skip_ts_reset());
        assert!(st.skip_ts_reset());
        assert!(!FaultState::for_l1(&plan, 0).skip_ts_reset());
    }
}
