#![warn(missing_docs)]

//! MESI with a **limited-pointer / coarse-sharing-vector directory** —
//! the classic storage-reduced directory baseline (Dir_i_B / coarse
//! vector in the literature) that full-map directories like the paper's
//! MESI are traditionally compared against, and a natural third point
//! between MESI's exact full vector and TSO-CC's no-vector design.
//!
//! The protocol *is* MESI: this crate reuses `tsocc-mesi`'s L1 policy
//! verbatim (private caches cannot observe the directory encoding) and
//! its generic L2 policy, instantiated with a [`PtrVector`] sharer set
//! instead of the full bit vector:
//!
//! - up to [`MesiCoarseConfig::pointers`] sharers are tracked exactly
//!   (one core-id pointer each);
//! - when a line gains more sharers than there are pointers, the set
//!   falls back to a **coarse vector** with one bit per group of
//!   [`MesiCoarseConfig::granularity`] consecutive cores. Invalidations
//!   then fan out to every core of every marked group — conservative
//!   but correct (MESI L1s ack invalidations for absent lines blindly,
//!   exactly as they do for stale full-vector bits after silent
//!   evictions).
//!
//! With `pointers >=` the number of cores the fallback never triggers
//! and the protocol is **cycle-for-cycle identical** to full-vector
//! MESI (asserted by `tests/chassis_parity.rs`); with few pointers and
//! coarse groups it trades storage for extra invalidation traffic —
//! the axis the paper's storage argument (§2, Figure 2) is about.

use tsocc_coherence::{L1Controller, L2Controller, MachineShape, ProtocolFactory};
use tsocc_mesi::{check_sharer_capacity, MesiFactory, MesiL2Config, SharerSet};

/// Upper bound on exact sharer pointers per line (the encoding budget:
/// eight 16-bit pointers fit the 128-bit word a full vector would use).
pub const MAX_POINTERS: u32 = 8;

/// Configuration of the limited-pointer / coarse-vector directory.
///
/// # Examples
///
/// ```
/// use tsocc_mesi_coarse::MesiCoarseConfig;
///
/// let cfg = MesiCoarseConfig::new(4, 4);
/// assert_eq!(cfg.name(), "MESI-P4-G4");
/// assert_eq!(MesiCoarseConfig::default().name(), "MESI-P4-G4");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MesiCoarseConfig {
    /// Exact sharer pointers per line (1..=[`MAX_POINTERS`]).
    pub pointers: u32,
    /// Cores per coarse-vector bit after pointer overflow (>= 1).
    pub granularity: u32,
}

impl Default for MesiCoarseConfig {
    /// Four pointers with four-core groups: the common Dir_4_CV point.
    fn default() -> Self {
        MesiCoarseConfig::new(4, 4)
    }
}

impl MesiCoarseConfig {
    /// A configuration with `pointers` exact pointers and
    /// `granularity`-core coarse groups (both clamped to valid ranges).
    pub fn new(pointers: u32, granularity: u32) -> Self {
        MesiCoarseConfig {
            pointers: pointers.clamp(1, MAX_POINTERS),
            granularity: granularity.max(1),
        }
    }

    /// The configuration's display name, `MESI-P<pointers>-G<granularity>`.
    pub fn name(&self) -> String {
        format!("MESI-P{}-G{}", self.pointers, self.granularity)
    }

    /// The pointer budget, defended against clamp-bypassing struct
    /// literals (the fields are public).
    fn pointer_budget(&self) -> u32 {
        self.pointers.clamp(1, MAX_POINTERS)
    }

    /// The coarse group a core belongs to (a literal-built
    /// `granularity: 0` degrades to one core per group, not a panic).
    fn group_of(&self, core: usize) -> usize {
        core / self.granularity.max(1) as usize
    }
}

/// A limited-pointer sharer set with coarse-vector overflow.
///
/// `Exact` tracks up to [`MesiCoarseConfig::pointers`] sharers by core
/// id; `Coarse` is one bit per [`MesiCoarseConfig::granularity`]-core
/// group (so up to 128 groups). Once coarse, a set stays coarse until
/// the directory rebuilds it (GetX or eviction empties it; a downgrade
/// reseeds it with two exact pointers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtrVector {
    /// Up to `pointers` exact sharer ids.
    Exact {
        /// The pointer slots; only the first `n` are meaningful.
        ptrs: [u16; MAX_POINTERS as usize],
        /// Number of valid pointers.
        n: u8,
    },
    /// Coarse fallback: one bit per core group.
    Coarse(u128),
}

impl SharerSet for PtrVector {
    type Cfg = MesiCoarseConfig;

    fn empty(_: &MesiCoarseConfig) -> Self {
        PtrVector::Exact {
            ptrs: [0; MAX_POINTERS as usize],
            n: 0,
        }
    }

    fn add(&mut self, cfg: &MesiCoarseConfig, core: usize) -> bool {
        match self {
            PtrVector::Exact { ptrs, n } => {
                let held = ptrs[..*n as usize].contains(&(core as u16));
                if held {
                    return false;
                }
                if (*n as u32) < cfg.pointer_budget() {
                    ptrs[*n as usize] = core as u16;
                    *n += 1;
                    return false;
                }
                // Pointer overflow: collapse to the coarse group vector.
                let mut bits = 1u128 << cfg.group_of(core);
                for &p in &ptrs[..*n as usize] {
                    bits |= 1u128 << cfg.group_of(p as usize);
                }
                *self = PtrVector::Coarse(bits);
                true
            }
            PtrVector::Coarse(bits) => {
                *bits |= 1u128 << cfg.group_of(core);
                false
            }
        }
    }

    fn holds(&self, cfg: &MesiCoarseConfig, core: usize) -> Option<bool> {
        match self {
            PtrVector::Exact { ptrs, n } => Some(ptrs[..*n as usize].contains(&(core as u16))),
            PtrVector::Coarse(bits) => {
                if bits & (1u128 << cfg.group_of(core)) == 0 {
                    Some(false)
                } else {
                    None // group bit set: membership unknown
                }
            }
        }
    }

    fn may_hold(&self, cfg: &MesiCoarseConfig, core: usize) -> bool {
        match self {
            PtrVector::Exact { ptrs, n } => ptrs[..*n as usize].contains(&(core as u16)),
            PtrVector::Coarse(bits) => bits & (1u128 << cfg.group_of(core)) != 0,
        }
    }

    fn capacity(cfg: &MesiCoarseConfig) -> Option<usize> {
        // The coarse fallback has one group bit per `granularity`
        // consecutive cores in a u128; exact pointers store u16 ids.
        let coarse = (u128::BITS as usize).saturating_mul(cfg.granularity.max(1) as usize);
        Some(coarse.min(u16::MAX as usize + 1))
    }
}

/// Builds MESI-coarse L1/L2 controllers for any machine shape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MesiCoarseFactory {
    /// Directory parameters (pointer budget, group granularity).
    pub cfg: MesiCoarseConfig,
}

impl MesiCoarseFactory {
    /// A factory for one directory configuration.
    pub fn new(cfg: MesiCoarseConfig) -> Self {
        MesiCoarseFactory { cfg }
    }
}

impl ProtocolFactory for MesiCoarseFactory {
    fn protocol_name(&self) -> String {
        self.cfg.name()
    }

    fn l1(&self, core: usize, shape: &MachineShape) -> Box<dyn L1Controller> {
        // The L1 side of MESI is oblivious to the directory encoding:
        // delegate so the two MESI variants can never drift apart.
        MesiFactory.l1(core, shape)
    }

    fn l2(&self, tile: usize, shape: &MachineShape) -> Box<dyn L2Controller> {
        let mut ctl = MesiL2Config {
            tile,
            n_cores: shape.n_cores,
            n_mem: shape.n_mem,
            params: shape.l2_params,
            latency: shape.l2_latency,
        }
        .build_with::<PtrVector>(self.cfg);
        ctl.chassis.faults = tsocc_coherence::FaultState::for_l2(&shape.faults, tile);
        Box::new(ctl)
    }

    fn validate_shape(&self, shape: &MachineShape) -> Result<(), String> {
        shape.validate()?;
        check_sharer_capacity::<PtrVector>(&self.cfg, shape.n_cores, &self.cfg.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_coherence::MeshTopology;
    use tsocc_mem::CacheParams;

    fn cfg(pointers: u32, granularity: u32) -> MesiCoarseConfig {
        MesiCoarseConfig::new(pointers, granularity)
    }

    #[test]
    fn config_names_and_clamping() {
        assert_eq!(cfg(4, 4).name(), "MESI-P4-G4");
        assert_eq!(cfg(0, 0).pointers, 1);
        assert_eq!(cfg(0, 0).granularity, 1);
        assert_eq!(cfg(99, 1).pointers, MAX_POINTERS);
    }

    #[test]
    fn literal_configs_bypassing_new_are_defended_at_use_sites() {
        // Public fields allow struct literals that skip new()'s clamp;
        // add() and group_of() must stay in bounds anyway.
        let c = MesiCoarseConfig {
            pointers: 16,
            granularity: 0,
        };
        let mut s = PtrVector::empty(&c);
        for core in 0..12 {
            s.add(&c, core); // must overflow at MAX_POINTERS, not panic
        }
        assert!(matches!(s, PtrVector::Coarse(_)));
        assert!(s.may_hold(&c, 11));
    }

    #[test]
    fn exact_mode_tracks_sharers_precisely() {
        let c = cfg(2, 4);
        let mut s = PtrVector::empty(&c);
        assert!(!s.add(&c, 3));
        assert!(!s.add(&c, 3), "re-adding a sharer is a no-op");
        assert!(!s.add(&c, 5));
        assert_eq!(s.holds(&c, 3), Some(true));
        assert_eq!(s.holds(&c, 4), Some(false));
        assert!(s.may_hold(&c, 5));
        assert!(!s.may_hold(&c, 0));
    }

    #[test]
    fn overflow_falls_back_to_coarse_groups() {
        let c = cfg(2, 4);
        let mut s = PtrVector::empty(&c);
        s.add(&c, 0); // group 0
        s.add(&c, 5); // group 1
        assert!(s.add(&c, 9), "third sharer overflows two pointers");
        // Groups 0, 1 and 2 are marked: every member may hold a copy,
        // exact membership is unknown for marked groups...
        assert_eq!(s.holds(&c, 1), None);
        assert!(s.may_hold(&c, 1) && s.may_hold(&c, 6) && s.may_hold(&c, 11));
        // ...and unmarked groups are definitely empty.
        assert_eq!(s.holds(&c, 12), Some(false));
        assert!(!s.may_hold(&c, 12));
        // Coarse sets stay coarse and absorb new sharers by group.
        assert!(!s.add(&c, 13));
        assert!(s.may_hold(&c, 15));
    }

    #[test]
    fn wide_pointer_budget_never_overflows_small_machines() {
        let c = cfg(8, 1);
        let mut s = PtrVector::empty(&c);
        for core in 0..8 {
            assert!(!s.add(&c, core));
        }
        for core in 0..8 {
            assert_eq!(s.holds(&c, core), Some(true));
        }
    }

    #[test]
    fn factory_builds_quiescent_controllers() {
        let f = MesiCoarseFactory::new(cfg(2, 2));
        assert_eq!(f.protocol_name(), "MESI-P2-G2");
        let shape = MachineShape {
            n_cores: 4,
            n_tiles: 4,
            n_mem: 2,
            mesh: MeshTopology::for_tiles(4),
            l2_banks: 1,
            l1_params: CacheParams::new(8, 2),
            l2_params: CacheParams::new(16, 4),
            l1_issue_latency: 1,
            l2_latency: 4,
            faults: tsocc_coherence::FaultPlan::none(),
        };
        assert!(f.l1(0, &shape).is_quiescent());
        assert!(f.l2(3, &shape).is_quiescent());
    }
}
