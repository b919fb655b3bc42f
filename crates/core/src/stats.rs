//! Whole-run statistics: everything the paper's figures need.

use tsocc_coherence::{L1Stats, L2Stats, SelfInvCause};
use tsocc_noc::NocStats;
use tsocc_sim::{Histogram, SchedStats};

/// Aggregated results of one simulation run.
///
/// Implements `PartialEq` so integration tests can assert bit-identical
/// outcomes across run-loop implementations and thread counts. Equality
/// (and `Debug`, which golden tests snapshot) deliberately cover only
/// **simulated** outcomes: the host-side [`RunStats::sched`] counters
/// differ across steppers by design and are excluded from both.
#[derive(Clone, Default)]
pub struct RunStats {
    /// Execution time in cycles (Figure 3's metric, before
    /// normalization).
    pub cycles: u64,
    /// All L1 statistics summed over cores (Figures 5, 6, 7, 9).
    pub l1: L1Stats,
    /// All L2 statistics summed over tiles.
    pub l2: L2Stats,
    /// Network statistics (Figure 4's total-flits metric).
    pub noc: NocStats,
    /// Instructions executed over all cores.
    pub instructions: u64,
    /// RMW issue-to-complete latency over all cores (Figure 8).
    pub rmw_latency: Histogram,
    /// Load miss latency over all cores.
    pub load_latency: Histogram,
    /// Write-buffer-full stall cycles over all cores.
    pub wb_full_stalls: u64,
    /// Host-side event-queue counters of the indexed event-driven
    /// scheduler (all zero under the reference stepper, which does not
    /// use the queue). Excluded from equality and `Debug`.
    pub sched: SchedStats,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `sched` (host-side, stepper-dependent).
        self.cycles == other.cycles
            && self.l1 == other.l1
            && self.l2 == other.l2
            && self.noc == other.noc
            && self.instructions == other.instructions
            && self.rmw_latency == other.rmw_latency
            && self.load_latency == other.load_latency
            && self.wb_full_stalls == other.wb_full_stalls
    }
}

impl Eq for RunStats {}

impl std::fmt::Debug for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Mirrors the derived layout minus `sched`, so golden-string
        // snapshots pin exactly the simulated outcome.
        f.debug_struct("RunStats")
            .field("cycles", &self.cycles)
            .field("l1", &self.l1)
            .field("l2", &self.l2)
            .field("noc", &self.noc)
            .field("instructions", &self.instructions)
            .field("rmw_latency", &self.rmw_latency)
            .field("load_latency", &self.load_latency)
            .field("wb_full_stalls", &self.wb_full_stalls)
            .finish()
    }
}

impl RunStats {
    /// Total network traffic in flits (the Figure 4 metric).
    pub fn total_flits(&self) -> u64 {
        self.noc.flits_injected.get()
    }

    /// Fraction of L1 data-response events that triggered
    /// self-invalidation, per cause (Figure 7 shows these as a
    /// percentage of responses).
    pub fn selfinv_rate_per_miss(&self) -> f64 {
        let misses = self.l1.read_misses() + self.l1.write_misses();
        if misses == 0 {
            return 0.0;
        }
        // Fences are not data responses; exclude them from the rate.
        let events: u64 = SelfInvCause::ALL
            .iter()
            .filter(|c| **c != SelfInvCause::Fence)
            .map(|c| self.l1.selfinv_events[c.index()].get())
            .sum();
        events as f64 / misses as f64
    }

    /// Breakdown of self-invalidation events by cause as fractions of
    /// the total (Figure 9).
    pub fn selfinv_cause_fractions(&self) -> [(SelfInvCause, f64); 4] {
        let total = self.l1.selfinv_total().max(1) as f64;
        SelfInvCause::ALL.map(|c| (c, self.l1.selfinv_events[c.index()].get() as f64 / total))
    }

    /// L1 miss rate over all accesses (Figure 5's y axis).
    pub fn l1_miss_rate(&self) -> f64 {
        let accesses = self.l1.accesses();
        if accesses == 0 {
            return 0.0;
        }
        (self.l1.read_misses() + self.l1.write_misses()) as f64 / accesses as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_counters_excluded_from_equality_and_debug() {
        let mut a = RunStats::default();
        let b = RunStats::default();
        a.sched.pushes = 99;
        a.sched.events_popped = 5;
        a.sched.stale_skips = 1;
        assert_eq!(a, b, "host-side counters must not break parity");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!format!("{a:?}").contains("sched"));
        let c = RunStats {
            cycles: 1,
            ..Default::default()
        };
        assert_ne!(c, b, "simulated fields still compare");
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = RunStats::default();
        assert_eq!(s.selfinv_rate_per_miss(), 0.0);
        assert_eq!(s.l1_miss_rate(), 0.0);
        assert_eq!(s.total_flits(), 0);
    }

    #[test]
    fn selfinv_rate_excludes_fences() {
        let mut s = RunStats::default();
        s.l1.read_miss_invalid.add(10);
        s.l1.record_selfinv(SelfInvCause::Fence, 1);
        s.l1.record_selfinv(SelfInvCause::InvalidTs, 1);
        assert!((s.selfinv_rate_per_miss() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn cause_fractions_sum_to_one() {
        let mut s = RunStats::default();
        s.l1.record_selfinv(SelfInvCause::Fence, 0);
        s.l1.record_selfinv(SelfInvCause::AcquireSro, 0);
        s.l1.record_selfinv(SelfInvCause::AcquireSro, 0);
        s.l1.record_selfinv(SelfInvCause::InvalidTs, 0);
        let total: f64 = s.selfinv_cause_fractions().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
