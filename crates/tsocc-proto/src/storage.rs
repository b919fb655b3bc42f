//! Analytic coherence-storage model (paper §3.7, Table 1, Figure 2).
//!
//! Computes the extra on-chip storage each protocol needs for coherence
//! state, as a function of core count. MESI pays a full sharing vector
//! (n bits) per L2 line — linear in cores — while TSO-CC pays
//! `Bts + log2(n)` per L2 line and `Bmaxacc + Bts` per L1 line, plus
//! small per-node tables: logarithmic growth.
//!
//! The exact bit accounting of the paper's figures is not fully
//! specified; this model follows Table 1 literally. `tsocc figures
//! fig2` prints its percentages next to the paper's (38%/82% reductions
//! at 32/128 cores for TSO-CC-4-12-3).

use crate::TsoCcConfig;

/// Machine shape for the storage model.
#[derive(Clone, Copy, Debug)]
pub struct StorageModel {
    /// Number of cores (and L2 tiles).
    pub n_cores: usize,
    /// L1 lines per core — I+D, so 1024 for 32KiB+32KiB (Table 2).
    pub l1_lines_per_core: usize,
    /// L2 lines per tile — 16384 for 1MiB tiles.
    pub l2_lines_per_tile: usize,
    /// Epoch-id width (3 in Figure 2).
    pub epoch_bits: u64,
    /// Access-counter width (`Bmaxacc`, 4).
    pub acc_bits: u64,
}

impl StorageModel {
    /// The paper's Figure 2 machine shape for `n` cores.
    pub fn paper(n_cores: usize) -> Self {
        StorageModel {
            n_cores,
            l1_lines_per_core: 1024,
            l2_lines_per_tile: 16384,
            epoch_bits: 3,
            acc_bits: 4,
        }
    }

    /// Bits in a core id (`log2(n)` rounded up, min 1).
    pub fn owner_bits(&self) -> u64 {
        (usize::BITS - (self.n_cores.max(2) - 1).leading_zeros()) as u64
    }

    /// Total MESI coherence storage in bits: a full n-bit sharing
    /// vector per L2 line.
    pub fn mesi_bits(&self) -> u64 {
        let per_line = self.n_cores as u64;
        per_line * self.l2_lines_per_tile as u64 * self.n_cores as u64
    }

    /// Total TSO-CC coherence storage in bits for a configuration,
    /// following Table 1.
    pub fn tsocc_bits(&self, cfg: &TsoCcConfig) -> u64 {
        let n = self.n_cores as u64;
        let tiles = n; // one tile per core
        let owner = self.owner_bits();
        let (ts_bits, wg_bits) = match cfg.write_ts {
            Some(p) => (p.ts_bits as u64, p.write_group_bits as u64),
            None => (0, 0),
        };
        let ep = if cfg.write_ts.is_some() || cfg.sro_ts {
            self.epoch_bits
        } else {
            0
        };
        let acc = if cfg.max_acc > 0 { self.acc_bits } else { 0 };

        // ---- L1, per node (Table 1) ----
        let mut l1_node = 0;
        if cfg.write_ts.is_some() {
            l1_node += ts_bits // current timestamp
                + wg_bits // write-group counter
                + ep // current epoch-id
                + n * ts_bits // ts_L1 table
                + n * ep; // epoch_ids_L1
        }
        if cfg.sro_ts {
            l1_node += tiles * ts_bits.max(1) // ts_L2 table
                + tiles * ep; // epoch_ids_L2
        }
        // ---- L1, per line ----
        let l1_line = acc + ts_bits;

        // ---- L2, per tile ----
        let mut l2_tile = 0;
        if cfg.write_ts.is_some() {
            l2_tile += n * ts_bits + n * ep; // ts_L1 + epoch_ids_L1
        }
        if cfg.sro_ts {
            l2_tile += ts_bits.max(1) + ep + 2; // tile ts + epoch + flags
        }
        // ---- L2, per line ----
        let l2_line = ts_bits + owner;

        n * (l1_node + self.l1_lines_per_core as u64 * l1_line)
            + tiles * (l2_tile + self.l2_lines_per_tile as u64 * l2_line)
    }

    /// Converts bits to megabytes.
    pub fn to_mb(bits: u64) -> f64 {
        bits as f64 / 8.0 / 1024.0 / 1024.0
    }

    /// Storage reduction of a TSO-CC configuration relative to MESI
    /// (e.g. `0.38` for a 38% reduction).
    pub fn reduction_vs_mesi(&self, cfg: &TsoCcConfig) -> f64 {
        1.0 - self.tsocc_bits(cfg) as f64 / self.mesi_bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesi_grows_linearly_per_line() {
        let m32 = StorageModel::paper(32);
        let m128 = StorageModel::paper(128);
        // 4x cores => 4x lines * 4x vector = 16x storage.
        assert_eq!(m128.mesi_bits(), 16 * m32.mesi_bits());
    }

    #[test]
    fn tsocc_scales_logarithmically_per_line() {
        let cfg = TsoCcConfig::realistic(12, 3);
        let m32 = StorageModel::paper(32);
        let m128 = StorageModel::paper(128);
        let growth = m128.tsocc_bits(&cfg) as f64 / m32.tsocc_bits(&cfg) as f64;
        // Line count grows 4x; per-line bits only 17→19. Way below
        // MESI's 16x.
        assert!(growth < 6.0, "growth={growth}");
    }

    #[test]
    fn paper_reduction_shape() {
        let cfg = TsoCcConfig::realistic(12, 3);
        let r32 = StorageModel::paper(32).reduction_vs_mesi(&cfg);
        let r128 = StorageModel::paper(128).reduction_vs_mesi(&cfg);
        // Paper: 38% at 32 cores, 82% at 128 cores. Bit-accounting
        // details differ; the shape (large, increasing with cores) must
        // hold.
        assert!(r32 > 0.25, "r32={r32}");
        assert!(r128 > 0.75, "r128={r128}");
        assert!(r128 > r32);
    }

    #[test]
    fn basic_and_shared_to_l2_are_cheapest() {
        let m = StorageModel::paper(32);
        let basic = m.tsocc_bits(&TsoCcConfig::basic());
        let s2l2 = m.tsocc_bits(&TsoCcConfig::cc_shared_to_l2());
        let full = m.tsocc_bits(&TsoCcConfig::realistic(12, 3));
        assert!(s2l2 < basic);
        assert!(basic < full);
    }

    #[test]
    fn owner_bits() {
        assert_eq!(StorageModel::paper(32).owner_bits(), 5);
        assert_eq!(StorageModel::paper(128).owner_bits(), 7);
        assert_eq!(StorageModel::paper(2).owner_bits(), 1);
    }
}
