//! The correctness gate: pinned simulated outcomes.
//!
//! Every simulator point is pinned by a digest of its simulated
//! [`RunStats`] — the FNV-1a hash of its `Debug` string, which already
//! leaves out the host-side counters. The model-check leg is pinned by
//! its per-protocol schedule and transition totals. The table is
//! `pins.txt`, compiled in; `--write-pins` regenerates it.

use tsocc::RunStats;

/// How many base seeds `--write-pins` pins for a simulator workload
/// whose kernel draws on the seed (one otherwise). `--seed n` runs the
/// `n % k`-th of the `k` base seeds the table pins for a workload.
pub const PINNED_SEEDS: u64 = 16;

/// The candidates `--write-pins` surveys to choose the pinned seeds
/// from: `DEFAULT_BASE_SEED + k` for `k < CANDIDATE_SEEDS`.
pub const CANDIDATE_SEEDS: u64 = 48;

/// The sweep's default base seed.
pub const DEFAULT_BASE_SEED: u64 = 0xC0FFEE;

/// The committed table.
pub const PINS: &str = include_str!("../pins.txt");

/// FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned digest of one run's simulated outcome.
pub fn digest(stats: &RunStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// The identity of a simulator point in the table.
pub fn point_key(base_seed: u64, bench: &str, protocol: &str, cores: usize) -> String {
    format!("point {base_seed:#x} {bench} {protocol} {cores}")
}

/// The identity of a model-check protocol leg in the table.
pub fn check_key(protocol: &str, programs: usize) -> String {
    format!("check {protocol} {programs}")
}

/// The identity of a workload's `index`-th pinned base seed.
pub fn seed_key(workload: &str, index: u64) -> String {
    format!("seed {workload} {index}")
}

/// A seed-table line.
pub fn seed_line(key: &str, base_seed: u64) -> String {
    format!("{key} {base_seed:#x}")
}

/// A pin line: `key` followed by its pinned values.
pub fn point_line(key: &str, digest: u64) -> String {
    format!("{key} {digest:016x}")
}

/// A model-check pin line.
pub fn check_line(key: &str, schedules: u64, transitions: u64) -> String {
    format!("{key} {schedules} {transitions}")
}

/// The parsed table: `(key, values)` in file order.
#[derive(Clone, Debug)]
pub struct Pins {
    entries: Vec<(String, String)>,
}

impl Pins {
    /// Parses `text`: one pin per line, `#` comments and blank lines
    /// skipped. The key is everything up to the last field (points) or
    /// the last two fields (model-check legs).
    pub fn parse(text: &str) -> Pins {
        let mut entries = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let values = if fields[0] == "check" { 2 } else { 1 };
            if fields.len() <= values {
                continue;
            }
            let split = fields.len() - values;
            entries.push((fields[..split].join(" "), fields[split..].join(" ")));
        }
        Pins { entries }
    }

    /// The committed table.
    pub fn committed() -> Pins {
        Pins::parse(PINS)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The base seed `--seed n` selects for `workload`: the `n % k`-th
    /// of the `k` the table pins for it, or `None` when it pins none.
    pub fn base_seed(&self, workload: &str, n: u64) -> Option<u64> {
        let prefix = format!("seed {workload} ");
        let k = self
            .entries
            .iter()
            .filter(|(key, _)| key.starts_with(&prefix))
            .count() as u64;
        if k == 0 {
            return None;
        }
        let value = self.get(&seed_key(workload, n % k))?;
        u64::from_str_radix(value.strip_prefix("0x")?, 16).ok()
    }

    /// Whether `key` is pinned at all.
    #[cfg(test)]
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Checks a point's outcome against its pin; a point the table does
    /// not pin fails too.
    pub fn check_point(&self, key: &str, stats: &RunStats) -> Result<(), String> {
        let got = format!("{:016x}", digest(stats));
        match self.get(key) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{key}: digest {got}, pinned {want}")),
            None => Err(format!("{key}: not pinned")),
        }
    }

    /// Checks a model-check leg's totals against its pin.
    pub fn check_totals(&self, key: &str, schedules: u64, transitions: u64) -> Result<(), String> {
        let got = format!("{schedules} {transitions}");
        match self.get(key) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!("{key}: schedules/transitions {got}, pinned {want}")),
            None => Err(format!("{key}: not pinned")),
        }
    }

    /// A copy with `key`'s pinned value replaced — the self-tests use
    /// it to prove a wrong pin is caught.
    #[cfg(test)]
    pub fn with(&self, key: &str, value: &str) -> Pins {
        let mut pins = self.without(key);
        pins.entries.push((key.to_string(), value.to_string()));
        pins
    }

    /// A copy without `key` — the self-tests use it to prove a missing
    /// pin is caught.
    #[cfg(test)]
    pub fn without(&self, key: &str) -> Pins {
        let mut pins = self.clone();
        pins.entries.retain(|(k, _)| k != key);
        pins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_n_cycles_through_the_seeds_a_workload_pins() {
        let pins = Pins::parse("seed a 0 0x10\nseed a 1 0x11\nseed a 2 0x12\nseed b 0 0x20\n");
        let a: Vec<Option<u64>> = (0..4).map(|n| pins.base_seed("a", n)).collect();
        assert_eq!(a, [Some(0x10), Some(0x11), Some(0x12), Some(0x10)]);
        assert_eq!(pins.base_seed("b", 7), Some(0x20));
        assert_eq!(pins.base_seed("c", 0), None);
    }
}
