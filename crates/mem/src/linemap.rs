//! Flat, allocation-light hash maps for per-line controller state.
//!
//! The simulator's hot paths — MSHR lookups on every L1 submit, busy-table
//! lookups on every L2 message, writeback-buffer probes on every eviction
//! race — are all keyed by [`LineAddr`]. The standard library `HashMap`
//! serves them correctly but pays a SipHash invocation per probe, which
//! dominates once the per-access protocol work itself is cheap.
//! [`LineMap`] replaces it with an open-addressed table using a
//! hand-rolled multiply-xor mixer (the FxHash idea, written out here so
//! the workspace stays dependency-free): one multiplication and two
//! shifts per probe, with linear probing in a power-of-two table.
//!
//! Semantically `LineMap<T>` is a strict subset of
//! `HashMap<LineAddr, T>` (verified against exactly that reference model
//! by `crates/mem/tests/storage_props.rs`); the only observable
//! difference is that [`LineMap::iter`] makes no ordering promise of its
//! own — callers wanting a canonical order sort, as they would have with
//! the standard map.

use crate::addr::LineAddr;

/// Multiply-xor finalizer (SplitMix64's output stage): cheap, and strong
/// enough that line addresses with stride patterns (same set bits, page
/// strides) still spread across the table.
#[inline]
fn mix(key: u64) -> u64 {
    let mut h = key;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[derive(Debug)]
enum Slot<T> {
    Empty,
    /// A removed entry; probes continue past it, inserts may reuse it.
    Tombstone,
    Full(u64, T),
}

impl<T: Clone> Clone for Slot<T> {
    fn clone(&self) -> Self {
        match self {
            Slot::Empty => Slot::Empty,
            Slot::Tombstone => Slot::Tombstone,
            Slot::Full(k, v) => Slot::Full(*k, v.clone()),
        }
    }

    /// Leaves a slot alone when both sides are empty, and copies a live
    /// entry over a live one through `T::clone_from`, which keeps the
    /// value's allocations.
    fn clone_from(&mut self, src: &Self) {
        match (self, src) {
            (Slot::Empty, Slot::Empty) | (Slot::Tombstone, Slot::Tombstone) => {}
            (Slot::Full(k, v), Slot::Full(sk, sv)) => {
                *k = *sk;
                v.clone_from(sv);
            }
            (slot, src) => *slot = src.clone(),
        }
    }
}

/// The raw open-addressed table, keyed by bare `u64`. [`LineMap`] wraps
/// it with [`LineAddr`] keys; [`crate::memory::MainMemory`] uses it
/// directly as its page table (keyed by page number).
#[derive(Clone, Debug)]
pub(crate) struct FxMap<T> {
    /// Power-of-two slot array; empty until the first insert.
    slots: Vec<Slot<T>>,
    /// Live entries.
    len: usize,
    /// Live entries plus tombstones (bounds probe sequences).
    used: usize,
}

const MIN_CAPACITY: usize = 16;

impl<T> Default for FxMap<T> {
    fn default() -> Self {
        FxMap::new()
    }
}

impl<T> FxMap<T> {
    pub(crate) fn new() -> Self {
        FxMap {
            slots: Vec::new(),
            len: 0,
            used: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Tombstone => {}
                Slot::Full(k, _) => {
                    if *k == key {
                        return Some(i);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn get(&self, key: u64) -> Option<&T> {
        self.find(key).map(|i| match &self.slots[i] {
            Slot::Full(_, v) => v,
            _ => unreachable!("find returns full slots"),
        })
    }

    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.find(key).map(|i| match &mut self.slots[i] {
            Slot::Full(_, v) => v,
            _ => unreachable!("find returns full slots"),
        })
    }

    pub(crate) fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Rebuilds the table with `capacity` slots (a power of two),
    /// dropping tombstones.
    fn rehash(&mut self, capacity: usize) {
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(capacity, || Slot::Empty);
        self.used = self.len;
        let mask = capacity - 1;
        for slot in old {
            if let Slot::Full(k, v) = slot {
                let mut i = (mix(k) as usize) & mask;
                while !matches!(self.slots[i], Slot::Empty) {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Full(k, v);
            }
        }
    }

    /// Grows (or compacts tombstones away) so at least one more insert
    /// stays under the 3/4 load-factor bound.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        if cap == 0 {
            self.rehash(MIN_CAPACITY);
        } else if (self.used + 1) * 4 > cap * 3 {
            // Double only when live entries genuinely fill the table;
            // otherwise the table is mostly tombstones (churn) and a
            // same-size rehash reclaims them.
            let target = if (self.len + 1) * 2 > cap {
                cap * 2
            } else {
                cap
            };
            self.rehash(target);
        }
    }

    pub(crate) fn insert(&mut self, key: u64, value: T) -> Option<T> {
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        let mut first_tombstone = None;
        loop {
            match &mut self.slots[i] {
                Slot::Empty => {
                    let target = first_tombstone.unwrap_or(i);
                    if first_tombstone.is_none() {
                        self.used += 1;
                    }
                    self.slots[target] = Slot::Full(key, value);
                    self.len += 1;
                    return None;
                }
                Slot::Tombstone => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(i);
                    }
                }
                Slot::Full(k, v) => {
                    if *k == key {
                        return Some(std::mem::replace(v, value));
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn remove(&mut self, key: u64) -> Option<T> {
        let i = self.find(key)?;
        match std::mem::replace(&mut self.slots[i], Slot::Tombstone) {
            Slot::Full(_, v) => {
                self.len -= 1;
                Some(v)
            }
            _ => unreachable!("find returns full slots"),
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots.iter().filter_map(|s| match s {
            Slot::Full(k, v) => Some((*k, v)),
            _ => None,
        })
    }
}

impl<T: Clone> FxMap<T> {
    /// Makes `self` a slot-for-slot copy of `src` (tombstones and
    /// capacity included, so every probe finds what it finds in `src`),
    /// keeping `self`'s slot array where it is large enough.
    pub(crate) fn copy_from(&mut self, src: &FxMap<T>) {
        let FxMap { slots, len, used } = self;
        slots.clone_from(&src.slots);
        *len = src.len;
        *used = src.used;
    }
}

/// An open-addressed hash map keyed by [`LineAddr`], tuned for the
/// per-line transaction tables on the simulator's hot paths (L1 MSHRs,
/// L2 busy tables, writeback buffers).
///
/// Drop-in for the `HashMap<LineAddr, T>` subset the controllers use:
/// `insert` returns the previous value, `remove` returns the evicted
/// value, lookups borrow. Iteration order is unspecified (like the
/// standard map); no controller iterates its transaction tables.
///
/// # Examples
///
/// ```
/// use tsocc_mem::{Addr, LineMap};
///
/// let mut mshrs: LineMap<&'static str> = LineMap::new();
/// let line = Addr::new(0x1040).line();
/// assert!(mshrs.insert(line, "load miss").is_none());
/// assert!(mshrs.contains_key(line));
/// assert_eq!(mshrs.get(line), Some(&"load miss"));
/// assert_eq!(mshrs.remove(line), Some("load miss"));
/// assert!(mshrs.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct LineMap<T> {
    raw: FxMap<T>,
}

impl<T> Default for LineMap<T> {
    fn default() -> Self {
        LineMap::new()
    }
}

impl<T> LineMap<T> {
    /// Creates an empty map (no allocation until the first insert).
    pub fn new() -> Self {
        LineMap { raw: FxMap::new() }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Whether `line` has an entry.
    #[inline]
    pub fn contains_key(&self, line: LineAddr) -> bool {
        self.raw.contains_key(line.as_u64())
    }

    /// Borrows the entry for `line`.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        self.raw.get(line.as_u64())
    }

    /// Mutably borrows the entry for `line`.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.raw.get_mut(line.as_u64())
    }

    /// Inserts an entry, returning the previous one if present.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, value: T) -> Option<T> {
        self.raw.insert(line.as_u64(), value)
    }

    /// Removes and returns the entry for `line`.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        self.raw.remove(line.as_u64())
    }

    /// Iterates over all entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.raw.iter().map(|(k, v)| (LineAddr::new(k), v))
    }
}

impl<T: Clone> LineMap<T> {
    /// Makes `self` a copy of `src` that answers every lookup as `src`
    /// does, whatever either table's capacity. Keeps `self`'s table and
    /// its entries' allocations where they fit.
    pub fn copy_from(&mut self, src: &LineMap<T>) {
        let LineMap { raw } = self;
        raw.copy_from(&src.raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: LineMap<u64> = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(LineAddr::new(7)), None);
        assert_eq!(m.insert(LineAddr::new(7), 70), None);
        assert_eq!(m.insert(LineAddr::new(9), 90), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(LineAddr::new(7)), Some(&70));
        assert_eq!(m.insert(LineAddr::new(7), 71), Some(70));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(LineAddr::new(7)), Some(71));
        assert_eq!(m.remove(LineAddr::new(7)), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(LineAddr::new(9)));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m: LineMap<Vec<u32>> = LineMap::new();
        m.insert(LineAddr::new(3), vec![1]);
        m.get_mut(LineAddr::new(3)).unwrap().push(2);
        assert_eq!(m.get(LineAddr::new(3)), Some(&vec![1, 2]));
        assert_eq!(m.get_mut(LineAddr::new(4)), None);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut m: LineMap<u64> = LineMap::new();
        for i in 0..10_000u64 {
            m.insert(LineAddr::new(i * 64), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(LineAddr::new(i * 64)), Some(&i), "key {i}");
        }
    }

    #[test]
    fn churn_on_a_small_key_pool_stays_bounded_and_correct() {
        // Busy-table pattern: the same few lines are inserted and
        // removed over and over; tombstones must be reclaimed rather
        // than degrade probes or force unbounded growth.
        let mut m: LineMap<u64> = LineMap::new();
        for round in 0..50_000u64 {
            let line = LineAddr::new(round % 7);
            assert_eq!(m.insert(line, round), None, "round {round}");
            assert_eq!(m.remove(line), Some(round));
        }
        assert!(m.is_empty());
        assert!(
            m.raw.slots.len() <= MIN_CAPACITY,
            "churn must not grow the table: {} slots",
            m.raw.slots.len()
        );
    }

    #[test]
    fn colliding_stride_keys_all_resolve() {
        // Keys sharing low bits (page/set strides) probe into the same
        // neighbourhood; all must remain reachable.
        let mut m: LineMap<u64> = LineMap::new();
        for i in 0..512u64 {
            m.insert(LineAddr::new(i << 32), i);
        }
        for i in 0..512u64 {
            assert_eq!(m.get(LineAddr::new(i << 32)), Some(&i));
        }
        for i in (0..512u64).step_by(2) {
            assert_eq!(m.remove(LineAddr::new(i << 32)), Some(i));
        }
        for i in (1..512u64).step_by(2) {
            assert_eq!(m.get(LineAddr::new(i << 32)), Some(&i));
        }
    }

    #[test]
    fn a_copy_answers_every_lookup_as_its_source() {
        let key = |i: u64| LineAddr::new(i * 64);
        // A large table with tombstones, and a small one with other
        // entries and tombstones of its own.
        let mut large: LineMap<Vec<u64>> = LineMap::new();
        for i in 0..40 {
            large.insert(key(i), vec![i]);
        }
        for i in (0..40).step_by(3) {
            large.remove(key(i));
        }
        let mut small: LineMap<Vec<u64>> = LineMap::new();
        for i in 35..45 {
            small.insert(key(i), vec![i, i]);
        }
        small.remove(key(36));
        assert!(large.raw.slots.len() > small.raw.slots.len());
        let agree = |a: &LineMap<Vec<u64>>, b: &LineMap<Vec<u64>>, what: &str| {
            assert_eq!(a.len(), b.len(), "{what}");
            for i in 0..50 {
                assert_eq!(a.get(key(i)), b.get(key(i)), "{what}: line {i}");
            }
        };
        for (from, into) in [(&large, small.clone()), (&small, large.clone())] {
            let mut copy = into;
            copy.copy_from(from);
            agree(&copy, from, "after the copy");
            // Both sides keep agreeing through further churn.
            let mut from = from.clone();
            for i in 30..50 {
                assert_eq!(copy.remove(key(i)), from.remove(key(i)), "line {i}");
                assert_eq!(
                    copy.insert(key(i + 1), vec![0]),
                    from.insert(key(i + 1), vec![0])
                );
            }
            agree(&copy, &from, "after churn");
        }
    }

    #[test]
    fn iter_yields_every_live_entry() {
        let mut m: LineMap<u64> = LineMap::new();
        for i in 0..100u64 {
            m.insert(LineAddr::new(i), i * 10);
        }
        m.remove(LineAddr::new(50));
        let mut got: Vec<(u64, u64)> = m.iter().map(|(l, &v)| (l.as_u64(), v)).collect();
        got.sort_unstable();
        let want: Vec<(u64, u64)> = (0..100u64)
            .filter(|&i| i != 50)
            .map(|i| (i, i * 10))
            .collect();
        assert_eq!(got, want);
    }
}
