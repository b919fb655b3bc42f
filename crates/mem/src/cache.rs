//! Generic set-associative cache array with LRU replacement.
//!
//! The array is generic over the per-line payload `T` (protocol state,
//! timestamps, data, ...), so both L1 and L2 controllers of both protocols
//! share the same structure. Only *stable* lines live in the array; lines
//! in the middle of a coherence transaction are held in MSHRs by the
//! controllers, which keeps replacement from ever selecting a transient
//! line by construction. Controllers may additionally pin lines (e.g. a
//! busy directory entry) through the `evictable` predicate.

use std::fmt;

use crate::addr::LineAddr;

/// Geometry of a cache array.
///
/// # Examples
///
/// ```
/// use tsocc_mem::CacheParams;
///
/// // 32 KiB, 64B lines, 4-way => 128 sets.
/// let p = CacheParams::from_capacity(32 * 1024, 4);
/// assert_eq!(p.sets(), 128);
/// assert_eq!(p.ways(), 4);
/// assert_eq!(p.lines(), 512);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    sets: usize,
    ways: usize,
}

impl CacheParams {
    /// Creates a geometry from an explicit set count and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or if `ways` is 0.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be positive");
        CacheParams { sets, ways }
    }

    /// Creates a geometry from a byte capacity (64B lines).
    ///
    /// # Panics
    ///
    /// Panics if the derived set count is not a positive power of two.
    pub fn from_capacity(bytes: usize, ways: usize) -> Self {
        let lines = bytes / crate::addr::LINE_BYTES as usize;
        assert!(
            ways > 0 && lines >= ways,
            "capacity too small for associativity"
        );
        CacheParams::new(lines / ways, ways)
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub const fn ways(&self) -> usize {
        self.ways
    }

    /// Total line capacity.
    pub const fn lines(&self) -> usize {
        self.sets * self.ways
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.as_u64() % self.sets as u64) as usize
    }
}

#[derive(Clone, Debug)]
struct Slot<T> {
    line: LineAddr,
    lru: u64,
    entry: T,
}

/// Result of inserting a line into a [`CacheArray`].
#[derive(Debug, PartialEq, Eq)]
pub enum InsertOutcome<T> {
    /// The line was installed without displacing anything.
    Installed,
    /// The line was installed and the returned victim was evicted.
    Evicted(LineAddr, T),
    /// No way in the set was evictable; nothing was installed.
    SetFull,
}

/// A set-associative cache array with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use tsocc_mem::{Addr, CacheArray, CacheParams, InsertOutcome};
///
/// let mut c: CacheArray<u32> = CacheArray::new(CacheParams::new(1, 2));
/// let l = |n: u64| Addr::new(n * 64).line();
/// assert!(matches!(c.insert(l(0), 10, 0, |_, _| true), InsertOutcome::Installed));
/// assert!(matches!(c.insert(l(1), 11, 1, |_, _| true), InsertOutcome::Installed));
/// // Set is full; LRU (line 0) is evicted.
/// match c.insert(l(2), 12, 2, |_, _| true) {
///     InsertOutcome::Evicted(victim, entry) => {
///         assert_eq!(victim, l(0));
///         assert_eq!(entry, 10);
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
#[derive(Clone)]
pub struct CacheArray<T> {
    params: CacheParams,
    sets: Vec<Vec<Slot<T>>>,
    tick: u64,
}

impl<T> CacheArray<T> {
    /// Creates an empty array with the given geometry.
    ///
    /// Set storage is allocated lazily on each set's first insert:
    /// building a machine costs O(sets) empty vectors (no heap
    /// traffic), and sweeps over mostly-idle caches touch only the sets
    /// actually used.
    pub fn new(params: CacheParams) -> Self {
        let sets = (0..params.sets()).map(|_| Vec::new()).collect();
        CacheArray {
            params,
            sets,
            tick: 0,
        }
    }

    /// The array geometry.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the array holds no lines.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    /// Looks up a line without updating recency.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let set = &self.sets[self.params.set_of(line)];
        set.iter().find(|s| s.line == line).map(|s| &s.entry)
    }

    /// Looks up a line and marks it most-recently used.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&T> {
        self.tick += 1;
        let tick = self.tick;
        let set = &mut self.sets[self.params.set_of(line)];
        set.iter_mut().find(|s| s.line == line).map(|s| {
            s.lru = tick;
            &s.entry
        })
    }

    /// Mutable lookup; marks the line most-recently used.
    pub fn lookup_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.tick += 1;
        let tick = self.tick;
        let set = &mut self.sets[self.params.set_of(line)];
        set.iter_mut().find(|s| s.line == line).map(|s| {
            s.lru = tick;
            &mut s.entry
        })
    }

    /// Mutable access without touching recency (for sweeps/metadata).
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let set = &mut self.sets[self.params.set_of(line)];
        set.iter_mut()
            .find(|s| s.line == line)
            .map(|s| &mut s.entry)
    }

    /// Installs `entry` for `line`, evicting the least-recently-used
    /// evictable way if the set is full.
    ///
    /// `now` is accepted for interface symmetry and future replacement
    /// policies; recency is tracked by an internal access tick.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (callers must use
    /// [`CacheArray::lookup_mut`] to update an existing line).
    pub fn insert<F>(
        &mut self,
        line: LineAddr,
        entry: T,
        _now: u64,
        evictable: F,
    ) -> InsertOutcome<T>
    where
        F: Fn(LineAddr, &T) -> bool,
    {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.params.ways();
        let set_idx = self.params.set_of(line);
        let set = &mut self.sets[set_idx];
        assert!(
            set.iter().all(|s| s.line != line),
            "line {line} already resident; update in place instead"
        );
        if set.len() < ways {
            if set.capacity() == 0 {
                // First touch of this set: one exact allocation instead
                // of doubling through push-growth.
                set.reserve_exact(ways);
            }
            set.push(Slot {
                line,
                lru: tick,
                entry,
            });
            return InsertOutcome::Installed;
        }
        // Choose the LRU way among evictable ones.
        let victim = set
            .iter()
            .enumerate()
            .filter(|(_, s)| evictable(s.line, &s.entry))
            .min_by_key(|(_, s)| s.lru)
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let old = std::mem::replace(
                    &mut set[i],
                    Slot {
                        line,
                        lru: tick,
                        entry,
                    },
                );
                InsertOutcome::Evicted(old.line, old.entry)
            }
            None => InsertOutcome::SetFull,
        }
    }

    /// Removes and returns the entry for `line`.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let set = &mut self.sets[self.params.set_of(line)];
        let idx = set.iter().position(|s| s.line == line)?;
        Some(set.swap_remove(idx).entry)
    }

    /// Iterates over all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|s| (s.line, &s.entry)))
    }

    /// Mutably iterates over all resident lines (used for the TSO-CC
    /// self-invalidation sweep).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut T)> {
        self.sets
            .iter_mut()
            .flat_map(|set| set.iter_mut().map(|s| (s.line, &mut s.entry)))
    }

    /// Removes every line for which `pred` returns true; returns how many
    /// lines were removed.
    pub fn retain<F>(&mut self, mut keep: F) -> usize
    where
        F: FnMut(LineAddr, &T) -> bool,
    {
        let mut removed = 0;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|s| keep(s.line, &s.entry));
            removed += before - set.len();
        }
        removed
    }
}

impl<T: Clone> CacheArray<T> {
    /// Makes `self` a copy of `src`, an array of the same geometry: the
    /// same lines in the same ways with the same recency, so both pick
    /// the same victims from here on. Keeps `self`'s set storage and
    /// skips the sets that are empty in both.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn copy_from(&mut self, src: &CacheArray<T>) {
        let CacheArray { params, sets, tick } = self;
        assert_eq!(*params, src.params, "copy between unlike cache arrays");
        for (set, from) in sets.iter_mut().zip(&src.sets) {
            if !(set.is_empty() && from.is_empty()) {
                set.clone_from(from);
            }
        }
        *tick = src.tick;
    }
}

impl<T: fmt::Debug> fmt::Debug for CacheArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CacheArray({} sets x {} ways, {} resident)",
            self.params.sets(),
            self.params.ways(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn l(n: u64) -> LineAddr {
        Addr::new(n * 64).line()
    }

    fn tiny() -> CacheArray<u32> {
        CacheArray::new(CacheParams::new(2, 2))
    }

    #[test]
    fn params_from_capacity() {
        let p = CacheParams::from_capacity(1024 * 1024, 16);
        assert_eq!(p.lines(), 16384);
        assert_eq!(p.sets(), 1024);
    }

    #[test]
    #[should_panic]
    fn zero_ways_panics() {
        let _ = CacheParams::new(4, 0);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_panics() {
        let _ = CacheParams::new(3, 2);
    }

    #[test]
    fn lookup_miss_and_hit() {
        let mut c = tiny();
        assert!(c.lookup(l(0)).is_none());
        c.insert(l(0), 5, 0, |_, _| true);
        assert_eq!(c.lookup(l(0)), Some(&5));
        assert_eq!(c.peek(l(0)), Some(&5));
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = tiny();
        // Lines 0 and 2 map to set 0 (2 sets).
        c.insert(l(0), 0, 0, |_, _| true);
        c.insert(l(2), 2, 1, |_, _| true);
        // Touch line 0 so line 2 becomes LRU.
        c.lookup(l(0));
        match c.insert(l(4), 4, 2, |_, _| true) {
            InsertOutcome::Evicted(victim, entry) => {
                assert_eq!(victim, l(2));
                assert_eq!(entry, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.peek(l(0)).is_some());
        assert!(c.peek(l(4)).is_some());
    }

    #[test]
    fn eviction_respects_pinning() {
        let mut c = tiny();
        c.insert(l(0), 100, 0, |_, _| true);
        c.insert(l(2), 200, 1, |_, _| true);
        // Only entry 200 is evictable.
        match c.insert(l(4), 4, 2, |_, e| *e == 200) {
            InsertOutcome::Evicted(victim, _) => assert_eq!(victim, l(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_full_when_nothing_evictable() {
        let mut c = tiny();
        c.insert(l(0), 1, 0, |_, _| true);
        c.insert(l(2), 2, 1, |_, _| true);
        assert!(matches!(
            c.insert(l(4), 3, 2, |_, _| false),
            InsertOutcome::SetFull
        ));
        // Nothing was displaced.
        assert!(c.peek(l(0)).is_some());
        assert!(c.peek(l(2)).is_some());
        assert!(c.peek(l(4)).is_none());
    }

    #[test]
    fn remove_returns_entry() {
        let mut c = tiny();
        c.insert(l(1), 7, 0, |_, _| true);
        assert_eq!(c.remove(l(1)), Some(7));
        assert_eq!(c.remove(l(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut c = tiny();
        c.insert(l(1), 7, 0, |_, _| true);
        c.insert(l(1), 8, 1, |_, _| true);
    }

    #[test]
    fn retain_removes_matching() {
        let mut c = tiny();
        c.insert(l(0), 1, 0, |_, _| true);
        c.insert(l(1), 2, 0, |_, _| true);
        c.insert(l(2), 3, 0, |_, _| true);
        let removed = c.retain(|_, e| *e != 2);
        assert_eq!(removed, 1);
        assert_eq!(c.len(), 2);
        assert!(c.peek(l(1)).is_none());
    }

    #[test]
    fn iter_visits_all() {
        let mut c = tiny();
        for i in 0..4 {
            c.insert(l(i), i as u32, 0, |_, _| true);
        }
        let mut lines: Vec<u64> = c.iter().map(|(la, _)| la.as_u64()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_copy_evicts_the_same_victim_as_its_source() {
        // The source's recency tick runs far ahead of a fresh array's:
        // a copy that kept its own tick would stamp the next touch below
        // every copied way and evict the line just touched.
        let mut src = tiny();
        for round in 0..50 {
            src.lookup(l(round % 3));
        }
        src.insert(l(0), 0, 0, |_, _| true);
        src.insert(l(2), 2, 0, |_, _| true);
        src.lookup(l(0));
        let mut copy = tiny();
        copy.insert(l(1), 1, 0, |_, _| true);
        copy.copy_from(&src);
        let mut lines: Vec<(u64, u32)> = copy.iter().map(|(la, &e)| (la.as_u64(), e)).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![(0, 0), (2, 2)]);
        for c in [&mut src, &mut copy] {
            // Line 2 becomes most recent, so line 0 is the victim.
            c.lookup(l(2));
            match c.insert(l(4), 4, 0, |_, _| true) {
                InsertOutcome::Evicted(victim, _) => assert_eq!(victim, l(0)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Lines 0,1 go to different sets; both fit even with 2 ways.
        c.insert(l(0), 0, 0, |_, _| true);
        c.insert(l(1), 1, 0, |_, _| true);
        c.insert(l(2), 2, 0, |_, _| true);
        c.insert(l(3), 3, 0, |_, _| true);
        assert_eq!(c.len(), 4);
    }
}
