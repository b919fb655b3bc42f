//! An indexed pending-event queue for the event-driven scheduler.
//!
//! [`WakeQueue`] is a **radix heap** (a monotone priority queue bucketed
//! by the highest bit in which a key differs from the queue's floor)
//! over absolute wake cycles, with **lazy decrease-key**: re-arming a
//! component's wake bumps a per-component generation stamp instead of
//! searching for the stale entry, and stale entries are skipped (and
//! counted) when they surface. Both operations are O(1) amortized in
//! the monotone access pattern of a discrete-event simulation, so
//! picking the next event no longer costs a min-scan over every
//! component in the machine.
//!
//! # Monotonicity and the floor
//!
//! A radix heap requires keys pushed after a pop to be no smaller than
//! the last popped key (the *floor*). The simulator's wake contract
//! almost guarantees this — components re-arm for *future* cycles — but
//! the queue does not trust it: [`WakeQueue::set`] clamps keys to the
//! floor. The clamp is exact for the scheduler's purposes: the floor
//! never passes `horizon` (the next cycle the run loop could possibly
//! execute), so a clamped entry still fires no later than the cycle at
//! which the reference semantics would have acted on it.
//!
//! # Examples
//!
//! ```
//! use tsocc_sim::sched::WakeQueue;
//!
//! let mut q = WakeQueue::new(3);
//! q.set(0, 10);
//! q.set(1, 5);
//! q.set(1, 7); // re-arm: the key-5 entry is now stale
//! let mut due = Vec::new();
//! q.pop_due(7, &mut due);
//! assert_eq!(due, vec![1]);
//! assert_eq!(q.next_wake(8), 10);
//! assert_eq!(q.stats().stale_skips, 1);
//! ```

/// Scheduler counters, reported per run in the system's `RunStats` so
/// scheduler regressions are visible in benchmark-artifact diffs.
///
/// These count *host-side* queue traffic, not simulated events: the
/// reference stepper (which never touches the queue) reports zeros, and
/// the counters are deliberately excluded from `RunStats` equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Entries pushed into the queue (`set` with a finite wake).
    pub pushes: u64,
    /// Live entries popped as due.
    pub events_popped: u64,
    /// Stale entries (superseded by a later `set`) skipped and dropped.
    pub stale_skips: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    key: u64,
    id: u32,
    gen: u32,
}

/// Number of radix buckets: one per possible highest-differing-bit
/// position of a `u64` key, plus bucket 0 for keys equal to the floor.
const BUCKETS: usize = 65;

/// A monotone indexed min-queue of absolute wake cycles, one slot per
/// component id, with generation-stamped lazy invalidation.
///
/// See the [module documentation](self) for the design.
#[derive(Clone, Debug)]
pub struct WakeQueue {
    /// Lower bound on every live key; bucket 0 holds keys equal to it.
    floor: u64,
    buckets: Vec<Vec<Entry>>,
    /// Current generation per id; an entry is live iff its stamp
    /// matches. `set` bumps the stamp, so at most one live entry per id
    /// exists at any time.
    gens: Vec<u32>,
    stats: SchedStats,
}

impl WakeQueue {
    /// An empty queue for ids `0..n_ids` with floor 0.
    pub fn new(n_ids: usize) -> Self {
        WakeQueue {
            floor: 0,
            buckets: vec![Vec::new(); BUCKETS],
            gens: vec![0; n_ids],
            stats: SchedStats::default(),
        }
    }

    /// Clears the queue for a fresh run: `n_ids` slots, the given
    /// floor, all counters zeroed.
    pub fn reset(&mut self, n_ids: usize, floor: u64) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.gens.clear();
        self.gens.resize(n_ids, 0);
        self.floor = floor;
        self.stats = SchedStats::default();
    }

    /// Run counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    fn bucket_of(&self, key: u64) -> usize {
        debug_assert!(key >= self.floor);
        if key == self.floor {
            0
        } else {
            64 - (key ^ self.floor).leading_zeros() as usize
        }
    }

    /// Re-arms `id` to wake at `key` (lazy decrease/increase-key): any
    /// previous entry for `id` becomes stale. `u64::MAX` means "never"
    /// — the previous entry is invalidated and nothing is pushed. Keys
    /// below the floor are clamped up to it (see the module docs).
    pub fn set(&mut self, id: usize, key: u64) {
        let gen = self.gens[id].wrapping_add(1);
        self.gens[id] = gen;
        if key == u64::MAX {
            return;
        }
        let key = key.max(self.floor);
        let b = self.bucket_of(key);
        self.buckets[b].push(Entry {
            key,
            id: id as u32,
            gen,
        });
        self.stats.pushes += 1;
    }

    /// Invalidates `id`'s pending entry without scheduling a new one.
    pub fn clear(&mut self, id: usize) {
        self.set(id, u64::MAX);
    }

    /// Locates the minimum live key, pruning stale entries encountered
    /// along the way. Advances the floor to at most
    /// `min(min_live_key, horizon)` — never past `horizon`, so keys
    /// pushed at future steps (all `>= horizon`) are never clamped into
    /// the future by an over-eager floor.
    fn find_min(&mut self, horizon: u64) -> Option<u64> {
        loop {
            // Prune stale entries off bucket 0; any live entry there
            // has the minimum possible key (== floor).
            while let Some(e) = self.buckets[0].last() {
                if self.gens[e.id as usize] == e.gen {
                    return Some(self.floor);
                }
                self.buckets[0].pop();
                self.stats.stale_skips += 1;
            }
            let b = (1..BUCKETS).find(|&b| !self.buckets[b].is_empty())?;
            let mut bucket = std::mem::take(&mut self.buckets[b]);
            let before = bucket.len();
            let gens = &self.gens;
            bucket.retain(|e| gens[e.id as usize] == e.gen);
            self.stats.stale_skips += (before - bucket.len()) as u64;
            if bucket.is_empty() {
                self.buckets[b] = bucket;
                continue;
            }
            let min = bucket.iter().map(|e| e.key).min().unwrap();
            let new_floor = min.min(horizon);
            if new_floor > self.floor {
                // Re-bucket relative to the advanced floor; when the
                // floor reaches `min`, the minimum lands in bucket 0
                // (strictly lower buckets: the radix-heap amortization).
                self.floor = new_floor;
                for e in bucket.drain(..) {
                    let nb = self.bucket_of(e.key);
                    self.buckets[nb].push(e);
                }
                // An entry may re-bucket into `b` itself when the
                // horizon capped the floor below the minimum key; only
                // hand the drained scratch back if `b` stayed empty.
                if self.buckets[b].is_empty() {
                    self.buckets[b] = bucket;
                }
                continue;
            }
            // Horizon already at the floor: report without moving.
            self.buckets[b] = bucket;
            return Some(min);
        }
    }

    /// Pops every live entry with key `<= now` into `out` (order
    /// unspecified; callers sort or demultiplex by id class). Entries
    /// for popped ids are consumed; the caller re-arms them via
    /// [`WakeQueue::set`] after processing.
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<u32>) {
        loop {
            let Some(min) = self.find_min(now.saturating_add(1)) else {
                return;
            };
            if min > now {
                return;
            }
            // `min <= now < horizon`, so find_min advanced the floor to
            // `min` and bucket 0 holds every minimum-key entry.
            debug_assert_eq!(min, self.floor);
            let mut b0 = std::mem::take(&mut self.buckets[0]);
            for e in b0.drain(..) {
                if self.gens[e.id as usize] == e.gen {
                    out.push(e.id);
                    self.stats.events_popped += 1;
                } else {
                    self.stats.stale_skips += 1;
                }
            }
            self.buckets[0] = b0;
        }
    }

    /// The minimum pending wake cycle, or `u64::MAX` if none. `horizon`
    /// caps how far the internal floor may advance — pass the next
    /// cycle the caller could possibly execute (typically `now + 1`).
    pub fn next_wake(&mut self, horizon: u64) -> u64 {
        self.find_min(horizon).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_due(q: &mut WakeQueue, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        q.pop_due(now, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = WakeQueue::new(4);
        q.set(0, 30);
        q.set(1, 10);
        q.set(2, 20);
        assert_eq!(q.next_wake(0), 10);
        assert_eq!(drain_due(&mut q, 10), vec![1]);
        assert_eq!(drain_due(&mut q, 25), vec![2]);
        assert_eq!(drain_due(&mut q, 25), Vec::<u32>::new());
        assert_eq!(drain_due(&mut q, 30), vec![0]);
        assert_eq!(q.next_wake(31), u64::MAX);
    }

    #[test]
    fn rearm_invalidates_previous_entry() {
        let mut q = WakeQueue::new(2);
        q.set(0, 5);
        q.set(0, 50);
        assert_eq!(drain_due(&mut q, 10), Vec::<u32>::new());
        assert_eq!(drain_due(&mut q, 50), vec![0]);
        assert_eq!(q.stats().stale_skips, 1);
        assert_eq!(q.stats().events_popped, 1);
        assert_eq!(q.stats().pushes, 2);
    }

    #[test]
    fn clear_cancels_without_rescheduling() {
        let mut q = WakeQueue::new(1);
        q.set(0, 5);
        q.clear(0);
        assert_eq!(drain_due(&mut q, 100), Vec::<u32>::new());
        assert_eq!(q.next_wake(101), u64::MAX);
    }

    #[test]
    fn max_key_means_never() {
        let mut q = WakeQueue::new(1);
        q.set(0, u64::MAX);
        assert_eq!(q.stats().pushes, 0);
        assert_eq!(q.next_wake(1), u64::MAX);
    }

    #[test]
    fn several_ids_due_at_same_cycle() {
        let mut q = WakeQueue::new(5);
        for id in 0..5 {
            q.set(id, 7);
        }
        assert_eq!(drain_due(&mut q, 7), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn floor_clamps_past_keys_to_the_next_executable_cycle() {
        let mut q = WakeQueue::new(2);
        q.set(0, 100);
        // Advance the floor by draining up to cycle 90.
        assert_eq!(drain_due(&mut q, 90), Vec::<u32>::new());
        // A contract-violating past key is clamped, not lost, and fires
        // no later than the next executed cycle.
        q.set(1, 3);
        assert_eq!(drain_due(&mut q, 91), vec![1]);
        assert_eq!(drain_due(&mut q, 100), vec![0]);
    }

    #[test]
    fn horizon_caps_floor_advance() {
        let mut q = WakeQueue::new(2);
        q.set(0, 500);
        // Peek far ahead but cap the floor at 11.
        assert_eq!(q.next_wake(11), 500);
        // A later push below 500 but above the horizon must not clamp.
        q.set(1, 60);
        assert_eq!(q.next_wake(11), 60);
        assert_eq!(drain_due(&mut q, 60), vec![1]);
        assert_eq!(drain_due(&mut q, 500), vec![0]);
    }

    #[test]
    fn reset_clears_entries_and_stats() {
        let mut q = WakeQueue::new(2);
        q.set(0, 5);
        q.set(1, 6);
        q.reset(3, 4);
        assert_eq!(q.next_wake(4), u64::MAX);
        assert_eq!(q.stats(), SchedStats::default());
        q.set(2, 9);
        assert_eq!(drain_due(&mut q, 9), vec![2]);
    }

    #[test]
    fn interleaved_churn_matches_naive_expectation() {
        let mut q = WakeQueue::new(8);
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for id in 0..8usize {
            let key = 10 + (id as u64 * 37) % 90;
            q.set(id, key);
            expected.push((key, id));
        }
        // Re-arm half of them.
        for id in (0..8usize).step_by(2) {
            let key = 200 + id as u64;
            q.set(id, key);
            expected.retain(|&(_, i)| i != id);
            expected.push((key, id));
        }
        expected.sort_unstable();
        let mut got = Vec::new();
        for now in [50, 99, 199, 210] {
            let mut out = Vec::new();
            q.pop_due(now, &mut out);
            out.sort_unstable();
            got.extend(out.into_iter().map(|id| id as usize));
        }
        let want: Vec<usize> = expected.iter().map(|&(_, id)| id).collect();
        // Same multiset of ids overall, grouped by due time.
        let mut want_sorted = want.clone();
        want_sorted.sort_unstable();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        assert_eq!(got_sorted, want_sorted);
    }
}
