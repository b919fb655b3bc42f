//! An indexed pending-event queue for the event-driven scheduler.
//!
//! [`WakeQueue`] holds one absolute wake cycle per component id on a
//! [`Calendar`] (a per-cycle ring of FIFO slots, see
//! [`crate::calendar`]), with **lazy decrease-key**: re-arming a
//! component's wake bumps a per-component generation stamp instead of
//! searching for the stale entry, and stale entries are skipped (and
//! counted) when they surface. Re-arming a component to the key its
//! live entry already holds pushes nothing, so every stale entry is one
//! whose wake really moved. Pushing and popping cost O(1), and the next
//! wake is the first occupied slot, so picking the next event no longer
//! costs a min-scan over every component in the machine.
//!
//! # The floor
//!
//! [`WakeQueue::pop_due`] drains every slot up to `now` and moves the
//! calendar's floor to `now + 1`; [`WakeQueue::set`] clamps keys below
//! the floor up to it. The clamp is exact for the scheduler's purposes:
//! `now + 1` is the next cycle the run loop could possibly execute, so
//! a clamped entry still fires no later than the cycle at which the
//! reference semantics would have acted on it.
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
//! assert_eq!(q.next_wake(), 10);
//! assert_eq!(q.stats().stale_skips, 1);
//! ```

use crate::Calendar;

/// Scheduler counters, reported per run in the system's `RunStats`.
/// They stay out of the sweep artifact, which holds simulated outcomes
/// only; the host-time benchmark (`perfbench/`) reports them.
///
/// These count *host-side* queue traffic, not simulated events: the
/// reference stepper (which never touches the queue) reports zeros, and
/// the counters are deliberately excluded from `RunStats` equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Entries pushed into the queue (`set` with a finite wake other
    /// than the id's live one).
    pub pushes: u64,
    /// Live entries popped as due.
    pub events_popped: u64,
    /// Stale entries (superseded by a later `set`) skipped and dropped.
    pub stale_skips: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    id: u32,
    gen: u32,
}

/// A monotone indexed min-queue of absolute wake cycles, one slot per
/// component id, with generation-stamped lazy invalidation.
///
/// See the [module documentation](self) for the design.
#[derive(Clone, Debug)]
pub struct WakeQueue {
    cal: Calendar<Entry>,
    /// Current generation per id; an entry is live iff its stamp
    /// matches. `set` bumps the stamp, so at most one live entry per id
    /// exists at any time.
    gens: Vec<u32>,
    /// The key of each id's live entry; `u64::MAX` when it has none.
    keys: Vec<u64>,
    stats: SchedStats,
}

impl WakeQueue {
    /// An empty queue for ids `0..n_ids` with floor 0.
    pub fn new(n_ids: usize) -> Self {
        WakeQueue {
            cal: Calendar::new(),
            gens: vec![0; n_ids],
            keys: vec![u64::MAX; n_ids],
            stats: SchedStats::default(),
        }
    }

    /// Clears the queue for a fresh run: `n_ids` slots, the given
    /// floor, all counters zeroed.
    pub fn reset(&mut self, n_ids: usize, floor: u64) {
        self.cal.reset(floor);
        self.gens.clear();
        self.gens.resize(n_ids, 0);
        self.keys.clear();
        self.keys.resize(n_ids, u64::MAX);
        self.stats = SchedStats::default();
    }

    /// Run counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Re-arms `id` to wake at `key` (lazy decrease/increase-key): any
    /// previous entry for `id` becomes stale. `u64::MAX` means "never"
    /// — the previous entry is invalidated and nothing is pushed. Keys
    /// below the floor are clamped up to it (see the module docs). If
    /// `id`'s live entry already holds `key`, nothing changes.
    pub fn set(&mut self, id: usize, key: u64) {
        if self.keys[id] == key {
            return;
        }
        self.keys[id] = key;
        let gen = self.gens[id].wrapping_add(1);
        self.gens[id] = gen;
        if key == u64::MAX {
            return;
        }
        self.cal.push(key, Entry { id: id as u32, gen });
        self.stats.pushes += 1;
    }

    /// Invalidates `id`'s pending entry without scheduling a new one.
    pub fn clear(&mut self, id: usize) {
        self.set(id, u64::MAX);
    }

    /// Pops every live entry with key `<= now` into `out` (order
    /// unspecified; callers sort or demultiplex by id class) and moves
    /// the floor to `now + 1`. Entries for popped ids are consumed; the
    /// caller re-arms them via [`WakeQueue::set`] after processing.
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<u32>) {
        let (gens, keys, stats) = (&self.gens, &mut self.keys, &mut self.stats);
        self.cal.pop_due(now, |e| {
            if gens[e.id as usize] == e.gen {
                keys[e.id as usize] = u64::MAX;
                out.push(e.id);
                stats.events_popped += 1;
            } else {
                stats.stale_skips += 1;
            }
        });
    }

    /// The minimum pending wake cycle, or `u64::MAX` if none. Stale
    /// entries ahead of the first live one are dropped on the way.
    pub fn next_wake(&mut self) -> u64 {
        while let Some((key, e)) = self.cal.peek() {
            if self.gens[e.id as usize] == e.gen {
                return key;
            }
            self.cal.pop();
            self.stats.stale_skips += 1;
        }
        u64::MAX
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
        assert_eq!(q.next_wake(), 10);
        assert_eq!(drain_due(&mut q, 10), vec![1]);
        assert_eq!(drain_due(&mut q, 25), vec![2]);
        assert_eq!(drain_due(&mut q, 25), Vec::<u32>::new());
        assert_eq!(drain_due(&mut q, 30), vec![0]);
        assert_eq!(q.next_wake(), u64::MAX);
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
        assert_eq!(q.next_wake(), u64::MAX);
    }

    #[test]
    fn max_key_means_never() {
        let mut q = WakeQueue::new(1);
        q.set(0, u64::MAX);
        assert_eq!(q.stats().pushes, 0);
        assert_eq!(q.next_wake(), u64::MAX);
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
    fn next_wake_leaves_the_floor_in_place() {
        let mut q = WakeQueue::new(2);
        q.set(0, 500);
        // Peek far ahead: the floor stays put.
        assert_eq!(q.next_wake(), 500);
        // A later push below 500 must not clamp.
        q.set(1, 60);
        assert_eq!(q.next_wake(), 60);
        assert_eq!(drain_due(&mut q, 60), vec![1]);
        assert_eq!(drain_due(&mut q, 500), vec![0]);
    }

    #[test]
    fn reset_clears_entries_and_stats() {
        let mut q = WakeQueue::new(2);
        q.set(0, 5);
        q.set(1, 6);
        q.reset(3, 4);
        assert_eq!(q.next_wake(), u64::MAX);
        assert_eq!(q.stats(), SchedStats::default());
        // Re-arming an id to the key it held before the reset must push
        // anew: the reset forgets live keys too.
        q.set(0, 5);
        q.set(2, 9);
        assert_eq!(drain_due(&mut q, 9), vec![0, 2]);
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
