//! Property tests pinning [`WakeQueue`] against a `BinaryHeap`
//! reference model under random set/clear/pop churn.
//!
//! The model is the textbook lazy-deletion priority queue: a max-down
//! `BinaryHeap<Reverse<(key, id)>>` plus a `desired[id]` map recording
//! each id's latest requested wake (`u64::MAX` = none). The harness
//! replays one random op sequence against both structures and checks:
//!
//! - **Pop membership is exact.** As long as pop times strictly
//!   advance (the monotone contract every stepper obeys), the queue's
//!   floor clamping can never move an entry across a pop boundary: a
//!   clamped key is at most `prev_pop + 1 <= next_pop`, and clamping
//!   never lowers a key. So `pop_due(now)` must return *precisely* the
//!   model's due ids, every time — not just a superset or subset.
//! - **`next_wake` is exact beyond `now`, bounded up to it.** Keys at
//!   or past `now + 1` are never clamped (the floor is at most
//!   `now + 1`), so when the model minimum is `>= now + 1` the queue
//!   must report it exactly. An already-due minimum may have been
//!   clamped anywhere up to `now + 1`, so there the queue's answer need
//!   only stay within `[model_min, now + 1]`.
//! - **The overflow path is exercised.** Besides re-arms within 40
//!   cycles, the ops re-arm several calendar windows ahead and pop
//!   with jumps past a whole window, so entries wait on the overflow
//!   list and migrate into the ring (or are drained straight from it).
//! - **Counters account for every entry.** `pushes` equals the number
//!   of finite `set`s whose key differs from the id's pending one in
//!   the model (a re-arm to the pending key pushes nothing),
//!   `events_popped` the total ids ever popped, and every push is
//!   eventually popped or skipped as stale once the queue drains
//!   (conservation: nothing is lost or double-counted).
//!
//! [`WakeQueue`]: tsocc_sim::WakeQueue

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use tsocc_sim::calendar::WINDOW;
use tsocc_sim::WakeQueue;

/// Component-id space for the random campaigns. Small enough that ids
/// collide often (re-arm churn is the interesting path), large enough
/// that several live entries coexist per bucket.
const N_IDS: usize = 12;

/// One randomized queue operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Re-arm `id` to wake `dk` cycles from the current time.
    Set { id: usize, dk: u64 },
    /// Re-arm `id` to a key *behind* the current time (stresses the
    /// floor clamp: the queue may store a later key than asked, but the
    /// entry must still fire on the very next pop).
    SetPast { id: usize, back: u64 },
    /// Invalidate `id`'s pending wake.
    Clear { id: usize },
    /// Advance time by `dt >= 1` and pop everything due.
    Pop { dt: u64 },
}

/// The reference model: lazy-deletion binary heap + desired-key map.
struct Model {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Latest requested wake per id; `u64::MAX` means none pending.
    desired: Vec<u64>,
}

impl Model {
    fn new() -> Self {
        Model {
            heap: BinaryHeap::new(),
            desired: vec![u64::MAX; N_IDS],
        }
    }

    fn set(&mut self, id: usize, key: u64) {
        self.desired[id] = key;
        if key != u64::MAX {
            self.heap.push(Reverse((key, id as u32)));
        }
    }

    /// Minimum live desired key, or `u64::MAX` if none.
    fn min(&self) -> u64 {
        self.desired.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Pops every live id with key `<= now`, consuming it.
    fn pop_due(&mut self, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(&Reverse((key, id))) = self.heap.peek() {
            if key > now {
                break;
            }
            self.heap.pop();
            // Lazy deletion: only the entry matching the desired key is
            // live; ids may appear multiple times with stale keys.
            if self.desired[id as usize] == key {
                self.desired[id as usize] = u64::MAX;
                out.push(id);
            }
        }
        out
    }
}

/// Strategy for one op, weighted toward re-arms (`Set` listed twice)
/// since re-arm churn is the queue's hot path. The last two arms reach
/// the calendar's overflow path: re-arms up to six windows ahead, and
/// pops that jump past a whole window.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..N_IDS, 0u64..40).prop_map(|(id, dk)| Op::Set { id, dk }),
        (0usize..N_IDS, 0u64..40).prop_map(|(id, dk)| Op::Set { id, dk }),
        (0usize..N_IDS, 1u64..20).prop_map(|(id, back)| Op::SetPast { id, back }),
        (0usize..N_IDS).prop_map(|id| Op::Clear { id }),
        (1u64..15).prop_map(|dt| Op::Pop { dt }),
        (0usize..N_IDS, WINDOW - 8..6 * WINDOW).prop_map(|(id, dk)| Op::Set { id, dk }),
        (WINDOW..3 * WINDOW).prop_map(|dt| Op::Pop { dt }),
    ]
}

/// Replays `ops` against queue and model in lockstep, checking pop
/// membership and the `next_wake` bound after every step. Returns
/// `(queue, new_keys, total_popped, final_now)` for the stats leg, where
/// `new_keys` counts the finite sets whose key differs from the model's
/// `desired[id]` just before the set.
fn replay(ops: &[Op]) -> (WakeQueue, u64, u64, u64) {
    let mut q = WakeQueue::new(N_IDS);
    let mut m = Model::new();
    let mut now = 0u64;
    let mut new_keys = 0u64;
    let mut total_popped = 0u64;
    let mut due = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Set { id, dk } => {
                new_keys += u64::from(m.desired[id] != now + dk);
                q.set(id, now + dk);
                m.set(id, now + dk);
            }
            Op::SetPast { id, back } => {
                let key = now.saturating_sub(back);
                new_keys += u64::from(m.desired[id] != key);
                q.set(id, key);
                m.set(id, key);
            }
            Op::Clear { id } => {
                q.clear(id);
                m.set(id, u64::MAX);
            }
            Op::Pop { dt } => {
                now += dt;
                due.clear();
                q.pop_due(now, &mut due);
                due.sort_unstable();
                let mut want = m.pop_due(now);
                want.sort_unstable();
                assert_eq!(due, want, "step {step}: pop membership at now={now}");
                total_popped += due.len() as u64;
            }
        }
        // `next_wake` contract after every op: exact past `now`,
        // clamped no further than `now + 1` before it.
        let nw = q.next_wake();
        let want = m.min();
        if want > now {
            assert_eq!(nw, want, "step {step}: next_wake at now={now}");
        } else {
            assert!(
                (want..=now + 1).contains(&nw),
                "step {step}: next_wake {nw} outside [{want}, {}] at now={now}",
                now + 1
            );
        }
    }
    // Drain: everything still pending must fire by the model's own
    // maximum desired key — plus one cycle, because the `next_wake`
    // probes above may have clamped a past-key entry up to `now + 1`,
    // and the strictly-advancing contract requires the final pop to
    // land past that horizon too.
    let horizon = m
        .desired
        .iter()
        .copied()
        .filter(|&k| k != u64::MAX)
        .max()
        .unwrap_or(now)
        .max(now)
        + 1;
    due.clear();
    q.pop_due(horizon, &mut due);
    due.sort_unstable();
    let mut want = m.pop_due(horizon);
    want.sort_unstable();
    assert_eq!(due, want, "final drain at now={horizon}");
    total_popped += due.len() as u64;
    assert_eq!(q.next_wake(), u64::MAX, "queue not empty after drain");
    assert_eq!(m.min(), u64::MAX, "model not empty after drain");
    (q, new_keys, total_popped, horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_binary_heap_model(ops in collection::vec(op_strategy(), 1..120)) {
        replay(&ops);
    }

    /// Counter conservation: every finite `set` that changes the id's
    /// pending key is a push, and once the queue drains every push has
    /// been popped live or skipped stale — no entry is lost, none is
    /// counted twice.
    #[test]
    fn stats_account_for_every_entry(ops in collection::vec(op_strategy(), 1..120)) {
        let (q, new_keys, total_popped, _) = replay(&ops);
        let stats = q.stats();
        prop_assert_eq!(stats.pushes, new_keys);
        prop_assert_eq!(stats.events_popped, total_popped);
        prop_assert_eq!(stats.pushes, stats.events_popped + stats.stale_skips);
    }

    /// `reset` must leave no residue: replaying a second, different
    /// campaign on a reset queue behaves exactly like a fresh one.
    #[test]
    fn reset_forgets_everything(
        first in collection::vec(op_strategy(), 1..60),
        second in collection::vec(op_strategy(), 1..60),
    ) {
        let (mut q, _, _, _) = replay(&first);
        q.reset(N_IDS, 0);
        prop_assert_eq!(q.stats(), tsocc_sim::SchedStats::default());
        let mut m = Model::new();
        let mut now = 0u64;
        let mut due = Vec::new();
        for &op in &second {
            match op {
                Op::Set { id, dk } => {
                    q.set(id, now + dk);
                    m.set(id, now + dk);
                }
                Op::SetPast { id, back } => {
                    let key = now.saturating_sub(back);
                    q.set(id, key);
                    m.set(id, key);
                }
                Op::Clear { id } => {
                    q.clear(id);
                    m.set(id, u64::MAX);
                }
                Op::Pop { dt } => {
                    now += dt;
                    due.clear();
                    q.pop_due(now, &mut due);
                    due.sort_unstable();
                    let mut want = m.pop_due(now);
                    want.sort_unstable();
                    prop_assert_eq!(&due, &want, "reset replay at now={}", now);
                }
            }
        }
    }
}
