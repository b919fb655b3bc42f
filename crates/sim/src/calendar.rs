//! A calendar queue keyed by absolute cycle (Brown, CACM 1988): the one
//! structure behind every pending simulator event — the wake deadlines
//! of [`crate::WakeQueue`] and the mesh's in-flight messages.
//!
//! # Layout
//!
//! - A fixed ring of [`WINDOW`] per-cycle FIFO slots covers the keys
//!   `floor..floor + WINDOW`. An occupancy bitmap finds the first
//!   non-empty slot in a few word scans.
//! - Every entry lives in one free-listed slab and is linked into its
//!   slot by index. Memory scales with the live entries, not with
//!   slots × each slot's high-water mark, and a value is written once
//!   at push and moved out once at pop.
//! - Keys at or past `floor + WINDOW` wait on an overflow list in push
//!   order. Whenever the floor advances, the entries that came into the
//!   window migrate to their slots in that order, before any later
//!   push can reach the same slot.
//! - Keys below the floor are clamped up to it.
//!
//! # Order
//!
//! Entries leave in key order, and entries of one key in push order —
//! the overflow migration keeps that true for keys pushed from beyond
//! the window. [`Calendar::pop_due`] moves the floor to `now + 1`, so a
//! push made after it can never land at or before a cycle already
//! drained.
//!
//! # Examples
//!
//! ```
//! use tsocc_sim::Calendar;
//!
//! let mut cal = Calendar::new();
//! cal.push(7, "b");
//! cal.push(3, "a");
//! cal.push(7, "c");
//! cal.push(5_000, "far"); // past the window: waits on the overflow list
//! assert_eq!(cal.peek(), Some((3, &"a")));
//! let mut out = Vec::new();
//! cal.pop_due(7, |v| out.push(v));
//! assert_eq!(out, ["a", "b", "c"]);
//! cal.push(2, "late"); // below the floor (8): clamped up to it
//! assert_eq!(cal.peek(), Some((8, &"late")));
//! cal.pop_due(u64::MAX, |v| out.push(v));
//! assert_eq!(out, ["a", "b", "c", "late", "far"]);
//! assert!(cal.is_empty());
//! ```

/// Width of the ring in cycles: keys less than `floor + WINDOW` go
/// straight to their slot, later ones to the overflow list. Simulator
/// events land at most a few hundred cycles ahead, so only long
/// `Delay`s and fault jitter reach the overflow path.
pub const WINDOW: u64 = 1024;

const SLOTS: usize = WINDOW as usize;
const WORDS: usize = SLOTS / 64;
/// The null slab index.
const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Node<T> {
    key: u64,
    /// Next node of the same list: a slot, the overflow list or the
    /// free list.
    next: u32,
    /// `None` exactly while the node is on the free list.
    val: Option<T>,
}

/// A singly-linked FIFO of slab nodes.
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(&self) -> bool {
        self.head == NIL
    }

    fn append<T>(&mut self, nodes: &mut [Node<T>], n: u32) {
        nodes[n as usize].next = NIL;
        if self.tail == NIL {
            self.head = n;
        } else {
            nodes[self.tail as usize].next = n;
        }
        self.tail = n;
    }
}

/// Where the front entry (minimum key, first pushed) sits.
enum Front {
    /// At the head of a ring slot.
    Slot(usize),
    /// On the overflow list, after `prev` (`NIL` at the head).
    Overflow { prev: u32, n: u32 },
}

/// A monotone min-queue of values keyed by absolute cycle, FIFO within
/// a cycle.
///
/// See the [module documentation](self) for the design.
#[derive(Clone, Debug)]
pub struct Calendar<T> {
    /// Lower bound on every key: pushes below it are clamped up to it.
    floor: u64,
    /// One FIFO per cycle of the window, indexed by `key % WINDOW`.
    slots: Box<[List]>,
    /// Bit `i` is set iff `slots[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Entries with `key >= floor + WINDOW`, in push order.
    overflow: List,
    /// Minimum key on the overflow list; meaningless while it is empty.
    overflow_min: u64,
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    len: usize,
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Calendar<T> {
    /// An empty calendar with floor 0.
    pub fn new() -> Self {
        Calendar {
            floor: 0,
            slots: vec![List::EMPTY; SLOTS].into_boxed_slice(),
            occupied: [0; WORDS],
            overflow: List::EMPTY,
            overflow_min: u64::MAX,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Drops every entry and sets the floor, keeping the slab's
    /// allocation.
    pub(crate) fn reset(&mut self, floor: u64) {
        self.floor = floor;
        self.slots.fill(List::EMPTY);
        self.occupied = [0; WORDS];
        self.overflow = List::EMPTY;
        self.nodes.clear();
        self.free = NIL;
        self.len = 0;
    }

    /// Number of entries pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `val` at `key`, behind every entry already queued at the
    /// same key. A key below the floor is clamped up to it.
    pub fn push(&mut self, key: u64, val: T) {
        let key = key.max(self.floor);
        let n = if self.free == NIL {
            let n = u32::try_from(self.nodes.len()).expect("fewer than 2^32 - 1 pending entries");
            self.nodes.push(Node {
                key,
                next: NIL,
                val: Some(val),
            });
            n
        } else {
            let n = self.free;
            let node = &mut self.nodes[n as usize];
            self.free = node.next;
            node.key = key;
            node.val = Some(val);
            n
        };
        self.len += 1;
        self.place(n);
    }

    /// Links node `n` into its ring slot or, past the window, onto the
    /// overflow list.
    fn place(&mut self, n: u32) {
        let key = self.nodes[n as usize].key;
        if key - self.floor < WINDOW {
            let slot = (key % WINDOW) as usize;
            self.slots[slot].append(&mut self.nodes, n);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            if self.overflow.is_empty() || key < self.overflow_min {
                self.overflow_min = key;
            }
            self.overflow.append(&mut self.nodes, n);
        }
    }

    /// Offset from the floor of the first occupied ring slot.
    fn first_offset(&self) -> Option<u64> {
        let start = (self.floor % WINDOW) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let word = self.occupied[w0] & (!0u64 << b0);
        if word != 0 {
            return Some((w0 * 64 + word.trailing_zeros() as usize - start) as u64);
        }
        for i in 1..=WORDS {
            let w = (w0 + i) % WORDS;
            let mut word = self.occupied[w];
            if i == WORDS {
                // Back at the floor's word: only the slots that wrapped.
                word &= !(!0u64 << b0);
            }
            if word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                return Some(((slot + SLOTS - start) % SLOTS) as u64);
            }
        }
        None
    }

    fn front(&self) -> Option<Front> {
        if let Some(d) = self.first_offset() {
            return Some(Front::Slot(((self.floor + d) % WINDOW) as usize));
        }
        // Every overflow key lies past the window, so the overflow list
        // holds the minimum only when the ring is empty.
        let (mut prev, mut n) = (NIL, self.overflow.head);
        while n != NIL {
            if self.nodes[n as usize].key == self.overflow_min {
                return Some(Front::Overflow { prev, n });
            }
            prev = n;
            n = self.nodes[n as usize].next;
        }
        None
    }

    /// The front entry — minimum key, first pushed among its key — and
    /// its key, without removing it.
    pub fn peek(&self) -> Option<(u64, &T)> {
        let n = match self.front()? {
            Front::Slot(slot) => self.slots[slot].head,
            Front::Overflow { n, .. } => n,
        };
        let node = &self.nodes[n as usize];
        Some((
            node.key,
            node.val.as_ref().expect("linked nodes hold a value"),
        ))
    }

    /// Removes and returns the front entry ([`Calendar::peek`]'s), with
    /// its key. The floor does not move.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        let n = match self.front()? {
            Front::Slot(slot) => {
                let n = self.slots[slot].head;
                let next = self.nodes[n as usize].next;
                self.slots[slot].head = next;
                if next == NIL {
                    self.slots[slot].tail = NIL;
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                n
            }
            Front::Overflow { prev, n } => {
                let next = self.nodes[n as usize].next;
                if prev == NIL {
                    self.overflow.head = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                if next == NIL {
                    self.overflow.tail = prev;
                }
                self.overflow_min = self.overflow_keys().min().unwrap_or(u64::MAX);
                n
            }
        };
        Some(self.release(n))
    }

    /// Returns node `n`'s key and value and puts it on the free list.
    fn release(&mut self, n: u32) -> (u64, T) {
        let node = &mut self.nodes[n as usize];
        let val = node.val.take().expect("linked nodes hold a value");
        node.next = self.free;
        self.free = n;
        self.len -= 1;
        (node.key, val)
    }

    fn overflow_keys(&self) -> impl Iterator<Item = u64> + '_ {
        let mut n = self.overflow.head;
        std::iter::from_fn(move || {
            if n == NIL {
                return None;
            }
            let node = &self.nodes[n as usize];
            n = node.next;
            Some(node.key)
        })
    }

    /// Moves every overflow entry that the window now covers into its
    /// slot, in push order. Called after every floor advance.
    fn migrate(&mut self) {
        if self.overflow.is_empty() || self.overflow_min - self.floor >= WINDOW {
            return;
        }
        let mut n = std::mem::replace(&mut self.overflow, List::EMPTY).head;
        while n != NIL {
            let next = self.nodes[n as usize].next;
            self.place(n);
            n = next;
        }
    }

    /// Passes every entry with key `<= now` to `f`, in key order and
    /// FIFO within a key, then moves the floor to `now + 1` (it never
    /// moves back).
    pub fn pop_due(&mut self, now: u64, mut f: impl FnMut(T)) {
        loop {
            if let Some(d) = self.first_offset() {
                let key = self.floor + d;
                if key > now {
                    break;
                }
                let slot = (key % WINDOW) as usize;
                let mut n = std::mem::replace(&mut self.slots[slot], List::EMPTY).head;
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                while n != NIL {
                    let next = self.nodes[n as usize].next;
                    f(self.release(n).1);
                    n = next;
                }
                self.floor = key.saturating_add(1);
                self.migrate();
            } else if !self.overflow.is_empty() && self.overflow_min <= now {
                // The ring is empty and time jumped past the window:
                // bring the next overflow key into it.
                self.floor = self.overflow_min;
                self.migrate();
            } else {
                break;
            }
        }
        self.floor = self.floor.max(now.saturating_add(1));
        self.migrate();
    }

    /// Visits every pending entry with its key, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.nodes
            .iter()
            .filter_map(|node| node.val.as_ref().map(|v| (node.key, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cal: &mut Calendar<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        cal.pop_due(now, |v| out.push(v));
        out
    }

    #[test]
    fn fifo_within_a_cycle_and_key_order_across() {
        let mut cal = Calendar::new();
        for (key, v) in [(9, 0), (4, 1), (9, 2), (4, 3), (6, 4)] {
            cal.push(key, v);
        }
        assert_eq!(cal.len(), 5);
        assert_eq!(drain(&mut cal, 5), vec![1, 3]);
        assert_eq!(cal.peek(), Some((6, &4)));
        assert_eq!(drain(&mut cal, 100), vec![4, 0, 2]);
        assert!(cal.is_empty());
    }

    #[test]
    fn overflow_entries_keep_push_order_ahead_of_later_pushes() {
        let mut cal = Calendar::new();
        let far = 3 * WINDOW + 17;
        cal.push(far, 0);
        cal.push(far + 1, 1);
        cal.push(far, 2);
        assert_eq!(cal.peek(), Some((far, &0)));
        // Advance until `far` is inside the window, then push at it
        // directly: the migrated entries must still come out first.
        assert!(drain(&mut cal, far - 10).is_empty());
        cal.push(far, 3);
        assert_eq!(drain(&mut cal, far + 1), vec![0, 2, 3, 1]);
    }

    #[test]
    fn a_jump_past_the_window_drains_overflow_in_key_order() {
        let mut cal = Calendar::new();
        cal.push(5 * WINDOW, 0);
        cal.push(2 * WINDOW + 3, 1);
        cal.push(10, 2);
        cal.push(2 * WINDOW + 3, 3);
        assert_eq!(drain(&mut cal, 6 * WINDOW), vec![2, 1, 3, 0]);
        assert!(cal.is_empty());
        cal.push(0, 4);
        assert_eq!(cal.peek(), Some((6 * WINDOW + 1, &4)), "clamped");
    }

    #[test]
    fn pop_takes_the_front_without_moving_the_floor() {
        let mut cal = Calendar::new();
        cal.push(2 * WINDOW, 0);
        cal.push(3 * WINDOW, 1);
        cal.push(2 * WINDOW, 2);
        assert_eq!(cal.pop(), Some((2 * WINDOW, 0)));
        assert_eq!(cal.pop(), Some((2 * WINDOW, 2)));
        cal.push(1, 3);
        assert_eq!(cal.pop(), Some((1, 3)));
        assert_eq!(cal.pop(), Some((3 * WINDOW, 1)));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut cal = Calendar::new();
        for round in 0..100u64 {
            cal.push(round * 7 + 3, 0);
            cal.push(round * 7 + 5, 1);
            assert_eq!(drain(&mut cal, round * 7 + 6), vec![0, 1]);
        }
        assert_eq!(cal.nodes.len(), 2);
    }

    #[test]
    fn wrapped_slots_are_found_after_the_floor_moves() {
        let mut cal = Calendar::new();
        drain(&mut cal, WINDOW - 3);
        // Keys on both sides of the ring's wrap point.
        cal.push(WINDOW + 5, 0);
        cal.push(WINDOW - 1, 1);
        assert_eq!(cal.peek(), Some((WINDOW - 1, &1)));
        assert_eq!(drain(&mut cal, WINDOW + 5), vec![1, 0]);
    }

    #[test]
    fn iter_and_reset() {
        let mut cal = Calendar::new();
        cal.push(3, 1);
        cal.push(9 * WINDOW, 2);
        let mut seen: Vec<(u64, u32)> = cal.iter().map(|(k, v)| (k, *v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(3, 1), (9 * WINDOW, 2)]);
        cal.reset(50);
        assert!(cal.is_empty());
        assert_eq!(cal.iter().count(), 0);
        cal.push(1, 7);
        assert_eq!(cal.peek(), Some((50, &7)));
    }
}
