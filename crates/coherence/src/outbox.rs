//! Outgoing-message queue with modelled controller latency.

use std::collections::VecDeque;

use tsocc_sim::Cycle;

use crate::msg::NetMsg;

/// A FIFO of outgoing messages, each held until its ready time.
///
/// Controllers model their internal access latency (e.g. the 30-cycle
/// L2 array access of Table 2) by pushing responses with
/// `ready_at = now + latency`; the system injects them into the mesh
/// once ready. Order is preserved between messages with equal ready
/// times.
///
/// # Examples
///
/// ```
/// use tsocc_coherence::{Agent, Msg, NetMsg, Outbox};
/// use tsocc_mem::Addr;
/// use tsocc_sim::Cycle;
///
/// let mut ob = Outbox::new();
/// let m = NetMsg {
///     src: Agent::L1(0),
///     dst: Agent::L2(0),
///     msg: Msg::GetS { line: Addr::new(0).line() },
/// };
/// ob.push(Cycle::new(10), m.clone());
/// assert!(ob.drain_ready(Cycle::new(9)).is_empty());
/// assert_eq!(ob.drain_ready(Cycle::new(10)), vec![m]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Outbox {
    queue: VecDeque<(Cycle, NetMsg)>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            queue: VecDeque::new(),
        }
    }

    /// Enqueues `msg` to become injectable at `ready_at`.
    ///
    /// Ready times must be pushed in non-decreasing order per outbox;
    /// this holds naturally because controllers add a constant latency
    /// to a monotonically advancing `now`. Violations are caught in
    /// debug builds.
    pub fn push(&mut self, ready_at: Cycle, msg: NetMsg) {
        debug_assert!(
            self.queue.back().is_none_or(|(t, _)| *t <= ready_at),
            "outbox ready times must be monotonic"
        );
        self.queue.push_back((ready_at, msg));
    }

    /// Removes and returns every message with `ready_at <= now`.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<NetMsg> {
        let mut out = Vec::new();
        self.drain_ready_into(now, &mut out);
        out
    }

    /// Appends every message with `ready_at <= now` to `out`, avoiding
    /// a fresh allocation per drain (the run loop reuses one scratch
    /// buffer across all controllers).
    pub fn drain_ready_into(&mut self, now: Cycle, out: &mut Vec<NetMsg>) {
        while let Some((t, _)) = self.queue.front() {
            if *t > now {
                break;
            }
            out.push(self.queue.pop_front().expect("peeked").1);
        }
    }

    /// The ready time of the oldest pending message, or [`Cycle::MAX`]
    /// when the outbox is empty. Because ready times are monotonic,
    /// this is the earliest cycle at which a drain can yield anything —
    /// the controller's wake deadline for the event-driven scheduler.
    pub fn next_ready(&self) -> Cycle {
        self.queue.front().map_or(Cycle::MAX, |(t, _)| *t)
    }

    /// Whether no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Makes `self` a copy of `src`, keeping `self`'s queue storage.
    pub fn copy_from(&mut self, src: &Outbox) {
        let Outbox { queue } = self;
        queue.clone_from(&src.queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Agent, Msg};
    use tsocc_mem::Addr;

    fn msg(n: u64) -> NetMsg {
        NetMsg {
            src: Agent::L1(0),
            dst: Agent::L2(0),
            msg: Msg::GetS {
                line: Addr::new(n * 64).line(),
            },
        }
    }

    #[test]
    fn drains_in_fifo_order() {
        let mut ob = Outbox::new();
        ob.push(Cycle::new(5), msg(1));
        ob.push(Cycle::new(5), msg(2));
        ob.push(Cycle::new(8), msg(3));
        let ready = ob.drain_ready(Cycle::new(6));
        assert_eq!(ready, vec![msg(1), msg(2)]);
        assert_eq!(ob.len(), 1);
        assert!(!ob.is_empty());
        assert_eq!(ob.drain_ready(Cycle::new(100)), vec![msg(3)]);
        assert!(ob.is_empty());
    }

    #[test]
    fn nothing_ready_before_time() {
        let mut ob = Outbox::new();
        ob.push(Cycle::new(5), msg(1));
        assert!(ob.drain_ready(Cycle::new(4)).is_empty());
    }

    #[test]
    fn next_ready_tracks_head() {
        let mut ob = Outbox::new();
        assert_eq!(ob.next_ready(), Cycle::MAX);
        ob.push(Cycle::new(5), msg(1));
        ob.push(Cycle::new(8), msg(2));
        assert_eq!(ob.next_ready(), Cycle::new(5));
        let mut out = Vec::new();
        ob.drain_ready_into(Cycle::new(5), &mut out);
        assert_eq!(out, vec![msg(1)]);
        assert_eq!(ob.next_ready(), Cycle::new(8));
        ob.drain_ready_into(Cycle::new(8), &mut out);
        assert_eq!(out.len(), 2, "drain appends, preserving prior content");
        assert_eq!(ob.next_ready(), Cycle::MAX);
    }
}
