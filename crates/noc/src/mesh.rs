//! Message timing, link contention and flit accounting.
//!
//! In-flight messages wait on a [`Calendar`] keyed by arrival cycle: a
//! message is written once into the slot of its arrival cycle and moved
//! out once at delivery. The calendar is FIFO within a cycle, so
//! delivery order is arrival cycle, then injection order.

use tsocc_sim::{Calendar, Counter, Cycle};

use crate::topology::MeshTopology;
use crate::VNet;

/// Latency and sizing parameters of the mesh.
///
/// Defaults correspond to the paper's Table 2: 16-byte flits, one-cycle
/// links, one-cycle routers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Cycles spent in each router along the path.
    pub router_latency: u64,
    /// Cycles on each physical link, excluding serialization.
    pub link_latency: u64,
    /// Flit payload size in bytes (16 in the paper).
    pub flit_bytes: u32,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            router_latency: 1,
            link_latency: 1,
            flit_bytes: 16,
        }
    }
}

impl NocConfig {
    /// Number of flits for a message with `payload_bytes` of payload plus
    /// an 8-byte header, at least one flit.
    ///
    /// A control message (no payload) is 1 flit; a 64-byte data message is
    /// 5 flits at the default 16-byte flit size, exactly as in GARNET.
    pub fn flits_for_payload(&self, payload_bytes: u32) -> u32 {
        let total = payload_bytes + 8;
        total.div_ceil(self.flit_bytes).max(1)
    }
}

/// Traffic statistics, the basis of the paper's Figure 4.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Messages injected, per virtual network.
    pub messages: [Counter; 3],
    /// Flits injected (message count × message flits).
    pub flits_injected: Counter,
    /// Flit-hops: flits × links traversed (the traffic/energy metric).
    pub flit_hops: Counter,
    /// Total queueing delay suffered behind busy links, in cycles.
    pub contention_cycles: Counter,
}

impl NocStats {
    /// Total messages over all vnets.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().map(|c| c.get()).sum()
    }
}

/// The mesh network: injects messages, models per-link serialization and
/// delivers payloads to destination routers in deterministic order.
///
/// Generic over the payload type `M` so the coherence crates can ship
/// their own message enums without this crate knowing about them.
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug)]
pub struct Mesh<M> {
    topo: MeshTopology,
    cfg: NocConfig,
    /// Busy-until time per directed link and vnet, flat-indexed by
    /// [`Mesh::link_id`]. Each router has at most four outgoing mesh
    /// links (one per direction), so the table is `nodes × 4 × vnets`
    /// entries — a direct index instead of hashing a 3-tuple per hop.
    link_busy: Vec<Cycle>,
    /// `(dst, payload)` per message, keyed by arrival cycle.
    in_flight: Calendar<(usize, M)>,
    stats: NocStats,
}

/// Outgoing link directions of a mesh router, in dense-index order.
const LINK_DIRS: usize = 4;

impl<M> Mesh<M> {
    /// Creates an idle mesh.
    pub fn new(topo: MeshTopology, cfg: NocConfig) -> Self {
        Mesh {
            topo,
            cfg,
            link_busy: vec![Cycle::ZERO; topo.nodes() * LINK_DIRS * VNet::ALL.len()],
            in_flight: Calendar::new(),
            stats: NocStats::default(),
        }
    }

    /// Dense index of the directed link `from → to` (adjacent routers)
    /// on `vnet`: the from-router's slot for the step's direction
    /// (0 east, 1 west, 2 south, 3 north).
    fn link_id(&self, from: usize, to: usize, vnet: VNet) -> usize {
        let cols = self.topo.cols();
        let dir = if to == from + 1 {
            0
        } else if to + 1 == from {
            1
        } else if to == from + cols {
            2
        } else {
            debug_assert_eq!(to + cols, from, "{from} -> {to} is not a mesh link");
            3
        };
        (from * LINK_DIRS + dir) * VNet::ALL.len() + vnet.index()
    }

    /// The mesh geometry.
    pub fn topology(&self) -> MeshTopology {
        self.topo
    }

    /// The latency configuration.
    pub fn config(&self) -> NocConfig {
        self.cfg
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Injects a message of `flits` flits at router `src` destined for
    /// router `dst` at time `now`. The message becomes visible to
    /// [`Mesh::deliver`] once its modelled latency has elapsed — or, if
    /// that cycle was already delivered (a send dated before the last
    /// delivery), at the first cycle after it.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range or `flits == 0`.
    pub fn send(&mut self, now: Cycle, src: usize, dst: usize, vnet: VNet, flits: u32, payload: M) {
        self.send_with_delay(now, src, dst, vnet, flits, 0, payload)
    }

    /// Like [`Mesh::send`], but the message arrives `extra_delay`
    /// cycles later than the modelled latency — the seam through which
    /// deterministic NoC fault injection adds jitter. The delay applies
    /// to the final arrival time only: link serialization (and thus
    /// contention seen by *other* messages) is unaffected.
    #[allow(clippy::too_many_arguments)]
    pub fn send_with_delay(
        &mut self,
        now: Cycle,
        src: usize,
        dst: usize,
        vnet: VNet,
        flits: u32,
        extra_delay: u64,
        payload: M,
    ) {
        assert!(
            src < self.topo.nodes() && dst < self.topo.nodes(),
            "router out of range"
        );
        assert!(flits > 0, "messages carry at least one flit");
        self.stats.messages[vnet.index()].inc();
        self.stats.flits_injected.add(flits as u64);

        let mut t = now;
        if src == dst {
            // Local delivery through the router's crossbar only.
            t += self.cfg.router_latency.max(1);
        } else {
            // Walk the XY route inline (X first, then Y — the same hop
            // sequence `MeshTopology::route` materializes) so the hot
            // send path allocates nothing.
            self.stats
                .flit_hops
                .add(flits as u64 * self.topo.hops(src, dst) as u64);
            let (dr, dc) = self.topo.coords(dst);
            let (mut r, mut c) = self.topo.coords(src);
            let mut from = src;
            while (r, c) != (dr, dc) {
                if c != dc {
                    c = if c < dc { c + 1 } else { c - 1 };
                } else {
                    r = if r < dr { r + 1 } else { r - 1 };
                }
                let to = self.topo.node_at(r, c);
                let key = self.link_id(from, to, vnet);
                let free = self.link_busy[key];
                let start = t.max(free);
                self.stats.contention_cycles.add(start - t);
                // The link is serialized: it cannot accept the next
                // message until all flits of this one have left.
                let done = start + flits as u64;
                self.link_busy[key] = done;
                t = done + self.cfg.link_latency + self.cfg.router_latency;
                from = to;
            }
        }
        self.in_flight
            .push((t + extra_delay).as_u64(), (dst, payload));
    }

    /// Drains every message whose arrival time is `<= now`, in arrival
    /// order (ties broken by injection order, so delivery is
    /// deterministic).
    pub fn deliver(&mut self, now: Cycle) -> Vec<(usize, M)> {
        let mut out = Vec::new();
        self.deliver_into(now, &mut out);
        out
    }

    /// Like [`Mesh::deliver`], but appends into a caller-provided
    /// buffer so the per-cycle run loop can reuse one allocation.
    pub fn deliver_into(&mut self, now: Cycle, out: &mut Vec<(usize, M)>) {
        self.in_flight.pop_due(now.as_u64(), |m| out.push(m));
    }

    /// Whether any message is still in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Earliest pending arrival time, if any (lets the driver fast-forward
    /// through quiescent periods).
    pub fn next_arrival(&self) -> Option<Cycle> {
        self.in_flight.peek().map(|(at, _)| Cycle::new(at))
    }

    /// Number of messages still in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Visits every in-flight message as `(arrival, dst, payload)`, in
    /// unspecified order — callers wanting determinism sort by a key
    /// that tells every message apart. The arrival is the cycle at
    /// which [`Mesh::deliver`] will hand the message out. Used by hang
    /// diagnosis to snapshot the network.
    pub fn in_flight_msgs(&self) -> impl Iterator<Item = (Cycle, usize, &M)> {
        self.in_flight
            .iter()
            .map(|(at, (dst, payload))| (Cycle::new(at), *dst, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh<u32> {
        Mesh::new(MeshTopology::new(2, 4), NocConfig::default())
    }

    fn drain_all(m: &mut Mesh<u32>, horizon: u64) -> Vec<(u64, usize, u32)> {
        let mut got = Vec::new();
        for t in 0..horizon {
            for (dst, p) in m.deliver(Cycle::new(t)) {
                got.push((t, dst, p));
            }
        }
        got
    }

    #[test]
    fn flit_sizing_matches_paper() {
        let cfg = NocConfig::default();
        assert_eq!(cfg.flits_for_payload(0), 1, "control message");
        assert_eq!(cfg.flits_for_payload(64), 5, "64B data message");
        assert_eq!(cfg.flits_for_payload(8), 1);
    }

    #[test]
    fn delivery_latency_scales_with_distance() {
        let mut m = mesh();
        m.send(Cycle::ZERO, 0, 1, VNet::Request, 1, 1); // 1 hop
        m.send(Cycle::ZERO, 0, 7, VNet::Response, 1, 2); // 4 hops
        let got = drain_all(&mut m, 100);
        let t1 = got.iter().find(|g| g.2 == 1).unwrap().0;
        let t2 = got.iter().find(|g| g.2 == 2).unwrap().0;
        assert!(t2 > t1, "longer route must take longer ({t1} vs {t2})");
    }

    #[test]
    fn local_delivery_is_fast_but_not_instant() {
        let mut m = mesh();
        m.send(Cycle::ZERO, 3, 3, VNet::Request, 1, 9);
        assert!(m.deliver(Cycle::ZERO).is_empty());
        let got = drain_all(&mut m, 10);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 3);
    }

    #[test]
    fn serialization_delays_second_message() {
        let mut m = mesh();
        // Two 5-flit data messages over the same link, injected together.
        m.send(Cycle::ZERO, 0, 1, VNet::Response, 5, 1);
        m.send(Cycle::ZERO, 0, 1, VNet::Response, 5, 2);
        let got = drain_all(&mut m, 100);
        let t1 = got.iter().find(|g| g.2 == 1).unwrap().0;
        let t2 = got.iter().find(|g| g.2 == 2).unwrap().0;
        assert_eq!(
            t2 - t1,
            5,
            "second message waits out 5 flits of serialization"
        );
        assert!(m.stats().contention_cycles.get() >= 5);
    }

    #[test]
    fn vnets_do_not_contend_with_each_other() {
        let mut m = mesh();
        m.send(Cycle::ZERO, 0, 1, VNet::Request, 5, 1);
        m.send(Cycle::ZERO, 0, 1, VNet::Response, 5, 2);
        let got = drain_all(&mut m, 100);
        let t1 = got.iter().find(|g| g.2 == 1).unwrap().0;
        let t2 = got.iter().find(|g| g.2 == 2).unwrap().0;
        assert_eq!(t1, t2, "separate vnets have separate channel bandwidth");
    }

    #[test]
    fn flit_accounting() {
        let mut m = mesh();
        m.send(Cycle::ZERO, 0, 3, VNet::Request, 1, 1); // 3 hops, 1 flit
        m.send(Cycle::ZERO, 0, 1, VNet::Response, 5, 2); // 1 hop, 5 flits
        assert_eq!(m.stats().flits_injected.get(), 6);
        assert_eq!(m.stats().flit_hops.get(), 3 + 5);
        assert_eq!(m.stats().messages[VNet::Request.index()].get(), 1);
        assert_eq!(m.stats().messages[VNet::Response.index()].get(), 1);
        assert_eq!(m.stats().total_messages(), 2);
    }

    #[test]
    fn deterministic_tie_break_by_injection_order() {
        let mut m = mesh();
        m.send(Cycle::ZERO, 0, 1, VNet::Request, 1, 10);
        m.send(Cycle::ZERO, 2, 1, VNet::Request, 1, 20);
        let got = drain_all(&mut m, 100);
        assert_eq!(got.len(), 2);
        // Same latency model for both (1 hop); injection order breaks tie.
        assert_eq!(got[0].2, 10);
        assert_eq!(got[1].2, 20);
    }

    #[test]
    fn idle_tracking() {
        let mut m = mesh();
        assert!(m.is_idle());
        m.send(Cycle::ZERO, 0, 1, VNet::Request, 1, 1);
        assert!(!m.is_idle());
        let next = m.next_arrival().unwrap();
        m.deliver(next);
        assert!(m.is_idle());
    }

    #[test]
    #[should_panic]
    fn zero_flit_message_panics() {
        let mut m = mesh();
        m.send(Cycle::ZERO, 0, 1, VNet::Request, 0, 1);
    }

    #[test]
    fn distinct_outgoing_links_do_not_contend() {
        // Router 1 of a 2x4 mesh has east (1->2), west (1->0) and south
        // (1->5) links; same-vnet messages over different directions
        // must not serialize against each other in the flat busy table.
        let mut m = mesh();
        m.send(Cycle::ZERO, 1, 2, VNet::Request, 5, 1);
        m.send(Cycle::ZERO, 1, 0, VNet::Request, 5, 2);
        m.send(Cycle::ZERO, 1, 5, VNet::Request, 5, 3);
        let got = drain_all(&mut m, 100);
        let times: Vec<u64> = [1, 2, 3]
            .iter()
            .map(|id| got.iter().find(|g| g.2 == *id).unwrap().0)
            .collect();
        assert_eq!(times[0], times[1]);
        assert_eq!(times[0], times[2]);
        assert_eq!(m.stats().contention_cycles.get(), 0);
    }

    #[test]
    fn inline_walk_matches_route_hops() {
        // Multi-hop timing must still follow the XY path: contention on
        // the first shared link delays a message even when the rest of
        // the routes diverge.
        let mut m = mesh();
        m.send(Cycle::ZERO, 0, 6, VNet::Request, 5, 1); // 0->1->2->6
        m.send(Cycle::ZERO, 0, 1, VNet::Request, 5, 2); // 0->1
        let got = drain_all(&mut m, 100);
        let t2 = got.iter().find(|g| g.2 == 2).unwrap().0;
        // The second message waits out the first's 5 flits on link 0->1.
        assert!(m.stats().contention_cycles.get() >= 5, "{t2}");
    }

    #[test]
    fn no_arrival_beats_one_router_latency() {
        // Every delivery is at least `router_latency.max(1)` cycles
        // after its send — the local (src == dst) crossbar minimum — for
        // every (src, dst) pair including self-sends, under varied
        // latency configurations.
        for (router, link) in [(1u64, 1u64), (3, 0), (0, 2), (2, 5)] {
            let cfg = NocConfig {
                router_latency: router,
                link_latency: link,
                flit_bytes: 16,
            };
            let mut m: Mesh<u32> = Mesh::new(MeshTopology::new(2, 4), cfg);
            let floor = router.max(1);
            let mut id = 0;
            for src in 0..m.topology().nodes() {
                for dst in 0..m.topology().nodes() {
                    m.send(Cycle::new(17), src, dst, VNet::Request, 1, id);
                    id += 1;
                }
            }
            let first = m.next_arrival().unwrap();
            assert!(
                first.as_u64() >= 17 + floor,
                "arrival at {first:?} beats send + {floor} (router={router}, link={link})"
            );
        }
    }

    #[test]
    fn extra_delay_shifts_arrival_only() {
        let mut a = mesh();
        let mut b = mesh();
        a.send(Cycle::ZERO, 0, 3, VNet::Request, 1, 1);
        b.send_with_delay(Cycle::ZERO, 0, 3, VNet::Request, 1, 11, 1);
        let base = a.next_arrival().unwrap().as_u64();
        assert_eq!(b.next_arrival().unwrap().as_u64(), base + 11);
        // Link occupancy is identical: a trailing message on the same
        // route is not pushed back by the jitter.
        a.send(Cycle::ZERO, 0, 3, VNet::Request, 1, 2);
        b.send(Cycle::ZERO, 0, 3, VNet::Request, 1, 2);
        assert_eq!(
            a.stats().contention_cycles.get(),
            b.stats().contention_cycles.get()
        );
        assert_eq!(b.in_flight_len(), 2);
        // The trailing (undelayed) messages arrive at the same time in
        // both meshes.
        let second = |m: &Mesh<u32>| {
            m.in_flight_msgs()
                .filter(|(_, _, p)| **p == 2)
                .map(|(t, _, _)| t.as_u64())
                .next()
                .unwrap()
        };
        assert_eq!(second(&a), second(&b));
    }

    #[test]
    fn deliver_into_reuses_buffer() {
        let mut m = mesh();
        m.send(Cycle::ZERO, 0, 1, VNet::Request, 1, 7);
        let mut out = Vec::new();
        let at = m.next_arrival().unwrap();
        m.deliver_into(at, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1);
        assert!(m.is_idle());
    }
}
