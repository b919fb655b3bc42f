//! Property tests of the mesh network: routing validity, message
//! conservation, flit accounting, FIFO ordering per channel, and
//! delivery on the schedule the mesh advertises.

use proptest::prelude::*;
use tsocc_noc::{Mesh, MeshTopology, NocConfig, VNet};
use tsocc_sim::calendar::WINDOW;
use tsocc_sim::Cycle;

fn drain(mesh: &mut Mesh<usize>) -> Vec<(u64, usize, usize)> {
    let mut out = Vec::new();
    let mut t = 0u64;
    while !mesh.is_idle() {
        t = mesh
            .next_arrival()
            .map(|c| c.as_u64())
            .unwrap_or(t + 1)
            .max(t);
        for (dst, id) in mesh.deliver(Cycle::new(t)) {
            out.push((t, dst, id));
        }
    }
    out
}

/// Delivers everything due at `now` and checks it against a snapshot
/// of [`Mesh::in_flight_msgs`] taken just before: exactly the messages
/// advertised at or before `now` come out, ordered by advertised cycle
/// and, within a cycle, by injection order (message ids are injection
/// indices). Returns the ids delivered.
fn deliver_as_advertised(mesh: &mut Mesh<usize>, now: u64) -> Vec<usize> {
    let snapshot: Vec<(u64, usize, usize)> = mesh
        .in_flight_msgs()
        .map(|(at, dst, &id)| (at.as_u64(), dst, id))
        .collect();
    assert_eq!(snapshot.len(), mesh.in_flight_len());
    let mut want: Vec<(u64, usize, usize)> = snapshot
        .into_iter()
        .filter(|&(at, _, _)| at <= now)
        .collect();
    want.sort_unstable_by_key(|&(at, _, id)| (at, id));
    let got = mesh.deliver(Cycle::new(now));
    let want: Vec<(usize, usize)> = want.iter().map(|&(_, dst, id)| (dst, id)).collect();
    assert_eq!(got, want, "deliveries at cycle {now}");
    got.into_iter().map(|(_, id)| id).collect()
}

/// `send_with_delay` jitter: none, ordinary, or several calendar
/// windows (the overflow path).
fn extra_delay() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1, 0u64..40, WINDOW - 4..4 * WINDOW]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sends over random cycles, with deliveries between them,
    /// then a drain that steps from one advertised arrival to the next:
    /// every message comes out exactly once, at its advertised cycle,
    /// in injection order within the cycle.
    #[test]
    fn delivery_follows_the_advertised_schedule(
        sends in proptest::collection::vec(
            ((0u64..12, 0usize..16, 0usize..16), (0usize..3, 1u32..6, extra_delay())),
            1..150,
        ),
    ) {
        let topo = MeshTopology::for_tiles(16);
        let mut mesh: Mesh<usize> = Mesh::new(topo, NocConfig::default());
        let mut now = 0u64;
        let mut delivered = Vec::new();
        for (id, &((dt, src, dst), (vnet, flits, extra))) in sends.iter().enumerate() {
            if dt > 0 {
                now += dt;
                delivered.extend(deliver_as_advertised(&mut mesh, now));
            }
            mesh.send_with_delay(Cycle::new(now), src, dst, VNet::ALL[vnet], flits, extra, id);
        }
        while let Some(next) = mesh.next_arrival() {
            let next = next.as_u64();
            let first = mesh.in_flight_msgs().map(|(at, _, _)| at.as_u64()).min();
            prop_assert_eq!(Some(next), first, "next_arrival is the earliest advertised cycle");
            prop_assert!(next > now, "arrival {} not after cycle {}", next, now);
            now = next;
            delivered.extend(deliver_as_advertised(&mut mesh, now));
        }
        prop_assert!(mesh.is_idle());
        delivered.sort_unstable();
        prop_assert_eq!(delivered, (0..sends.len()).collect::<Vec<_>>());
    }

    #[test]
    fn routes_are_minimal_and_contiguous(
        rows in 1usize..6,
        cols in 1usize..6,
        pair in (0usize..36, 0usize..36),
    ) {
        let topo = MeshTopology::new(rows, cols);
        let n = topo.nodes();
        let (src, dst) = (pair.0 % n, pair.1 % n);
        let path = topo.route(src, dst);
        prop_assert_eq!(path.len(), topo.hops(src, dst) + 1, "minimal route");
        prop_assert_eq!(path[0], src);
        prop_assert_eq!(*path.last().unwrap(), dst);
        for w in path.windows(2) {
            prop_assert_eq!(topo.hops(w[0], w[1]), 1, "contiguous hops");
        }
    }

    #[test]
    fn every_message_is_delivered_exactly_once(
        sends in proptest::collection::vec((0usize..16, 0usize..16, 1u32..6), 1..120),
    ) {
        let topo = MeshTopology::for_tiles(16);
        let mut mesh: Mesh<usize> = Mesh::new(topo, NocConfig::default());
        for (i, (src, dst, flits)) in sends.iter().enumerate() {
            mesh.send(Cycle::new(i as u64), *src, *dst, VNet::Request, *flits, i);
        }
        let delivered = drain(&mut mesh);
        prop_assert_eq!(delivered.len(), sends.len());
        let mut ids: Vec<usize> = delivered.iter().map(|d| d.2).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..sends.len()).collect::<Vec<_>>());
        // Destinations match.
        for (_, dst, id) in &delivered {
            prop_assert_eq!(*dst, sends[*id].1);
        }
    }

    #[test]
    fn flit_accounting_is_exact(
        sends in proptest::collection::vec((0usize..9, 0usize..9, 1u32..6), 1..60),
    ) {
        let topo = MeshTopology::new(3, 3);
        let mut mesh: Mesh<usize> = Mesh::new(topo, NocConfig::default());
        let mut expect_injected = 0u64;
        let mut expect_hops = 0u64;
        for (i, (src, dst, flits)) in sends.iter().enumerate() {
            mesh.send(Cycle::ZERO, *src, *dst, VNet::Response, *flits, i);
            expect_injected += *flits as u64;
            expect_hops += *flits as u64 * topo.hops(*src, *dst) as u64;
        }
        drain(&mut mesh);
        prop_assert_eq!(mesh.stats().flits_injected.get(), expect_injected);
        prop_assert_eq!(mesh.stats().flit_hops.get(), expect_hops);
    }

    #[test]
    fn same_channel_messages_stay_fifo(
        count in 2usize..20,
        flits in 1u32..6,
    ) {
        // Messages injected in order on the same (src, dst, vnet) must
        // be delivered in order — the property protocol correctness
        // leans on (e.g. PutM before a later GetS from the same core).
        let topo = MeshTopology::for_tiles(8);
        let mut mesh: Mesh<usize> = Mesh::new(topo, NocConfig::default());
        for i in 0..count {
            mesh.send(Cycle::new(i as u64), 0, 7, VNet::Request, flits, i);
        }
        let delivered = drain(&mut mesh);
        let ids: Vec<usize> = delivered.iter().map(|d| d.2).collect();
        prop_assert_eq!(ids, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn latency_monotonic_in_distance(
        cols in 2usize..8,
    ) {
        // On an otherwise idle mesh, farther destinations take longer.
        let topo = MeshTopology::new(1, cols);
        let mut last = 0u64;
        for dst in 1..cols {
            let mut mesh: Mesh<usize> = Mesh::new(topo, NocConfig::default());
            mesh.send(Cycle::ZERO, 0, dst, VNet::Request, 1, 0);
            let t = drain(&mut mesh)[0].0;
            prop_assert!(t > last, "dst {dst}: {t} !> {last}");
            last = t;
        }
    }
}
