//! Golden runs: every kernel at tiny scale on the 8-core machine under
//! MESI and TSO-CC-4-12-3, each pinned by the FNV-1a 64 digest of its
//! [`RunStats`] `Debug` string (the simulated outcome only: cycles,
//! every L1/L2/mesh counter, instruction count and latency histogram).
//!
//! The committed sweep matrix runs only fft, which draws no random
//! delay, so a change in core timing that fft never exercises (a
//! `RandDelay` of zero cycles, a CAS retry loop, a lock backoff) would
//! pass `tsocc sweep --check`. These 32 runs cover every kernel and
//! both protocol families in a few seconds of a debug build.
//!
//! [`RunStats`]: tsocc::RunStats

use tsocc::System;
use tsocc_bench::sweep::SweepPoint;
use tsocc_mem::Addr;
use tsocc_protocols::Protocol;
use tsocc_workloads::{Benchmark, Scale};

/// The `BENCH_sweep.json` base seed (`SweepOpts::default().seed`).
const BASE_SEED: u64 = 0xC0FFEE;

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (kernel, MESI digest, TSO-CC-4-12-3 digest), in `Benchmark::ALL`
/// order.
const GOLDEN: [(&str, u64, u64); 16] = [
    ("blackscholes", 0x5fccce4c85bc0023, 0xc601aba189f25951),
    ("canneal", 0xaf2625ae21e84b39, 0xe9b8a2d48239001b),
    ("dedup", 0x80af88f5d802166f, 0xec4883631b91f7cd),
    ("fluidanimate", 0x8b34273e3d5de07c, 0x514dbe74feab11ef),
    ("x264", 0xbbd5e98acad715de, 0x31ed7d92f590ac90),
    ("fft", 0x09128d0ea03e6ee1, 0x7599a5d79a6a8fc3),
    ("lu (cont.)", 0x1a60a7cbec96d1d3, 0xbab090f040221dd6),
    ("lu (non-cont.)", 0xc3ccd5269cf017c6, 0x620843aebf4075e9),
    ("radix", 0x61815cd7a0971af7, 0x0ef560cfcd7b9e11),
    ("raytrace", 0x7a16ae16e1816a0a, 0x476e5f64995fff31),
    ("water-nsq", 0xf34bea9be8b408bd, 0xd86aaca4c1623d23),
    ("bayes", 0x36b55b9f17fc91ee, 0xcbbc23da3fd05262),
    ("genome", 0x407f48a4a79ae27f, 0x0d16db10c591517e),
    ("intruder", 0x7b266ce85196bdb8, 0x9efd155c8fc4c2af),
    ("ssca2", 0x433524c1def487a0, 0x8938ee870c6419f0),
    ("vacation", 0x218af584e013d749, 0x7c340c3df9eac210),
];

#[test]
fn every_kernel_matches_its_golden_run_stats() {
    let protocols = ["MESI", "TSO-CC-4-12-3"].map(|name| Protocol::from_name(name).unwrap());
    let mut mismatches = Vec::new();
    for (bench, golden) in Benchmark::ALL.into_iter().zip(GOLDEN) {
        let (name, mesi, tsocc) = golden;
        assert_eq!(bench.name(), name, "GOLDEN follows Benchmark::ALL");
        for (protocol, want) in protocols.into_iter().zip([mesi, tsocc]) {
            let stats = SweepPoint {
                bench,
                protocol,
                n_cores: 8,
                scale: Scale::Tiny,
            }
            .run(BASE_SEED)
            .stats;
            let got = fnv1a(format!("{stats:?}").as_bytes());
            if got != want {
                mismatches.push(format!(
                    "{name} on {}: digest {got:#018x}, golden {want:#018x}",
                    protocol.name()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// (kernel, MESI, TSO-CC-4-12-3) host-side event-loop work of the same
/// 32 runs, each `(System::steps_executed, sched.pushes,
/// sched.events_popped)`, in `Benchmark::ALL` order.
///
/// The digests above cannot see the event loop: a queue that reported a
/// stale entry's cycle as the next wake would execute extra empty steps
/// and leave every `RunStats` field as it is. These counts pin the
/// loop's work itself.
const GOLDEN_HOST_WORK: [(&str, [u64; 3], [u64; 3]); 16] = [
    ("blackscholes", [2101, 2555, 2522], [2179, 2611, 2576]),
    ("canneal", [2015, 1917, 1917], [2110, 1908, 1908]),
    ("dedup", [4126, 4689, 4683], [4037, 4520, 4514]),
    ("fluidanimate", [4398, 5951, 5951], [4436, 5514, 5514]),
    ("x264", [1767, 2159, 2158], [1718, 2274, 2272]),
    ("fft", [2438, 3010, 3010], [2596, 3010, 3010]),
    ("lu (cont.)", [4467, 7429, 7426], [5065, 7423, 7420]),
    (
        "lu (non-cont.)",
        [18443, 29510, 29510],
        [20006, 26743, 26743],
    ),
    ("radix", [4549, 4476, 4466], [4731, 4463, 4454]),
    ("raytrace", [2642, 2129, 2129], [2708, 2190, 2190]),
    ("water-nsq", [3848, 4717, 4717], [3791, 4352, 4352]),
    ("bayes", [17722, 21023, 21021], [19908, 25822, 25822]),
    ("genome", [23286, 24497, 24497], [25129, 31310, 31310]),
    ("intruder", [15783, 21370, 21346], [17842, 26012, 25983]),
    ("ssca2", [42584, 66318, 66318], [49892, 62935, 62935]),
    ("vacation", [18404, 19953, 19953], [20232, 24061, 24061]),
];

#[test]
fn every_kernel_keeps_its_event_loop_work() {
    let protocols = ["MESI", "TSO-CC-4-12-3"].map(|name| Protocol::from_name(name).unwrap());
    let mut mismatches = Vec::new();
    for (bench, golden) in Benchmark::ALL.into_iter().zip(GOLDEN_HOST_WORK) {
        let (name, mesi, tsocc) = golden;
        assert_eq!(
            bench.name(),
            name,
            "GOLDEN_HOST_WORK follows Benchmark::ALL"
        );
        for (protocol, want) in protocols.into_iter().zip([mesi, tsocc]) {
            let point = SweepPoint {
                bench,
                protocol,
                n_cores: 8,
                scale: Scale::Tiny,
            };
            // The machine `SweepPoint::run` builds, kept to read its
            // step count.
            let workload = bench.build(point.n_cores, point.scale, point.seed(BASE_SEED));
            let mut sys = System::new(point.system_config(BASE_SEED), workload.programs);
            for &(addr, value) in &workload.init {
                sys.write_word(Addr::new(addr), value);
            }
            let stats = sys.run(200_000_000).expect("golden runs complete");
            let got = [
                sys.steps_executed(),
                stats.sched.pushes,
                stats.sched.events_popped,
            ];
            if got != want {
                mismatches.push(format!(
                    "{name} on {}: {got:?}, golden {want:?}",
                    protocol.name()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
