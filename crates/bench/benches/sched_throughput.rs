//! Scheduler microbenchmark: churn throughput of the indexed radix
//! wake-queue against the lazy-deletion `BinaryHeap` it replaced, at a
//! small (8-core), a large (64-core) and the sweep's largest
//! (128-core) machine id population.
//!
//! The workload is the steady-state stepper pattern: every round pops
//! all due ids and immediately re-arms each a short random distance
//! into the future, so the queue stays near its working size while
//! time advances monotonically — exactly the access pattern
//! `System::run_event_driven` generates. The reported ratio between
//! the two structures is the per-event payoff of the radix heap; the
//! end-to-end payoff is tracked by the `sim_throughput` bench and the
//! `sim_cycles_per_second` fields in `BENCH_sweep.json`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use tsocc_sim::{SplitMix64, WakeQueue};

/// Rounds per measured iteration: enough that floor re-bucketing
/// amortizes, small enough that one iteration stays sub-millisecond.
const ROUNDS: u64 = 4_096;

/// Mean re-arm distance; matches the few-cycle latencies that dominate
/// the simulator's wake keys.
const SPREAD: u64 = 16;

/// Steady-state churn on the radix wake-queue; returns events popped.
fn radix_churn(n_ids: usize) -> u64 {
    let mut q = WakeQueue::new(n_ids);
    let mut rng = SplitMix64::new(0xC0FFEE);
    for id in 0..n_ids {
        q.set(id, rng.next_u64() % SPREAD);
    }
    let mut due = Vec::new();
    let mut popped = 0u64;
    for now in 0..ROUNDS {
        due.clear();
        q.pop_due(now, &mut due);
        popped += due.len() as u64;
        for &id in &due {
            q.set(id as usize, now + 1 + rng.next_u64() % SPREAD);
        }
    }
    popped
}

/// The same churn on the structure the queue replaced: a binary heap
/// with lazy deletion keyed by a desired-wake map.
fn heap_churn(n_ids: usize) -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut desired = vec![u64::MAX; n_ids];
    let mut rng = SplitMix64::new(0xC0FFEE);
    for (id, slot) in desired.iter_mut().enumerate() {
        let key = rng.next_u64() % SPREAD;
        *slot = key;
        heap.push(Reverse((key, id as u32)));
    }
    let mut due = Vec::new();
    let mut popped = 0u64;
    for now in 0..ROUNDS {
        due.clear();
        while let Some(&Reverse((key, id))) = heap.peek() {
            if key > now {
                break;
            }
            heap.pop();
            if desired[id as usize] == key {
                desired[id as usize] = u64::MAX;
                due.push(id);
            }
        }
        popped += due.len() as u64;
        for &id in &due {
            let key = now + 1 + rng.next_u64() % SPREAD;
            desired[id as usize] = key;
            heap.push(Reverse((key, id)));
        }
    }
    popped
}

fn bench_sched(c: &mut Criterion) {
    // Id populations of the 8-, 64- and 128-core table-2 machines
    // (cores + L1s + L2 banks + memory controllers).
    for (label, n_ids) in [
        ("machine_8c", 8 * 3 + 4),
        ("machine_64c", 64 * 3 + 4),
        ("machine_128c", 128 * 3 + 4),
    ] {
        // The two structures must agree on what the workload *is*
        // before their speeds are comparable.
        assert_eq!(radix_churn(n_ids), heap_churn(n_ids), "{label}");
        let mut group = c.benchmark_group(format!("sched_throughput/{label}"));
        group.bench_function("radix_wake_queue", |b| {
            b.iter(|| black_box(radix_churn(black_box(n_ids))))
        });
        group.bench_function("binary_heap_lazy", |b| {
            b.iter(|| black_box(heap_churn(black_box(n_ids))))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
