//! End-to-end orchestrator runs through the executor and the result
//! store: a cold run computes and populates the cache, a warm run
//! serves every job from it with byte-identical simulated results, and
//! the worker count never changes what is produced — the acceptance
//! contract behind `tsocc sweep`'s cold/warm CI legs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tsocc_bench::sweep::SweepPoint;
use tsocc_orch::{execute, JobSpec, ResultCache};
use tsocc_protocols::Protocol;
use tsocc_workloads::{Benchmark, Scale};

fn tmp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsocc-orch-e2e-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small job list: four sweep points.
fn jobs() -> Vec<JobSpec> {
    [Protocol::Mesi, Protocol::TsoCc(Default::default())]
        .into_iter()
        .flat_map(|protocol| {
            [2usize, 4].into_iter().map(move |n_cores| JobSpec {
                point: SweepPoint {
                    bench: Benchmark::Fft,
                    protocol,
                    n_cores,
                    scale: Scale::Tiny,
                },
                base_seed: 11,
            })
        })
        .collect()
}

#[test]
fn cold_then_warm_serves_everything_byte_identically() {
    let dir = tmp_dir();
    let jobs = jobs();

    let cold_cache = ResultCache::open(&dir).unwrap();
    let cold = execute(&jobs, 2, Some(&cold_cache));
    assert_eq!(cold.rows.len(), jobs.len());
    assert_eq!(cold.cached_rows(), 0, "first run must compute everything");
    let cold_stats = cold_cache.stats();
    assert_eq!(cold_stats.misses, jobs.len() as u64);
    assert_eq!(cold_stats.stores, jobs.len() as u64, "every job stored");

    // A fresh handle on the same directory: only the on-disk records
    // carry over, exactly as in a separate warm process.
    let warm_cache = ResultCache::open(&dir).unwrap();
    let warm = execute(&jobs, 2, Some(&warm_cache));
    assert_eq!(warm.cached_rows(), jobs.len(), "warm run must be all hits");
    let warm_stats = warm_cache.stats();
    assert_eq!(warm_stats.hits, jobs.len() as u64);
    assert_eq!(warm_stats.misses, 0);
    assert!((warm_stats.hit_rate() - 1.0).abs() < 1e-12);

    for (c, w) in cold.rows.iter().zip(&warm.rows) {
        assert_eq!(c.index, w.index);
        assert_eq!(c.key, w.key);
        assert_eq!(c.metrics, w.metrics, "{}", c.label);
        assert_eq!(c.payload, w.payload, "warm payload must be verbatim");
        assert_eq!(
            c.compute_wall_raw, w.compute_wall_raw,
            "the original compute time must survive the cache round-trip"
        );
    }

    let report = warm.to_json(Some(&warm_cache));
    let doc = tsocc_bench::json::parse(&report).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("tsocc-orch-report/v2")
    );
    assert_eq!(
        doc.get("jobs_cached").and_then(|v| v.as_u64()),
        Some(jobs.len() as u64)
    );
    let hit_rate = doc
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!((hit_rate - 1.0).abs() < 1e-12, "report must show 100% hits");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_count_changes_nothing_but_timings() {
    let dir = tmp_dir();
    let jobs = jobs();

    // Populate, then run warm under 1 and 4 workers.
    let cache = ResultCache::open(&dir).unwrap();
    execute(&jobs, 0, Some(&cache));
    let one = execute(&jobs, 1, Some(&cache));
    let four = execute(&jobs, 4, Some(&cache));
    assert_eq!(one.workers, 1);
    assert_eq!(four.workers, 4);
    for (a, b) in one.rows.iter().zip(&four.rows) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.label, b.label);
        assert_eq!(a.key, b.key);
        assert_eq!(a.cached, b.cached);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.compute_wall_raw, b.compute_wall_raw);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
