//! The cache-aware job executor.
//!
//! Each job is looked up in the result store first, computed on a miss,
//! and stored when clean. Jobs run on the workspace's one worker pool,
//! [`tsocc_bench::sweep::fan_out`]: workers pull job indices off a
//! shared counter, so one long 128-core point cannot strand the short
//! jobs queued behind it.
//!
//! Determinism: results land in slots keyed by *job index*, and every
//! job's seed derives from the job's identity ([`crate::jobs::JobSpec`])
//! — never from which worker ran it or in what order — so the report's
//! rows are identical for any worker count, modulo wall-clock timings
//! (asserted across `--jobs {1, 4}` in `tests/orchestrator.rs`).

use std::time::Instant;

use tsocc_bench::json;
use tsocc_bench::sweep::{effective_threads, fan_out};

use crate::cache::{CacheRecord, ResultCache};
use crate::fingerprint::code_fingerprint;
use crate::jobs::JobSpec;

/// One job's outcome row in the run report.
#[derive(Clone, Debug)]
pub struct JobRow {
    /// Position in the submitted job list.
    pub index: usize,
    /// Job kind tag.
    pub kind: &'static str,
    /// Display label.
    pub label: String,
    /// The content-address the job was looked up / stored under.
    pub key: String,
    /// Whether the result was served from the cache.
    pub cached: bool,
    /// Whether the result is clean (see
    /// [`crate::jobs::JobOutcome::clean`]; cached results are always
    /// clean — violating runs are never stored).
    pub clean: bool,
    /// Wall-clock this run spent on the job (serve time when cached).
    pub wall_seconds: f64,
    /// The *original* compute time as its exact serialized token —
    /// survives a cache round-trip unchanged.
    pub compute_wall_raw: String,
    /// Simulated metrics in the kind's fixed order.
    pub metrics: Vec<(String, u64)>,
    /// Kind-specific payload (the sweep row JSON), or empty.
    pub payload: String,
}

/// The outcome of one executor run.
#[derive(Debug)]
pub struct ExecReport {
    /// Per-job rows, in submission order.
    pub rows: Vec<JobRow>,
    /// Worker threads actually used.
    pub workers: usize,
    /// End-to-end wall-clock of the run.
    pub wall_seconds: f64,
}

impl ExecReport {
    /// Rows served from the cache.
    pub fn cached_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.cached).count()
    }

    /// Rows that are not clean.
    pub fn failed_rows(&self) -> usize {
        self.rows.iter().filter(|r| !r.clean).count()
    }

    /// Serializes the run as a `tsocc-orch-report/v1` document.
    /// `cache` is `None` under `--no-cache`.
    pub fn to_json(&self, subcommand: &str, cache: Option<&ResultCache>) -> String {
        let jobs = self.rows.iter().map(|r| {
            let metrics = r
                .metrics
                .iter()
                .fold(json::Object::new(), |obj, (name, value)| {
                    obj.u64(name, *value)
                });
            json::Object::new()
                .u64("index", r.index as u64)
                .str("kind", r.kind)
                .str("label", &r.label)
                .str("key", &r.key)
                .raw("cached", if r.cached { "true" } else { "false" })
                .raw("clean", if r.clean { "true" } else { "false" })
                .f64("wall_seconds", r.wall_seconds)
                .raw("compute_wall_seconds", &r.compute_wall_raw)
                .raw("metrics", metrics.build())
                .build()
        });
        json::Object::new()
            .str("schema", "tsocc-orch-report/v1")
            .str("subcommand", subcommand)
            .str("fingerprint", &code_fingerprint())
            .u64("workers", self.workers as u64)
            .u64("jobs_total", self.rows.len() as u64)
            .u64("jobs_cached", self.cached_rows() as u64)
            .u64("jobs_failed", self.failed_rows() as u64)
            .raw(
                "cache",
                cache.map_or("null".to_string(), |c| c.stats().to_json_obj().build()),
            )
            .f64("wall_seconds", self.wall_seconds)
            .raw("jobs", json::array(jobs))
            .build()
    }
}

/// Runs one job: cache lookup, compute on miss, store when clean.
fn run_job(index: usize, job: &JobSpec, cache: Option<&ResultCache>) -> JobRow {
    let t = Instant::now();
    let kind = job.kind();
    let label = job.label();
    let canonical = job.canonical();
    let key = match cache {
        Some(c) => c.key_for(kind, &canonical),
        None => crate::cache::cache_key(kind, &canonical, &code_fingerprint()),
    };
    if let Some(c) = cache {
        if let Some(record) = c.lookup(kind, &canonical, &key) {
            return JobRow {
                index,
                kind,
                label,
                key,
                cached: true,
                clean: true,
                wall_seconds: t.elapsed().as_secs_f64(),
                compute_wall_raw: record.wall_raw,
                metrics: record.metrics,
                payload: record.payload,
            };
        }
    }
    let out = job.run();
    // The record keeps the wall time in the exact form the JSON writer
    // emits, so a warm-served row reproduces the cold row byte-for-byte.
    let wall_raw = format!("{:.6}", out.wall.as_secs_f64());
    if let Some(c) = cache {
        if out.clean {
            let record = CacheRecord {
                kind: kind.to_string(),
                label: label.clone(),
                canonical,
                fingerprint: c.fingerprint().to_string(),
                wall_raw: wall_raw.clone(),
                metrics: out.metrics.clone(),
                payload: out.payload.clone(),
            };
            if let Err(e) = c.store(&record) {
                eprintln!("failed to store {label} in the cache: {e}");
            }
        }
    }
    JobRow {
        index,
        kind,
        label,
        key,
        cached: false,
        clean: out.clean,
        wall_seconds: t.elapsed().as_secs_f64(),
        compute_wall_raw: wall_raw,
        metrics: out.metrics,
        payload: out.payload,
    }
}

/// Executes `jobs` on `workers` threads (`0` = one per available CPU),
/// looking each job up in `cache` first (pass `None` for `--no-cache`).
/// Returns rows in submission order regardless of schedule.
pub fn execute(jobs: &[JobSpec], workers: usize, cache: Option<&ResultCache>) -> ExecReport {
    let start = Instant::now();
    let rows = fan_out(jobs.len(), workers, |i| {
        let row = run_job(i, &jobs[i], cache);
        eprintln!(
            "[{:>7.1?}] {:>3}/{} {:<40} {}{:.3}s",
            start.elapsed(),
            i + 1,
            jobs.len(),
            row.label,
            if row.cached { "cached " } else { "" },
            row.wall_seconds,
        );
        row
    });
    ExecReport {
        rows,
        workers: effective_threads(workers, jobs.len()),
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_bench::sweep::SweepPoint;
    use tsocc_protocols::Protocol;
    use tsocc_workloads::{Benchmark, Scale};

    fn tiny_jobs() -> Vec<JobSpec> {
        [Protocol::Mesi, Protocol::TsoCc(Default::default())]
            .into_iter()
            .flat_map(|protocol| {
                [2usize, 4].into_iter().map(move |n_cores| JobSpec::Sweep {
                    point: SweepPoint {
                        bench: Benchmark::Fft,
                        protocol,
                        n_cores,
                        scale: Scale::Tiny,
                    },
                    base_seed: 3,
                })
            })
            .collect()
    }

    #[test]
    fn rows_are_deterministic_across_worker_counts() {
        let jobs = tiny_jobs();
        let serial = execute(&jobs, 1, None);
        let parallel = execute(&jobs, 4, None);
        assert_eq!(serial.workers, 1);
        assert_eq!(parallel.workers, 4);
        assert_eq!(serial.rows.len(), parallel.rows.len());
        for (a, b) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.key, b.key);
            assert_eq!(a.metrics, b.metrics, "{}", a.label);
            // Payload rows embed wall-clock fields, which legitimately
            // differ run to run; every simulated field must not.
            let (pa, pb) = (
                tsocc_bench::json::parse(&a.payload).unwrap(),
                tsocc_bench::json::parse(&b.payload).unwrap(),
            );
            for key in [
                "bench",
                "config",
                "n_cores",
                "seed",
                "cycles",
                "instructions",
                "msgs",
                "flits",
                "flit_hops",
                "mem_fp",
            ] {
                assert_eq!(
                    format!("{:?}", pa.get(key)),
                    format!("{:?}", pb.get(key)),
                    "{}.{key}",
                    a.label
                );
            }
        }
    }

    #[test]
    fn empty_job_list_completes() {
        let report = execute(&[], 4, None);
        assert!(report.rows.is_empty());
        assert_eq!(report.workers, 1);
    }
}
