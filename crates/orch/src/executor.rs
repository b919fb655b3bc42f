//! The cache-aware job executor.
//!
//! Each job is looked up in the result store first, and computed and
//! stored on a miss. Jobs run on the workspace's one worker pool,
//! [`tsocc_bench::sweep::fan_out`]: workers pull job indices off a
//! shared counter, so one long 128-core point cannot strand the short
//! jobs queued behind it.
//!
//! Determinism: results land in slots keyed by *job index*, and every
//! job's seed derives from the job's identity ([`crate::jobs::JobSpec`])
//! — never from which worker ran it or in what order — so the payload
//! rows are byte-identical for any worker count and whether computed
//! or served (asserted across `--jobs {1, 4}` in
//! `tests/orchestrator.rs`). Only the report's `wall_seconds` fields
//! vary: they time this run and are never stored.

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
    /// Display label.
    pub label: String,
    /// The content-address the job was looked up / stored under.
    pub key: String,
    /// Whether the result was served from the cache.
    pub cached: bool,
    /// Wall-clock this run spent on the job (serve time when cached).
    pub wall_seconds: f64,
    /// The serialized sweep row.
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

    /// Serializes the run as a `tsocc-orch-report/v3` document: how
    /// this run got each row, and how long it took. The rows
    /// themselves go to the sweep artifact. `cache` is `None` under
    /// `--no-cache`.
    pub fn to_json(&self, cache: Option<&ResultCache>) -> String {
        let jobs = self.rows.iter().map(|r| {
            json::Object::new()
                .u64("index", r.index as u64)
                .str("label", &r.label)
                .str("key", &r.key)
                .raw("cached", if r.cached { "true" } else { "false" })
                .f64("wall_seconds", r.wall_seconds)
                .build()
        });
        json::Object::new()
            .str("schema", "tsocc-orch-report/v3")
            .str("fingerprint", &code_fingerprint())
            .u64("workers", self.workers as u64)
            .u64("jobs_total", self.rows.len() as u64)
            .u64("jobs_cached", self.cached_rows() as u64)
            .raw(
                "cache",
                cache.map_or("null".to_string(), |c| c.stats().to_json_obj().build()),
            )
            .f64("wall_seconds", self.wall_seconds)
            .raw("jobs", json::array(jobs))
            .build()
    }
}

/// Runs one job: cache lookup, then compute and store on a miss.
fn run_job(index: usize, job: &JobSpec, cache: Option<&ResultCache>) -> JobRow {
    let t = Instant::now();
    let label = job.label();
    let canonical = job.canonical();
    let key = match cache {
        Some(c) => c.key_for(&canonical),
        None => crate::cache::cache_key(&canonical, &code_fingerprint()),
    };
    let served = cache.and_then(|c| c.lookup(&canonical, &key));
    let cached = served.is_some();
    let payload = match served {
        Some(record) => record.payload,
        None => {
            let payload = job.run();
            if let Some(c) = cache {
                let record = CacheRecord {
                    canonical,
                    fingerprint: c.fingerprint().to_string(),
                    payload: payload.clone(),
                };
                if let Err(e) = c.store(&record) {
                    eprintln!("failed to store {label} in the cache: {e}");
                }
            }
            payload
        }
    };
    JobRow {
        index,
        label,
        key,
        cached,
        wall_seconds: t.elapsed().as_secs_f64(),
        payload,
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
                [2usize, 4].into_iter().map(move |n_cores| JobSpec {
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
            assert_eq!(a.payload, b.payload, "{}", a.label);
        }
    }

    #[test]
    fn empty_job_list_completes() {
        let report = execute(&[], 4, None);
        assert!(report.rows.is_empty());
        assert_eq!(report.workers, 1);
    }
}
