//! The declarative campaign manifest (`tsocc-campaign-manifest/v1`) and
//! its expansion into jobs.
//!
//! A manifest is a JSON document listing **legs**; each leg expands to
//! one or more [`JobSpec`]s with fully deterministic per-job seeds
//! (derived from the manifest seed and the job's position, never from
//! scheduling). The shape follows the config-matrix-as-manifest idiom:
//! the matrix lives in data, the expansion rules live here, and the
//! executor treats every job identically.
//!
//! ```json
//! {
//!   "schema": "tsocc-campaign-manifest/v1",
//!   "seed": 7,
//!   "legs": [
//!     {"kind": "sweep", "bench": "fft", "scale": "tiny",
//!      "cores": [2, 4], "protocols": ["MESI", "TSO-CC-4-basic"]},
//!     {"kind": "conform", "protocols": ["MESI", "TSO-CC-4-12-3"],
//!      "threads": 3, "programs": 40, "chunk": 20, "iters": 2},
//!     {"kind": "check", "protocols": ["MESI"], "cores": 2,
//!      "lines": 1, "ops": 2}
//!   ]
//! }
//! ```
//!
//! Leg kinds:
//!
//! - **sweep** — one job per `cores × protocols` point of `bench` at
//!   `scale`. `protocols` defaults to the full sweep set, `bench` to
//!   fft, `scale` to small, `cores` to `[2, 4]`.
//! - **conform** — `programs` conformance programs split into
//!   `chunk`-sized jobs. Each chunk is a zero-budget, fixed-count
//!   campaign (`min_programs == max_programs == chunk`) under its own
//!   derived seed, so a chunk's result is independent of wall clock and
//!   worker count — the property that makes it cacheable.
//! - **check** — one exhaustive model-check family per protocol
//!   (every two-thread program of `ops` ops per thread over a
//!   `lines`-line pool).

use std::time::Duration;

use tsocc_bench::json::{self, Value};
use tsocc_bench::sweep::SweepPoint;
use tsocc_conform::{CampaignOpts, GenConfig};
use tsocc_protocols::Protocol;
use tsocc_sim::rng::SplitMix64;
use tsocc_workloads::{Benchmark, Scale};

use crate::hash::Fnv;
use crate::jobs::JobSpec;

/// The manifest compiled into its schedulable jobs.
#[derive(Debug)]
pub struct Manifest {
    /// Base seed every leg derives its job seeds from.
    pub seed: u64,
    /// The expanded job list, in leg order.
    pub jobs: Vec<JobSpec>,
}

/// The built-in manifest `tsocc campaign` runs when no
/// `--manifest` is given: a small three-leg smoke matrix exercising
/// every leg kind.
pub const DEFAULT_MANIFEST: &str = r#"{
  "schema": "tsocc-campaign-manifest/v1",
  "seed": 7,
  "legs": [
    {"kind": "sweep", "bench": "fft", "scale": "tiny", "cores": [2, 4]},
    {"kind": "conform", "protocols": ["MESI", "TSO-CC-4-12-3"],
     "threads": 3, "programs": 40, "chunk": 20, "iters": 2},
    {"kind": "check", "protocols": ["MESI", "MESI-P2-G2", "TSO-CC-4-basic"],
     "cores": 2, "lines": 1, "ops": 2}
  ]
}"#;

/// Derives the seed of chunk `chunk` of leg `leg`: a hash of the
/// manifest seed and the job's *position*, so inserting a leg shifts
/// later legs' seeds but scheduling never does.
fn derive_seed(base: u64, leg: u64, chunk: u64) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(base);
    h.eat_u64(leg);
    h.eat_u64(chunk);
    SplitMix64::new(h.finish()).next_u64()
}

fn parse_protocols(leg: &Value, default: Vec<Protocol>) -> Result<Vec<Protocol>, String> {
    let Some(list) = leg.get("protocols") else {
        return Ok(default);
    };
    let items = list
        .as_arr()
        .ok_or_else(|| "\"protocols\" must be an array of names".to_string())?;
    items
        .iter()
        .map(|v| {
            let name = v
                .as_str()
                .ok_or_else(|| "\"protocols\" entries must be strings".to_string())?;
            Protocol::from_name(name).ok_or_else(|| format!("unknown protocol {name:?}"))
        })
        .collect()
}

fn parse_usize(leg: &Value, name: &str, default: usize) -> Result<usize, String> {
    match leg.get(name) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("{name:?} must be an unsigned integer")),
    }
}

/// Parses a `tsocc-campaign-manifest/v1` document and expands its legs.
///
/// # Errors
///
/// A description of the first malformed field (bad JSON, wrong schema,
/// unknown leg kind / protocol / benchmark / scale).
pub fn parse_manifest(src: &str) -> Result<Manifest, String> {
    let doc = json::parse(src)?;
    match doc.get("schema").and_then(Value::as_str) {
        Some("tsocc-campaign-manifest/v1") => {}
        other => return Err(format!("manifest schema is {other:?}")),
    }
    let seed = match doc.get("seed") {
        None => 0,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "\"seed\" must be an unsigned integer".to_string())?,
    };
    let legs = doc
        .get("legs")
        .and_then(Value::as_arr)
        .ok_or_else(|| "manifest needs a \"legs\" array".to_string())?;

    let mut jobs = Vec::new();
    for (leg_idx, leg) in legs.iter().enumerate() {
        match leg.get("kind").and_then(Value::as_str) {
            Some("sweep") => {
                let bench_name = leg.get("bench").and_then(Value::as_str).unwrap_or("fft");
                let bench = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name() == bench_name)
                    .ok_or_else(|| format!("unknown benchmark {bench_name:?}"))?;
                let scale_name = leg.get("scale").and_then(Value::as_str).unwrap_or("small");
                let scale = Scale::from_name(scale_name)
                    .ok_or_else(|| format!("unknown scale {scale_name:?}"))?;
                let cores: Vec<usize> = match leg.get("cores") {
                    None => vec![2, 4],
                    Some(v) => v
                        .as_arr()
                        .ok_or_else(|| "\"cores\" must be an array".to_string())?
                        .iter()
                        .map(|n| {
                            n.as_u64()
                                .map(|n| n as usize)
                                .ok_or_else(|| "\"cores\" entries must be integers".to_string())
                        })
                        .collect::<Result<_, _>>()?,
                };
                let protocols = parse_protocols(leg, Protocol::sweep_configs())?;
                for &n_cores in &cores {
                    for &protocol in &protocols {
                        jobs.push(JobSpec::Sweep {
                            point: SweepPoint {
                                bench,
                                protocol,
                                n_cores,
                                scale,
                            },
                            base_seed: seed,
                        });
                    }
                }
            }
            Some("conform") => {
                let protocols = parse_protocols(leg, CampaignOpts::default().protocols)?;
                let threads = parse_usize(leg, "threads", GenConfig::default().threads)?;
                let programs = parse_usize(leg, "programs", 40)?;
                let chunk = parse_usize(leg, "chunk", 20)?.max(1);
                let iters = parse_usize(leg, "iters", 2)? as u64;
                let chunks = programs.div_ceil(chunk);
                for chunk_idx in 0..chunks {
                    let count = chunk.min(programs - chunk_idx * chunk);
                    jobs.push(JobSpec::Conform {
                        label: format!("conform/leg{leg_idx}/chunk{chunk_idx}"),
                        opts: CampaignOpts {
                            seed: derive_seed(seed, leg_idx as u64, chunk_idx as u64),
                            workers: 1,
                            budget: Duration::ZERO,
                            min_programs: count,
                            max_programs: count,
                            iters_per_program: iters,
                            protocols: protocols.clone(),
                            gen: GenConfig {
                                threads,
                                ..GenConfig::default()
                            },
                            ..CampaignOpts::default()
                        },
                    });
                }
            }
            Some("check") => {
                let protocols = parse_protocols(leg, Protocol::sweep_configs())?;
                let cores = parse_usize(leg, "cores", 2)?.max(2);
                let lines = parse_usize(leg, "lines", 1)?;
                let ops = parse_usize(leg, "ops", 2)?;
                for protocol in protocols {
                    jobs.push(JobSpec::Check {
                        protocol,
                        cores,
                        lines,
                        ops,
                    });
                }
            }
            other => return Err(format!("leg {leg_idx} has unknown kind {other:?}")),
        }
    }
    Ok(Manifest { seed, jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_manifest_expands_to_every_leg_kind() {
        let m = parse_manifest(DEFAULT_MANIFEST).unwrap();
        assert_eq!(m.seed, 7);
        let sweeps = m.jobs.iter().filter(|j| j.kind() == "sweep").count();
        let conforms = m.jobs.iter().filter(|j| j.kind() == "conform").count();
        let checks = m.jobs.iter().filter(|j| j.kind() == "check").count();
        // 2 core counts × the 9 sweep configs; 40 programs / 20-chunks;
        // 3 check protocols.
        assert_eq!(sweeps, 2 * Protocol::sweep_configs().len());
        assert_eq!(conforms, 2);
        assert_eq!(checks, 3);
    }

    #[test]
    fn conform_chunks_get_distinct_deterministic_seeds() {
        let m = parse_manifest(DEFAULT_MANIFEST).unwrap();
        let seeds: Vec<u64> = m
            .jobs
            .iter()
            .filter_map(|j| match j {
                JobSpec::Conform { opts, .. } => Some(opts.seed),
                _ => None,
            })
            .collect();
        assert_eq!(seeds.len(), 2);
        assert_ne!(seeds[0], seeds[1]);
        let again = parse_manifest(DEFAULT_MANIFEST).unwrap();
        let replay: Vec<u64> = again
            .jobs
            .iter()
            .filter_map(|j| match j {
                JobSpec::Conform { opts, .. } => Some(opts.seed),
                _ => None,
            })
            .collect();
        assert_eq!(seeds, replay);
        // Chunk campaigns must be deterministic: fixed count, no budget.
        for job in &m.jobs {
            if let JobSpec::Conform { opts, .. } = job {
                assert_eq!(opts.budget, Duration::ZERO);
                assert_eq!(opts.min_programs, opts.max_programs);
                assert_eq!(opts.workers, 1);
            }
        }
    }

    #[test]
    fn malformed_manifests_are_rejected_with_context() {
        for (src, needle) in [
            ("{}", "schema"),
            (r#"{"schema": "tsocc-campaign-manifest/v1"}"#, "legs"),
            (
                r#"{"schema": "tsocc-campaign-manifest/v1",
                    "legs": [{"kind": "dance"}]}"#,
                "kind",
            ),
            (
                r#"{"schema": "tsocc-campaign-manifest/v1",
                    "legs": [{"kind": "check", "protocols": ["NOPE"]}]}"#,
                "NOPE",
            ),
            (
                r#"{"schema": "tsocc-campaign-manifest/v1",
                    "legs": [{"kind": "sweep", "scale": "tnyi"}]}"#,
                "tnyi",
            ),
        ] {
            let err = parse_manifest(src).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }
}
