//! The orchestrator's unit of work and its canonical identity.
//!
//! A [`JobSpec`] is everything needed to (re)compute one result:
//! a sweep point, one deterministic conformance-campaign chunk, or one
//! model-check family. [`JobSpec::canonical`] renders that identity as
//! a stable string — the content the result cache addresses by — and
//! [`JobSpec::run`] computes the result. The contract between the two:
//! **two specs with equal canonical strings produce byte-identical
//! simulated metrics** (under one code fingerprint), and any field
//! change that could move a simulated metric changes the canonical
//! string.
//!
//! The one deliberate exclusion is [`tsocc::Stepper`]: both steppers
//! are proven bit-identical in all simulated outcomes (the
//! stepper-parity suite diffs them across the full sweep matrix), so
//! the run loop is an execution detail, not part of a result's
//! identity — a sweep computed under the reference stepper is served to
//! an event-driven query and vice versa.

use std::time::{Duration, Instant};

use tsocc::SystemConfig;
use tsocc_bench::sweep::SweepPoint;
use tsocc_check::{check_model, pool_for_lines, CheckOpts};
use tsocc_coherence::FaultPlan;
use tsocc_conform::{run_campaign, CampaignOpts};
use tsocc_protocols::Protocol;
use tsocc_workloads::tso_model::generate_two_thread_programs;

/// One schedulable unit of campaign work.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// One point of a sweep matrix.
    Sweep {
        /// The configuration point.
        point: SweepPoint,
        /// The sweep's base seed (the point derives its own from it).
        base_seed: u64,
    },
    /// One deterministic conformance-campaign chunk: a fixed program
    /// count (`min_programs == max_programs`, zero budget) so the
    /// result is independent of wall clock and worker count.
    Conform {
        /// Display label (`conform/<leg>/chunk<i>`).
        label: String,
        /// The full campaign parameter set.
        opts: CampaignOpts,
    },
    /// One exhaustive model-check family: every two-thread program of
    /// `ops` operations per thread, checked to exhaustion on one
    /// protocol.
    Check {
        /// Protocol under check.
        protocol: Protocol,
        /// Core count (threads beyond the program's two stay idle).
        cores: usize,
        /// Address-pool cache lines (1 or 2).
        lines: usize,
        /// Ops per thread in the systematic family.
        ops: usize,
    },
}

/// What running a job produced.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Simulated metrics in the job kind's fixed order.
    pub metrics: Vec<(String, u64)>,
    /// Kind-specific serialized payload (the sweep row JSON), or empty.
    pub payload: String,
    /// Compute wall-clock time.
    pub wall: Duration,
    /// Whether the result is clean (no violations, complete). Only
    /// clean results are cached: a violating campaign run is always
    /// recomputed so its full diagnostics (shrunk reproducers, litmus
    /// text) are regenerated rather than summarized from a cache line.
    pub clean: bool,
}

/// Renders the parts of a [`SystemConfig`] that determine simulated
/// metrics as one stable line — the machine half of a sweep job's
/// canonical identity.
///
/// Geometry is *resolved* before rendering (`mesh: None` and an
/// explicit equal `Some((rows, cols))` canonicalize identically), and
/// the field order is fixed here, independent of builder call order.
/// `stepper` is deliberately absent; see the module docs.
pub fn canonical_config(cfg: &SystemConfig) -> String {
    let shape = cfg.shape();
    format!(
        "protocol={};n_cores={};n_mem={};mesh={}x{};l2_banks={};core={:?};l1={:?};l2={:?};\
         l2_latency={};mem_latency={};noc={:?};seed={};faults={:?}",
        cfg.protocol.protocol_name(),
        cfg.n_cores,
        cfg.n_mem,
        shape.mesh.rows(),
        shape.mesh.cols(),
        cfg.l2_banks,
        cfg.core,
        cfg.l1_params,
        cfg.l2_params,
        cfg.l2_latency,
        cfg.mem_latency,
        cfg.noc,
        cfg.seed,
        cfg.faults,
    )
}

fn canonical_campaign(opts: &CampaignOpts) -> String {
    // Every field of `CampaignOpts` except `workers`: the worker count
    // is host parallelism, and the campaign engine derives all
    // randomness from per-program seeds, so it cannot move a metric of
    // the deterministic (zero-budget, fixed-count) chunks the
    // orchestrator schedules. Budgeted campaigns are wall-clock-shaped;
    // their budget is part of the key, and a cached record represents
    // one valid execution of that spec.
    let protocols: Vec<String> = opts.protocols.iter().map(Protocol::name).collect();
    format!(
        "seed={};budget_ms={};min_programs={};max_programs={};iters={};protocols={};\
         gen={:?};oracle={:?};max_states={};jitter={};shrink_iters={};max_violations={};\
         faults={:?}",
        opts.seed,
        opts.budget.as_millis(),
        opts.min_programs,
        opts.max_programs,
        opts.iters_per_program,
        protocols.join(","),
        opts.gen,
        opts.oracle,
        opts.max_states,
        opts.jitter,
        opts.shrink_iters,
        opts.max_violations,
        opts.faults,
    )
}

impl JobSpec {
    /// The job kind tag (the cache record's `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Sweep { .. } => "sweep",
            JobSpec::Conform { .. } => "conform",
            JobSpec::Check { .. } => "check",
        }
    }

    /// Human-readable job label for reports and progress lines.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Sweep { point, .. } => format!(
                "sweep/{}/{}/{}c",
                point.bench.name(),
                point.protocol.name(),
                point.n_cores
            ),
            JobSpec::Conform { label, .. } => label.clone(),
            JobSpec::Check {
                protocol,
                cores,
                lines,
                ops,
            } => format!("check/{}/{}c{}l{}o", protocol.name(), cores, lines, ops),
        }
    }

    /// The job's canonical identity: the exact content string the
    /// result cache addresses by. See the module docs for the
    /// equality/sensitivity contract.
    pub fn canonical(&self) -> String {
        match self {
            JobSpec::Sweep { point, base_seed } => {
                // The resolved machine (with the point's derived seed
                // installed) plus the workload identity. The base seed
                // is not keyed directly — only through the derived
                // per-point seed, which is what the simulator consumes.
                format!(
                    "kind=sweep;bench={};scale={:?};{}",
                    point.bench.name(),
                    point.scale,
                    canonical_config(&point.system_config(*base_seed)),
                )
            }
            JobSpec::Conform { opts, .. } => {
                format!("kind=conform;{}", canonical_campaign(opts))
            }
            JobSpec::Check {
                protocol,
                cores,
                lines,
                ops,
            } => {
                let o = CheckOpts::default();
                format!(
                    "kind=check;protocol={};cores={};lines={};ops={};max_schedules={};\
                     max_steps={};oracle_max_states={}",
                    protocol.name(),
                    cores,
                    lines,
                    ops,
                    o.max_schedules,
                    o.max_steps,
                    o.oracle_max_states,
                )
            }
        }
    }

    /// Computes the job.
    pub fn run(&self) -> JobOutcome {
        match self {
            JobSpec::Sweep { point, base_seed } => {
                let r = point.run(*base_seed);
                JobOutcome {
                    metrics: vec![
                        ("seed".to_string(), r.seed),
                        ("cycles".to_string(), r.stats.cycles),
                        ("instructions".to_string(), r.stats.instructions),
                        ("msgs".to_string(), r.stats.noc.total_messages()),
                        ("flits".to_string(), r.stats.total_flits()),
                        ("flit_hops".to_string(), r.stats.noc.flit_hops.get()),
                        ("mem_fp".to_string(), r.mem_fp),
                    ],
                    payload: r.to_json(),
                    wall: r.wall,
                    clean: true,
                }
            }
            JobSpec::Conform { opts, .. } => {
                let t = Instant::now();
                let report = run_campaign(opts);
                JobOutcome {
                    metrics: vec![
                        (
                            "programs_checked".to_string(),
                            report.programs_checked as u64,
                        ),
                        (
                            "programs_skipped".to_string(),
                            report.programs_skipped as u64,
                        ),
                        ("sim_runs".to_string(), report.sim_runs),
                        ("states_total".to_string(), report.states_total),
                        ("max_state_space".to_string(), report.max_state_space as u64),
                        (
                            "allowed_outcomes_total".to_string(),
                            report.allowed_outcomes_total,
                        ),
                        (
                            "observed_outcomes_total".to_string(),
                            report.observed_outcomes_total,
                        ),
                        ("violations_total".to_string(), report.violations_total),
                    ],
                    payload: String::new(),
                    wall: t.elapsed(),
                    clean: report.violations_total == 0,
                }
            }
            JobSpec::Check {
                protocol,
                cores,
                lines,
                ops,
            } => {
                let t = Instant::now();
                let opts = CheckOpts::default();
                let pool = pool_for_lines(*lines);
                let family = generate_two_thread_programs(*ops);
                let mut schedules = 0u64;
                let mut transitions = 0u64;
                let mut sleep_blocked = 0u64;
                let mut violations = 0u64;
                let mut complete = true;
                for program in &family {
                    let mut program = program.clone();
                    while program.len() < *cores {
                        program.push(Vec::new());
                    }
                    let report = check_model(protocol, FaultPlan::none(), &program, &pool, &opts)
                        .expect("oracle state space fits the default bound");
                    schedules += report.schedules;
                    transitions += report.transitions;
                    sleep_blocked += report.sleep_blocked;
                    violations += report.violations.len() as u64;
                    complete &= report.complete;
                }
                JobOutcome {
                    metrics: vec![
                        ("programs".to_string(), family.len() as u64),
                        ("schedules".to_string(), schedules),
                        ("transitions".to_string(), transitions),
                        ("sleep_blocked".to_string(), sleep_blocked),
                        ("violations_total".to_string(), violations),
                        ("complete".to_string(), complete as u64),
                    ],
                    payload: String::new(),
                    wall: t.elapsed(),
                    clean: violations == 0 && complete,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_bench::sweep::SweepPoint;
    use tsocc_workloads::{Benchmark, Scale};

    fn point() -> SweepPoint {
        SweepPoint {
            bench: Benchmark::Fft,
            protocol: Protocol::Mesi,
            n_cores: 4,
            scale: Scale::Tiny,
        }
    }

    #[test]
    fn sweep_canonical_excludes_the_stepper_and_pins_the_seed() {
        let job = JobSpec::Sweep {
            point: point(),
            base_seed: 7,
        };
        let canon = job.canonical();
        // No stepper key and no stepper variant: both steppers produce
        // bit-identical results, so the choice must not split the cache.
        assert!(!canon.contains("stepper"), "{canon}");
        for variant in ["EventDriven", "Reference"] {
            assert!(!canon.contains(variant), "{canon}");
        }
        assert!(
            canon.contains(&format!("seed={}", point().seed(7))),
            "{canon}"
        );
        // A different base seed changes the derived seed, hence the key.
        let other = JobSpec::Sweep {
            point: point(),
            base_seed: 8,
        };
        assert_ne!(canon, other.canonical());
    }

    #[test]
    fn sweep_run_metrics_match_the_payload_row() {
        let job = JobSpec::Sweep {
            point: point(),
            base_seed: 7,
        };
        let out = job.run();
        assert!(out.clean);
        let row = tsocc_bench::json::parse(&out.payload).unwrap();
        for (name, value) in &out.metrics {
            assert_eq!(
                row.get(name).and_then(|v| v.as_u64()),
                Some(*value),
                "metric {name} diverges from the payload row"
            );
        }
    }

    #[test]
    fn check_job_runs_clean_on_mesi() {
        let job = JobSpec::Check {
            protocol: Protocol::Mesi,
            cores: 2,
            lines: 1,
            ops: 1,
        };
        let out = job.run();
        assert!(out.clean);
        let get = |name: &str| {
            out.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get("programs") > 0);
        assert!(get("schedules") > 0);
        assert_eq!(get("violations_total"), 0);
        assert_eq!(get("complete"), 1);
    }
}
