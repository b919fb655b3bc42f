//! The orchestrator's unit of work and its canonical identity.
//!
//! A [`JobSpec`] is everything needed to (re)compute one sweep point.
//! [`JobSpec::canonical`] renders that identity as a stable string —
//! the content the result cache addresses by — and [`JobSpec::run`]
//! computes the result. The contract between the two: **two specs with
//! equal canonical strings produce byte-identical simulated metrics**
//! (under one code fingerprint), and any field change that could move
//! a simulated metric changes the canonical string.
//!
//! The one deliberate exclusion is [`tsocc::Stepper`]: both steppers
//! are held bit-identical in all simulated outcomes
//! (`tests/event_driven_parity.rs` diffs them on 27 sweep points, and
//! `tsocc sweep --check` on all 63 points of the committed artifact),
//! so the run loop is an execution detail, not part of a result's
//! identity — a sweep computed under the reference stepper is served to
//! an event-driven query and vice versa.

use std::time::Duration;

use tsocc::SystemConfig;
use tsocc_bench::sweep::SweepPoint;

/// One point of a sweep matrix: the orchestrator's unit of work.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The configuration point.
    pub point: SweepPoint,
    /// The sweep's base seed (the point derives its own from it).
    pub base_seed: u64,
}

/// What running a job produced.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Simulated metrics in a fixed order.
    pub metrics: Vec<(String, u64)>,
    /// The serialized sweep row.
    pub payload: String,
    /// Compute wall-clock time.
    pub wall: Duration,
}

/// Renders the parts of a [`SystemConfig`] that determine simulated
/// metrics as one stable line — the machine half of a job's canonical
/// identity.
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

impl JobSpec {
    /// Human-readable job label for reports and progress lines.
    pub fn label(&self) -> String {
        format!(
            "sweep/{}/{}/{}c",
            self.point.bench.name(),
            self.point.protocol.name(),
            self.point.n_cores
        )
    }

    /// The job's canonical identity: the exact content string the
    /// result cache addresses by. See the module docs for the
    /// equality/sensitivity contract.
    ///
    /// The resolved machine (with the point's derived seed installed)
    /// plus the workload identity. The base seed is not keyed directly
    /// — only through the derived per-point seed, which is what the
    /// simulator consumes.
    pub fn canonical(&self) -> String {
        format!(
            "bench={};scale={:?};{}",
            self.point.bench.name(),
            self.point.scale,
            canonical_config(&self.point.system_config(self.base_seed)),
        )
    }

    /// Computes the job.
    pub fn run(&self) -> JobOutcome {
        let r = self.point.run(self.base_seed);
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_protocols::Protocol;
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
        let job = JobSpec {
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
        let other = JobSpec {
            point: point(),
            base_seed: 8,
        };
        assert_ne!(canon, other.canonical());
    }

    #[test]
    fn sweep_run_metrics_match_the_payload_row() {
        let job = JobSpec {
            point: point(),
            base_seed: 7,
        };
        let out = job.run();
        let row = tsocc_bench::json::parse(&out.payload).unwrap();
        for (name, value) in &out.metrics {
            assert_eq!(
                row.get(name).and_then(|v| v.as_u64()),
                Some(*value),
                "metric {name} diverges from the payload row"
            );
        }
    }
}
