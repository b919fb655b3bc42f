//! The event-driven scheduler's headline contract: jumping simulated
//! time over idle cycles must produce **bit-identical** results to the
//! cycle-by-cycle reference stepper — the full [`RunStats`] (cycles,
//! messages, flits, flit-hops, every histogram and counter) and the
//! final DRAM image — while executing strictly fewer host steps. This
//! suite checks the 27 sweep points at 2, 4 and 8 cores plus every
//! benchmark at tiny scale; `tsocc sweep --check` checks all 63 points
//! of `BENCH_sweep.json` (2–128 cores).
//!
//! [`RunStats`]: tsocc::RunStats

use tsocc::{RunStats, Stepper, System};
use tsocc_bench::sweep::SweepPoint;
use tsocc_mem::{Addr, LineAddr, LineData};
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::{Benchmark, Scale};

/// The `BENCH_sweep.json` base seed (`SweepOpts::default().seed`).
const BASE_SEED: u64 = 0xC0FFEE;

struct Outcome {
    stats: RunStats,
    memory: Vec<(LineAddr, LineData)>,
    host_steps: u64,
}

/// Runs one sweep point exactly the way the sweep engine does (same
/// per-point seed derivation, config and cycle budget), under the given
/// stepper, capturing the final memory image as well.
fn run_point(point: &SweepPoint, stepper: Stepper) -> Outcome {
    let workload = point
        .bench
        .build(point.n_cores, point.scale, point.seed(BASE_SEED));
    let mut cfg = point.system_config(BASE_SEED);
    cfg.stepper = stepper;
    let mut sys = System::new(cfg, workload.programs.clone());
    for &(addr, value) in &workload.init {
        sys.write_word(Addr::new(addr), value);
    }
    let stats = sys.run(200_000_000).unwrap_or_else(|e| {
        panic!(
            "{} on {} x{} ({stepper:?}): {e}",
            point.bench.name(),
            point.protocol.name(),
            point.n_cores
        )
    });
    Outcome {
        stats,
        memory: sys.memory_image(),
        host_steps: sys.steps_executed(),
    }
}

fn assert_point_parity(point: &SweepPoint) {
    let event = run_point(point, Stepper::EventDriven);
    let reference = run_point(point, Stepper::Reference);
    let label = format!(
        "{}/{}/x{}",
        point.bench.name(),
        point.protocol.name(),
        point.n_cores
    );
    assert_eq!(
        event.stats, reference.stats,
        "{label}: RunStats diverge between steppers"
    );
    assert_eq!(
        event.memory, reference.memory,
        "{label}: final memory image diverges between steppers"
    );
    assert!(
        event.host_steps < reference.host_steps,
        "{label}: event-driven ran {} steps, reference {} — no idle cycles skipped",
        event.host_steps,
        reference.host_steps
    );
}

/// The 2-, 4- and 8-core slice of the `BENCH_sweep.json` matrix: fft ×
/// all 9 sweep protocol configurations (7 paper configs + 2 MESI-coarse
/// directory points) at Small scale. The artifact's 16- to 128-core
/// points are left to `tsocc sweep --check`.
#[test]
fn sweep_matrix_is_bit_identical_across_steppers() {
    let mut checked = 0;
    for n_cores in [2usize, 4, 8] {
        for protocol in Protocol::sweep_configs() {
            let point = SweepPoint {
                bench: Benchmark::Fft,
                protocol,
                n_cores,
                scale: Scale::Small,
            };
            assert_point_parity(&point);
            checked += 1;
        }
    }
    assert_eq!(checked, 27, "the sweep matrix has 27 points");
}

/// Broader workload coverage at Tiny scale: every benchmark of the
/// paper's Table 3 under both a MESI and a TSO-CC machine.
#[test]
fn every_benchmark_is_bit_identical_across_steppers() {
    for bench in Benchmark::ALL {
        for protocol in [Protocol::Mesi, Protocol::TsoCc(TsoCcConfig::default())] {
            let point = SweepPoint {
                bench,
                protocol,
                n_cores: 4,
                scale: Scale::Tiny,
            };
            assert_point_parity(&point);
        }
    }
}
