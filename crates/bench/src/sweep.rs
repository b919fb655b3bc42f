//! The sweep engine: runs a matrix of (benchmark × protocol × machine)
//! configuration points, fanning the points out over worker threads.
//! Its shared-counter pool, [`fan_out`], is the workspace's one worker
//! pool: the orchestrator's cache-aware executor runs its jobs on it
//! too.
//!
//! Each point gets a **deterministic seed** derived from the base seed
//! and the point's identity (benchmark, protocol, core count) — never
//! from which worker picked the point up — so a parallel sweep produces
//! bit-identical results to a serial one (verified by
//! `tests::parallel_matches_serial`). Systems are built, run and
//! dropped entirely inside one worker; nothing about the simulator
//! itself needs to be thread-safe beyond the shared
//! [`tsocc_coherence::ProtocolFactory`] handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tsocc::{RunStats, Stepper, System, SystemConfig};
use tsocc_mem::Addr;
use tsocc_protocols::Protocol;
use tsocc_sim::rng::SplitMix64;
use tsocc_workloads::{Benchmark, Scale};

use crate::json;

/// Sweep parameters.
#[derive(Clone, Copy, Debug)]
pub struct SweepOpts {
    /// Core count (paper: 32).
    pub n_cores: usize,
    /// Workload scale.
    pub scale: Scale,
    /// Base simulation seed (per-point seeds derive from it).
    pub seed: u64,
    /// Worker threads for the point fan-out; `0` means one per
    /// available CPU.
    pub threads: usize,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            n_cores: 32,
            scale: Scale::Small,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

/// One configuration point of a sweep matrix.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// The workload.
    pub bench: Benchmark,
    /// The protocol configuration.
    pub protocol: Protocol,
    /// Machine core count.
    pub n_cores: usize,
    /// Workload scale.
    pub scale: Scale,
}

impl SweepPoint {
    /// The point's deterministic seed: a hash of the base seed and the
    /// point's identity. Independent of point order and thread
    /// schedule.
    pub fn seed(&self, base_seed: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.bench.name().as_bytes());
        eat(self.protocol.name().as_bytes());
        eat(&(self.n_cores as u64).to_le_bytes());
        eat(format!("{:?}", self.scale).as_bytes());
        SplitMix64::new(base_seed ^ h).next_u64()
    }

    /// Runs this point to completion under the default stepper.
    pub fn run(&self, base_seed: u64) -> PointResult {
        self.run_with_stepper(base_seed, Stepper::default())
    }

    /// The exact [`SystemConfig`] this point runs under (with its
    /// derived per-point seed installed) — exposed so the orchestrator
    /// can content-address a point by the *resolved* machine, including
    /// every field the builder derives from the core count.
    ///
    /// # Panics
    ///
    /// Panics if the point's configuration is invalid (the run path
    /// reports that case with exit code 2 instead; see
    /// [`SweepPoint::run_with_stepper`]).
    pub fn system_config(&self, base_seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::builder()
            .cores(self.n_cores)
            .protocol(self.protocol)
            .build()
            .expect("valid config");
        cfg.seed = self.seed(base_seed);
        cfg
    }

    /// Runs this point under a specific [`Stepper`] — the hook behind
    /// the drift check's stepper-parity leg, which re-runs the whole
    /// matrix under `Reference` and diffs the results (including the
    /// memory fingerprint) against the default.
    pub fn run_with_stepper(&self, base_seed: u64, stepper: Stepper) -> PointResult {
        let seed = self.seed(base_seed);
        let workload = self.bench.build(self.n_cores, self.scale, seed);
        let mut cfg = self.system_config(base_seed);
        cfg.stepper = stepper;
        let t = Instant::now();
        // Benchmark drivers are batch programs: a rejected machine
        // configuration is an operator error, reported cleanly with
        // exit code 2 rather than a panic backtrace.
        let mut sys = match System::try_new(cfg, workload.programs.clone()) {
            Ok(sys) => sys,
            Err(e) => {
                eprintln!(
                    "sweep point {} on {} ({} cores): {e}",
                    self.bench.name(),
                    self.protocol.name(),
                    self.n_cores
                );
                std::process::exit(2);
            }
        };
        for &(addr, value) in &workload.init {
            sys.write_word(Addr::new(addr), value);
        }
        let stats = sys
            .run(200_000_000)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", self.bench.name(), self.protocol.name()));
        let wall = t.elapsed();
        // FNV-1a over the sorted DRAM image: a simulated metric, so it
        // belongs in the drift-checked artifact alongside cycle counts.
        let mut mem_fp = 0xcbf2_9ce4_8422_2325u64;
        for (line, data) in sys.memory_image() {
            for chunk in std::iter::once(line.as_u64()).chain(data.words().iter().copied()) {
                for b in chunk.to_le_bytes() {
                    mem_fp = (mem_fp ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        PointResult {
            bench: self.bench.name().to_string(),
            config: self.protocol.name(),
            n_cores: self.n_cores,
            seed,
            stats,
            mem_fp,
            wall,
        }
    }
}

/// The outcome of one sweep point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Benchmark name.
    pub bench: String,
    /// Protocol configuration name.
    pub config: String,
    /// Machine core count.
    pub n_cores: usize,
    /// The seed the point ran with.
    pub seed: u64,
    /// Simulation results.
    pub stats: RunStats,
    /// FNV-1a fingerprint of the final DRAM image (line addresses and
    /// payloads in sorted order) — a compact simulated metric that
    /// pins final memory, not just counters, in the drift check.
    pub mem_fp: u64,
    /// Host wall-clock time spent simulating this point. Shown on the
    /// progress lines only: no artifact records it.
    pub wall: Duration,
}

impl PointResult {
    /// The point as a JSON object: the `BENCH_sweep.json` row format,
    /// and the one place that decides its columns.
    ///
    /// A row holds simulated outcomes only, so it is a pure function of
    /// the code and the point: any two runs of a point write the same
    /// bytes, and `tsocc sweep --check` compares every column. Host-side
    /// measurements (wall time, the wake queue's `RunStats::sched`
    /// counters) belong to the host-time benchmark, `perfbench/`.
    pub fn to_json(&self) -> String {
        json::Object::new()
            .str("bench", &self.bench)
            .str("config", &self.config)
            .u64("n_cores", self.n_cores as u64)
            .u64("seed", self.seed)
            .u64("cycles", self.stats.cycles)
            .u64("instructions", self.stats.instructions)
            .u64("msgs", self.stats.noc.total_messages())
            .u64("flits", self.stats.total_flits())
            .u64("flit_hops", self.stats.noc.flit_hops.get())
            .u64("mem_fp", self.mem_fp)
            .build()
    }
}

/// The committed-baseline matrix (`BENCH_sweep.json`): every sweep
/// protocol configuration ([`Protocol::sweep_configs`]) at each core
/// count, on the fft benchmark. The `tsocc sweep` writer and its
/// `--check` drift checker both build the matrix through this one
/// function, so they can never disagree on its shape.
pub fn baseline_matrix(scale: Scale, core_counts: &[usize]) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &n_cores in core_counts {
        for protocol in Protocol::sweep_configs() {
            points.push(SweepPoint {
                bench: Benchmark::Fft,
                protocol,
                n_cores,
                scale,
            });
        }
    }
    points
}

/// How many workers a fan-out of `n_items` actually uses when
/// `requested` of them are asked for (`0` = one per available CPU).
pub fn effective_threads(requested: usize, n_items: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = if requested == 0 { auto } else { requested };
    t.clamp(1, n_items.max(1))
}

/// The one worker pool: runs `work(i)` for every `i` in `0..n_items`
/// on `threads` workers (see [`effective_threads`]) and returns the
/// results in index order.
///
/// Workers pull indices off a shared counter, so a long item does not
/// stall the items behind it. Results are keyed by index: output order
/// (and content, as long as `work` depends only on its index) is
/// identical no matter the interleaving.
///
/// # Panics
///
/// Propagates a panic from any `work` call.
pub fn fan_out<T: Send>(
    n_items: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let threads = effective_threads(threads, n_items);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_items).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_items {
                    break;
                }
                *slots[i].lock().unwrap() = Some(work(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panicked holding a result slot")
                .expect("every slot filled once the scope joins")
        })
        .collect()
}

/// Runs `points` on `threads` workers (0 = one per CPU) through
/// [`fan_out`] and returns the results in point order, printing one
/// progress line per finished point to stderr.
///
/// # Panics
///
/// Panics if any point fails to complete (propagated from the worker).
pub fn run_points(points: &[SweepPoint], threads: usize, base_seed: u64) -> Vec<PointResult> {
    run_points_with(points, threads, base_seed, Stepper::default())
}

/// [`run_points`] under a specific [`Stepper`] (the stepper-parity leg
/// of `tsocc sweep --check` re-runs the matrix under `Reference`
/// through this).
pub fn run_points_with(
    points: &[SweepPoint],
    threads: usize,
    base_seed: u64,
    stepper: Stepper,
) -> Vec<PointResult> {
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    fan_out(points.len(), threads, |i| {
        let result = points[i].run_with_stepper(base_seed, stepper);
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!(
            "[{:>7.1?}] {:>3}/{} {:<16} {:<16} {:>12} cycles ({:.1?})",
            start.elapsed(),
            finished,
            points.len(),
            result.bench,
            result.config,
            result.stats.cycles,
            result.wall,
        );
        result
    })
}

/// Results of one full sweep, keyed by (benchmark, configuration).
#[derive(Debug)]
pub struct Sweep {
    /// Parameters the sweep ran with.
    pub opts: SweepOpts,
    /// `(benchmark name, config name) → stats`.
    pub results: BTreeMap<(String, String), RunStats>,
}

impl Sweep {
    /// The full paper matrix for `opts`: every Table 3 benchmark ×
    /// every §4.2 protocol configuration.
    pub fn paper_points(opts: &SweepOpts) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for bench in Benchmark::ALL {
            for protocol in Protocol::paper_configs() {
                points.push(SweepPoint {
                    bench,
                    protocol,
                    n_cores: opts.n_cores,
                    scale: opts.scale,
                });
            }
        }
        points
    }

    /// Runs one benchmark under one protocol (one point of the paper
    /// matrix, same per-point seed as the full sweep).
    pub fn run_one(bench: Benchmark, protocol: Protocol, opts: SweepOpts) -> RunStats {
        SweepPoint {
            bench,
            protocol,
            n_cores: opts.n_cores,
            scale: opts.scale,
        }
        .run(opts.seed)
        .stats
    }

    /// Runs the full 16×7 sweep across `opts.threads` workers, printing
    /// progress to stderr.
    pub fn run(opts: SweepOpts) -> Sweep {
        let points = Sweep::paper_points(&opts);
        let results = run_points(&points, opts.threads, opts.seed)
            .into_iter()
            .map(|r| ((r.bench, r.config), r.stats))
            .collect();
        Sweep { opts, results }
    }

    /// Stats for one (benchmark, config) cell.
    pub fn get(&self, bench: &str, config: &str) -> &RunStats {
        self.results
            .get(&(bench.to_string(), config.to_string()))
            .unwrap_or_else(|| panic!("missing sweep cell {bench}/{config}"))
    }

    /// Configuration names in the paper's figure order.
    pub fn config_names() -> Vec<String> {
        Protocol::paper_configs()
            .iter()
            .map(Protocol::name)
            .collect()
    }

    /// Benchmark names in the paper's figure order.
    pub fn bench_names() -> Vec<&'static str> {
        Benchmark::ALL.iter().map(Benchmark::name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> SweepOpts {
        SweepOpts {
            n_cores: 4,
            scale: Scale::Tiny,
            seed: 1,
            threads: 0,
        }
    }

    #[test]
    fn default_opts_are_the_papers() {
        let o = SweepOpts::default();
        assert_eq!(o.n_cores, 32);
        assert!(matches!(o.scale, Scale::Small));
        assert_eq!(o.threads, 0);
    }

    #[test]
    fn run_one_tiny() {
        let s = Sweep::run_one(Benchmark::Fft, Protocol::Mesi, tiny_opts());
        assert!(s.cycles > 0);
        assert!(s.total_flits() > 0);
    }

    #[test]
    fn names_align_with_paper() {
        assert_eq!(Sweep::config_names().len(), 7);
        assert_eq!(Sweep::bench_names().len(), 16);
    }

    #[test]
    fn point_seeds_are_deterministic_and_distinct() {
        let opts = tiny_opts();
        let points = Sweep::paper_points(&opts);
        let mut seeds: Vec<u64> = points.iter().map(|p| p.seed(opts.seed)).collect();
        let replay: Vec<u64> = points.iter().map(|p| p.seed(opts.seed)).collect();
        assert_eq!(seeds, replay);
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(
            seeds.len(),
            points.len(),
            "per-point seeds must not collide"
        );

        // Every identity field participates in the hash, including scale.
        let p = points[0];
        let other = SweepPoint {
            scale: Scale::Small,
            ..p
        };
        assert_ne!(
            p.seed(opts.seed),
            other.seed(opts.seed),
            "scale must be part of the point identity"
        );
    }

    #[test]
    fn parallel_matches_serial() {
        // A 2×2 matrix is enough to exercise the fan-out while staying
        // fast: two benchmarks with different behaviours × two
        // protocols, on 4 workers.
        let opts = tiny_opts();
        let points: Vec<SweepPoint> = [Benchmark::Fft, Benchmark::Intruder]
            .into_iter()
            .flat_map(|bench| {
                [Protocol::Mesi, Protocol::TsoCc(Default::default())]
                    .into_iter()
                    .map(move |protocol| SweepPoint {
                        bench,
                        protocol,
                        n_cores: opts.n_cores,
                        scale: opts.scale,
                    })
            })
            .collect();
        let serial = run_points(&points, 1, opts.seed);
        let parallel = run_points(&points, 4, opts.seed);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                (&s.bench, &s.config),
                (&p.bench, &p.config),
                "order preserved"
            );
            assert_eq!(s.seed, p.seed, "{}/{}", s.bench, s.config);
            assert_eq!(s.stats.cycles, p.stats.cycles, "{}/{}", s.bench, s.config);
            assert_eq!(s.stats.instructions, p.stats.instructions);
            assert_eq!(s.stats.total_flits(), p.stats.total_flits());
            assert_eq!(s.stats.noc.total_messages(), p.stats.noc.total_messages());
        }
    }

    #[test]
    fn point_json_has_the_headline_fields() {
        let opts = tiny_opts();
        let r = SweepPoint {
            bench: Benchmark::Fft,
            protocol: Protocol::Mesi,
            n_cores: opts.n_cores,
            scale: opts.scale,
        }
        .run(opts.seed);
        let j = r.to_json();
        let row = json::parse(&j).unwrap();
        for key in ["bench", "config", "cycles", "msgs", "flits", "mem_fp"] {
            assert!(row.get(key).is_some(), "{j}");
        }
        // Host-side measurements stay out of the row.
        let json::Value::Obj(fields) = row else {
            panic!("a row is an object: {j}");
        };
        for (key, _) in &fields {
            assert!(!key.contains("wall") && !key.contains("sched"), "{j}");
        }
    }
}
