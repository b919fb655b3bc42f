//! The simulator workloads: sweep points run serially under the
//! default event-driven stepper.

use std::time::{Duration, Instant};

use tsocc::{RunStats, System};
use tsocc_bench::sweep::SweepPoint;
use tsocc_coherence::ProtocolHandle;
use tsocc_mem::Addr;
use tsocc_protocols::Protocol;
use tsocc_workloads::{Benchmark, Scale};

use crate::pins::{self, Pins};
use crate::report::{fastest, ratio, Outcome};
use crate::trace::{self, TracedFactory};

/// Cycle budget of one point; every committed point finishes far
/// below it.
const MAX_CYCLES: u64 = 200_000_000;

/// Set-up-only batches per pass, and set-ups of every point per batch.
/// A batch gives one `setup_s` sample, its mean; the reported value is
/// the run's fastest sample, as for `wall_s`. A set-up takes about a
/// millisecond, so these add little to a pass.
const SETUP_BATCHES: usize = 5;
const SETUP_REPS: usize = 8;

/// One simulator workload: a benchmark on one machine under several
/// protocols.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// The kernel.
    pub bench: Benchmark,
    /// Machine core count.
    pub cores: usize,
    /// Workload scale.
    pub scale: Scale,
    /// Protocol display names, run in this order.
    pub protocols: [&'static str; 3],
    /// Whether the kernel draws on the seed. One that does not runs
    /// the same at every base seed, so the table pins one for it.
    pub seeded: bool,
}

impl SimSpec {
    /// The sweep points of this workload.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.protocols
            .iter()
            .map(|name| SweepPoint {
                bench: self.bench,
                protocol: Protocol::from_name(name).expect("known protocol name"),
                n_cores: self.cores,
                scale: self.scale,
            })
            .collect()
    }
}

/// Host time of one point's set-up, by step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `Benchmark::build`.
    pub build: Duration,
    /// `System::try_new` (configuration build included).
    pub new: Duration,
    /// Initial memory writes.
    pub init: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.build + self.new + self.init
    }
}

/// Builds `point`'s inputs and machine with the given protocol factory
/// (the point's own, or a traced wrapper of it).
pub fn setup(
    point: &SweepPoint,
    base_seed: u64,
    protocol: ProtocolHandle,
) -> Result<(System, SetupTimes), String> {
    let seed = point.seed(base_seed);
    let t = Instant::now();
    let workload = point.bench.build(point.n_cores, point.scale, seed);
    let build = t.elapsed();
    let t = Instant::now();
    let mut cfg = point.system_config(base_seed);
    cfg.protocol = protocol;
    let mut sys = System::try_new(cfg, workload.programs).map_err(|e| e.to_string())?;
    let new = t.elapsed();
    let t = Instant::now();
    for &(addr, value) in &workload.init {
        sys.write_word(Addr::new(addr), value);
    }
    let init = t.elapsed();
    Ok((sys, SetupTimes { build, new, init }))
}

/// One finished point run.
pub struct PointRun {
    /// The simulated outcome.
    pub stats: RunStats,
    /// Steps the event-driven loop executed.
    pub steps: u64,
    /// Host time of `System::run`.
    pub run: Duration,
}

/// Runs a set-up machine to completion.
pub fn run(mut sys: System) -> Result<PointRun, String> {
    let t = Instant::now();
    let stats = sys.run(MAX_CYCLES).map_err(|e| e.to_string())?;
    let run = t.elapsed();
    Ok(PointRun {
        stats,
        steps: sys.steps_executed(),
        run,
    })
}

/// The pin-table identity of `point` at `base_seed`.
pub fn key(point: &SweepPoint, base_seed: u64) -> String {
    pins::point_key(
        base_seed,
        point.bench.name(),
        &point.protocol.name(),
        point.n_cores,
    )
}

/// Sets up and runs one point with its own protocol, checking the
/// outcome against its pin and, from the second pass on, against the
/// first pass (determinism).
fn run_checked(
    point: &SweepPoint,
    base_seed: u64,
    pins: &Pins,
    first: &mut Option<RunStats>,
) -> Result<PointRun, String> {
    let (sys, _) = setup(point, base_seed, point.protocol.into())?;
    let run = run(sys)?;
    pins.check_point(&key(point, base_seed), &run.stats)?;
    match first {
        Some(prev) if *prev != run.stats => {
            return Err(format!(
                "{}: outcome differs between passes",
                point.protocol.name()
            ))
        }
        Some(_) => {}
        None => *first = Some(run.stats.clone()),
    }
    Ok(run)
}

/// One `setup_s` sample: the mean host seconds of [`SETUP_REPS`]
/// set-ups of every point.
fn setup_sample(points: &[SweepPoint], base_seed: u64) -> f64 {
    let mut total = 0.0;
    for _ in 0..SETUP_REPS {
        for point in points {
            if let Ok((sys, s)) = setup(point, base_seed, point.protocol.into()) {
                total += s.total().as_secs_f64();
                drop(std::hint::black_box(sys));
            }
        }
    }
    total / SETUP_REPS as f64
}

/// The untraced run: whole passes over every point for `seconds`
/// (no pass starts that the previous pass's length says would overrun),
/// at least `min_passes` of them. `wall_s` is each point's fastest
/// run, summed, and `setup_s` the fastest set-up sample: on a shared
/// host bursts of interference slow a run, and the fastest of several
/// runs is the one they missed.
pub fn measure(
    spec: &SimSpec,
    base_seed: u64,
    seconds: f64,
    min_passes: usize,
    pins: &Pins,
) -> Outcome {
    let points = spec.points();
    let mut out = Outcome::default();
    let mut first: Vec<Option<RunStats>> = vec![None; points.len()];
    let mut best = vec![f64::INFINITY; points.len()];
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = 0.0;
    while walls.len() < min_passes || start.elapsed().as_secs_f64() + last <= seconds {
        let pass_start = Instant::now();
        let mut wall = 0.0;
        for ((point, first), best) in points.iter().zip(&mut first).zip(&mut best) {
            out.attempted += 1;
            match run_checked(point, base_seed, pins, first) {
                Ok(r) => {
                    wall += r.run.as_secs_f64();
                    *best = best.min(r.run.as_secs_f64());
                }
                Err(e) => out.fail(e),
            }
        }
        for _ in 0..SETUP_BATCHES {
            setups.push(setup_sample(&points, base_seed));
        }
        last = pass_start.elapsed().as_secs_f64();
        walls.push(wall);
        if out.failed > 0 {
            break;
        }
    }
    let best_wall: f64 = best.iter().sum();
    let cycles: u64 = first.iter().flatten().map(|s| s.cycles).sum();
    let instrs: u64 = first.iter().flatten().map(|s| s.instructions).sum();
    out.set("wall_s", best_wall);
    out.set("setup_s", fastest(&setups));
    out.set("throughput", ratio(cycles as f64, best_wall));
    out.note("sim_cycles_per_s", ratio(cycles as f64, best_wall), "1/s");
    out.note("sim_instr_per_s", ratio(instrs as f64, best_wall), "1/s");
    out.passes = walls;
    out
}

/// Per-layer totals summed over a workload's points.
#[derive(Debug, Default)]
struct LayerSums {
    build_s: f64,
    new_s: f64,
    run_s: f64,
    traced_run_s: f64,
    steps: u64,
    cycles: u64,
    instructions: u64,
    wb_full_stalls: u64,
    pops: u64,
    pushes: u64,
    stale: u64,
    l1_misses: u64,
    l1_accesses: u64,
    selfinv: u64,
    msgs: u64,
    flits: u64,
    flit_hops: u64,
    replay_s: f64,
    profile: trace::Profile,
}

/// Compares a traced run with the plain run of the same point: the
/// wrapper must not change a single simulated outcome or host step.
pub fn compare_runs(plain: &PointRun, traced: &PointRun) -> Result<(), String> {
    if plain.stats != traced.stats {
        return Err("traced RunStats differ from the plain run".to_string());
    }
    if plain.steps != traced.steps {
        return Err(format!(
            "traced run executed {} steps, plain run {}",
            traced.steps, plain.steps
        ));
    }
    Ok(())
}

/// Checks a mesh replay against the run it recorded: every message
/// delivered, with the same flit and flit-hop totals.
pub fn check_replay(replay: &trace::Replay, stats: &RunStats) -> Result<(), String> {
    let want = (
        stats.noc.total_messages(),
        stats.total_flits(),
        stats.noc.flit_hops.get(),
    );
    let got = (replay.delivered, replay.flits, replay.flit_hops);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "replay delivered (msgs, flits, flit_hops) {got:?}, the run injected {want:?}"
        ))
    }
}

/// Runs `point` plainly and traced, checks that both agree, replays
/// the traced traffic, and folds everything into `sums`.
fn trace_point(
    point: &SweepPoint,
    base_seed: u64,
    pins: &Pins,
    sums: &mut LayerSums,
) -> Result<(), String> {
    let (sys, setup_times) = setup(point, base_seed, point.protocol.into())?;
    let plain = run(sys)?;
    pins.check_point(&key(point, base_seed), &plain.stats)?;

    let noc = point.system_config(base_seed).noc;
    let traced_factory = TracedFactory::new(point.protocol.into(), noc);
    let (sys, _) = setup(point, base_seed, traced_factory.into())?;
    let mesh = sys.config().shape().mesh;
    trace::take_profile();
    let traced = run(sys)?;
    let mut profile = trace::take_profile();
    compare_runs(&plain, &traced)?;
    let replay = trace::replay(&mut profile.log, mesh, noc);
    check_replay(&replay, &plain.stats)?;

    let s = &plain.stats;
    sums.build_s += setup_times.build.as_secs_f64();
    sums.new_s += setup_times.new.as_secs_f64();
    sums.run_s += plain.run.as_secs_f64();
    sums.traced_run_s += traced.run.as_secs_f64();
    sums.steps += plain.steps;
    sums.cycles += s.cycles;
    sums.instructions += s.instructions;
    sums.wb_full_stalls += s.wb_full_stalls;
    sums.pops += s.sched.events_popped;
    sums.pushes += s.sched.pushes;
    sums.stale += s.sched.stale_skips;
    sums.l1_misses += s.l1.read_misses() + s.l1.write_misses();
    sums.l1_accesses += s.l1.accesses();
    sums.selfinv += s.l1.selfinv_total();
    sums.msgs += s.noc.total_messages();
    sums.flits += s.total_flits();
    sums.flit_hops += s.noc.flit_hops.get();
    sums.replay_s += replay.seconds;
    sums.profile.absorb(&profile);
    Ok(())
}

/// The traced run: every point once plainly and once through the
/// traced factory, reporting the per-layer metrics.
pub fn trace(spec: &SimSpec, base_seed: u64, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let mut sums = LayerSums::default();
    for point in spec.points() {
        out.attempted += 1;
        if let Err(e) = trace_point(&point, base_seed, pins, &mut sums) {
            out.fail(e);
        }
    }
    let p = &sums.profile;
    let timer_ns = p.timer_ns();
    let l1_calls = p.l1_calls() as f64;
    let l2_calls = p.l2_calls() as f64;
    let l1_self = (p.l1_nanos() as f64 - l1_calls * timer_ns) / 1e9;
    let l2_self = (p.l2_nanos() as f64 - l2_calls * timer_ns) / 1e9;
    let submits = p.l1[0].calls as f64;
    let pops = sums.pops as f64;
    let steps = sums.steps as f64;
    let metrics = [
        ("workloads.build_s", sums.build_s),
        ("core.new_s", sums.new_s),
        ("core.run_s", sums.run_s),
        ("core.steps", steps),
        ("core.ns_per_step", ratio(sums.run_s * 1e9, steps)),
        ("core.residual_s", sums.run_s - l1_self - l2_self),
        ("sim.sched_pops", pops),
        ("sim.sched_pushes", sums.pushes as f64),
        (
            "sim.stale_frac",
            ratio(sums.stale as f64, pops + sums.stale as f64),
        ),
        ("sim.pops_per_step", ratio(pops, steps)),
        ("cpu.instructions", sums.instructions as f64),
        (
            "cpu.ipc",
            ratio(sums.instructions as f64, sums.cycles as f64),
        ),
        ("cpu.wb_full_stalls", sums.wb_full_stalls as f64),
        ("l1.self_s", l1_self),
        ("l1.ns_per_call", ratio(l1_self * 1e9, l1_calls)),
        ("l1.calls_per_pop", ratio(l1_calls, pops)),
        ("l1.hit_frac", ratio(p.submit_hits as f64, submits)),
        ("l1.retry_frac", ratio(p.submit_retries as f64, submits)),
        ("l1.sends", p.l1_sends as f64),
        (
            "l1.miss_rate",
            ratio(sums.l1_misses as f64, sums.l1_accesses as f64),
        ),
        ("l1.selfinv", sums.selfinv as f64),
        ("l2.self_s", l2_self),
        ("l2.ns_per_msg", ratio(l2_self * 1e9, p.l2[0].calls as f64)),
        ("l2.sends", p.l2_sends as f64),
        ("noc.msgs", sums.msgs as f64),
        ("noc.flits", sums.flits as f64),
        ("noc.flit_hops", sums.flit_hops as f64),
        ("noc.replay_s", sums.replay_s),
        (
            "noc.ns_per_msg",
            ratio(sums.replay_s * 1e9, sums.msgs as f64),
        ),
        ("trace.overhead", ratio(sums.traced_run_s, sums.run_s)),
        ("trace.timer_ns", timer_ns),
    ];
    for (name, value) in metrics {
        out.set(name, value);
    }
    for (name, t) in trace::L1_METHODS.iter().zip(p.l1) {
        out.set(&format!("l1.calls.{name}"), t.calls as f64);
    }
    for (name, t) in trace::L2_METHODS.iter().zip(p.l2) {
        out.set(&format!("l2.calls.{name}"), t.calls as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimSpec {
        SimSpec {
            bench: Benchmark::Fft,
            cores: 4,
            scale: Scale::Tiny,
            protocols: ["MESI", "MESI-P4-G4", "TSO-CC-4-12-3"],
            seeded: false,
        }
    }

    fn plain(point: &SweepPoint, base_seed: u64) -> PointRun {
        let (sys, _) = setup(point, base_seed, point.protocol.into()).unwrap();
        run(sys).unwrap()
    }

    /// A table pinning `spec`'s points at base seed 7 as they run now.
    fn pins_at_7(spec: &SimSpec) -> Pins {
        let lines: Vec<String> = spec
            .points()
            .iter()
            .map(|p| pins::point_line(&key(p, 7), pins::digest(&plain(p, 7).stats)))
            .collect();
        Pins::parse(&lines.join("\n"))
    }

    #[test]
    fn a_perturbed_pin_is_counted_as_a_failure() {
        let spec = tiny();
        let pins = pins_at_7(&spec);
        let good = measure(&spec, 7, 0.0, 1, &pins);
        assert_eq!((good.attempted, good.failed), (3, 0), "{:?}", good.errors);

        let bad = pins.with(&key(&spec.points()[1], 7), "0123456789abcdef");
        let out = measure(&spec, 7, 0.0, 1, &bad);
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert!(out.errors[0].contains("MESI-P4-G4"), "{:?}", out.errors);

        let missing = pins.without(&key(&spec.points()[2], 7));
        let out = measure(&spec, 7, 0.0, 1, &missing);
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert!(out.errors[0].contains("not pinned"), "{:?}", out.errors);
    }

    /// What lets the table pin one base seed for an unseeded kernel.
    #[test]
    fn only_a_seeded_kernel_changes_with_the_base_seed() {
        for (bench, seeded) in [(Benchmark::Fft, false), (Benchmark::Intruder, true)] {
            let spec = SimSpec { bench, ..tiny() };
            let differs = spec
                .points()
                .iter()
                .any(|p| plain(p, 7).stats != plain(p, 8).stats);
            assert_eq!(differs, seeded, "{bench:?}");
        }
    }

    #[test]
    fn traced_runs_match_plain_runs_and_replays_deliver_every_message() {
        let out = trace(&tiny(), 7, &pins_at_7(&tiny()));
        assert_eq!((out.attempted, out.failed), (3, 0), "{:?}", out.errors);
        for name in ["l1.calls.submit", "l2.calls.handle_message", "noc.msgs"] {
            assert!(out.metrics[name] > 0.0, "{name}");
        }
        assert!(out.metrics["l1.sends"] + out.metrics["l2.sends"] > 0.0);
    }

    #[test]
    fn the_parity_oracles_can_fail() {
        let points = tiny().points();
        let point = points[0];
        let a = plain(&point, 7);
        let other_protocol = plain(&points[2], 7);
        assert!(compare_runs(&a, &other_protocol).is_err());
        let more_steps = PointRun {
            stats: a.stats.clone(),
            steps: a.steps + 1,
            run: a.run,
        };
        assert!(compare_runs(&a, &more_steps).is_err());
        assert!(compare_runs(&a, &plain(&point, 7)).is_ok());

        let noc = point.system_config(7).noc;
        let factory = TracedFactory::new(point.protocol.into(), noc);
        let (sys, _) = setup(&point, 7, factory.into()).unwrap();
        let mesh = sys.config().shape().mesh;
        trace::take_profile();
        let traced = run(sys).unwrap();
        let mut log = trace::take_profile().log;
        assert!(compare_runs(&a, &traced).is_ok());
        let full = trace::replay(&mut log, mesh, noc);
        assert!(check_replay(&full, &traced.stats).is_ok());
        let short = trace::replay(&mut log[1..], mesh, noc);
        assert!(check_replay(&short, &traced.stats).is_err());
    }
}
