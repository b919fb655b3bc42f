//! The model-checking workload: exhaustive DPOR over the systematic
//! two-thread litmus family.

use std::time::Instant;

use tsocc_check::{check_model, pool_for_lines, CheckOpts};
use tsocc_coherence::FaultPlan;
use tsocc_protocols::Protocol;
use tsocc_sim::SplitMix64;
use tsocc_workloads::tso_model::{
    enumerate, generate_two_thread_programs, ModelMode, ModelProgram,
};

use crate::pins::{self, Pins};
use crate::report::{fastest, ratio, Outcome};

/// The protocols checked, in order. `MESI-P2-G2` is left out: on two
/// cores its schedule and transition counts equal MESI's.
pub const PROTOCOLS: [&str; 2] = ["MESI", "TSO-CC-4-basic"];

/// Operations per thread of the systematic family.
const OPS: usize = 2;

/// Cache lines in the address pool.
const LINES: usize = 1;

/// Set-up batches per pass, and family generations timed together as
/// one `setup_s` sample: one generation takes microseconds, too little
/// to time alone. The reported value is the run's fastest sample.
const SETUP_BATCHES: usize = 5;
const SETUP_REPS: usize = 200;

/// The systematic family, in an order drawn from `seed` (the totals do
/// not depend on the order; the seed varies only the sequence).
pub fn family(seed: u64) -> Vec<ModelProgram> {
    let mut programs = generate_two_thread_programs(OPS);
    let mut rng = SplitMix64::new(seed);
    for i in (1..programs.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        programs.swap(i, j);
    }
    programs
}

fn protocol(name: &str) -> Protocol {
    Protocol::from_name(name).expect("known protocol name")
}

/// What one protocol leg (or a sum of legs) measured.
#[derive(Clone, Debug, Default)]
struct Leg {
    /// Seconds of each program's `check_model` call, in family order.
    check_times: Vec<f64>,
    /// Terminal schedules.
    schedules: u64,
    /// Transitions executed.
    transitions: u64,
    /// Branches pruned by sleep sets.
    sleep_blocked: u64,
    /// Summed seconds of the separately timed oracle calls.
    oracle_s: f64,
    oracle_calls: u64,
    /// Summed seconds of the `check_model` calls.
    check_s: f64,
}

impl Leg {
    fn add(&mut self, other: &Leg) {
        self.schedules += other.schedules;
        self.transitions += other.transitions;
        self.sleep_blocked += other.sleep_blocked;
        self.oracle_s += other.oracle_s;
        self.oracle_calls += other.oracle_calls;
        self.check_s += other.check_s;
    }
}

/// Checks every program on `name`, counting each as one operation; a
/// program that errors, violates, or explores incompletely fails.
/// `time_oracle` also times the x86-TSO oracle on each program from
/// outside, as the checker itself calls it.
fn leg(name: &str, programs: &[ModelProgram], out: &mut Outcome, time_oracle: bool) -> Leg {
    let protocol = protocol(name);
    let pool = pool_for_lines(LINES);
    let opts = CheckOpts::default();
    let mut leg = Leg::default();
    for program in programs {
        out.attempted += 1;
        if time_oracle {
            let t = Instant::now();
            let allowed = enumerate(program, ModelMode::Tso, opts.oracle_max_states);
            leg.oracle_s += t.elapsed().as_secs_f64();
            leg.oracle_calls += 1;
            std::hint::black_box(allowed.is_ok());
        }
        let t = Instant::now();
        let report = check_model(&protocol, FaultPlan::none(), program, &pool, &opts);
        let secs = t.elapsed().as_secs_f64();
        leg.check_s += secs;
        leg.check_times.push(secs);
        match report {
            Ok(r) if r.complete && r.violations.is_empty() => {
                leg.schedules += r.schedules;
                leg.transitions += r.transitions;
                leg.sleep_blocked += r.sleep_blocked;
            }
            Ok(r) => out.fail(format!(
                "{name}: {} violation(s), complete={}",
                r.violations.len(),
                r.complete
            )),
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }
    leg
}

/// [`leg`] gated by the pinned totals: a leg whose totals miss their
/// pin fails every one of its programs not already failed.
fn pinned_leg(
    name: &str,
    programs: &[ModelProgram],
    pins: &Pins,
    out: &mut Outcome,
    time_oracle: bool,
) -> Leg {
    let failed_before = out.failed;
    let leg = leg(name, programs, out, time_oracle);
    let key = pins::check_key(name, programs.len());
    if let Err(e) = pins.check_totals(&key, leg.schedules, leg.transitions) {
        let clean = programs.len() as u64 - (out.failed - failed_before);
        for _ in 0..clean {
            out.fail(e.clone());
        }
    }
    leg
}

/// One pass: every protocol over the whole family. Returns each
/// protocol's leg and the pass's wall seconds.
fn pass(programs: &[ModelProgram], pins: &Pins, out: &mut Outcome) -> (Vec<Leg>, f64) {
    let t = Instant::now();
    let legs = PROTOCOLS
        .iter()
        .map(|name| pinned_leg(name, programs, pins, out, false))
        .collect();
    (legs, t.elapsed().as_secs_f64())
}

/// One `setup_s` sample: the mean seconds of [`SETUP_REPS`] family
/// generations, timed as one batch.
fn setup_sample(seed: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_REPS {
        std::hint::black_box(family(seed));
    }
    t.elapsed().as_secs_f64() / SETUP_REPS as f64
}

/// The untraced run: whole passes for `seconds`, as
/// [`crate::sim::measure`] paces them. `wall_s` is each check's
/// fastest time, summed over protocols and programs; `setup_s` the
/// fastest set-up sample.
pub fn measure(seed: u64, seconds: f64, min_passes: usize, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let programs = family(seed);
    let mut best = vec![vec![f64::INFINITY; programs.len()]; PROTOCOLS.len()];
    let mut schedules = 0u64;
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = 0.0;
    while walls.len() < min_passes || start.elapsed().as_secs_f64() + last <= seconds {
        let pass_start = Instant::now();
        for _ in 0..SETUP_BATCHES {
            setups.push(setup_sample(seed));
        }
        let (legs, wall) = pass(&programs, pins, &mut out);
        schedules = legs.iter().map(|l| l.schedules).sum();
        for (best, leg) in best.iter_mut().zip(&legs) {
            for (b, t) in best.iter_mut().zip(&leg.check_times) {
                *b = b.min(*t);
            }
        }
        last = pass_start.elapsed().as_secs_f64();
        walls.push(wall);
        if out.failed > 0 {
            break;
        }
    }
    let best_wall: f64 = best.iter().flatten().sum();
    out.set("wall_s", best_wall);
    out.set("setup_s", fastest(&setups));
    out.set("throughput", ratio(schedules as f64, best_wall));
    out.note("schedules_per_s", ratio(schedules as f64, best_wall), "1/s");
    out.passes = walls;
    out
}

/// The traced run: one plain pass, then one pass timing the oracle and
/// the checker per call.
pub fn trace(seed: u64, pins: &Pins) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let programs = family(seed);
    let build_s = t.elapsed().as_secs_f64();
    let (_, plain_wall) = pass(&programs, pins, &mut out);

    let t = Instant::now();
    let mut sum = Leg::default();
    for name in PROTOCOLS {
        sum.add(&pinned_leg(name, &programs, pins, &mut out, true));
    }
    let traced_wall = t.elapsed().as_secs_f64();
    let check_self = sum.check_s - sum.oracle_s;
    let metrics = [
        ("workloads.build_s", build_s),
        ("workloads.oracle_s", sum.oracle_s),
        ("workloads.oracle_calls", sum.oracle_calls as f64),
        ("check.self_s", check_self),
        ("check.schedules", sum.schedules as f64),
        ("check.transitions", sum.transitions as f64),
        ("check.sleep_blocked", sum.sleep_blocked as f64),
        (
            "check.prune_frac",
            ratio(
                sum.sleep_blocked as f64,
                (sum.schedules + sum.sleep_blocked) as f64,
            ),
        ),
        (
            "check.ns_per_transition",
            ratio(check_self * 1e9, sum.transitions as f64),
        ),
        ("trace.overhead", ratio(traced_wall, plain_wall)),
    ];
    for (name, value) in metrics {
        out.set(name, value);
    }
    out
}

/// The pin lines of this workload (`--write-pins`).
pub fn pin_lines() -> Vec<String> {
    let programs = family(0);
    PROTOCOLS
        .iter()
        .map(|name| {
            let mut scratch = Outcome::default();
            let leg = leg(name, &programs, &mut scratch, false);
            assert_eq!(scratch.failed, 0, "{name}: {:?}", scratch.errors);
            pins::check_line(
                &pins::check_key(name, programs.len()),
                leg.schedules,
                leg.transitions,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_totals_pin_fails_the_whole_leg() {
        let programs: Vec<ModelProgram> = family(1).into_iter().take(3).collect();
        let clean = leg("MESI", &programs, &mut Outcome::default(), false);
        let key = pins::check_key("MESI", programs.len());
        let pins = Pins::parse(&pins::check_line(&key, clean.schedules, clean.transitions));
        let mut out = Outcome::default();
        pinned_leg("MESI", &programs, &pins, &mut out, false);
        assert_eq!((out.attempted, out.failed), (3, 0), "{:?}", out.errors);

        let wrong = format!("{} {}", clean.schedules + 1, clean.transitions);
        let mut out = Outcome::default();
        pinned_leg("MESI", &programs, &pins.with(&key, &wrong), &mut out, false);
        assert_eq!((out.attempted, out.failed), (3, 3));
    }

    #[test]
    fn the_seed_orders_the_family_without_changing_it() {
        let sorted = |seed| {
            let mut v: Vec<String> = family(seed).iter().map(|p| format!("{p:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(family(1).len(), 280);
        assert_ne!(format!("{:?}", family(1)), format!("{:?}", family(2)));
        assert_eq!(sorted(1), sorted(2));
    }

    #[test]
    fn both_legs_are_pinned() {
        let pins = Pins::committed();
        for name in PROTOCOLS {
            assert!(pins.has(&pins::check_key(name, 280)), "{name}");
        }
    }
}
