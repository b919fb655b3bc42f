//! The simulator's committed host-time benchmark.
//!
//! ```text
//! tsocc-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! tsocc-perfbench --write-pins > perfbench/pins.txt
//! ```
//!
//! Workloads: `fft-128c`, `intruder-32c`, `model-check-2t` (see
//! README.md for why each exists). Every workload runs on this one
//! thread under the default event-driven stepper.
//!
//! `--trace 0` measures whole passes of the workload for `--seconds`
//! and reports the end-to-end metrics; `--trace 1` runs the workload
//! once plainly and once traced, and reports the per-layer metrics.
//! Either way the standard output ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! On a simulator workload `--seed N` picks the `N % k`-th of the `k`
//! base seeds `pins.txt` pins for it; a workload the table pins no
//! seed for fails. On `model-check-2t` the seed orders the family.

mod check;
mod host;
mod pins;
mod report;
mod sim;
mod trace;

use tsocc_workloads::{Benchmark, Scale};

use crate::pins::{Pins, CANDIDATE_SEEDS, DEFAULT_BASE_SEED, PINNED_SEEDS};
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::sim::SimSpec;

/// Fewest whole passes an untraced run measures, however short
/// `--seconds` is.
const MIN_PASSES: usize = 3;

/// The protocols of the simulator workloads: the baseline, the
/// limited-pointer directory, and the paper's realistic TSO-CC.
const SIM_PROTOCOLS: [&str; 3] = ["MESI", "MESI-P4-G4", "TSO-CC-4-12-3"];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug)]
enum Workload {
    Sim(SimSpec),
    ModelCheck,
}

const WORKLOADS: [(&str, Workload); 3] = [
    (
        "fft-128c",
        Workload::Sim(SimSpec {
            bench: Benchmark::Fft,
            cores: 128,
            scale: Scale::Small,
            protocols: SIM_PROTOCOLS,
            seeded: false,
        }),
    ),
    (
        "intruder-32c",
        Workload::Sim(SimSpec {
            bench: Benchmark::Intruder,
            cores: 32,
            scale: Scale::Small,
            protocols: SIM_PROTOCOLS,
            seeded: true,
        }),
    ),
    ("model-check-2t", Workload::ModelCheck),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        write_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-pins" {
            args.write_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsocc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.write_pins {
        write_pins();
        return;
    }
    let Some(&(name, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "tsocc-perfbench: --workload must be one of {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    let pins = Pins::committed();
    let base_seed = match workload {
        Workload::Sim(_) => pins.base_seed(name, args.seed),
        // The seed only orders the family; any seed is covered.
        Workload::ModelCheck => Some(DEFAULT_BASE_SEED.wrapping_add(args.seed)),
    };
    let Some(base_seed) = base_seed else {
        // Nothing this run could measure would be checked.
        let mut outcome = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        outcome.fail(format!("pins.txt pins no base seed for {name}"));
        print_human(&outcome, &[]);
        println!("{}", outcome.result_line(&[]));
        std::process::exit(1);
    };
    let host = host::Host::probe();
    println!(
        "perfbench {name}: seed {} -> base seed {base_seed:#x}, trace {}, {} s",
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("host {}", host.to_json());

    let mut outcome = match (workload, args.trace) {
        (Workload::Sim(spec), false) => {
            sim::measure(&spec, base_seed, args.seconds, MIN_PASSES, &pins)
        }
        (Workload::Sim(spec), true) => sim::trace(&spec, base_seed, &pins),
        (Workload::ModelCheck, false) => check::measure(base_seed, args.seconds, MIN_PASSES, &pins),
        (Workload::ModelCheck, true) => check::trace(base_seed, &pins),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        outcome.set("peak_rss_mb", host::peak_rss_mb());
    }
    print_human(&outcome, table);
    println!("{}", outcome.result_line(table));
}

/// The human-readable report: every metric with its unit, the
/// workload's own figures, the wall-time distribution and the failure
/// fraction.
fn print_human(outcome: &Outcome, table: &[(&str, &str)]) {
    for (name, unit) in table {
        let value = outcome.metrics.get(*name).copied().unwrap_or(0.0);
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for (name, value, unit) in &outcome.extra {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if !outcome.passes.is_empty() {
        let walls: Vec<String> = outcome.passes.iter().map(|w| format!("{w:.3}")).collect();
        println!("  pass walls (s): {}", walls.join(" "));
        let max = outcome.passes.iter().copied().fold(0.0, f64::max);
        match report::tail_percentile(&outcome.passes) {
            Some((p, v)) => println!(
                "  pass wall over {} passes: median {:.6} s, p{p:.0} {v:.6} s",
                outcome.passes.len(),
                report::median(&outcome.passes)
            ),
            None => println!(
                "  pass wall over {} passes: median {:.6} s, max {max:.6} s \
                 (fewer than 11 passes: no percentile has 10 samples above it)",
                outcome.passes.len(),
                report::median(&outcome.passes)
            ),
        }
    }
    println!(
        "  {:<28} {:>16.6} ratio ({} of {} operations)",
        "fail_frac",
        report::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for e in outcome.errors.iter().take(10) {
        println!("  FAILED: {e}");
    }
}

/// Prints the pin table. For each simulator workload whose kernel
/// draws on the seed it surveys the candidate base seeds and pins the
/// [`PINNED_SEEDS`] whose simulated work (cycles, instructions,
/// messages, scheduler pops) lies closest to the candidates' medians:
/// `--seed` then varies the inputs without varying how much work a run
/// measures. Any other workload runs the same at every seed, so it
/// pins the default base seed alone. Slow: it runs every point of
/// every candidate.
fn write_pins() {
    println!("# Pinned inputs and outcomes of the benchmark (regenerate with --write-pins).");
    println!("# seed <workload> <index> <base seed>");
    println!(
        "# point <base seed> <bench> <protocol> <cores> <FNV-1a 64 of the RunStats Debug string>"
    );
    println!("# check <protocol> <programs> <schedules> <transitions>");
    for (name, workload) in WORKLOADS {
        let Workload::Sim(spec) = workload else {
            continue;
        };
        // (base seed, work, pin lines) per candidate.
        let mut survey = Vec::new();
        let candidates = if spec.seeded { CANDIDATE_SEEDS } else { 1 };
        for k in 0..candidates {
            let base_seed = DEFAULT_BASE_SEED + k;
            let mut work = [0.0f64; 4];
            let mut lines = Vec::new();
            for point in spec.points() {
                let (sys, _) =
                    sim::setup(&point, base_seed, point.protocol.into()).expect("valid point");
                let run = sim::run(sys).expect("point completes");
                let s = &run.stats;
                work[0] += s.cycles as f64;
                work[1] += s.instructions as f64;
                work[2] += s.noc.total_messages() as f64;
                work[3] += s.sched.events_popped as f64;
                lines.push(pins::point_line(
                    &sim::key(&point, base_seed),
                    pins::digest(s),
                ));
            }
            eprintln!("{name} {base_seed:#x} work {work:?}");
            survey.push((base_seed, work, lines));
        }
        let medians: Vec<f64> = (0..4)
            .map(|i| report::median(&survey.iter().map(|c| c.1[i]).collect::<Vec<_>>()))
            .collect();
        let distance = |work: &[f64; 4]| {
            work.iter()
                .zip(&medians)
                .map(|(w, m)| (w / m - 1.0).abs())
                .fold(0.0, f64::max)
        };
        survey.sort_by(|a, b| distance(&a.1).total_cmp(&distance(&b.1)));
        survey.truncate(PINNED_SEEDS as usize);
        survey.sort_by_key(|c| c.0);
        eprintln!(
            "{name}: pinned seeds lie within {:.2}% of the median work",
            100.0 * survey.iter().map(|c| distance(&c.1)).fold(0.0, f64::max)
        );
        for (index, (base_seed, _, _)) in survey.iter().enumerate() {
            println!(
                "{}",
                pins::seed_line(&pins::seed_key(name, index as u64), *base_seed)
            );
        }
        for (_, _, lines) in &survey {
            for line in lines {
                println!("{line}");
            }
        }
    }
    for line in check::pin_lines() {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_of_the_table_pins_every_point() {
        let pins = Pins::committed();
        for (name, workload) in WORKLOADS {
            let Workload::Sim(spec) = workload else {
                continue;
            };
            for n in 0..PINNED_SEEDS {
                let base_seed = pins.base_seed(name, n).expect("seed table entry");
                for point in spec.points() {
                    assert!(pins.has(&sim::key(&point, base_seed)), "{name} {n}");
                }
            }
        }
    }
}
