//! `tsocc check`: exhaustive model checking — runs the stateless DPOR
//! checker (`tsocc-check`) over the systematic two-thread litmus family
//! for every selected protocol and writes a JSON report.
//!
//! ```text
//! tsocc check [--budget-ms N] [--seed N] [--out PATH]
//!             [--protocol NAME]... [--all-configs]
//!             [--cores N] [--lines 1|2] [--mutations]
//! ```
//!
//! Defaults: 120 s budget, seed 0, 2 cores, a 1-line address pool, the
//! three protocol families (MESI, MESI-P2-G2, TSO-CC-4-basic),
//! `CHECK_report.json`.
//!
//! Two modes:
//!
//! - **Clean check** (default): every two-thread program from the
//!   systematic `{St x, St y, Ld x, Ld y, Fence}` family at two ops per
//!   thread (280 programs) is enumerated to exhaustion per protocol;
//!   any coherence-axiom violation, non-TSO outcome, deadlock, or
//!   livelock fails the run. A reduction probe re-checks the
//!   store-buffering program without DPOR (capped at 200,000
//!   schedules) and reports `check_reduction` — the schedule-count
//!   ratio naive/DPOR, a lower bound when the naive leg hits its cap.
//!   A run whose budget expired skips the probe and reports
//!   `"reduction_probe": null`.
//! - **`--mutations`**: the four-fault mutation leg
//!   ([`tsocc_check::mutation_cases`] placed by `--seed`); every fault
//!   must be caught and shrink to a re-verified minimal reproducer.
//!
//! Each protocol's report carries its explored tree's totals
//! (`schedules`, `transitions`, `sleep_blocked`). The search backtracks
//! by undoing transitions, so it applies each transition it counts
//! once.
//!
//! Exit status: 1 if a clean-mode violation was found, a protocol's
//! search hit its schedule cap (`"complete": false`), a mutation
//! escaped, or the budget expired before the run finished; 2 if
//! `--cores` is below 2, `--lines` is neither 1 nor 2, or the checker
//! rejects the configuration.

use std::time::{Duration, Instant};

use tsocc_bench::cli::Cli;
use tsocc_bench::json;
use tsocc_check::{
    check_model, mutation_cases, pool_for_lines, run_mutation, CheckError, CheckOpts, CheckReport,
};
use tsocc_coherence::FaultPlan;
use tsocc_conform::{litmus_text, op_count};
use tsocc_mesi_coarse::MesiCoarseConfig;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::tso_model::{generate_two_thread_programs, ModelOp, ModelProgram};

pub const ABOUT: &str = "exhaustive stateless DPOR model checking of the coherence protocols";

/// Ops per thread in the systematic family: 280 two-thread programs.
const OPS_PER_THREAD: usize = 2;

/// Schedule cap of the reduction probe's no-DPOR leg.
const NAIVE_CAP: u64 = 200_000;

fn sb() -> ModelProgram {
    let st = |addr, value| ModelOp::Store { addr, value };
    let ld = |addr| ModelOp::Load { addr };
    vec![vec![st(0, 1), ld(1)], vec![st(1, 1), ld(0)]]
}

/// Pads a two-thread program with empty threads up to `cores` so wider
/// configurations exercise their extra (idle) tiles.
fn pad(mut program: ModelProgram, cores: usize) -> ModelProgram {
    while program.len() < cores {
        program.push(Vec::new());
    }
    program
}

/// A configuration the checker rejects (past the protocol's core
/// limit, or an oracle state space or a frame too large): exits 2 with
/// the reason.
fn rejected(protocol: &Protocol, e: CheckError) -> ! {
    eprintln!("tsocc check: {}: {e}", protocol.name());
    std::process::exit(2)
}

struct ProtocolResult {
    name: String,
    programs_total: usize,
    programs_checked: usize,
    report: CheckReport,
    violation_programs: Vec<(ModelProgram, &'static str)>,
    budget_exhausted: bool,
}

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc check", ABOUT)
        .campaign_flags()
        .protocol_flags()
        .opt("--cores", "N", "core count (threads beyond 2 stay idle)")
        .opt("--lines", "1|2", "cache lines in the address pool")
        .switch("--mutations", "run the protocol-fault mutation leg instead")
        .parse(args);

    let budget = Duration::from_millis(args.u64("--budget-ms").unwrap_or(120_000));
    let seed = args.u64("--seed").unwrap_or(0);
    let cores = args.usize("--cores").unwrap_or(2);
    if cores < 2 {
        args.fail(format!(
            "--cores {cores}: the two-thread litmus family needs at least 2 cores"
        ));
    }
    let lines = args.usize("--lines").unwrap_or(1);
    if !(1..=2).contains(&lines) {
        args.fail(format!(
            "--lines {lines}: the address pool spans 1 or 2 lines"
        ));
    }
    let protocols = args.protocols(vec![
        Protocol::Mesi,
        Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)),
        Protocol::TsoCc(TsoCcConfig::basic()),
    ]);
    let out = args
        .str("--out")
        .unwrap_or(if args.present("--mutations") {
            "CHECK_mutations.json"
        } else {
            "CHECK_report.json"
        })
        .to_string();

    let start = Instant::now();
    if args.present("--mutations") {
        run_mutation_mode(cores, lines, seed, budget, start, &out);
        return;
    }

    let opts = CheckOpts::default();
    let pool = pool_for_lines(lines);
    let family = generate_two_thread_programs(OPS_PER_THREAD);
    let mut results: Vec<ProtocolResult> = Vec::new();
    for protocol in &protocols {
        let mut totals = CheckReport {
            complete: true,
            ..CheckReport::default()
        };
        let mut checked = 0usize;
        let mut violation_programs = Vec::new();
        let mut budget_exhausted = false;
        for program in &family {
            if start.elapsed() >= budget {
                budget_exhausted = true;
                break;
            }
            let program = pad(program.clone(), cores);
            let report = check_model(protocol, FaultPlan::none(), &program, &pool, &opts)
                .unwrap_or_else(|e| rejected(protocol, e));
            checked += 1;
            totals.schedules += report.schedules;
            totals.transitions += report.transitions;
            totals.sleep_blocked += report.sleep_blocked;
            totals.complete &= report.complete;
            for v in &report.violations {
                violation_programs.push((program.clone(), v.kind.tag()));
            }
            totals.violations.extend(report.violations);
        }
        eprintln!(
            "{}: {}/{} programs, {} schedules, {} violation(s){}",
            protocol.name(),
            checked,
            family.len(),
            totals.schedules,
            totals.violations.len(),
            if budget_exhausted {
                " [budget expired]"
            } else {
                ""
            },
        );
        results.push(ProtocolResult {
            name: protocol.name(),
            programs_total: family.len(),
            programs_checked: checked,
            report: totals,
            violation_programs,
            budget_exhausted,
        });
    }

    // The reduction probe: same program, DPOR on vs off. Run on the
    // first protocol only — the ratio is a property of the explorer,
    // not of the policy under test. A run whose budget expired has
    // already failed, so it spends no more time on the probe.
    let probe = if results.iter().any(|r| r.budget_exhausted) {
        eprintln!("budget expired: the reduction probe was skipped");
        "null".to_string()
    } else {
        reduction_probe(&protocols[0], cores, &pool, &opts)
    };
    let protocol_docs = results.iter().map(|r| {
        let violations = r.violation_programs.iter().map(|(program, kind)| {
            json::Object::new()
                .str("kind", kind)
                .str("litmus", &litmus_text(program))
                .build()
        });
        json::Object::new()
            .str("protocol", &r.name)
            .u64("programs_total", r.programs_total as u64)
            .u64("programs_checked", r.programs_checked as u64)
            .u64("schedules", r.report.schedules)
            .u64("transitions", r.report.transitions)
            .u64("sleep_blocked", r.report.sleep_blocked)
            .u64("violations_total", r.report.violations.len() as u64)
            .raw("violations", json::array(violations))
            .raw("complete", bool_json(r.report.complete))
            .raw("budget_exhausted", bool_json(r.budget_exhausted))
            .build()
    });
    let all_clean = results.iter().all(|r| clean(&r.report, r.budget_exhausted));
    let doc = json::Object::new()
        .str("schema", "tsocc-model-check/v1")
        .u64("seed", seed)
        .u64("budget_ms", budget.as_millis() as u64)
        .u64("cores", cores as u64)
        .u64("lines", lines as u64)
        .u64("ops_per_thread", OPS_PER_THREAD as u64)
        .raw("pool", json::array(pool.iter().map(u64::to_string)))
        .raw("protocols", json::array(protocol_docs))
        .raw("reduction_probe", probe)
        .raw("all_clean", bool_json(all_clean))
        .f64("elapsed_seconds", start.elapsed().as_secs_f64())
        .build();
    std::fs::write(&out, doc + "\n").expect("write model-check report");
    eprintln!("wrote {out}");
    if !all_clean {
        std::process::exit(1);
    }
}

/// The clean-mode verdict on one protocol's summed report: no
/// violation, every program's search ran to exhaustion (none hit its
/// schedule cap), and the budget did not expire.
fn clean(report: &CheckReport, budget_exhausted: bool) -> bool {
    report.violations.is_empty() && report.complete && !budget_exhausted
}

/// Checks the store-buffering program on `protocol` with and without
/// DPOR (the naive leg capped at [`NAIVE_CAP`] schedules), reports the
/// schedule counts on stderr and returns the report's
/// `reduction_probe` object.
fn reduction_probe(protocol: &Protocol, cores: usize, pool: &[u64], opts: &CheckOpts) -> String {
    let probe_program = pad(sb(), cores);
    let dpor = check_model(protocol, FaultPlan::none(), &probe_program, pool, opts)
        .unwrap_or_else(|e| rejected(protocol, e));
    let naive = check_model(
        protocol,
        FaultPlan::none(),
        &probe_program,
        pool,
        &CheckOpts {
            naive: true,
            max_schedules: NAIVE_CAP,
            ..CheckOpts::default()
        },
    )
    .unwrap_or_else(|e| rejected(protocol, e));
    let check_reduction = dpor.reduction(&naive);
    eprintln!(
        "reduction probe: DPOR {} vs naive {}{} schedules — {check_reduction:.1}x",
        dpor.schedules,
        naive.schedules,
        if naive.complete { "" } else { " (capped)" },
    );
    json::Object::new()
        .str("program", "SB")
        .u64("dpor_schedules", dpor.schedules)
        .u64("naive_schedules", naive.schedules)
        .raw("naive_complete", bool_json(naive.complete))
        .f64("check_reduction", check_reduction)
        .build()
}

fn run_mutation_mode(
    cores: usize,
    lines: usize,
    seed: u64,
    budget: Duration,
    start: Instant,
    out: &str,
) {
    // The per-case cap bounds the shrinker's exhaustive re-checks of
    // clean candidate programs; every fault itself surfaces within
    // ~1k schedules.
    let opts = CheckOpts {
        max_schedules: 20_000,
        ..CheckOpts::default()
    };
    let cases = mutation_cases(cores, lines, seed);
    let total = cases.len();
    let mut legs = Vec::new();
    let mut caught = 0usize;
    let mut budget_exhausted = false;
    for case in &cases {
        if start.elapsed() >= budget {
            budget_exhausted = true;
            break;
        }
        let outcome = run_mutation(case, &opts).unwrap_or_else(|e| rejected(&case.protocol, e));
        let ok = outcome.caught && outcome.shrunk_verified;
        caught += ok as usize;
        eprintln!(
            "[{}] {} on {}: {} ({} schedules, shrunk {} -> {} ops)",
            if ok { "ok" } else { "FAIL" },
            outcome.name,
            case.protocol.name(),
            outcome.violation.unwrap_or("escaped"),
            outcome.schedules,
            op_count(&case.program),
            op_count(&outcome.shrunk),
        );
        legs.push(
            json::Object::new()
                .str("name", outcome.name)
                .str("protocol", &case.protocol.name())
                .raw("caught", bool_json(outcome.caught))
                .str("violation", outcome.violation.unwrap_or(""))
                .u64("schedules", outcome.schedules)
                .u64("original_ops", op_count(&case.program) as u64)
                .u64("shrunk_ops", op_count(&outcome.shrunk) as u64)
                .str("shrunk_litmus", &litmus_text(&outcome.shrunk))
                .raw("shrunk_verified", bool_json(outcome.shrunk_verified))
                .build(),
        );
    }
    let all_caught = caught == total && !budget_exhausted;
    let doc = json::Object::new()
        .str("schema", "tsocc-model-check-mutations/v1")
        .u64("seed", seed)
        .u64("cores", cores as u64)
        .u64("lines", lines as u64)
        .u64("mutations", total as u64)
        .u64("mutations_caught", caught as u64)
        .raw("budget_exhausted", bool_json(budget_exhausted))
        .raw("all_caught", bool_json(all_caught))
        .raw("legs", json::array(legs))
        .f64("elapsed_seconds", start.elapsed().as_secs_f64())
        .build();
    std::fs::write(out, doc + "\n").expect("write mutation report");
    eprintln!(
        "mutation leg: {caught}/{total} caught and verified; wrote {out} in {:.2}s",
        start.elapsed().as_secs_f64()
    );
    if !all_caught {
        std::process::exit(1);
    }
}

fn bool_json(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_search_cut_off_at_its_schedule_cap_fails_the_run() {
        let finished = CheckReport {
            complete: true,
            ..CheckReport::default()
        };
        assert!(clean(&finished, false));
        assert!(!clean(&finished, true), "an expired budget fails");
        // The program's tree was cut off at the cap: no violation, but
        // not a proof either.
        let capped = check_model(
            &Protocol::Mesi,
            FaultPlan::none(),
            &sb(),
            &pool_for_lines(1),
            &CheckOpts {
                max_schedules: 10,
                ..CheckOpts::default()
            },
        )
        .unwrap();
        assert!(capped.violations.is_empty() && !capped.complete);
        assert!(!clean(&capped, false));
    }
}
