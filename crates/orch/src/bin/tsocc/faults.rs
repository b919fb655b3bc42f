//! `tsocc faults`: mutation testing for the verification stack —
//! injects every protocol-layer fault the simulator supports and
//! demands that the existing oracles — litmus forbidden outcomes and
//! the deadlock/liveness detector — catch **all** of them. A mutation
//! that slips through means the test suite has a blind spot, and the
//! campaign fails the build.
//!
//! ```text
//! tsocc faults [--budget-ms N] [--seed N] [--iters N] [--out PATH]
//! ```
//!
//! Defaults: no time budget, seed 7, 8 iterations per (mutation,
//! litmus test), `FAULT_campaign.json`.
//!
//! The matrix has two kinds of legs:
//!
//! - **Mutations** (expected *detected*): each
//!   [`ProtocolFault`] paired with every protocol whose policy has the
//!   faulted seam. Most legs walk the litmus suite until an oracle
//!   flags the mutation; hung runs attach the structured
//!   [`tsocc::HangReport`] to the JSON artifact. Mutations that need
//!   long access histories to surface (a silently wrapped timestamp
//!   source only bites on the *second* communication round) run under
//!   the conformance campaign instead, which checks random programs
//!   against the enumerated TSO model.
//! - **Benign plans** (expected *clean*): deterministic NoC jitter,
//!   which adds latency but must never change correctness — any
//!   oracle hit here is a real simulator bug.
//!
//! Exit status: nonzero unless every mutation was detected AND every
//! benign leg stayed clean.

use std::time::{Duration, Instant};

use tsocc::{FaultPlan, NocFault, ProtocolFault};
use tsocc_bench::cli::Cli;
use tsocc_bench::hang::hang_report_json;
use tsocc_bench::json;
use tsocc_conform::{run_campaign, CampaignOpts, GenConfig};
use tsocc_mem::LineAddr;
use tsocc_mesi_coarse::MesiCoarseConfig;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::litmus::{litmus_suite, run_litmus_faulted, FaultVerdict};

pub const ABOUT: &str = "mutation testing of the verification oracles via injected protocol faults";

/// Which detector a leg runs its fault plan under.
enum Oracle {
    /// Walk the litmus suite until a forbidden outcome or hang.
    Litmus,
    /// Conformance campaign: `programs` random programs checked
    /// against the enumerated TSO model (plus its own hang detection).
    Conform { programs: usize },
}

/// One campaign leg: a fault plan, the protocol it targets, and
/// whether the oracles are expected to flag it.
struct Leg {
    name: &'static str,
    protocol: Protocol,
    plan: FaultPlan,
    oracle: Oracle,
    expect_detected: bool,
}

/// The litmus data line `X = 0x2000` (64-byte lines).
const LINE_X: LineAddr = LineAddr::new(0x80);

fn matrix(seed: u64) -> Vec<Leg> {
    let plan = |protocol: Option<ProtocolFault>, noc: Option<NocFault>| FaultPlan {
        seed,
        noc,
        protocol,
    };
    // A 1-bit timestamp source wraps on every write, so the faulted
    // core hits the (skipped) reset path constantly; max-accesses of 2
    // forces re-fetches through the acquire check every other read,
    // where the skipped self-invalidation becomes an observable stale
    // read. Wider configs hide the mutation behind cache hits.
    let tsocc_tiny_ts = Protocol::TsoCc(TsoCcConfig {
        max_acc: 2,
        ..TsoCcConfig::realistic(1, 0)
    });
    vec![
        // Dropped invalidation ack: the writer's miss never completes.
        Leg {
            name: "drop-inv-ack",
            protocol: Protocol::Mesi,
            plan: plan(Some(ProtocolFault::DropInvAck { core: 1 }), None),
            oracle: Oracle::Litmus,
            expect_detected: true,
        },
        // Corrupted sharer set: one L1 keeps a stale copy of the data
        // line. Exercised on both the full-vector and the
        // coarse-vector directory (the fan-out seam is shared).
        Leg {
            name: "corrupt-sharers",
            protocol: Protocol::Mesi,
            plan: plan(Some(ProtocolFault::CorruptSharers { tile: 0 }), None),
            oracle: Oracle::Litmus,
            expect_detected: true,
        },
        Leg {
            name: "corrupt-sharers-coarse",
            protocol: Protocol::MesiCoarse(MesiCoarseConfig::new(2, 2)),
            plan: plan(Some(ProtocolFault::CorruptSharers { tile: 0 }), None),
            oracle: Oracle::Litmus,
            expect_detected: true,
        },
        // The same corruption under the conformance oracle: random
        // programs checked against the enumerated TSO model, proving
        // the campaign's second detector also has teeth.
        Leg {
            name: "corrupt-sharers-conform",
            protocol: Protocol::Mesi,
            plan: plan(Some(ProtocolFault::CorruptSharers { tile: 0 }), None),
            oracle: Oracle::Conform { programs: 60 },
            expect_detected: true,
        },
        // Silently wrapped timestamp source: acquire checks in remote
        // L1s stop self-invalidating, so stale reads survive past the
        // point TSO allows. Only the two-round `MP+rounds` litmus test
        // can see it — this leg is why that test exists.
        Leg {
            name: "skip-ts-reset",
            protocol: tsocc_tiny_ts,
            plan: plan(Some(ProtocolFault::SkipTsReset { core: 0 }), None),
            oracle: Oracle::Litmus,
            expect_detected: true,
        },
        // Held MSHR: the hand-crafted deadlock, on both protocols.
        Leg {
            name: "hold-mshr",
            protocol: Protocol::Mesi,
            plan: plan(
                Some(ProtocolFault::HoldMshr {
                    core: 0,
                    line: LINE_X,
                }),
                None,
            ),
            oracle: Oracle::Litmus,
            expect_detected: true,
        },
        Leg {
            name: "hold-mshr-tsocc",
            protocol: Protocol::TsoCc(TsoCcConfig::default()),
            plan: plan(
                Some(ProtocolFault::HoldMshr {
                    core: 0,
                    line: LINE_X,
                }),
                None,
            ),
            oracle: Oracle::Litmus,
            expect_detected: true,
        },
        // Benign NoC jitter: latency changes, correctness must not.
        Leg {
            name: "noc-jitter-benign",
            protocol: Protocol::Mesi,
            plan: plan(
                None,
                Some(NocFault {
                    extra_delay_max: 7,
                    vnet: None,
                }),
            ),
            oracle: Oracle::Litmus,
            expect_detected: false,
        },
        Leg {
            name: "noc-jitter-benign-tsocc",
            protocol: Protocol::TsoCc(TsoCcConfig::default()),
            plan: plan(
                None,
                Some(NocFault {
                    extra_delay_max: 7,
                    vnet: None,
                }),
            ),
            oracle: Oracle::Litmus,
            expect_detected: false,
        },
    ]
}

struct LegResult {
    name: &'static str,
    protocol: String,
    expect_detected: bool,
    detected: bool,
    oracle: &'static str,
    test: String,
    tests_run: usize,
    detail: String,
    hang_json: Option<String>,
    ok: bool,
}

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc faults", ABOUT)
        .campaign_flags()
        .opt("--iters", "N", "iterations per (mutation, litmus test)")
        .parse(args);
    let budget = args
        .u64("--budget-ms")
        .map_or(Duration::MAX, Duration::from_millis);
    let seed = args.u64("--seed").unwrap_or(7);
    let iters = args.u64("--iters").unwrap_or(8);
    let out = args
        .str("--out")
        .unwrap_or("FAULT_campaign.json")
        .to_string();

    let start = Instant::now();
    let suite = litmus_suite();
    let mut results: Vec<LegResult> = Vec::new();
    for leg in matrix(seed) {
        let mut detected = false;
        let mut oracle = "none";
        let mut test_name = String::new();
        let mut detail = String::new();
        let mut hang_json = None;
        let mut tests_run = 0usize;
        match leg.oracle {
            Oracle::Litmus => {
                for test in &suite {
                    // The budget trims how far each leg walks the
                    // suite, never below one test — a leg with zero
                    // evidence would be meaningless.
                    if tests_run > 0 && start.elapsed() >= budget {
                        break;
                    }
                    tests_run += 1;
                    match run_litmus_faulted(test, leg.protocol, iters, seed, leg.plan) {
                        FaultVerdict::Clean => {}
                        FaultVerdict::Forbidden { count, iterations } => {
                            detected = true;
                            oracle = "forbidden-outcome";
                            test_name = test.name.to_string();
                            detail = format!("{count}/{iterations} iterations forbidden");
                            break;
                        }
                        FaultVerdict::Hung { error, report } => {
                            detected = true;
                            oracle = "hang-detector";
                            test_name = test.name.to_string();
                            detail = report.summary();
                            hang_json = Some(hang_report_json(&report));
                            if !error.is_empty() {
                                detail = format!("{error}; {detail}");
                            }
                            break;
                        }
                    }
                }
            }
            Oracle::Conform { programs } => {
                // Longer programs than the conformance default so a
                // faulted core accumulates enough timestamped accesses
                // for the mutation to matter within one program.
                let opts = CampaignOpts {
                    seed,
                    budget: budget
                        .checked_sub(start.elapsed())
                        .unwrap_or(Duration::ZERO),
                    min_programs: programs.min(8),
                    max_programs: programs,
                    protocols: vec![leg.protocol],
                    gen: GenConfig {
                        threads: 2,
                        min_ops: 4,
                        max_ops: 8,
                        ..GenConfig::default()
                    },
                    max_violations: 1,
                    faults: leg.plan,
                    ..CampaignOpts::default()
                };
                let report = run_campaign(&opts);
                tests_run = report.programs_checked;
                if report.violations_total > 0 {
                    detected = true;
                    oracle = "conformance-model";
                    if let Some(v) = report.violations.first() {
                        test_name = format!("program #{}", v.program_index);
                        detail = v
                            .error
                            .clone()
                            .unwrap_or_else(|| "simulator outcome outside TSO model".to_string());
                    }
                } else {
                    detail = report.summary();
                }
            }
        }
        let ok = detected == leg.expect_detected;
        eprintln!(
            "[{}] {} on {}: {} ({} test(s), oracle {})",
            if ok { "ok" } else { "FAIL" },
            leg.name,
            leg.protocol.name(),
            if detected { "detected" } else { "clean" },
            tests_run,
            oracle,
        );
        results.push(LegResult {
            name: leg.name,
            protocol: leg.protocol.name(),
            expect_detected: leg.expect_detected,
            detected,
            oracle,
            test: test_name,
            tests_run,
            detail,
            hang_json,
            ok,
        });
    }

    let mutations = results.iter().filter(|r| r.expect_detected).count();
    let caught = results
        .iter()
        .filter(|r| r.expect_detected && r.detected)
        .count();
    let all_ok = results.iter().all(|r| r.ok);
    let legs = results.iter().map(|r| {
        let o = json::Object::new()
            .str("name", r.name)
            .str("protocol", &r.protocol)
            .raw(
                "expect_detected",
                if r.expect_detected { "true" } else { "false" },
            )
            .raw("detected", if r.detected { "true" } else { "false" })
            .str("oracle", r.oracle)
            .str("test", &r.test)
            .u64("tests_run", r.tests_run as u64)
            .str("detail", &r.detail)
            .raw("ok", if r.ok { "true" } else { "false" });
        match &r.hang_json {
            Some(h) => o.raw("hang_report", h.clone()),
            None => o.raw("hang_report", "null"),
        }
        .build()
    });
    let doc = json::Object::new()
        .str("schema", "tsocc-fault-campaign/v1")
        .u64("seed", seed)
        .u64("iters_per_test", iters)
        .u64("mutations", mutations as u64)
        .u64("mutations_detected", caught as u64)
        .raw("all_ok", if all_ok { "true" } else { "false" })
        .raw("legs", json::array(legs))
        .f64("elapsed_seconds", start.elapsed().as_secs_f64())
        .build();
    std::fs::write(&out, doc + "\n").expect("write fault campaign report");
    eprintln!(
        "fault campaign: {caught}/{mutations} mutations detected; wrote {out} in {:.2}s",
        start.elapsed().as_secs_f64()
    );
    if !all_ok {
        std::process::exit(1);
    }
}
