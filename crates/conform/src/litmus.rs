//! TSO litmus tests (the paper's §4.3 verification methodology).
//!
//! The paper generates litmus tests with diy and runs them in gem5 to
//! check that every TSO-CC configuration satisfies TSO; diy takes its
//! verdicts from the x86-TSO model (Sewell et al., CACM 2010). The suite
//! writes its 15 loop-free shapes as [`ModelProgram`]s, lowers them with
//! [`compile_program`] (the campaign's compiler: warm-up loads, then a
//! random initial delay) and judges them by the same model the campaign
//! and the model checker use ([`enumerate`]):
//!
//! - `allowed`: every outcome x86-TSO allows; any other is *forbidden*;
//! - `relaxed`: the outcomes TSO allows and SC forbids. Seeing one is
//!   evidence that the write buffer really reorders.
//!
//! Three shapes spin on a flag, which the model cannot express: they
//! stay in TVM assembly, each with the one outcome it may end in.
//!
//! [`run_litmus`] runs a test many times under randomized timing and
//! counts the forbidden outcomes, which must stay at zero.

use std::collections::{BTreeMap, BTreeSet};

use tsocc::{FaultPlan, HangReport, RunError};
use tsocc_coherence::ProtocolHandle;
use tsocc_isa::{Asm, Program, Reg, RmwOp};
use tsocc_workloads::tso_model::{enumerate, ModelMode, ModelOp, ModelProgram};

use crate::compile::{compile_program, observation_count};
use crate::engine::run_machine;

/// The lines of the model locations x, y and z, in distinct cache sets.
const POOL: [u64; 3] = [0x2000, 0x2040, 0x2100];

/// The largest random initial delay of every thread, in cycles.
const JITTER: u32 = 60;

/// Enumeration bound of [`LitmusTest::model`]; litmus shapes stay far
/// below it.
const MAX_STATES: usize = 2_000_000;

/// A litmus test: one program per thread and the TSO verdict on each
/// outcome.
pub struct LitmusTest {
    /// Test name in the usual litmus nomenclature (SB, MP, ...).
    pub name: &'static str,
    /// One program per thread; observed values land in `R1, R2, ...`.
    pub programs: Vec<Program>,
    /// How many observation registers each thread exposes.
    pub observed: Vec<usize>,
    /// Every outcome TSO allows (observed registers concatenated,
    /// thread-major). Any other outcome is forbidden.
    pub allowed: BTreeSet<Vec<u64>>,
    /// The outcomes TSO allows but SC forbids.
    pub relaxed: BTreeSet<Vec<u64>>,
}

impl LitmusTest {
    /// A loop-free test: `program`, with location `i` at address
    /// `pool[i]`, lowered at the suite's jitter and judged by the
    /// x86-TSO and SC models.
    ///
    /// # Panics
    ///
    /// Panics if enumerating `program` visits more than 2,000,000
    /// states, or on the conditions of [`compile_program`].
    pub fn model(name: &'static str, program: &ModelProgram, pool: &[u64]) -> LitmusTest {
        let outcomes = |mode| {
            enumerate(program, mode, MAX_STATES)
                .expect("litmus programs are small")
                .outcomes
        };
        let allowed = outcomes(ModelMode::Tso);
        let relaxed = allowed
            .difference(&outcomes(ModelMode::Sc))
            .cloned()
            .collect();
        LitmusTest {
            name,
            programs: compile_program(program, pool, JITTER),
            observed: program.iter().map(|ops| observation_count(ops)).collect(),
            allowed,
            relaxed,
        }
    }
}

/// Results of running one litmus test many times.
#[derive(Clone, Debug, Default)]
pub struct LitmusReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Forbidden outcomes observed (must be zero).
    pub forbidden_count: u64,
    /// Whether an outcome TSO allows and SC forbids appeared.
    pub relaxed_seen: bool,
    /// Histogram of outcomes (outcome vector → count).
    pub outcomes: BTreeMap<Vec<u64>, u64>,
}

impl LitmusReport {
    /// Whether the run satisfied TSO.
    pub fn passed(&self) -> bool {
        self.forbidden_count == 0
    }
}

// Model locations.
const X: u8 = 0;
const Y: u8 = 1;
const Z: u8 = 2;
const FENCE: ModelOp = ModelOp::Fence;

fn st(addr: u8, value: u64) -> ModelOp {
    ModelOp::Store { addr, value }
}

fn ld(addr: u8) -> ModelOp {
    ModelOp::Load { addr }
}

fn swap(addr: u8, operand: u64) -> ModelOp {
    ModelOp::Rmw {
        addr,
        rmw: RmwOp::Swap { operand },
    }
}

/// A loop-free shape over x and y.
fn xy(name: &'static str, program: ModelProgram) -> LitmusTest {
    LitmusTest::model(name, &program, &POOL[..2])
}

/// SB (store buffering): `st x; ld y || st y; ld x`. TSO allows the
/// relaxed `[0, 0]` (both stores still buffered) and forbids no outcome
/// an execution can produce.
fn sb() -> LitmusTest {
    xy("SB", vec![vec![st(X, 1), ld(Y)], vec![st(Y, 1), ld(X)]])
}

/// SB+mfences: a fence between store and load forbids `[0, 0]`.
fn sb_fence() -> LitmusTest {
    xy(
        "SB+mfences",
        vec![vec![st(X, 1), FENCE, ld(Y)], vec![st(Y, 1), FENCE, ld(X)]],
    )
}

/// MP (message passing): `st x; st y || ld y; ld x` forbids `[1, 0]`
/// (TSO keeps w→w and r→r).
fn mp() -> LitmusTest {
    xy("MP", vec![vec![st(X, 1), st(Y, 1)], vec![ld(Y), ld(X)]])
}

/// MP+mfences: fences never weaken ordering, so `[1, 0]` stays
/// forbidden.
fn mp_fence() -> LitmusTest {
    xy(
        "MP+mfences",
        vec![vec![st(X, 1), FENCE, st(Y, 1)], vec![ld(Y), FENCE, ld(X)]],
    )
}

/// MP with the data (0x2080) and the flag (0x2088) on one cache line,
/// which stresses the single-line staleness rules: flag 1 with data
/// other than 7 is forbidden.
fn mp_same_line() -> LitmusTest {
    let program = vec![vec![st(X, 7), st(Y, 1)], vec![ld(Y), ld(X)]];
    LitmusTest::model("MP+same-line", &program, &[0x2080, 0x2088])
}

/// LB (load buffering): `ld x; st y || ld y; st x` forbids `[1, 1]`
/// (TSO keeps r→w).
fn lb() -> LitmusTest {
    xy("LB", vec![vec![ld(X), st(Y, 1)], vec![ld(Y), st(X, 1)]])
}

/// S: `st x=2; st y=1 || ld y; st x=1; ld x`. Having seen y = 1, thread
/// 1's store of x is coherence-after x = 2, so `[1, 2]` is forbidden;
/// `[0, 2]` is allowed (x = 2 lands after thread 1's store).
fn s_test() -> LitmusTest {
    xy(
        "S",
        vec![vec![st(X, 2), st(Y, 1)], vec![ld(Y), st(X, 1), ld(X)]],
    )
}

/// R with a fence: `st x; st y=1 || st y=2; mfence; ld x`. The
/// forbidden R outcome needs the final value of y, which no register
/// holds, so TSO forbids no outcome an execution can produce.
fn r_test() -> LitmusTest {
    xy(
        "R+fence",
        vec![vec![st(X, 1), st(Y, 1)], vec![st(Y, 2), FENCE, ld(X)]],
    )
}

/// IRIW (independent reads of independent writes): TSO's single store
/// order forbids the two readers disagreeing, `[1, 0, 1, 0]`.
fn iriw() -> LitmusTest {
    xy(
        "IRIW",
        vec![
            vec![st(X, 1)],
            vec![st(Y, 1)],
            vec![ld(X), ld(Y)],
            vec![ld(Y), ld(X)],
        ],
    )
}

/// WRC (write-to-read causality): thread 1 reads x = 1 and writes y;
/// thread 2 reads y = 1 and must then see x = 1, so `[1, 1, 0]` is
/// forbidden.
fn wrc() -> LitmusTest {
    xy(
        "WRC",
        vec![vec![st(X, 1)], vec![ld(X), st(Y, 1)], vec![ld(Y), ld(X)]],
    )
}

/// CoRR: two reads of x by one thread never go backwards in coherence
/// order while another thread writes 1 then 2: `[1, 0]`, `[2, 0]` and
/// `[2, 1]` are forbidden.
fn corr() -> LitmusTest {
    xy("CoRR", vec![vec![st(X, 1), st(X, 2)], vec![ld(X), ld(X)]])
}

/// CoWR: a thread reads its own latest write (2) or a coherence-later
/// one (3), never the overwritten 1 or the initial 0.
fn cowr() -> LitmusTest {
    xy(
        "CoWR",
        vec![vec![st(X, 1), st(X, 2), ld(X)], vec![st(X, 3)]],
    )
}

/// 2+2W: each thread writes both locations in opposite orders, then
/// reads one it wrote: it sees its own store or a later one, never 0.
fn two_plus_two_w() -> LitmusTest {
    xy(
        "2+2W",
        vec![
            vec![st(X, 1), st(Y, 2), ld(X)],
            vec![st(Y, 1), st(X, 2), ld(Y)],
        ],
    )
}

/// SB across three threads and three lines: TSO allows the relaxed
/// `[0, 0, 0]` and forbids no outcome an execution can produce.
fn sb3() -> LitmusTest {
    let program = vec![
        vec![st(X, 1), ld(Y)],
        vec![st(Y, 1), ld(Z)],
        vec![st(Z, 1), ld(X)],
    ];
    LitmusTest::model("SB3", &program, &POOL)
}

/// SB+rmws: locked swaps act as fences, so two loads that both see 0
/// are forbidden. Each swap's old value is observed too.
fn rmw_sb() -> LitmusTest {
    xy(
        "SB+rmws",
        vec![vec![swap(X, 1), ld(Y)], vec![swap(Y, 1), ld(X)]],
    )
}

// Addresses of the spinning shapes: x, y and a second flag.
const SPIN_X: u64 = POOL[0];
const SPIN_Y: u64 = POOL[1];
const SPIN_F2: u64 = 0x20c0;

fn asm_with_jitter() -> Asm {
    let mut a = Asm::new();
    a.rand_delay(JITTER);
    a
}

/// A spinning shape: the only outcome TSO allows it to end in.
fn spinning(
    name: &'static str,
    threads: Vec<Asm>,
    observed: Vec<usize>,
    outcome: Vec<u64>,
) -> LitmusTest {
    LitmusTest {
        name,
        programs: threads.into_iter().map(Asm::finish).collect(),
        observed,
        allowed: BTreeSet::from([outcome]),
        relaxed: BTreeSet::new(),
    }
}

/// MP where the consumer spins (the paper's Figure 1, including the
/// write-propagation liveness requirement: the spin must terminate).
fn mp_spin() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 7);
    t0.store_abs(Reg::R10, SPIN_X);
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, SPIN_Y);
    t0.halt();
    let mut t1 = asm_with_jitter();
    let spin = t1.new_label();
    t1.bind(spin);
    t1.load_abs(Reg::R1, SPIN_Y);
    t1.beq(Reg::R1, Reg::R0, spin);
    t1.load_abs(Reg::R2, SPIN_X);
    t1.halt();
    spinning("MP+spin (Fig.1)", vec![t0, t1], vec![0, 2], vec![1, 7])
}

/// MP across two communication rounds: the producer publishes
/// `(Y, X) = (1, 1)` and later `(Y, X) = (2, 2)`; the consumer
/// observes round 1, then spins for round 2's flag and re-reads the
/// data line, which must show 2 as well.
///
/// The second round is what distinguishes this from plain `MP+spin`:
/// once the consumer has seen the producer once, a lazy-coherence
/// protocol must *keep* self-invalidating on later acquires. TSO-CC
/// does so via timestamp-reset broadcasts (§3.5); a timestamp source
/// that silently wraps (see `ProtocolFault::SkipTsReset`) makes
/// round-2 stamps look old, the stale round-1 data line survives, and
/// this test catches it — no single-round test can.
fn mp_rounds() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, SPIN_Y);
    t0.store_abs(Reg::R10, SPIN_X);
    t0.delay(200);
    t0.movi(Reg::R10, 2);
    t0.store_abs(Reg::R10, SPIN_Y);
    t0.store_abs(Reg::R10, SPIN_X);
    t0.halt();
    let mut t1 = asm_with_jitter();
    // Round 1: observe both lines (values unconstrained), establishing
    // the consumer's cached copies and per-writer timestamp tracking.
    // The fixed delay biases these reads to land after the producer's
    // round-1 stores, inside its inter-round gap.
    t1.delay(80);
    t1.load_abs(Reg::R11, SPIN_X);
    t1.load_abs(Reg::R12, SPIN_Y);
    // Round 2: spin until the flag shows 2, then read the data line.
    let spin = t1.new_label();
    t1.bind(spin);
    t1.load_abs(Reg::R1, SPIN_X);
    t1.bne_imm(Reg::R1, 2, spin);
    t1.load_abs(Reg::R2, SPIN_Y);
    t1.halt();
    spinning("MP+rounds", vec![t0, t1], vec![0, 2], vec![2, 2])
}

/// ISA2-like chain: t0 writes data then flag1; t1 spins on flag1,
/// writes flag2; t2 spins on flag2 and must then read the data:
/// causality must hold transitively across three threads.
fn isa2_chain() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 9);
    t0.store_abs(Reg::R10, SPIN_X);
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, SPIN_Y);
    t0.halt();
    let mut t1 = asm_with_jitter();
    let spin1 = t1.new_label();
    t1.bind(spin1);
    t1.load_abs(Reg::R1, SPIN_Y);
    t1.beq(Reg::R1, Reg::R0, spin1);
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, SPIN_F2);
    t1.halt();
    let mut t2 = asm_with_jitter();
    let spin2 = t2.new_label();
    t2.bind(spin2);
    t2.load_abs(Reg::R1, SPIN_F2);
    t2.beq(Reg::R1, Reg::R0, spin2);
    t2.load_abs(Reg::R2, SPIN_X);
    t2.halt();
    spinning("ISA2-chain", vec![t0, t1, t2], vec![0, 1, 2], vec![1, 1, 9])
}

/// The full litmus suite.
pub fn litmus_suite() -> Vec<LitmusTest> {
    vec![
        sb(),
        sb_fence(),
        mp(),
        mp_fence(),
        mp_spin(),
        mp_rounds(),
        mp_same_line(),
        lb(),
        s_test(),
        r_test(),
        iriw(),
        wrc(),
        isa2_chain(),
        corr(),
        cowr(),
        two_plus_two_w(),
        sb3(),
        rmw_sb(),
    ]
}

/// Runs `test` `iterations` times under `protocol` with varying timing
/// seeds and `faults` installed; collects outcomes and checks each
/// against the test's TSO verdict.
///
/// # Errors
///
/// The first iteration that fails to terminate (a liveness violation,
/// or a deadlock a fault plan injected on purpose): its run error and
/// the machine's structured diagnosis of what it was waiting on.
pub fn run_litmus(
    test: &LitmusTest,
    protocol: impl Into<ProtocolHandle>,
    iterations: u64,
    seed: u64,
    faults: FaultPlan,
) -> Result<LitmusReport, (RunError, Box<HangReport>)> {
    let protocol = protocol.into();
    let mut report = LitmusReport::default();
    for it in 0..iterations {
        let outcome = run_machine(
            test.programs.clone(),
            &test.observed,
            protocol.clone(),
            seed ^ it.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            faults,
        )
        .map_err(|(e, sys)| (e, Box::new(sys.hang_report())))?;
        report.iterations += 1;
        report.forbidden_count += u64::from(!test.allowed.contains(&outcome));
        report.relaxed_seen |= test.relaxed.contains(&outcome);
        *report.outcomes.entry(outcome).or_insert(0) += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_protocols::Protocol;

    #[test]
    fn suite_has_the_expected_tests() {
        let suite = litmus_suite();
        assert!(suite.len() >= 10);
        let names: Vec<_> = suite.iter().map(|t| t.name).collect();
        assert!(names.contains(&"SB"));
        assert!(names.contains(&"MP"));
        assert!(names.contains(&"IRIW"));
    }

    /// Verdicts that are easy to get wrong by hand: S's `[0, 2]` is
    /// allowed even under SC, and CoRR's reads never go backwards. The
    /// SB shapes relax to exactly their all-zero outcome.
    #[test]
    fn model_verdicts_for_s_corr_and_the_sb_shapes() {
        let suite = litmus_suite();
        let test = |name| suite.iter().find(|t| t.name == name).unwrap();
        let s = test("S");
        assert!(s.allowed.contains(&vec![0, 2]), "SC allows S's [0, 2]");
        assert!(!s.allowed.contains(&vec![1, 2]));
        let corr = test("CoRR");
        for backwards in [[1, 0], [2, 0], [2, 1]] {
            assert!(!corr.allowed.contains(&backwards[..]), "{backwards:?}");
        }
        assert_eq!(test("SB").relaxed, BTreeSet::from([vec![0, 0]]));
        assert_eq!(test("SB3").relaxed, BTreeSet::from([vec![0, 0, 0]]));
    }

    #[test]
    fn mp_passes_on_default_tsocc() {
        let t = mp();
        let report = run_litmus(
            &t,
            Protocol::TsoCc(Default::default()),
            30,
            7,
            FaultPlan::none(),
        )
        .unwrap();
        assert!(report.passed(), "outcomes: {:?}", report.outcomes);
        assert_eq!(report.iterations, 30);
    }

    #[test]
    fn sb_relaxation_is_observable_on_mesi() {
        // The write buffer alone (even under eager MESI) must produce
        // the TSO-allowed 0,0 outcome at least once.
        let t = sb();
        let report = run_litmus(&t, Protocol::Mesi, 40, 3, FaultPlan::none()).unwrap();
        assert!(report.passed());
        assert!(
            report.relaxed_seen,
            "store buffering never observed: {:?}",
            report.outcomes
        );
    }
}
