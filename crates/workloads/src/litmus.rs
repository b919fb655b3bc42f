//! TSO litmus tests (the paper's §4.3 verification methodology).
//!
//! The paper generates litmus tests with diy and runs them in gem5 to
//! check that every TSO-CC configuration satisfies TSO. We implement
//! the standard x86-TSO litmus shapes (Sewell et al., CACM 2010 — the
//! same formalization diy draws from) directly in TVM IR and run each
//! many times under randomized timing perturbation, checking that
//! *forbidden* outcomes never occur and recording which *allowed*
//! outcomes were actually observed (relaxed outcomes appearing is
//! evidence the write buffer really reorders).

use std::collections::BTreeMap;

use tsocc::{FaultPlan, HangReport, RunError, System, SystemConfig};
use tsocc_coherence::ProtocolHandle;
use tsocc_isa::{Asm, Program, Reg};

/// The register each observed value is read from, per thread.
const OBS: [Reg; 4] = [Reg::R1, Reg::R2, Reg::R3, Reg::R4];

/// A litmus test: programs, an outcome extractor, and the TSO verdict
/// for each outcome.
pub struct LitmusTest {
    /// Test name in the usual litmus nomenclature (SB, MP, ...).
    pub name: &'static str,
    /// One program per thread; observed registers are `R1..R4`.
    pub programs: Vec<Program>,
    /// How many registers each thread exposes as its outcome.
    pub observed: Vec<usize>,
    /// Returns `true` if the outcome (concatenated observed registers,
    /// thread-major) is forbidden under TSO.
    pub forbidden: fn(&[u64]) -> bool,
    /// An outcome that TSO *allows* but SC forbids, if the test has
    /// one (used to confirm the relaxation is actually exercised).
    pub relaxed_witness: Option<fn(&[u64]) -> bool>,
}

/// Results of running one litmus test many times.
#[derive(Clone, Debug, Default)]
pub struct LitmusReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Forbidden outcomes observed (must be zero).
    pub forbidden_count: u64,
    /// Whether the TSO-allowed/SC-forbidden witness outcome appeared.
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

// Test addresses: distinct cache lines, away from zero.
const X: u64 = 0x2000;
const Y: u64 = 0x2040;

fn asm_with_jitter() -> Asm {
    let mut a = Asm::new();
    a.rand_delay(60);
    a
}

/// Warm-up prologue: pull both test lines into the local cache before
/// the timed window, so the relaxed window (loads hitting locally while
/// stores drain) is actually exercised — cold caches would hide the
/// store-buffer reordering behind miss latency.
fn asm_warmed() -> Asm {
    let mut a = Asm::new();
    a.load_abs(Reg::R11, X);
    a.load_abs(Reg::R12, Y);
    a.rand_delay(60);
    a
}

/// SB (store buffering): `st x=1; ld y || st y=1; ld x`.
/// `r1=0 ∧ r2=0` is **allowed** under TSO (the write buffer defers the
/// stores) and forbidden under SC — it is the relaxed witness.
fn sb() -> LitmusTest {
    let mut t0 = asm_warmed();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.load_abs(Reg::R1, Y);
    t0.halt();
    let mut t1 = asm_warmed();
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, Y);
    t1.load_abs(Reg::R1, X);
    t1.halt();
    LitmusTest {
        name: "SB",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![1, 1],
        forbidden: |_| false,
        relaxed_witness: Some(|o| o == [0, 0]),
    }
}

/// SB+mfences: with fences between store and load, `0,0` is forbidden.
fn sb_fence() -> LitmusTest {
    let mut t0 = asm_warmed();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.fence();
    t0.load_abs(Reg::R1, Y);
    t0.halt();
    let mut t1 = asm_warmed();
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, Y);
    t1.fence();
    t1.load_abs(Reg::R1, X);
    t1.halt();
    LitmusTest {
        name: "SB+mfences",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![1, 1],
        forbidden: |o| o == [0, 0],
        relaxed_witness: None,
    }
}

/// MP (message passing): `st x=1; st y=1 || ld y; ld x`.
/// `r1=1 ∧ r2=0` forbidden (w→w and r→r are both enforced).
fn mp() -> LitmusTest {
    let mut t0 = asm_warmed();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.store_abs(Reg::R10, Y);
    t0.halt();
    let mut t1 = asm_warmed();
    t1.load_abs(Reg::R1, Y);
    t1.load_abs(Reg::R2, X);
    t1.halt();
    LitmusTest {
        name: "MP",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 2],
        forbidden: |o| o == [1, 0],
        relaxed_witness: None,
    }
}

/// LB (load buffering): `ld x; st y=1 || ld y; st x=1`.
/// `r1=1 ∧ r2=1` forbidden (r→w enforced).
fn lb() -> LitmusTest {
    let mut t0 = asm_warmed();
    t0.load_abs(Reg::R1, X);
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, Y);
    t0.halt();
    let mut t1 = asm_warmed();
    t1.load_abs(Reg::R1, Y);
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, X);
    t1.halt();
    LitmusTest {
        name: "LB",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![1, 1],
        forbidden: |o| o == [1, 1],
        relaxed_witness: None,
    }
}

/// S: `st x=2; st y=1 || ld y; st x=1`. Forbidden: `r1=1 ∧ x=2` — we
/// observe x via a final load on thread 1 after its store (same
/// location, program order, so the load sees at least its own store;
/// seeing 2 afterwards would violate coherence). Simplified check:
/// thread 1 reads x after storing 1; must not read 2 if r1=1 and its
/// own store was last. We check the classic register-only variant:
/// forbidden r1=1 ∧ r2=2 where r2 = ld x after st x=1.
fn s_test() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 2);
    t0.store_abs(Reg::R10, X);
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, Y);
    t0.halt();
    let mut t1 = asm_with_jitter();
    t1.load_abs(Reg::R1, Y);
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, X);
    t1.load_abs(Reg::R2, X);
    t1.halt();
    LitmusTest {
        name: "S",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 2],
        // After storing x=1, thread 1's load of x must see its own
        // store (forwarding/coherence), never the older x=2.
        forbidden: |o| o[1] == 2,
        relaxed_witness: None,
    }
}

/// IRIW (independent reads of independent writes): writers to x and y;
/// two readers must not disagree on the order of the writes (TSO's
/// total store order forbids `1,0,1,0`).
fn iriw() -> LitmusTest {
    let mut w0 = asm_with_jitter();
    w0.movi(Reg::R10, 1);
    w0.store_abs(Reg::R10, X);
    w0.halt();
    let mut w1 = asm_with_jitter();
    w1.movi(Reg::R10, 1);
    w1.store_abs(Reg::R10, Y);
    w1.halt();
    let mut r0 = asm_with_jitter();
    r0.load_abs(Reg::R1, X);
    r0.load_abs(Reg::R2, Y);
    r0.halt();
    let mut r1 = asm_with_jitter();
    r1.load_abs(Reg::R1, Y);
    r1.load_abs(Reg::R2, X);
    r1.halt();
    LitmusTest {
        name: "IRIW",
        programs: vec![w0.finish(), w1.finish(), r0.finish(), r1.finish()],
        observed: vec![0, 0, 2, 2],
        forbidden: |o| o == [1, 0, 1, 0],
        relaxed_witness: None,
    }
}

/// WRC (write-to-read causality): t0 writes x; t1 reads x then writes
/// y; t2 reads y then x. Forbidden: `r1(t1)=1 ∧ r1(t2)=1 ∧ r2(t2)=0`.
fn wrc() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.halt();
    let mut t1 = asm_with_jitter();
    t1.load_abs(Reg::R1, X);
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, Y);
    t1.halt();
    let mut t2 = asm_with_jitter();
    t2.load_abs(Reg::R1, Y);
    t2.load_abs(Reg::R2, X);
    t2.halt();
    LitmusTest {
        name: "WRC",
        programs: vec![t0.finish(), t1.finish(), t2.finish()],
        observed: vec![0, 1, 2],
        forbidden: |o| o == [1, 1, 0],
        relaxed_witness: None,
    }
}

/// CoRR: two reads of the same location by one thread must not go
/// backwards in coherence order while another thread writes 1 then 2.
fn corr() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.movi(Reg::R10, 2);
    t0.store_abs(Reg::R10, X);
    t0.halt();
    let mut t1 = asm_with_jitter();
    t1.load_abs(Reg::R1, X);
    t1.load_abs(Reg::R2, X);
    t1.halt();
    LitmusTest {
        name: "CoRR",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 2],
        forbidden: |o| o[0] == 2 && o[1] == 1, // newer then older
        relaxed_witness: None,
    }
}

/// CoWW+CoWR: a thread's own writes to one location are observed in
/// order by itself.
fn cowr() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.movi(Reg::R10, 2);
    t0.store_abs(Reg::R10, X);
    t0.load_abs(Reg::R1, X);
    t0.halt();
    let mut t1 = asm_with_jitter();
    t1.movi(Reg::R10, 3);
    t1.store_abs(Reg::R10, X);
    t1.halt();
    LitmusTest {
        name: "CoWR",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![1, 0],
        // Thread 0 must read 2 (its own latest) or 3 (t1's write after
        // ours in coherence order); never the overwritten 1 or 0.
        forbidden: |o| o[0] == 1 || o[0] == 0,
        relaxed_witness: None,
    }
}

/// RMW-SB: locked operations act as fences — SB with `xchg` used for
/// the stores forbids the `0,0` outcome.
fn rmw_sb() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 1);
    t0.swap(Reg::R11, Reg::R0, X, Reg::R10);
    t0.load_abs(Reg::R1, Y);
    t0.halt();
    let mut t1 = asm_with_jitter();
    t1.movi(Reg::R10, 1);
    t1.swap(Reg::R11, Reg::R0, Y, Reg::R10);
    t1.load_abs(Reg::R1, X);
    t1.halt();
    LitmusTest {
        name: "SB+rmws",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![1, 1],
        forbidden: |o| o == [0, 0],
        relaxed_witness: None,
    }
}

/// MP with the flag and data on the *same* cache line (stresses the
/// single-line staleness rules).
fn mp_same_line() -> LitmusTest {
    const D: u64 = 0x2080;
    const F: u64 = 0x2088; // same line as D
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 7);
    t0.store_abs(Reg::R10, D);
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, F);
    t0.halt();
    let mut t1 = asm_with_jitter();
    t1.load_abs(Reg::R1, F);
    t1.load_abs(Reg::R2, D);
    t1.halt();
    LitmusTest {
        name: "MP+same-line",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 2],
        forbidden: |o| o[0] == 1 && o[1] != 7,
        relaxed_witness: None,
    }
}

/// MP where the consumer spins (the paper's Figure 1, including the
/// write-propagation liveness requirement: the spin must terminate).
fn mp_spin() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 7);
    t0.store_abs(Reg::R10, X);
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, Y);
    t0.halt();
    let mut t1 = asm_with_jitter();
    let spin = t1.new_label();
    t1.bind(spin);
    t1.load_abs(Reg::R1, Y);
    t1.beq(Reg::R1, Reg::R0, spin);
    t1.load_abs(Reg::R2, X);
    t1.halt();
    LitmusTest {
        name: "MP+spin (Fig.1)",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 2],
        forbidden: |o| o[0] == 1 && o[1] != 7,
        relaxed_witness: None,
    }
}

/// MP across two communication rounds: the producer publishes
/// `(Y, X) = (1, 1)` and later `(Y, X) = (2, 2)`; the consumer
/// observes round 1, then spins for round 2's flag and re-reads the
/// data line. `flag = 2 ∧ data ≠ 2` is forbidden under TSO.
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
    t0.store_abs(Reg::R10, Y);
    t0.store_abs(Reg::R10, X);
    t0.delay(200);
    t0.movi(Reg::R10, 2);
    t0.store_abs(Reg::R10, Y);
    t0.store_abs(Reg::R10, X);
    t0.halt();
    let mut t1 = asm_with_jitter();
    // Round 1: observe both lines (values unconstrained), establishing
    // the consumer's cached copies and per-writer timestamp tracking.
    // The fixed delay biases these reads to land after the producer's
    // round-1 stores, inside its inter-round gap.
    t1.delay(80);
    t1.load_abs(Reg::R11, X);
    t1.load_abs(Reg::R12, Y);
    // Round 2: spin until the flag shows 2, then the data line must
    // show 2 as well.
    let spin = t1.new_label();
    t1.bind(spin);
    t1.load_abs(Reg::R1, X);
    t1.bne_imm(Reg::R1, 2, spin);
    t1.load_abs(Reg::R2, Y);
    t1.halt();
    LitmusTest {
        name: "MP+rounds",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 2],
        forbidden: |o| o[0] == 2 && o[1] != 2,
        relaxed_witness: None,
    }
}

/// 2+2W: two threads each write both locations in opposite orders;
/// each then reads the *other* location. Under TSO the two loads
/// cannot both see the respective first (overwritten) values.
fn two_plus_two_w() -> LitmusTest {
    let mut t0 = asm_warmed();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.movi(Reg::R10, 2);
    t0.store_abs(Reg::R10, Y);
    t0.load_abs(Reg::R1, X);
    t0.halt();
    let mut t1 = asm_warmed();
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, Y);
    t1.movi(Reg::R10, 2);
    t1.store_abs(Reg::R10, X);
    t1.load_abs(Reg::R1, Y);
    t1.halt();
    LitmusTest {
        name: "2+2W",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![1, 1],
        // Each thread reads a location it wrote: it must observe its
        // own store or a coherence-later one, never 0.
        forbidden: |o| o[0] == 0 || o[1] == 0,
        relaxed_witness: None,
    }
}

/// R: `st x=1; st y=1 || st y=2; ld x`. If y's final value shows t1's
/// store lost (t0's y=1 came later) yet t1 read x=0, TSO is violated.
/// Register-only approximation: t1 re-reads y after its load of x.
fn r_test() -> LitmusTest {
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.store_abs(Reg::R10, Y);
    t0.halt();
    let mut t1 = asm_with_jitter();
    t1.movi(Reg::R10, 2);
    t1.store_abs(Reg::R10, Y);
    t1.fence();
    t1.load_abs(Reg::R1, X);
    t1.halt();
    LitmusTest {
        name: "R+fence",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 1],
        // With the fence, t1's load is ordered after its y=2 store; if
        // x reads 0 then t1's store sequence precedes t0's stores in
        // the total store order... which is allowed. Only the
        // coherence-impossible value 2 at x is forbidden.
        forbidden: |o| o[0] == 2,
        relaxed_witness: None,
    }
}

/// MP+fences: fully fenced message passing (forbidden outcome must
/// stay forbidden — fences never weaken ordering).
fn mp_fence() -> LitmusTest {
    let mut t0 = asm_warmed();
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, X);
    t0.fence();
    t0.store_abs(Reg::R10, Y);
    t0.halt();
    let mut t1 = asm_warmed();
    t1.load_abs(Reg::R1, Y);
    t1.fence();
    t1.load_abs(Reg::R2, X);
    t1.halt();
    LitmusTest {
        name: "MP+mfences",
        programs: vec![t0.finish(), t1.finish()],
        observed: vec![0, 2],
        forbidden: |o| o == [1, 0],
        relaxed_witness: None,
    }
}

/// ISA2-like chain: t0 writes data then flag1; t1 spins flag1, writes
/// flag2; t2 spins flag2, reads data. Transitive causality must hold
/// across three threads.
fn isa2_chain() -> LitmusTest {
    const F2: u64 = 0x20c0;
    let mut t0 = asm_with_jitter();
    t0.movi(Reg::R10, 9);
    t0.store_abs(Reg::R10, X);
    t0.movi(Reg::R10, 1);
    t0.store_abs(Reg::R10, Y);
    t0.halt();
    let mut t1 = asm_with_jitter();
    let spin1 = t1.new_label();
    t1.bind(spin1);
    t1.load_abs(Reg::R1, Y);
    t1.beq(Reg::R1, Reg::R0, spin1);
    t1.movi(Reg::R10, 1);
    t1.store_abs(Reg::R10, F2);
    t1.halt();
    let mut t2 = asm_with_jitter();
    let spin2 = t2.new_label();
    t2.bind(spin2);
    t2.load_abs(Reg::R1, F2);
    t2.beq(Reg::R1, Reg::R0, spin2);
    t2.load_abs(Reg::R2, X);
    t2.halt();
    LitmusTest {
        name: "ISA2-chain",
        programs: vec![t0.finish(), t1.finish(), t2.finish()],
        observed: vec![0, 1, 2],
        forbidden: |o| o[2] != 9, // t2 must see the data through the chain
        relaxed_witness: None,
    }
}

/// SB across 3 threads (rotating): pairwise store-buffer windows with a
/// third-party observer; only coherence violations are forbidden.
fn sb3() -> LitmusTest {
    const Z: u64 = 0x2100;
    let mk = |w: u64, r: u64| {
        let mut t = asm_warmed();
        t.movi(Reg::R10, 1);
        t.store_abs(Reg::R10, w);
        t.load_abs(Reg::R1, r);
        t.halt();
        t.finish()
    };
    LitmusTest {
        name: "SB3",
        programs: vec![mk(X, Y), mk(Y, Z), mk(Z, X)],
        observed: vec![1, 1, 1],
        forbidden: |_| false, // all 8 outcomes TSO-allowed
        relaxed_witness: Some(|o| o == [0, 0, 0]),
    }
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
/// seeds and `faults` installed; collects outcomes and checks the TSO
/// verdicts.
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
    let n = test.programs.len();
    for it in 0..iterations {
        let mut cfg = SystemConfig::builder()
            .small()
            .cores(n.max(2))
            .protocol(protocol.clone())
            .build()
            .expect("valid config");
        cfg.seed = seed ^ (it.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        cfg.faults = faults;
        let mut sys = System::new(cfg, test.programs.clone());
        if let Err(e) = sys.run(10_000_000) {
            return Err((e, Box::new(sys.hang_report())));
        }
        let mut outcome = Vec::new();
        for (t, &n_obs) in test.observed.iter().enumerate() {
            for &obs in &OBS[..n_obs] {
                outcome.push(sys.core(t).thread().reg(obs));
            }
        }
        report.iterations += 1;
        if (test.forbidden)(&outcome) {
            report.forbidden_count += 1;
        }
        if let Some(witness) = test.relaxed_witness {
            if witness(&outcome) {
                report.relaxed_seen = true;
            }
        }
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
