//! Compiling model programs to TVM and reading outcomes back.
//!
//! Any number of threads, any address pool (model location index `i`
//! maps to `pool[i]`), and RMW ops. The conventions are load-bearing
//! for the whole campaign and the litmus suite:
//!
//! - observation slots: every load *and every RMW* records the value it
//!   read into `R1, R2, ...` in program order — [`observed_outcome`]
//!   reads them back in the same order the model's enumerator fills its
//!   `observed` vectors;
//! - warm-up: each pool line is pulled into the cache (`R20..`) before
//!   the timed body so the store-buffer window is exercised rather than
//!   hidden behind cold misses;
//! - scratch: `R25`/`R26` carry store values and RMW operands, `R27+`
//!   stay free for the assembler's own conventions.

use tsocc::System;
use tsocc_coherence::CoreOp;
use tsocc_isa::{Asm, Program, Reg, RmwOp};
use tsocc_mem::Addr;
use tsocc_workloads::tso_model::{ModelOp, ModelProgram};

/// The default campaign address pool: two words sharing line A, one
/// word each on lines B and C — same-line multi-writer interleavings
/// and cross-line races in one pool. (Same layout as the protocol-fuzz
/// pool; the model sees each word as an independent location, which is
/// exactly the architectural contract line granularity must not break.)
pub const DEFAULT_POOL: [u64; 4] = [0x2000, 0x2008, 0x2040, 0x2080];

/// Highest number of observation slots per thread (`R1..=R19`; `R20+`
/// are warm-up/scratch).
pub const MAX_OBSERVATIONS: usize = 19;

/// How many observation slots `ops` fills (loads + RMWs).
pub fn observation_count(ops: &[ModelOp]) -> usize {
    ops.iter().filter(|op| op.observes()).count()
}

/// Compiles one model thread to TVM IR against `pool`. Loads and RMW
/// old-values record into `R1, R2, ...` in program order; a warm-up
/// pulls every pool line into the cache and `jitter` adds a random
/// initial delay so repeated runs explore different timings.
///
/// # Panics
///
/// Panics if an op's location index is out of `pool`'s bounds, if the
/// thread observes more than [`MAX_OBSERVATIONS`] values, or if the
/// pool needs more warm-up registers than `R20..=R24` offers.
pub fn compile_model_thread(ops: &[ModelOp], pool: &[u64], jitter: u32) -> Program {
    assert!(pool.len() <= 5, "warm-up registers are R20..=R24");
    assert!(
        observation_count(ops) <= MAX_OBSERVATIONS,
        "thread observes more values than it has observation registers"
    );
    let mut a = Asm::new();
    for (i, &addr) in pool.iter().enumerate() {
        a.load_abs(Reg::from_index(20 + i), addr);
    }
    if jitter > 0 {
        a.rand_delay(jitter);
    }
    let mut next_obs = 1;
    let mut obs_reg = || {
        let r = Reg::from_index(next_obs);
        next_obs += 1;
        r
    };
    for op in ops {
        match *op {
            ModelOp::Store { addr, value } => {
                a.movi(Reg::R25, value);
                a.store_abs(Reg::R25, pool[addr as usize]);
            }
            ModelOp::Load { addr } => {
                let rd = obs_reg();
                a.load_abs(rd, pool[addr as usize]);
            }
            ModelOp::Fence => {
                a.fence();
            }
            ModelOp::Rmw { addr, rmw } => {
                let rd = obs_reg();
                match rmw {
                    RmwOp::Cas { expected, new } => {
                        a.movi(Reg::R26, expected);
                        a.movi(Reg::R25, new);
                        a.cas_abs(rd, pool[addr as usize], Reg::R26, Reg::R25);
                    }
                    RmwOp::FetchAdd { operand } => {
                        a.movi(Reg::R25, operand);
                        a.fetch_add_abs(rd, pool[addr as usize], Reg::R25);
                    }
                    RmwOp::Swap { operand } => {
                        a.movi(Reg::R25, operand);
                        a.swap_abs(rd, pool[addr as usize], Reg::R25);
                    }
                }
            }
        }
    }
    a.halt();
    a.finish()
}

/// Lowers one model thread to the coherence-layer [`CoreOp`] sequence
/// the model checker's scheduler executes directly — the same
/// pool-indexed address mapping as [`compile_model_thread`], minus the
/// TVM register conventions (the checker's thread shims record
/// observations themselves, so no observation registers are needed).
///
/// # Panics
///
/// Panics if an op's location index is out of `pool`'s bounds.
pub fn core_ops(ops: &[ModelOp], pool: &[u64]) -> Vec<CoreOp> {
    ops.iter()
        .map(|op| match *op {
            ModelOp::Store { addr, value } => CoreOp::Store(Addr::new(pool[addr as usize]), value),
            ModelOp::Load { addr } => CoreOp::Load(Addr::new(pool[addr as usize])),
            ModelOp::Fence => CoreOp::Fence,
            ModelOp::Rmw { addr, rmw } => CoreOp::Rmw(Addr::new(pool[addr as usize]), rmw),
        })
        .collect()
}

/// Compiles every thread of `program` against `pool` with the same
/// `jitter`.
pub fn compile_program(program: &ModelProgram, pool: &[u64], jitter: u32) -> Vec<Program> {
    program
        .iter()
        .map(|ops| compile_model_thread(ops, pool, jitter))
        .collect()
}

/// Reads the outcome a finished system observed, in the model's layout:
/// the first `observed[t]` observation registers `R1, R2, ...` of each
/// thread `t`, thread-major. For a compiled model program, `observed[t]`
/// is thread `t`'s [`observation_count`].
pub fn observed_outcome(sys: &System, observed: &[usize]) -> Vec<u64> {
    let mut outcome = Vec::new();
    for (t, &count) in observed.iter().enumerate() {
        for i in 0..count {
            outcome.push(sys.core(t).thread().reg(Reg::from_index(1 + i)));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_machine;
    use tsocc::FaultPlan;
    use tsocc_protocols::Protocol;
    use tsocc_workloads::tso_model::allowed_outcomes;

    #[test]
    fn observation_counting_includes_rmws() {
        let ops = [
            ModelOp::Store { addr: 0, value: 1 },
            ModelOp::Load { addr: 1 },
            ModelOp::Rmw {
                addr: 0,
                rmw: RmwOp::FetchAdd { operand: 1 },
            },
            ModelOp::Fence,
        ];
        assert_eq!(observation_count(&ops), 2);
    }

    #[test]
    fn compiled_rmw_program_matches_model_on_the_machine() {
        // Two threads fetch-add the same word: the machine must observe
        // exactly one of the model's two outcomes, never [0, 0].
        let fadd = ModelOp::Rmw {
            addr: 0,
            rmw: RmwOp::FetchAdd { operand: 1 },
        };
        let program: ModelProgram = vec![vec![fadd], vec![fadd]];
        let allowed = allowed_outcomes(&program);
        for seed in 0..10u64 {
            let compiled = compile_program(&program, &DEFAULT_POOL, 30);
            let outcome = run_machine(compiled, &[1, 1], Protocol::Mesi, seed, FaultPlan::none())
                .unwrap_or_else(|(e, _)| panic!("{e}"));
            assert!(allowed.contains(&outcome), "{outcome:?} not in {allowed:?}");
        }
    }
}
