#![warn(missing_docs)]

//! The TVM: a tiny threaded register IR in which all simulated programs
//! are written.
//!
//! The paper evaluates TSO-CC by running x86-64 binaries (SPLASH-2,
//! PARSEC, STAMP and diy-generated litmus tests) on gem5 in full-system
//! mode. This reproduction cannot execute x86 binaries, so every workload
//! is instead expressed in a minimal RISC-like IR with *real control
//! flow*: spin loops, CAS retries and data-dependent branches execute
//! functionally through the simulated memory hierarchy. This preserves
//! the property that matters for coherence-protocol evaluation — the
//! memory-access and synchronization behaviour of the program reacts to
//! the values the protocol actually returns (including stale values,
//! which TSO-CC deliberately permits).
//!
//! Key types:
//!
//! - [`Reg`], [`Instr`], [`Program`] — the IR itself,
//! - [`Asm`] — a label-resolving assembler/builder,
//! - [`ThreadState`] + [`Effect`] — the stepping interface used by the
//!   timing CPU model in `tsocc-cpu`,
//! - [`refvm::run_ref`] — a sequential reference interpreter used as a
//!   test oracle.
//!
//! # Examples
//!
//! Spin on a flag, then read data (the consumer of the paper's Figure 1):
//!
//! ```
//! use tsocc_isa::{Asm, Reg};
//!
//! let data = 0x100u64;
//! let flag = 0x140u64;
//! let mut a = Asm::new();
//! let spin = a.new_label();
//! a.bind(spin);
//! a.load_abs(Reg::R1, flag);      // r1 = *flag
//! a.beq_imm(Reg::R1, 0, spin);    // while (flag == 0) retry
//! a.load_abs(Reg::R2, data);      // r2 = *data
//! a.halt();
//! let program = a.finish();
//! assert!(program.len() >= 4);
//! ```

pub mod asm;
pub mod instr;
pub mod program;
pub mod refvm;
pub mod thread;

pub use asm::{Asm, Label};
pub use instr::{AluOp, Cond, Instr, Reg, RmwOp};
pub use program::Program;
pub use thread::{Effect, MemOp, ThreadState};
