#![warn(missing_docs)]

//! The conformance campaign engine — the repository's growth of the
//! paper's §4.3 verification story from a fixed two-thread litmus
//! family to an open-ended, randomized, N-thread campaign.
//!
//! A *campaign* generates seeded random programs (stores with distinct
//! values, loads, fences, and CAS/FADD/SWAP RMWs over a small address
//! pool that includes two words of the same cache line), computes each
//! program's exact allowed-outcome set with the operational TSO
//! reference model ([`tsocc_workloads::tso_model`]), then executes the
//! program on the full simulator — every protocol under test, several
//! randomized timings each — and checks every observed outcome against
//! the model. A violating program is *shrunk* (op deletion, thread
//! removal, value canonicalization) to a minimal reproducer that is
//! printed as a ready-to-paste litmus test.
//!
//! Modules:
//!
//! - [`compile`] — model-program → TVM compilation and outcome
//!   extraction;
//! - [`litmus`] — the named litmus suite of the paper's §4.3, its
//!   loop-free shapes written as model programs and judged by the same
//!   model, and [`run_litmus`], which runs a test many times (the
//!   systematic sweep in `tests/systematic_litmus.rs` runs through it
//!   too);
//! - [`version`] — the writer/sequence value encoding shared with
//!   `tests/protocol_fuzz.rs`;
//! - [`gen`] — the seeded program generator;
//! - [`mod@shrink`] — the counterexample shrinker;
//! - [`engine`] — the multi-threaded campaign driver and its report.
//!
//! `tsocc conform` (the `tsocc` binary lives in `tsocc-orch`) wraps
//! [`engine`] with CLI flags and a JSON report; CI runs a budgeted
//! smoke on every PR and a long nightly campaign.

pub mod compile;
pub mod engine;
pub mod gen;
pub mod litmus;
pub mod shrink;
pub mod version;

pub use compile::{
    compile_model_thread, compile_program, core_ops, observation_count, observed_outcome,
    DEFAULT_POOL, MAX_OBSERVATIONS,
};
pub use engine::{litmus_text, run_campaign, CampaignOpts, CampaignReport, Violation};
pub use gen::{generate_program, GenConfig};
pub use litmus::{litmus_suite, run_litmus, LitmusReport, LitmusTest};
pub use shrink::{op_count, shrink};
