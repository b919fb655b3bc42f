#![warn(missing_docs)]

//! Umbrella crate (`tsocc-repro`) for the TSO-CC reproduction
//! workspace.
//!
//! This crate exists to host the repository-level `examples/` and
//! `tests/` directories; it re-exports the public API of every
//! workspace crate so examples and integration tests can reach the
//! whole system through one dependency.
//!
//! Start with [`tsocc`] (system assembly and configuration),
//! [`tsocc_protocols`] (the protocol registry handed to
//! [`tsocc::SystemConfig`]) and [`tsocc_workloads`] (benchmarks and
//! litmus tests). The evaluation harness, including the parallel sweep
//! engine, lives in [`tsocc_bench`]; the conformance campaign engine
//! (N-thread litmus generation, model-oracle checking, counterexample
//! shrinking) lives in [`tsocc_conform`]. The `tsocc-orch` package
//! builds `tsocc`, the one command-line entry point
//! (`cargo run --release -p tsocc-orch --bin tsocc -- --help`); it is
//! a binary only, so nothing here re-exports it.

pub use tsocc;
pub use tsocc_bench;
pub use tsocc_coherence;
pub use tsocc_conform;
pub use tsocc_cpu;
pub use tsocc_isa;
pub use tsocc_mem;
pub use tsocc_mesi;
pub use tsocc_mesi_coarse;
pub use tsocc_noc;
pub use tsocc_proto;
pub use tsocc_protocols;
pub use tsocc_sim;
pub use tsocc_workloads;
