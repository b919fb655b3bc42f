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

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, UnwindSafe};

    use tsocc_sim::Cycle;

    /// The message `f` panicked with, or `None` if it returned.
    fn panic_message<T>(f: impl FnOnce() -> T + UnwindSafe) -> Option<String> {
        let payload = catch_unwind(f).err()?;
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| payload.downcast_ref::<String>().cloned())
    }

    /// The dev profile, which `cargo test` builds, runs the simulator
    /// crates at `opt-level = 1` (Cargo.toml) for speed. It must keep
    /// the checks of a debug build, in the tests and in those crates.
    #[test]
    fn the_test_build_keeps_debug_assertions_and_overflow_checks() {
        let here = panic_message(|| debug_assert!(false, "debug assertions are on"));
        assert_eq!(
            here.as_deref(),
            Some("debug assertions are on"),
            "a test build without debug assertions: run the tests in the dev profile"
        );
        let max = std::hint::black_box(u64::MAX);
        let overflow = panic_message(|| max + 1);
        assert_eq!(overflow.as_deref(), Some("attempt to add with overflow"));
        let backwards = panic_message(|| Cycle::new(1).since(Cycle::new(2)));
        assert_eq!(backwards.as_deref(), Some("negative cycle delta"));
        let past_the_end = panic_message(|| Cycle::MAX + 1);
        assert_eq!(
            past_the_end.as_deref(),
            Some("attempt to add with overflow")
        );
    }
}
