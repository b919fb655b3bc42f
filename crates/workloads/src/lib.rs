//! Workloads for the TSO-CC evaluation: the paper's Table 3 benchmark
//! suite (reproduced as synthetic kernels), a synchronization library, a
//! NOrec-style software transactional memory, and the diy-style litmus
//! suite used for §4.3's verification.
//!
//! Every workload is expressed in TVM IR and executes *functionally*
//! through the simulated memory hierarchy: spin loops really spin on
//! cached flags, CAS retries really retry, and stale reads (which
//! TSO-CC deliberately permits) really return stale values.
//!
//! Substitution note: the paper runs the real
//! SPLASH-2/PARSEC/STAMP binaries in gem5 full-system mode. Each kernel
//! here reproduces the *sharing pattern* the paper reports for its
//! benchmark — private-compute ratio, shared read-only footprint,
//! producer-consumer/migratory/false sharing, lock vs. transactional
//! synchronization — at a parameterized scale.
//!
//! # Examples
//!
//! ```
//! use tsocc::SystemConfig;
//! use tsocc_protocols::Protocol;
//! use tsocc_workloads::{Benchmark, Scale, run_workload};
//!
//! let w = Benchmark::Fft.build(4, Scale::Tiny, 7);
//! let cfg = SystemConfig::builder()
//!     .small()
//!     .cores(4)
//!     .protocol(Protocol::Mesi)
//!     .build()
//!     .expect("valid config");
//! let stats = run_workload(&w, cfg).unwrap();
//! assert!(stats.cycles > 0);
//! ```

pub mod kernels;
pub mod layout;
pub mod litmus;
pub mod runner;
pub mod stm;
pub mod sync;
pub mod tso_model;

pub use kernels::{Benchmark, Scale, Workload};
pub use litmus::{litmus_suite, run_litmus, LitmusReport, LitmusTest};
pub use runner::run_workload;
