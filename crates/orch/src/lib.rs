//! Campaign orchestrator: a content-addressed result cache and a
//! cache-aware job executor over the simulator's sweep, conformance,
//! and model-checking campaigns — plus the `tsocc` binary, the
//! repository's one command-line entry point.
//!
//! Most campaign work between two commits is *unchanged* work: the same
//! sweep point under the same machine description produces the same
//! simulated metrics. This crate treats a simulation result as a
//! persistent, cheaply re-servable artifact instead:
//!
//! - [`jobs::JobSpec`] pins a unit of work's **canonical identity** —
//!   the resolved machine description, workload, scale, and derived
//!   seed, rendered as a stable string.
//! - [`cache::ResultCache`] stores one immutable JSON record per
//!   result, addressed by a 128-bit hash of that identity plus the
//!   [`fingerprint::code_fingerprint`] of every simulated-metric-
//!   affecting crate. Changed code misses; unchanged jobs are served
//!   (after byte-level validation) without re-simulating.
//! - [`executor::execute`] looks every job up, computes the misses on
//!   the shared-counter worker pool ([`tsocc_bench::sweep::fan_out`]),
//!   and stores the clean results. Results are keyed by job index and
//!   all seeds by job identity, so any worker count produces identical
//!   rows.
//! - [`manifest`] expands a declarative `tsocc-campaign-manifest/v1`
//!   document (sweep points, conformance program chunks, model-check
//!   families) into jobs.
//!
//! The `tsocc` binary (`src/bin/tsocc`, one module per subcommand)
//! fronts the cache with `tsocc sweep`, `tsocc campaign` and
//! `tsocc status`, and hosts every other entry point too: `figures`,
//! `ablation`, `litmus`, `conform`, `check` and `faults`.

pub mod cache;
pub mod executor;
pub mod fingerprint;
pub mod hash;
pub mod jobs;
pub mod manifest;

pub use cache::{cache_key, CacheRecord, CacheStats, ResultCache};
pub use executor::{execute, ExecReport, JobRow};
pub use fingerprint::code_fingerprint;
pub use jobs::{canonical_config, JobOutcome, JobSpec};
pub use manifest::{parse_manifest, Manifest, DEFAULT_MANIFEST};

/// This crate's compiled version (not part of the code fingerprint:
/// the orchestrator schedules and serializes results, it cannot change
/// them).
pub const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");
