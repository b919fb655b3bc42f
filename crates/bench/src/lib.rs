//! Evaluation harness: the sweep engine, every table and figure of the
//! paper, and the command-line and JSON plumbing the `tsocc` binary
//! (in `tsocc-orch`) is built from.
//!
//! - [`sweep`] runs configuration points (benchmark × protocol ×
//!   machine) on worker threads with deterministic per-point seeds
//!   (see [`sweep::run_points`]); serial and parallel runs produce
//!   identical results. [`sweep::fan_out`] is the worker pool.
//! - [`figures`] renders Tables 1–3 and Figures 2–9 from one sweep
//!   (`tsocc figures fig3`, `tsocc figures all`, …).
//! - [`cli`] is the one flag parser every `tsocc` subcommand declares
//!   its flags against; [`json`] and [`hang`] write (and read back) the
//!   JSON reports.

pub mod cli;
pub mod figures;
pub mod hang;
pub mod json;
pub mod sweep;

pub use sweep::{PointResult, Sweep, SweepOpts, SweepPoint};
