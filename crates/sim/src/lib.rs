#![warn(missing_docs)]

//! Deterministic cycle-driven simulation kernel for the TSO-CC reproduction.
//!
//! This crate provides the foundations every other simulator crate builds
//! on: a strongly-typed cycle counter ([`Cycle`]), a deterministic PRNG
//! family ([`rng::SplitMix64`], [`rng::Xoshiro256StarStar`]), simulation
//! statistics ([`stats::Counter`], [`stats::Histogram`]), a lightweight
//! trace facility ([`trace::TraceSink`]) and the calendar queue of pending
//! events ([`Calendar`]) behind the scheduler's [`WakeQueue`] and the
//! mesh's in-flight messages.
//!
//! The simulator is deterministic given a seed. This is a deliberate
//! design decision so that litmus-test results and benchmark figures are
//! exactly reproducible across runs and machines.
//!
//! # Examples
//!
//! ```
//! use tsocc_sim::{Cycle, rng::SplitMix64};
//!
//! let mut now = Cycle::ZERO;
//! now += 3;
//! assert_eq!(now, Cycle::new(3));
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.next_u64();
//! let b = SplitMix64::new(42).next_u64();
//! assert_eq!(a, b, "deterministic given the seed");
//! ```

pub mod calendar;
pub mod cycle;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod trace;

pub use calendar::Calendar;
pub use cycle::Cycle;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use sched::{SchedStats, WakeQueue};
pub use stats::{Counter, Histogram};
