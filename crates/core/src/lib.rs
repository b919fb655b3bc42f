#![warn(missing_docs)]

//! Full-system assembly for the TSO-CC reproduction.
//!
//! This crate wires the substrates into the paper's Table 2 machine:
//! n cores (each a [`tsocc_cpu::Core`] with a private L1), n NUCA L2
//! tiles co-located with the cores on a 2D mesh, and four memory
//! controllers at the mesh corners — running either the MESI baseline
//! or any TSO-CC configuration.
//!
//! Entry points:
//!
//! - [`SystemConfig`] — machine selection; carries a
//!   [`tsocc_coherence::ProtocolFactory`] handle, so this crate depends
//!   on no concrete protocol (MESI and TSO-CC plug in from their own
//!   crates, usually via the `tsocc_protocols::Protocol` enum),
//! - [`System`] — build with programs, [`System::run`] to completion,
//! - [`RunStats`] — every metric behind the paper's Figures 3–9.
//!
//! The analytic storage-overhead model of Figure 2 / Table 1 lives with
//! the protocol it models, in `tsocc_proto::storage`.
//!
//! # Examples
//!
//! ```
//! use tsocc::{System, SystemConfig};
//! use tsocc_isa::{Asm, Reg};
//! use tsocc_protocols::Protocol;
//!
//! // One core stores then loads through the full memory system.
//! let mut asm = Asm::new();
//! asm.movi(Reg::R1, 99);
//! asm.store_abs(Reg::R1, 0x1000);
//! asm.load_abs(Reg::R2, 0x1000);
//! asm.halt();
//!
//! let cfg = SystemConfig::builder()
//!     .small()
//!     .cores(2)
//!     .protocol(Protocol::TsoCc(Default::default()))
//!     .build()
//!     .expect("valid config");
//! let mut sys = System::new(cfg, vec![asm.finish()]);
//! let stats = sys.run(100_000).expect("terminates");
//! assert_eq!(sys.core(0).thread().reg(Reg::R2), 99);
//! assert!(stats.cycles > 0);
//! ```

pub mod config;
pub mod hang;
pub mod scheduler;
pub mod stats;
pub mod system;

pub use config::{ConfigError, Stepper, SystemConfig, SystemConfigBuilder};
pub use hang::HangReport;
pub use scheduler::{
    Channel, Choice, ReplaySchedule, ScheduledSystem, Scheduler, StepInfo, Terminal,
};
pub use stats::RunStats;
pub use system::{RunError, System};
// The fault-injection axis, re-exported so experiment drivers can
// build plans without naming the substrate crates.
pub use tsocc_coherence::{FaultPlan, NocFault, ProtocolFault};
