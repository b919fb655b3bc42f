#![warn(missing_docs)]

//! Protocol-agnostic coherence plumbing shared by the MESI baseline and
//! the TSO-CC protocol.
//!
//! This crate defines:
//!
//! - the on-chip [`Msg`] vocabulary and [`Agent`] addressing,
//! - logical timestamps ([`Ts`]) and epoch-ids ([`Epoch`]) used by
//!   TSO-CC's transitive-reduction optimization (paper §3.3/§3.5),
//! - the controller interfaces ([`L1Controller`], [`CacheController`])
//!   through which the system assembly drives every protocol,
//! - the shared controller [`chassis`] ([`L1Chassis`], [`L2Chassis`],
//!   [`MshrTable`], [`Txn`]) that hosts each protocol's transition
//!   policy ([`L1Policy`], [`L2Policy`]),
//! - an [`Outbox`] with modelled controller latency,
//! - shared statistics ([`L1Stats`], [`L2Stats`]) matching the paper's
//!   figure breakdowns,
//! - the protocol-independent [`MemCtrl`] DRAM controller,
//! - a [`WritebackBuffer`] that holds evicted lines until the directory
//!   acknowledges the writeback (needed to resolve eviction/forward
//!   races in both protocols).
//!
//! Design note: both protocols share a single `Msg` enum (each uses a
//! subset) rather than being generic over a message type. This keeps the
//! system assembly monomorphic and the protocol code legible, at the
//! cost of a few variants that MESI never sends.

pub mod chassis;
pub mod iface;
pub mod memctrl;
pub mod msg;
pub mod outbox;
pub mod stats;
pub mod wb;

pub use chassis::{
    Install, L1Chassis, L1Ctl, L1Policy, L2Chassis, L2Ctl, L2Policy, MshrTable, Txn,
};
pub use iface::{
    BusyProbe, CacheController, CoherenceDiscipline, Completion, CoreOp, CtrlProbe, L1Controller,
    L2Controller, LineAccess, MachineShape, ProtocolFactory, ProtocolHandle, Submit,
};
pub use memctrl::MemCtrl;
pub use msg::{Agent, Epoch, Grant, Msg, NetMsg, Ts, TsSource};
// Re-exported so protocol crates can fill `MachineShape::mesh` without
// depending on the NoC crate directly.
pub use outbox::Outbox;
pub use stats::{L1Stats, L2Stats, SelfInvCause};
// Re-exported so protocol crates and the system assembly share one
// fault vocabulary without each depending on the faults crate.
pub use tsocc_faults::{FaultPlan, FaultState, NocFault, ProtocolFault};
pub use tsocc_noc::MeshTopology;
pub use wb::WritebackBuffer;
