//! Baseline MESI directory protocol (the paper's comparison point).
//!
//! This models the gem5 `MESI_Two_Level`-style protocol the paper uses
//! as its baseline (§4.2):
//!
//! - the directory is embedded in the NUCA L2 and keeps a **full sharing
//!   vector** per line — the storage cost TSO-CC is built to avoid,
//! - L2 is **inclusive**: an L2 eviction invalidates/recalls L1 copies,
//! - reads to uncached lines get Exclusive grants (E state); E→M
//!   upgrades are silent,
//! - writes to shared lines send invalidations to every sharer, with
//!   acks collected by the requester,
//! - reads to privately-held lines forward to the owner, which
//!   downgrades and supplies data,
//! - the directory is *blocking*: requests that hit a line with an
//!   in-flight transaction queue at the home tile and replay in order
//!   (the same stall-and-wait discipline Ruby protocols use).
//!
//! Eviction/forward races are resolved through the L1's writeback
//! buffer ([`tsocc_coherence::WritebackBuffer`]): an evicted line's data
//! remains available to serve forwards until the home tile acknowledges
//! the PUT.

mod factory;
mod l1;
mod l2;

pub use factory::MesiFactory;
pub use l1::{MesiL1, MesiL1Config, MesiL1Policy};
pub use l2::{check_sharer_capacity, FullVector, MesiL2, MesiL2Config, MesiL2Policy, SharerSet};

#[cfg(test)]
mod tests;
