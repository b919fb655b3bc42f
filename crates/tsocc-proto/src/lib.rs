#![warn(missing_docs)]

//! The TSO-CC protocol — the paper's primary contribution.
//!
//! TSO-CC enforces TSO *lazily*, without a sharing vector (§3):
//!
//! - **No sharer tracking.** The L2 keeps only a log(n)-bit `b.owner`
//!   field: the owner for private lines, the last writer for shared
//!   lines, a coarse group vector for shared-read-only lines.
//! - **Write propagation** (§3.1): writes drain to the shared L2 in
//!   program order (one outstanding state change at a time). Reads of
//!   Shared lines hit locally only `2^Bmaxacc` times before being forced
//!   back to the L2, so a spinning acquire always (eventually) sees its
//!   release.
//! - **Self-invalidation** (§3.2): on an L1 miss response whose last
//!   writer is another core, all Shared lines are invalidated, ensuring
//!   `r → r` ordering past a potential acquire.
//! - **Transitive reduction** (§3.3): per-core write timestamps and
//!   last-seen tables skip self-invalidation when the write was provably
//!   already observed; write-grouping trades timestamp-space for
//!   precision.
//! - **Shared read-only lines** (§3.4): lines never written (or decayed
//!   after ~256 writes of inactivity) become SharedRO with L2-sourced
//!   timestamps; they hit without limit and survive sweeps; writes to
//!   them broadcast-invalidate a coarse sharer group vector.
//! - **Timestamp resets** (§3.5): finite timestamps wrap; resets
//!   broadcast, epoch-ids ride on data responses to catch races, and the
//!   L2 clamps stale-epoch timestamps to the smallest valid value.
//! - **Atomics and fences** (§3.6): RMWs issue GetX like stores; fences
//!   self-invalidate all Shared lines unconditionally.
//!
//! The ablation `CC-shared-to-L2` (§4.2) — no Shared caching at all —
//! is expressed as a [`TsoCcConfig`] with `max_acc = 0`.

mod config;
mod factory;
mod l1;
mod l2;
pub mod storage;

pub use config::{TsParams, TsoCcConfig};
pub use factory::TsoCcFactory;
pub use l1::{TsoCcL1, TsoCcL1Config, TsoCcL1Policy};
pub use l2::{TsoCcL2, TsoCcL2Config, TsoCcL2Policy};
pub use storage::StorageModel;

#[cfg(test)]
mod tests;
