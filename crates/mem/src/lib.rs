#![warn(missing_docs)]

//! Cache and memory substrate for the TSO-CC reproduction.
//!
//! Provides strongly-typed addresses ([`Addr`], [`LineAddr`]), functional
//! 64-byte cache-line data ([`LineData`]), a generic set-associative cache
//! array with LRU replacement ([`CacheArray`]), a paged main-memory
//! backing store ([`MainMemory`]) and a flat open-addressed map for
//! per-line controller state ([`LineMap`]).
//!
//! Cache lines carry *real data words*: the simulator executes programs
//! functionally through the memory hierarchy, which is what makes stale
//! reads (deliberately permitted by TSO-CC) observable by litmus tests —
//! the same change the paper's authors had to make to gem5 (§4.1).
//!
//! # Examples
//!
//! ```
//! use tsocc_mem::{Addr, CacheArray, CacheParams, LineData};
//!
//! let mut cache: CacheArray<LineData> = CacheArray::new(CacheParams::new(4, 2));
//! let line = Addr::new(0x1000).line();
//! cache.insert(line, LineData::zeroed(), 0, |_, _| true);
//! assert!(cache.lookup(line).is_some());
//! ```

pub mod addr;
pub mod cache;
pub mod line;
pub mod linemap;
pub mod memory;

pub use addr::{Addr, LineAddr, LINE_BYTES, WORDS_PER_LINE};
pub use cache::{CacheArray, CacheParams, InsertOutcome};
pub use line::LineData;
pub use linemap::LineMap;
pub use memory::MainMemory;
