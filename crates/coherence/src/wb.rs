//! Writeback buffer: resolves eviction/forward races.
//!
//! When an L1 evicts a private line it sends PutE/PutM to the home L2
//! tile, but a forwarded request (FwdGetS/FwdGetX/Recall) for the same
//! line may already be in flight towards the L1. The L1 therefore keeps
//! the evicted line's data in a writeback buffer until the L2's PutAck
//! arrives, and services forwards from that buffer in the meantime.
//! This is the standard resolution used by gem5's Ruby protocols.

use tsocc_mem::{LineAddr, LineData, LineMap};

use crate::msg::{Epoch, Ts};

/// One evicted-but-unacknowledged line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WbEntry {
    /// The evicted data.
    pub data: LineData,
    /// Whether the line was dirty (PutM) or clean (PutE).
    pub dirty: bool,
    /// Last-written timestamp of the line (TSO-CC).
    pub ts: Ts,
    /// Epoch of the writer's timestamp source at eviction.
    pub epoch: Epoch,
    /// Whether a forward already consumed this entry (the eventual
    /// PutAck just drops it; the PUT itself was stale from the L2's
    /// point of view).
    pub forwarded: bool,
}

/// Map of lines with in-flight evictions.
///
/// # Examples
///
/// ```
/// use tsocc_coherence::{Epoch, Ts, WritebackBuffer};
/// use tsocc_mem::{Addr, LineData};
///
/// let mut wb = WritebackBuffer::new();
/// let line = Addr::new(0x40).line();
/// wb.insert(line, LineData::zeroed(), true, Ts::new(3), Epoch::ZERO);
/// assert!(wb.get(line).is_some());
/// wb.remove(line);
/// assert!(wb.get(line).is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct WritebackBuffer {
    entries: LineMap<WbEntry>,
}

impl WritebackBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        WritebackBuffer {
            entries: LineMap::new(),
        }
    }

    /// Records an in-flight eviction.
    ///
    /// # Panics
    ///
    /// Panics if the line already has an in-flight eviction (the L1 can
    /// only evict a resident line, and the line is not resident while an
    /// eviction is pending).
    pub fn insert(&mut self, line: LineAddr, data: LineData, dirty: bool, ts: Ts, epoch: Epoch) {
        let prev = self.entries.insert(
            line,
            WbEntry {
                data,
                dirty,
                ts,
                epoch,
                forwarded: false,
            },
        );
        assert!(prev.is_none(), "double eviction of {line}");
    }

    /// Looks up an in-flight eviction.
    pub fn get(&self, line: LineAddr) -> Option<&WbEntry> {
        self.entries.get(line)
    }

    /// Mutable lookup (to mark `forwarded`).
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut WbEntry> {
        self.entries.get_mut(line)
    }

    /// Completes an eviction (PutAck received).
    pub fn remove(&mut self, line: LineAddr) -> Option<WbEntry> {
        self.entries.remove(line)
    }

    /// Iterates over the lines with in-flight evictions.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.entries.iter().map(|(l, _)| l)
    }

    /// Whether no evictions are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of in-flight evictions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Makes `self` a copy of `src`, keeping `self`'s table.
    pub fn copy_from(&mut self, src: &WritebackBuffer) {
        let WritebackBuffer { entries } = self;
        entries.copy_from(&src.entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_mem::Addr;

    #[test]
    fn forward_marking() {
        let mut wb = WritebackBuffer::new();
        let line = Addr::new(0x40).line();
        wb.insert(line, LineData::zeroed(), false, Ts::INVALID, Epoch::ZERO);
        wb.get_mut(line).unwrap().forwarded = true;
        assert!(wb.get(line).unwrap().forwarded);
        let e = wb.remove(line).unwrap();
        assert!(e.forwarded);
        assert!(wb.is_empty());
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut wb = WritebackBuffer::new();
        let line = Addr::new(0x40).line();
        wb.insert(line, LineData::zeroed(), false, Ts::INVALID, Epoch::ZERO);
        wb.insert(line, LineData::zeroed(), true, Ts::INVALID, Epoch::ZERO);
    }

    #[test]
    fn len_tracks_entries() {
        let mut wb = WritebackBuffer::new();
        assert_eq!(wb.len(), 0);
        wb.insert(
            Addr::new(0x40).line(),
            LineData::zeroed(),
            true,
            Ts::new(1),
            Epoch::ZERO,
        );
        wb.insert(
            Addr::new(0x80).line(),
            LineData::zeroed(),
            false,
            Ts::INVALID,
            Epoch::ZERO,
        );
        assert_eq!(wb.len(), 2);
    }
}
