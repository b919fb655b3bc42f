//! The on-chip message vocabulary.

use std::fmt;

use tsocc_mem::{LineAddr, LineData};
use tsocc_noc::VNet;

/// A coherence endpoint: a core's private L1, a shared-L2 tile, or a
/// memory controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Agent {
    /// The private L1 cache of core `i`.
    L1(usize),
    /// NUCA L2 tile `i`.
    L2(usize),
    /// Memory controller `i` (placed at mesh corners).
    Mem(usize),
}

impl fmt::Display for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Agent::L1(i) => write!(f, "L1[{i}]"),
            Agent::L2(i) => write!(f, "L2[{i}]"),
            Agent::Mem(i) => write!(f, "Mem[{i}]"),
        }
    }
}

/// A logical write timestamp (TSO-CC §3.3).
///
/// `Ts::INVALID` (zero) marks lines that have never been written since
/// the L2 obtained its copy — such responses force self-invalidation
/// because timestamps are not propagated to main memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ts(u64);

impl Ts {
    /// The invalid timestamp carried by never-written lines.
    pub const INVALID: Ts = Ts(0);
    /// The smallest valid timestamp; L2 tiles clamp stale-epoch
    /// timestamps to this value (§3.5).
    pub const SMALLEST_VALID: Ts = Ts(1);

    /// Creates a timestamp from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        Ts(raw)
    }

    /// Raw counter value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this timestamp is valid (non-zero).
    pub const fn is_valid(self) -> bool {
        self.0 != 0
    }

    /// The next timestamp.
    pub const fn next(self) -> Ts {
        Ts(self.0 + 1)
    }

    /// Saturating distance `self - earlier` (0 when earlier is later).
    pub const fn distance_from(self, earlier: Ts) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "ts{}", self.0)
        } else {
            write!(f, "ts-")
        }
    }
}

/// An epoch identifier for a timestamp source (TSO-CC §3.5).
///
/// Incremented on every timestamp reset; riding on data messages, it
/// lets receivers detect responses whose timestamp predates a reset that
/// raced past them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Epoch(u8);

impl Epoch {
    /// The initial epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// Creates an epoch with the given id.
    pub const fn new(raw: u8) -> Self {
        Epoch(raw)
    }

    /// The next epoch, wrapping at `2^bits` (paper: overflow is fine as
    /// long as consecutive epochs are distinct).
    pub fn next(self, bits: u32) -> Epoch {
        let mask = ((1u16 << bits) - 1) as u8;
        Epoch(self.0.wrapping_add(1) & mask)
    }
}

/// The source of a timestamp: a core's write counter or an L2 tile's
/// SharedRO counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TsSource {
    /// Core-local write timestamp source of L1 `i`.
    L1(usize),
    /// SharedRO timestamp source of L2 tile `i`.
    L2(usize),
}

/// The permission granted by a data response.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Grant {
    /// Private: the receiver may read and (after a silent E→M upgrade)
    /// write.
    Exclusive,
    /// Shared: read-only, untracked in TSO-CC; bounded L1 hits.
    Shared,
    /// Shared read-only (TSO-CC §3.4): read-only, invalidated by
    /// broadcast on writes, unlimited L1 hits.
    SharedRO,
}

/// A coherence protocol message.
///
/// Both protocols draw from this vocabulary; see the crate docs for why
/// it is shared. Data-bearing messages (`Data`, `PutM`, `DowngradeData`,
/// `MemData`, `MemWrite`) are 5 flits at the default 16-byte flit size;
/// everything else is a single control flit.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // line/data/from operand fields are uniform across variants
pub enum Msg {
    // ---- L1 → L2 requests ------------------------------------------------
    /// Read request.
    GetS { line: LineAddr },
    /// Write / RMW request.
    GetX { line: LineAddr },
    /// Eviction of a clean private (Exclusive) line.
    PutE { line: LineAddr },
    /// Eviction of a dirty private (Modified) line, with data.
    PutM {
        line: LineAddr,
        data: LineData,
        ts: Ts,
        epoch: Epoch,
    },
    // ---- L2 → L1 forwards -------------------------------------------------
    /// Forwarded read: owner must downgrade, send data to `requester`
    /// and a [`Msg::DowngradeData`] to the L2.
    FwdGetS { line: LineAddr, requester: usize },
    /// Forwarded write: owner must invalidate, send data to `requester`
    /// and a [`Msg::TransferAck`] to the L2.
    FwdGetX { line: LineAddr, requester: usize },
    /// Invalidate a (possibly absent) shared copy. If `ack_to_requester`
    /// is `Some(r)`, acknowledge core `r` directly (MESI
    /// requester-collected acks); otherwise acknowledge the home L2 tile
    /// (TSO-CC SharedRO broadcasts and L2 evictions of inclusive lines).
    Inv {
        line: LineAddr,
        ack_to_requester: Option<usize>,
    },
    /// L2 eviction of a private line: owner must invalidate and respond
    /// with [`Msg::RecallData`].
    Recall { line: LineAddr },
    // ---- responses ---------------------------------------------------------
    /// Data response granting `grant` permission.
    Data {
        line: LineAddr,
        data: LineData,
        grant: Grant,
        /// Last writer (TSO-CC) / data source owner; `usize::MAX` when
        /// there is none.
        writer: usize,
        /// Last-written timestamp (TSO-CC; `Ts::INVALID` otherwise).
        ts: Ts,
        /// Epoch of the timestamp source.
        epoch: Epoch,
        /// Source of `ts` for epoch checking (TSO-CC).
        ts_source: Option<TsSource>,
        /// Number of invalidation acks the requester must collect before
        /// the line is usable (MESI GetX to shared lines).
        acks_expected: u32,
        /// Whether the 64-byte payload is on the wire (false for MESI
        /// upgrade grants to a core that already holds a valid copy).
        with_payload: bool,
        /// Whether the requester must send [`Msg::Unblock`] to the home
        /// tile when the transaction completes (set for all exclusive
        /// grants and owner-forwarded data).
        ack_required: bool,
    },
    /// Invalidation ack sent directly to the requesting core (MESI).
    InvAck { line: LineAddr, from: usize },
    /// Invalidation ack sent to the home L2 tile.
    InvAckToL2 { line: LineAddr, from: usize },
    /// Old owner → L2 after [`Msg::FwdGetS`]: carries the (possibly
    /// dirty) line so the L2 copy becomes current.
    DowngradeData {
        line: LineAddr,
        data: LineData,
        dirty: bool,
        ts: Ts,
        epoch: Epoch,
        from: usize,
    },
    /// Old owner → L2 after [`Msg::FwdGetX`]: ownership passed to the
    /// requester.
    TransferAck { line: LineAddr, from: usize },
    /// Owner → L2 in response to [`Msg::Recall`].
    RecallData {
        line: LineAddr,
        data: LineData,
        dirty: bool,
        ts: Ts,
        epoch: Epoch,
        from: usize,
    },
    /// Requester → L2: transaction complete, unblock the line.
    Unblock { line: LineAddr, from: usize },
    /// L2 → L1: eviction (PutE/PutM) acknowledged.
    PutAck { line: LineAddr },
    // ---- memory ------------------------------------------------------------
    /// L2 tile → memory controller: fetch a line.
    MemRead { line: LineAddr },
    /// L2 tile → memory controller: write a line back.
    MemWrite { line: LineAddr, data: LineData },
    /// Memory controller → L2 tile: fetched data.
    MemData { line: LineAddr, data: LineData },
    // ---- timestamp management (TSO-CC §3.5) --------------------------------
    /// Broadcast: `source` wrapped its timestamp counter and entered
    /// `epoch`; receivers drop their last-seen entry for it.
    TsReset { source: TsSource, epoch: Epoch },
}

impl Msg {
    /// Whether this message carries a full cache line of data.
    pub fn carries_data(&self) -> bool {
        match self {
            Msg::Data { with_payload, .. } => *with_payload,
            Msg::PutM { .. }
            | Msg::DowngradeData { .. }
            | Msg::RecallData { .. }
            | Msg::MemWrite { .. }
            | Msg::MemData { .. } => true,
            _ => false,
        }
    }

    /// Payload size in bytes (64 for data messages, 0 for control).
    pub fn payload_bytes(&self) -> u32 {
        if self.carries_data() {
            tsocc_mem::LINE_BYTES as u32
        } else {
            0
        }
    }

    /// The line this message concerns, if any (`TsReset` is the one
    /// line-less broadcast). Used by hang diagnosis to attribute
    /// in-flight messages to blocked lines.
    pub fn line(&self) -> Option<LineAddr> {
        match self {
            Msg::GetS { line }
            | Msg::GetX { line }
            | Msg::PutE { line }
            | Msg::PutM { line, .. }
            | Msg::FwdGetS { line, .. }
            | Msg::FwdGetX { line, .. }
            | Msg::Inv { line, .. }
            | Msg::Recall { line }
            | Msg::Data { line, .. }
            | Msg::InvAck { line, .. }
            | Msg::InvAckToL2 { line, .. }
            | Msg::DowngradeData { line, .. }
            | Msg::TransferAck { line, .. }
            | Msg::RecallData { line, .. }
            | Msg::Unblock { line, .. }
            | Msg::PutAck { line }
            | Msg::MemRead { line }
            | Msg::MemWrite { line, .. }
            | Msg::MemData { line, .. } => Some(*line),
            Msg::TsReset { .. } => None,
        }
    }

    /// The variant name, for compact diagnostic output (the derived
    /// `Debug` of data-bearing variants prints whole cache lines).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Msg::GetS { .. } => "GetS",
            Msg::GetX { .. } => "GetX",
            Msg::PutE { .. } => "PutE",
            Msg::PutM { .. } => "PutM",
            Msg::FwdGetS { .. } => "FwdGetS",
            Msg::FwdGetX { .. } => "FwdGetX",
            Msg::Inv { .. } => "Inv",
            Msg::Recall { .. } => "Recall",
            Msg::Data { .. } => "Data",
            Msg::InvAck { .. } => "InvAck",
            Msg::InvAckToL2 { .. } => "InvAckToL2",
            Msg::DowngradeData { .. } => "DowngradeData",
            Msg::TransferAck { .. } => "TransferAck",
            Msg::RecallData { .. } => "RecallData",
            Msg::Unblock { .. } => "Unblock",
            Msg::PutAck { .. } => "PutAck",
            Msg::MemRead { .. } => "MemRead",
            Msg::MemWrite { .. } => "MemWrite",
            Msg::MemData { .. } => "MemData",
            Msg::TsReset { .. } => "TsReset",
        }
    }

    /// The virtual network this message class travels on.
    pub fn vnet(&self) -> VNet {
        match self {
            Msg::GetS { .. }
            | Msg::GetX { .. }
            | Msg::PutE { .. }
            | Msg::PutM { .. }
            | Msg::MemRead { .. }
            | Msg::MemWrite { .. } => VNet::Request,
            Msg::FwdGetS { .. }
            | Msg::FwdGetX { .. }
            | Msg::Inv { .. }
            | Msg::Recall { .. }
            | Msg::TsReset { .. } => VNet::Forward,
            Msg::Data { .. }
            | Msg::InvAck { .. }
            | Msg::InvAckToL2 { .. }
            | Msg::DowngradeData { .. }
            | Msg::TransferAck { .. }
            | Msg::RecallData { .. }
            | Msg::Unblock { .. }
            | Msg::PutAck { .. }
            | Msg::MemData { .. } => VNet::Response,
        }
    }
}

/// An addressed message ready for network injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetMsg {
    /// Sender.
    pub src: Agent,
    /// Receiver.
    pub dst: Agent,
    /// Payload.
    pub msg: Msg,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_mem::Addr;

    fn line() -> LineAddr {
        Addr::new(0x40).line()
    }

    #[test]
    fn ts_validity_and_order() {
        assert!(!Ts::INVALID.is_valid());
        assert!(Ts::SMALLEST_VALID.is_valid());
        assert!(Ts::new(5) > Ts::new(4));
        assert_eq!(Ts::new(4).next(), Ts::new(5));
        assert_eq!(Ts::new(10).distance_from(Ts::new(3)), 7);
        assert_eq!(Ts::new(3).distance_from(Ts::new(10)), 0);
    }

    #[test]
    fn epoch_wraps_at_bit_width() {
        let mut e = Epoch::ZERO;
        for _ in 0..8 {
            e = e.next(3);
        }
        assert_eq!(e, Epoch::ZERO, "3-bit epoch wraps after 8 increments");
        assert_ne!(Epoch::ZERO.next(3), Epoch::ZERO);
    }

    #[test]
    fn data_messages_are_five_flits_worth() {
        let m = Msg::MemData {
            line: line(),
            data: LineData::zeroed(),
        };
        assert!(m.carries_data());
        assert_eq!(m.payload_bytes(), 64);
        let c = Msg::GetS { line: line() };
        assert!(!c.carries_data());
        assert_eq!(c.payload_bytes(), 0);
    }

    #[test]
    fn vnet_classification_separates_req_fwd_resp() {
        assert_eq!(Msg::GetS { line: line() }.vnet(), VNet::Request);
        assert_eq!(
            Msg::Inv {
                line: line(),
                ack_to_requester: None
            }
            .vnet(),
            VNet::Forward
        );
        assert_eq!(Msg::PutAck { line: line() }.vnet(), VNet::Response);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Agent::L1(3).to_string(), "L1[3]");
        assert_eq!(Agent::Mem(0).to_string(), "Mem[0]");
        assert_eq!(Ts::INVALID.to_string(), "ts-");
        assert_eq!(Ts::new(9).to_string(), "ts9");
    }
}
