//! Controller interfaces through which the system assembly drives the
//! protocols.

use std::any::Any;

use tsocc_faults::FaultPlan;
use tsocc_mem::{Addr, LineAddr};
use tsocc_sim::Cycle;

use crate::msg::{Agent, Msg, NetMsg};
use crate::stats::L1Stats;
use tsocc_isa::RmwOp;

/// A memory operation submitted by the core pipeline / write buffer to
/// its L1 controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreOp {
    /// Read one word.
    Load(Addr),
    /// Write one word (issued when the store reaches the write-buffer
    /// head).
    Store(Addr, u64),
    /// Atomic read-modify-write (core guarantees the write buffer is
    /// empty).
    Rmw(Addr, RmwOp),
    /// Full fence (core guarantees the write buffer is empty).
    Fence,
}

impl CoreOp {
    /// The access address, if any.
    pub fn addr(&self) -> Option<Addr> {
        match self {
            CoreOp::Load(a) | CoreOp::Store(a, _) | CoreOp::Rmw(a, _) => Some(*a),
            CoreOp::Fence => None,
        }
    }
}

/// Immediate result of submitting a [`CoreOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submit {
    /// The operation hit in the L1 and is complete; for loads and RMWs
    /// the returned word is the (old) value. The core charges the L1 hit
    /// latency itself.
    Hit(u64),
    /// The operation missed and was accepted; a [`Completion`] will be
    /// produced later.
    Miss,
    /// The controller cannot accept the operation right now (MSHR
    /// conflict on the same line); retry next cycle.
    Retry,
}

/// A finished miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// An outstanding load or RMW finished with this value.
    Load(u64),
    /// An outstanding store finished (write-buffer entry may retire).
    Store,
}

/// The access permission a resident cache line currently grants, as
/// reported by [`CacheController::access_lines`]. The model checker's
/// coherence axioms are phrased over this classification: at most one
/// L1 may hold [`LineAccess::Write`] on a line at any instant, and
/// under an eager ([`CoherenceDiscipline::Eager`]) protocol a writer
/// excludes every reader.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineAccess {
    /// The line may be read but not written (Shared/SharedRO states).
    Read,
    /// The line may be written (Exclusive/Modified states — Exclusive
    /// counts because the upgrade to Modified is silent).
    Write,
}

/// How a protocol propagates writes to sharers, declared by
/// [`ProtocolFactory::coherence_discipline`] so protocol-agnostic
/// verifiers know which coherence axioms apply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoherenceDiscipline {
    /// Invalidation-based: a write eagerly invalidates every sharer, so
    /// a writer and a reader of the same line never coexist (strict
    /// single-writer/multiple-reader). MESI and its variants.
    #[default]
    Eager,
    /// Consistency-directed lazy coherence: sharers may legally hold
    /// stale copies while a writer proceeds (self-invalidation plus
    /// timestamps bound the staleness instead). TSO-CC. Only the
    /// one-writer-at-a-time half of SWMR applies.
    Lazy,
}

/// One in-flight directory transaction as seen by a [`CtrlProbe`]:
/// which line is blocked and which terminal events it still waits for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusyProbe {
    /// The blocked line.
    pub line: LineAddr,
    /// A requester Unblock is still outstanding.
    pub need_unblock: bool,
    /// Owner-supplied data (downgrade/recall/acks) is still
    /// outstanding.
    pub need_owner_data: bool,
    /// Requests queued behind the busy line.
    pub queued: usize,
}

/// A deterministic snapshot of a controller's outstanding work, used
/// by the hang-diagnosis layer to assemble a structured report (and a
/// wait-for graph) when a run deadlocks or times out. All line lists
/// are sorted by line address.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtrlProbe {
    /// Lines with an in-flight L1 miss (MSHR allocated).
    pub mshr_lines: Vec<LineAddr>,
    /// Lines parked in the L1 writeback buffer awaiting a PutAck.
    pub wb_lines: Vec<LineAddr>,
    /// In-flight L2 directory transactions.
    pub busy: Vec<BusyProbe>,
    /// Requests sitting in the L2 replay queue.
    pub replay: usize,
    /// Messages queued in the outbox (latency not yet elapsed).
    pub outbox: usize,
}

impl CtrlProbe {
    /// Whether the controller has no outstanding work at all.
    pub fn is_empty(&self) -> bool {
        self.mshr_lines.is_empty()
            && self.wb_lines.is_empty()
            && self.busy.is_empty()
            && self.replay == 0
            && self.outbox == 0
    }
}

/// Common behaviour of every coherence controller (L1, L2 tile, memory
/// controller): receive network messages, advance internal time, and
/// emit outgoing messages.
///
/// `Any` is a supertrait so that [`CacheController::copy_from`] can
/// recover its source's concrete type.
pub trait CacheController: Any {
    /// Delivers one message from the network.
    fn handle_message(&mut self, now: Cycle, src: Agent, msg: Msg);

    /// Advances internal state by one cycle (retries, sweeps).
    fn tick(&mut self, now: Cycle);

    /// Appends every outgoing message that is ready to inject at `now`
    /// to `out` (the run loop passes one reusable scratch buffer to all
    /// controllers instead of allocating a `Vec` per controller per
    /// cycle).
    fn drain_outbox(&mut self, now: Cycle, out: &mut Vec<NetMsg>);

    /// Whether this controller has no in-flight transactions and no
    /// queued messages (used for run-loop termination diagnostics).
    fn is_quiescent(&self) -> bool;

    /// The earliest future cycle at which this controller will act on
    /// its own — i.e. at which [`CacheController::tick`] or
    /// [`CacheController::drain_outbox`] could do anything — assuming
    /// no further messages are delivered to it. [`Cycle::MAX`] when the
    /// controller is purely waiting on the network (or idle).
    ///
    /// This is the wake-list contract of the event-driven scheduler:
    /// between "now" and the returned cycle, ticking and draining the
    /// controller must be a state-free no-op, so the system may skip
    /// those cycles entirely without changing any simulated outcome.
    fn next_event(&self) -> Cycle;

    /// A snapshot of this controller's outstanding work for hang
    /// diagnosis. The default (an empty probe) suits controllers with
    /// no line-granular state worth reporting; the chassis-based L1
    /// and L2 controllers override it.
    fn probe(&self) -> CtrlProbe {
        CtrlProbe::default()
    }

    /// Every resident line together with the access permission it
    /// currently grants — the enabled-transition/permission view the
    /// model checker's coherence axioms are evaluated over. Sorted by
    /// line address. The default (no lines) suits controllers without
    /// core-facing permissions (L2 tiles, memory controllers); the
    /// chassis-based L1 overrides it via
    /// [`L1Policy::line_access`](crate::L1Policy::line_access).
    fn access_lines(&self) -> Vec<(LineAddr, LineAccess)> {
        Vec::new()
    }

    /// [`CacheController::access_lines`] appended to `out`, so a caller
    /// probing many states can recycle one buffer. The default extends
    /// `out` with `access_lines()`; the chassis-based L1 writes straight
    /// into it.
    fn access_lines_into(&self, out: &mut Vec<(LineAddr, LineAccess)>) {
        out.extend(self.access_lines());
    }

    /// Makes `self` a copy of `src`, a controller the same factory built
    /// for the same agent, keeping `self`'s allocations. The model
    /// checker saves a controller this way before each transition that
    /// touches it (`tsocc::ScheduledSystem`'s undo log), into a buffer
    /// it reuses, without building or cloning one.
    ///
    /// # Panics
    ///
    /// The default panics: only the controllers the model checker drives
    /// implement it (the chassis-based L1 and L2, [`crate::MemCtrl`]),
    /// and those panic when `src` has another concrete type.
    fn copy_from(&mut self, src: &dyn CacheController) {
        let _ = src;
        panic!(
            "{} cannot copy a controller in place",
            std::any::type_name::<Self>()
        );
    }
}

/// `src` as the concrete controller type `C`: the source of a
/// [`CacheController::copy_from`] into a `C`.
///
/// # Panics
///
/// Panics if `src` is not a `C`.
pub(crate) fn same_type<C: CacheController>(src: &dyn CacheController) -> &C {
    (src as &dyn Any).downcast_ref().unwrap_or_else(|| {
        panic!(
            "copy_from: the source is not a {}",
            std::any::type_name::<C>()
        )
    })
}

/// The core-facing interface of an L1 controller, implemented by both
/// the MESI and the TSO-CC L1s.
pub trait L1Controller: CacheController {
    /// Attempts to perform `op`.
    fn submit(&mut self, now: Cycle, op: CoreOp) -> Submit;

    /// Appends every miss completion that became ready to `out`,
    /// leaving the controller's completion queue empty. Mirrors
    /// [`CacheController::drain_outbox`]: the core passes one reusable
    /// scratch buffer every cycle, so the core↔L1 boundary allocates
    /// nothing per cycle.
    fn drain_completions(&mut self, out: &mut Vec<Completion>);

    /// Per-L1 statistics for the paper's Figures 5–9.
    fn stats(&self) -> &L1Stats;
}

/// The system-facing interface of an L2 tile controller.
pub trait L2Controller: CacheController {
    /// Per-tile statistics.
    fn stats(&self) -> &crate::stats::L2Stats;
}

/// Machine geometry handed to a [`ProtocolFactory`] when it builds a
/// controller: everything protocol-independent about the target system.
#[derive(Clone, Copy, Debug)]
pub struct MachineShape {
    /// Number of cores (one private L1 each).
    pub n_cores: usize,
    /// Number of L2 tiles.
    pub n_tiles: usize,
    /// Number of memory controllers.
    pub n_mem: usize,
    /// The on-chip mesh carrying all traffic; need not be square
    /// (the paper's 32-core machine is 4×8, the 128-core climb 8×16)
    /// but must hold exactly [`MachineShape::n_tiles`] routers.
    pub mesh: tsocc_noc::MeshTopology,
    /// L2 banks per tile: the line→home-tile interleaving maps `banks`
    /// consecutive lines to one tile (see [`MachineShape::home_tile`]).
    /// `1` everywhere the paper's Table 2 machine is concerned; the
    /// 128-core configuration uses `2` so a tile's slice of a working
    /// set stays contiguous enough to exploit spatial locality.
    pub l2_banks: usize,
    /// L1 geometry.
    pub l1_params: tsocc_mem::CacheParams,
    /// L2 tile geometry.
    pub l2_params: tsocc_mem::CacheParams,
    /// L1 tag-array latency charged before an outgoing request (cycles).
    pub l1_issue_latency: u64,
    /// L2 array access latency (cycles).
    pub l2_latency: u64,
    /// The fault-injection plan ([`FaultPlan::none`] everywhere real
    /// experiments are concerned). Factories filter the protocol-layer
    /// mutation down to per-controller
    /// [`FaultState`](tsocc_faults::FaultState)s at build time.
    pub faults: FaultPlan,
}

impl MachineShape {
    /// The home L2 tile of `line` under this machine's interleaving:
    /// `(line / l2_banks) % n_tiles`. Every agent that maps an address
    /// to a tile — L1 request routing, the memory-controller choice —
    /// must go through this one function (or [`L1Chassis::home`], which
    /// mirrors it) so the mapping can never diverge between layers.
    ///
    /// [`L1Chassis::home`]: crate::L1Chassis::home
    pub fn home_tile(&self, line: tsocc_mem::LineAddr) -> usize {
        line.home_banked(self.n_tiles, self.l2_banks)
    }

    /// Protocol-independent geometry sanity checks. Protocols layer
    /// their own limits on top via
    /// [`ProtocolFactory::validate_shape`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cores == 0 {
            return Err("machine needs at least one core".to_string());
        }
        if self.n_tiles == 0 {
            return Err("machine needs at least one L2 tile".to_string());
        }
        if self.n_mem == 0 {
            return Err("machine needs at least one memory controller".to_string());
        }
        let routers = self.mesh.rows() * self.mesh.cols();
        if routers != self.n_tiles {
            return Err(format!(
                "{} mesh has {} routers for {} L2 tiles",
                self.mesh, routers, self.n_tiles
            ));
        }
        if self.l2_banks == 0 {
            return Err("machine needs at least one L2 bank per tile".to_string());
        }
        Ok(())
    }
}

/// Builds the coherence controllers of one protocol.
///
/// This is the seam that keeps the system assembly (`tsocc` crate)
/// protocol-agnostic: the assembly asks the factory for one
/// [`L1Controller`] per core and one [`L2Controller`] per tile, and
/// never names a concrete protocol. New protocols plug in by
/// implementing this trait in their own crate — no change to the
/// assembly layer is needed.
///
/// Factories must be `Send + Sync`: the sweep engine shares one factory
/// across worker threads building independent systems.
pub trait ProtocolFactory: Send + Sync {
    /// The configuration's display name (the paper's figure legends).
    fn protocol_name(&self) -> String;

    /// Builds the private L1 controller of core `core`.
    fn l1(&self, core: usize, shape: &MachineShape) -> Box<dyn L1Controller>;

    /// Builds the L2 controller of tile `tile`.
    fn l2(&self, tile: usize, shape: &MachineShape) -> Box<dyn L2Controller>;

    /// Checks that this protocol can be instantiated for `shape`,
    /// **before** any controller is built — a clean configuration error
    /// instead of a panic (or worse, a silent shift overflow in a
    /// directory bit-vector) deep inside construction.
    ///
    /// The default accepts every geometrically valid shape; protocols
    /// with representation limits (e.g. a full-bit-vector directory
    /// capped at the sharer-set width) override this and layer their
    /// capacity check on top of [`MachineShape::validate`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    fn validate_shape(&self, shape: &MachineShape) -> Result<(), String> {
        shape.validate()
    }

    /// Which coherence axioms this protocol promises (see
    /// [`CoherenceDiscipline`]). The default is the classic eager
    /// invalidation discipline; lazy consistency-directed protocols
    /// (TSO-CC) override it so verifiers don't flag their legal stale
    /// sharers.
    fn coherence_discipline(&self) -> CoherenceDiscipline {
        CoherenceDiscipline::Eager
    }
}

/// A shared, thread-safe handle to a protocol factory — what
/// `SystemConfig` carries instead of a closed protocol enum.
///
/// Cheap to clone (an [`std::sync::Arc`] under the hood) and
/// constructible from any [`ProtocolFactory`] via `From`/`Into`, so
/// APIs typically accept `impl Into<ProtocolHandle>`.
#[derive(Clone)]
pub struct ProtocolHandle(std::sync::Arc<dyn ProtocolFactory>);

impl<F: ProtocolFactory + 'static> From<F> for ProtocolHandle {
    fn from(f: F) -> ProtocolHandle {
        ProtocolHandle(std::sync::Arc::new(f))
    }
}

impl std::ops::Deref for ProtocolHandle {
    type Target = dyn ProtocolFactory;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for ProtocolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProtocolHandle")
            .field(&self.protocol_name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_op_addr() {
        assert_eq!(CoreOp::Load(Addr::new(8)).addr(), Some(Addr::new(8)));
        assert_eq!(CoreOp::Store(Addr::new(16), 1).addr(), Some(Addr::new(16)));
        assert_eq!(CoreOp::Fence.addr(), None);
    }

    fn shape_4t() -> MachineShape {
        MachineShape {
            n_cores: 4,
            n_tiles: 4,
            n_mem: 2,
            mesh: tsocc_noc::MeshTopology::for_tiles(4),
            l2_banks: 1,
            l1_params: tsocc_mem::CacheParams::new(8, 2),
            l2_params: tsocc_mem::CacheParams::new(16, 4),
            l1_issue_latency: 1,
            l2_latency: 4,
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn home_tile_follows_bank_interleaving() {
        use tsocc_mem::LineAddr;
        let mut shape = shape_4t();
        assert_eq!(shape.home_tile(LineAddr::new(5)), 1);
        shape.l2_banks = 2;
        // Pairs of lines share a home: 4,5 → tile 2; 6,7 → tile 3.
        assert_eq!(shape.home_tile(LineAddr::new(4)), 2);
        assert_eq!(shape.home_tile(LineAddr::new(5)), 2);
        assert_eq!(shape.home_tile(LineAddr::new(7)), 3);
    }

    #[test]
    fn validate_rejects_mismatched_mesh_and_zero_banks() {
        let mut shape = shape_4t();
        assert!(shape.validate().is_ok());
        // Non-square is fine as long as the router count matches.
        shape.mesh = tsocc_noc::MeshTopology::new(1, 4);
        assert!(shape.validate().is_ok());
        shape.mesh = tsocc_noc::MeshTopology::new(2, 3);
        let err = shape.validate().unwrap_err();
        assert!(err.contains("6 routers"), "{err}");
        shape.mesh = tsocc_noc::MeshTopology::for_tiles(4);
        shape.l2_banks = 0;
        assert!(shape.validate().is_err());
    }
}
