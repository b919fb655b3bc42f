//! Outside-in tracing of the coherence layers.
//!
//! [`TracedFactory`] wraps a real [`ProtocolHandle`] and hands the
//! system assembly decorated controllers. Each decorator forwards every
//! trait call to the real controller, counting and timing it, and logs
//! every message the controller emits so the mesh can be timed later on
//! exactly that traffic ([`replay`]). Nothing inside the simulator is
//! instrumented: the spans sit at the trait boundary the assembly
//! already calls through.
//!
//! Timings aggregate into per-layer, per-method counters (a 128-core
//! run makes tens of millions of calls; spans would not fit in memory).
//! The counters live in a thread-local because the whole benchmark runs
//! on one thread and the controllers must stay `Send`.

use std::cell::RefCell;
use std::time::Instant;

use tsocc_coherence::{
    Agent, CacheController, CoherenceDiscipline, Completion, CoreOp, CtrlProbe, L1Controller,
    L1Stats, L2Controller, L2Stats, LineAccess, MachineShape, Msg, NetMsg, ProtocolFactory,
    ProtocolHandle, Submit,
};
use tsocc_mem::LineAddr;
use tsocc_noc::{Mesh, MeshTopology, NocConfig, VNet};
use tsocc_sim::Cycle;

/// The L1 methods the decorator times, in report order.
pub const L1_METHODS: [&str; 7] = [
    "submit",
    "handle_message",
    "tick",
    "drain_outbox",
    "next_event",
    "is_quiescent",
    "drain_completions",
];

/// The L2 methods the decorator times, in report order.
pub const L2_METHODS: [&str; 5] = [
    "handle_message",
    "tick",
    "drain_outbox",
    "next_event",
    "is_quiescent",
];

// Indices into `L1_METHODS` / `L2_METHODS`.
const L1_SUBMIT: usize = 0;
const L1_HANDLE: usize = 1;
const L1_TICK: usize = 2;
const L1_DRAIN: usize = 3;
const L1_NEXT: usize = 4;
const L1_QUIET: usize = 5;
const L1_COMPLETIONS: usize = 6;
const L2_HANDLE: usize = 0;
const L2_TICK: usize = 1;
const L2_DRAIN: usize = 2;
const L2_NEXT: usize = 3;
const L2_QUIET: usize = 4;

/// Calls and summed span nanoseconds of one method.
#[derive(Clone, Copy, Debug, Default)]
pub struct MethodTime {
    /// Times the method was called.
    pub calls: u64,
    /// Summed wall nanoseconds of the spans around those calls.
    pub nanos: u64,
}

/// One message as injected into the mesh: what [`replay`] needs to
/// re-send it.
#[derive(Clone, Copy, Debug)]
pub struct SendRecord {
    /// Cycle of injection (for memory-controller traffic: of arrival at
    /// the L2, see [`TracedL2`]).
    pub cycle: u64,
    /// Source router.
    pub src: u32,
    /// Destination router.
    pub dst: u32,
    /// Virtual network.
    pub vnet: VNet,
    /// Message size in flits.
    pub flits: u32,
}

/// Everything one traced run recorded.
#[derive(Debug, Default)]
pub struct Profile {
    /// Per-method L1 counters, indexed like [`L1_METHODS`].
    pub l1: [MethodTime; 7],
    /// Per-method L2 counters, indexed like [`L2_METHODS`].
    pub l2: [MethodTime; 5],
    /// `submit` results: hits, misses, retries.
    pub submit_hits: u64,
    /// See [`Profile::submit_hits`].
    pub submit_misses: u64,
    /// See [`Profile::submit_hits`].
    pub submit_retries: u64,
    /// Messages the L1s emitted.
    pub l1_sends: u64,
    /// Messages the L2s emitted.
    pub l2_sends: u64,
    /// Every message that crossed the mesh, in recording order.
    pub log: Vec<SendRecord>,
    /// Empty spans timed alongside the real ones (one per
    /// [`CALIBRATE_EVERY`] calls) and their summed nanoseconds.
    pub empty_spans: u64,
    /// See [`Profile::empty_spans`].
    pub empty_nanos: u64,
}

impl Profile {
    /// Summed span nanoseconds over every L1 method.
    pub fn l1_nanos(&self) -> u64 {
        self.l1.iter().map(|m| m.nanos).sum()
    }

    /// Summed calls over every L1 method.
    pub fn l1_calls(&self) -> u64 {
        self.l1.iter().map(|m| m.calls).sum()
    }

    /// Summed span nanoseconds over every L2 method.
    pub fn l2_nanos(&self) -> u64 {
        self.l2.iter().map(|m| m.nanos).sum()
    }

    /// Summed calls over every L2 method.
    pub fn l2_calls(&self) -> u64 {
        self.l2.iter().map(|m| m.calls).sum()
    }

    /// Mean cost of an empty span, measured in place during the traced
    /// run: what each recorded span adds to the call it times.
    pub fn timer_ns(&self) -> f64 {
        if self.empty_spans == 0 {
            0.0
        } else {
            self.empty_nanos as f64 / self.empty_spans as f64
        }
    }

    /// Adds `other`'s counters (not its log) to these.
    pub fn absorb(&mut self, other: &Profile) {
        for (acc, m) in self.l1.iter_mut().zip(&other.l1) {
            acc.calls += m.calls;
            acc.nanos += m.nanos;
        }
        for (acc, m) in self.l2.iter_mut().zip(&other.l2) {
            acc.calls += m.calls;
            acc.nanos += m.nanos;
        }
        self.submit_hits += other.submit_hits;
        self.submit_misses += other.submit_misses;
        self.submit_retries += other.submit_retries;
        self.l1_sends += other.l1_sends;
        self.l2_sends += other.l2_sends;
        self.empty_spans += other.empty_spans;
        self.empty_nanos += other.empty_nanos;
    }
}

thread_local! {
    static PROFILE: RefCell<Profile> = RefCell::new(Profile::default());
}

/// Takes the counters recorded on this thread since the last call,
/// leaving them empty.
pub fn take_profile() -> Profile {
    PROFILE.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// One empty span is timed per this many recorded calls.
const CALIBRATE_EVERY: u64 = 64;

/// Adds the span from `t0` to now to `method`'s counters. Every
/// [`CALIBRATE_EVERY`]th call also times an empty span the same way, so
/// the timer's own cost is measured under the same conditions as the
/// calls and can be subtracted from the layer self times, where it
/// would otherwise dominate calls of a few nanoseconds.
fn record(l1: bool, method: usize, t0: Instant) {
    let nanos = t0.elapsed().as_nanos() as u64;
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        let m = if l1 {
            &mut p.l1[method]
        } else {
            &mut p.l2[method]
        };
        m.calls += 1;
        m.nanos += nanos;
        if m.calls % CALIBRATE_EVERY == 0 {
            let t = Instant::now();
            std::hint::black_box(());
            p.empty_nanos += t.elapsed().as_nanos() as u64;
            p.empty_spans += 1;
        }
    });
}

/// Where the mesh routes an agent: the equivalent of the system
/// assembly's private router map (L1 and L2 `i` sit on router `i`, a
/// memory controller on a mesh corner).
#[derive(Clone, Copy, Debug)]
struct Routes {
    corners: [usize; 4],
    noc: NocConfig,
}

impl Routes {
    fn new(mesh: MeshTopology, noc: NocConfig) -> Routes {
        Routes {
            corners: mesh.corners(),
            noc,
        }
    }

    fn router(&self, agent: Agent) -> u32 {
        match agent {
            Agent::L1(i) | Agent::L2(i) => i as u32,
            Agent::Mem(j) => self.corners[j % 4] as u32,
        }
    }

    fn log(&self, cycle: Cycle, src: Agent, dst: Agent, msg: &Msg) -> SendRecord {
        SendRecord {
            cycle: cycle.as_u64(),
            src: self.router(src),
            dst: self.router(dst),
            vnet: msg.vnet(),
            flits: self.noc.flits_for_payload(msg.payload_bytes()),
        }
    }
}

/// A [`ProtocolFactory`] that builds the real protocol's controllers
/// and wraps each in a counting, timing, logging decorator.
pub struct TracedFactory {
    inner: ProtocolHandle,
    noc: NocConfig,
}

impl TracedFactory {
    /// Wraps `inner`; `noc` sizes logged messages in flits exactly as
    /// the assembly does.
    pub fn new(inner: ProtocolHandle, noc: NocConfig) -> TracedFactory {
        TracedFactory { inner, noc }
    }
}

impl ProtocolFactory for TracedFactory {
    fn protocol_name(&self) -> String {
        self.inner.protocol_name()
    }

    fn l1(&self, core: usize, shape: &MachineShape) -> Box<dyn L1Controller> {
        Box::new(TracedL1 {
            inner: self.inner.l1(core, shape),
            routes: Routes::new(shape.mesh, self.noc),
        })
    }

    fn l2(&self, tile: usize, shape: &MachineShape) -> Box<dyn L2Controller> {
        Box::new(TracedL2 {
            inner: self.inner.l2(tile, shape),
            tile,
            routes: Routes::new(shape.mesh, self.noc),
        })
    }

    fn validate_shape(&self, shape: &MachineShape) -> Result<(), String> {
        self.inner.validate_shape(shape)
    }

    fn coherence_discipline(&self) -> CoherenceDiscipline {
        self.inner.coherence_discipline()
    }
}

/// Logs the messages a drain appended to `out` past `from`.
fn log_sends(routes: &Routes, now: Cycle, out: &[NetMsg], from: usize, l1: bool) {
    if out.len() == from {
        return;
    }
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        let n = (out.len() - from) as u64;
        if l1 {
            p.l1_sends += n;
        } else {
            p.l2_sends += n;
        }
        for nm in &out[from..] {
            let rec = routes.log(now, nm.src, nm.dst, &nm.msg);
            p.log.push(rec);
        }
    });
}

struct TracedL1 {
    inner: Box<dyn L1Controller>,
    routes: Routes,
}

impl CacheController for TracedL1 {
    fn handle_message(&mut self, now: Cycle, src: Agent, msg: Msg) {
        let t0 = Instant::now();
        self.inner.handle_message(now, src, msg);
        record(true, L1_HANDLE, t0);
    }

    fn tick(&mut self, now: Cycle) {
        let t0 = Instant::now();
        self.inner.tick(now);
        record(true, L1_TICK, t0);
    }

    fn drain_outbox(&mut self, now: Cycle, out: &mut Vec<NetMsg>) {
        let from = out.len();
        let t0 = Instant::now();
        self.inner.drain_outbox(now, out);
        record(true, L1_DRAIN, t0);
        log_sends(&self.routes, now, out, from, true);
    }

    fn is_quiescent(&self) -> bool {
        let t0 = Instant::now();
        let r = self.inner.is_quiescent();
        record(true, L1_QUIET, t0);
        r
    }

    fn next_event(&self) -> Cycle {
        let t0 = Instant::now();
        let r = self.inner.next_event();
        record(true, L1_NEXT, t0);
        r
    }

    fn probe(&self) -> CtrlProbe {
        self.inner.probe()
    }

    fn access_lines(&self) -> Vec<(LineAddr, LineAccess)> {
        self.inner.access_lines()
    }
}

impl L1Controller for TracedL1 {
    fn submit(&mut self, now: Cycle, op: CoreOp) -> Submit {
        let t0 = Instant::now();
        let r = self.inner.submit(now, op);
        record(true, L1_SUBMIT, t0);
        PROFILE.with(|p| {
            let mut p = p.borrow_mut();
            match r {
                Submit::Hit(_) => p.submit_hits += 1,
                Submit::Miss => p.submit_misses += 1,
                Submit::Retry => p.submit_retries += 1,
            }
        });
        r
    }

    fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        let t0 = Instant::now();
        self.inner.drain_completions(out);
        record(true, L1_COMPLETIONS, t0);
    }

    fn stats(&self) -> &L1Stats {
        self.inner.stats()
    }
}

/// The L2 decorator. Memory controllers are not built by the factory,
/// so their traffic is logged here, when it arrives: every
/// memory-controller message is a reply to an L2.
struct TracedL2 {
    inner: Box<dyn L2Controller>,
    tile: usize,
    routes: Routes,
}

impl CacheController for TracedL2 {
    fn handle_message(&mut self, now: Cycle, src: Agent, msg: Msg) {
        if matches!(src, Agent::Mem(_)) {
            let rec = self.routes.log(now, src, Agent::L2(self.tile), &msg);
            PROFILE.with(|p| p.borrow_mut().log.push(rec));
        }
        let t0 = Instant::now();
        self.inner.handle_message(now, src, msg);
        record(false, L2_HANDLE, t0);
    }

    fn tick(&mut self, now: Cycle) {
        let t0 = Instant::now();
        self.inner.tick(now);
        record(false, L2_TICK, t0);
    }

    fn drain_outbox(&mut self, now: Cycle, out: &mut Vec<NetMsg>) {
        let from = out.len();
        let t0 = Instant::now();
        self.inner.drain_outbox(now, out);
        record(false, L2_DRAIN, t0);
        log_sends(&self.routes, now, out, from, false);
    }

    fn is_quiescent(&self) -> bool {
        let t0 = Instant::now();
        let r = self.inner.is_quiescent();
        record(false, L2_QUIET, t0);
        r
    }

    fn next_event(&self) -> Cycle {
        let t0 = Instant::now();
        let r = self.inner.next_event();
        record(false, L2_NEXT, t0);
        r
    }

    fn probe(&self) -> CtrlProbe {
        self.inner.probe()
    }

    fn access_lines(&self) -> Vec<(LineAddr, LineAccess)> {
        self.inner.access_lines()
    }
}

impl L2Controller for TracedL2 {
    fn stats(&self) -> &L2Stats {
        self.inner.stats()
    }
}

/// What replaying a traffic log through a fresh mesh produced.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Host seconds for every send and delivery.
    pub seconds: f64,
    /// Messages the mesh delivered.
    pub delivered: u64,
    /// Flits the mesh accounted.
    pub flits: u64,
    /// Flit-hops the mesh accounted.
    pub flit_hops: u64,
}

/// Replays `log` through a fresh [`Mesh`]: sends in cycle order,
/// delivering everything due before each new cycle's sends, then
/// drains the mesh. Times the whole replay.
pub fn replay(log: &mut [SendRecord], mesh: MeshTopology, noc: NocConfig) -> Replay {
    // Stable: messages of one cycle keep the order they were recorded
    // in (memory replies are logged at arrival, so they slot in late).
    log.sort_by_key(|r| r.cycle);
    let mut net: Mesh<()> = Mesh::new(mesh, noc);
    let mut out = Vec::new();
    let mut delivered = 0u64;
    let mut cycle = None;
    let t = Instant::now();
    for r in log.iter() {
        if cycle != Some(r.cycle) {
            cycle = Some(r.cycle);
            net.deliver_into(Cycle::new(r.cycle), &mut out);
            delivered += out.len() as u64;
            out.clear();
        }
        net.send(
            Cycle::new(r.cycle),
            r.src as usize,
            r.dst as usize,
            r.vnet,
            r.flits,
            (),
        );
    }
    net.deliver_into(Cycle::MAX, &mut out);
    delivered += out.len() as u64;
    let seconds = t.elapsed().as_secs_f64();
    Replay {
        seconds,
        delivered,
        flits: net.stats().flits_injected.get(),
        flit_hops: net.stats().flit_hops.get(),
    }
}
