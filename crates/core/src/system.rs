//! The simulated machine and its run loop.

use tsocc_coherence::{Agent, CacheController, L1Controller, L2Controller, MemCtrl, NetMsg};
use tsocc_cpu::Core;
use tsocc_isa::Program;
use tsocc_mem::{Addr, LineAddr, LineData, MainMemory};
use tsocc_noc::{Mesh, MeshTopology};
use tsocc_sim::{trace::TraceSink, Cycle, WakeQueue};

use crate::config::{ConfigError, Stepper, SystemConfig};
use crate::hang::{HangReport, L1Hang, L2Hang, NetHang};
use crate::stats::RunStats;

/// Cycles without message movement after which a run with unfinished
/// cores is declared deadlocked. A generous quiet window: random
/// backoffs and memory round trips are far shorter than this.
const DEADLOCK_WINDOW: u64 = 200_000;

/// Why a run did not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The run exceeded the cycle budget while still making progress.
    Timeout {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// No component made progress for a long time while cores were
    /// still unfinished: a protocol deadlock (this is a simulator bug
    /// if it ever fires — unless a fault plan injected one on purpose).
    Deadlock {
        /// The cycle at which progress stopped.
        stalled_at: u64,
        /// How many cores were still running.
        cores_unfinished: usize,
        /// Controllers with outstanding work when progress stopped.
        /// Filled in by [`System::run`] after the stepper reports the
        /// deadlock (the steppers construct it as `0`).
        busy_controllers: usize,
        /// Messages still in flight in the mesh (same post-hoc fill).
        msgs_in_flight: usize,
        /// The smallest blocked line address over every outstanding
        /// MSHR, parked writeback and busy directory transaction (same
        /// post-hoc fill) — the first place to look.
        first_blocked_line: Option<LineAddr>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Timeout { max_cycles } => {
                write!(f, "run exceeded {max_cycles} cycles")
            }
            RunError::Deadlock {
                stalled_at,
                cores_unfinished,
                busy_controllers,
                msgs_in_flight,
                first_blocked_line,
            } => {
                write!(
                    f,
                    "deadlock at cycle {stalled_at} with {cores_unfinished} cores unfinished, \
                     {busy_controllers} busy controllers, {msgs_in_flight} messages in flight"
                )?;
                if let Some(line) = first_blocked_line {
                    write!(f, "; first blocked line {line}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The full simulated machine: cores + L1s + L2 tiles + memory
/// controllers on a 2D mesh.
///
/// See the [crate-level documentation](crate) for an example.
pub struct System {
    cfg: SystemConfig,
    topo: MeshTopology,
    cores: Vec<Core>,
    l1s: Vec<Box<dyn L1Controller>>,
    l2s: Vec<Box<dyn L2Controller>>,
    mems: Vec<MemCtrl>,
    mesh: Mesh<NetMsg>,
    now: Cycle,
    trace: TraceSink,
    /// Scratch buffers reused by every `step` (no per-cycle allocation).
    arrivals: Vec<(usize, NetMsg)>,
    outgoing: Vec<NetMsg>,
    /// Outstanding-work ledger, refreshed at the end of each executed
    /// step, so [`System::is_finished`] is O(1) instead of re-scanning
    /// every component per cycle.
    cores_running: usize,
    busy_controllers: usize,
    /// Host-side count of actually executed steps (the event-driven
    /// scheduler executes far fewer steps than simulated cycles).
    steps: u64,
    /// Earliest cycle any component can act on its own, maintained by
    /// `step` for the event-driven run loop.
    wake: Cycle,
    /// Step generation (`steps` value) at which each L1 / L2 / memory
    /// controller last received a network message — or, for an L1, at
    /// which its core last ticked (a tick may submit into the L1; the
    /// thread-private instructions a tick runs ahead through never
    /// touch it). A step can thereby prove which cores, tiles and
    /// outboxes cannot possibly act this cycle and skip their ticks and
    /// drains.
    l1_msg_gen: Vec<u64>,
    l2_msg_gen: Vec<u64>,
    mem_msg_gen: Vec<u64>,
    /// Cached `next_event()` per controller, valid while the matching
    /// `*_msg_gen` stamp proves the controller untouched since it was
    /// sampled (a controller's wake deadline only changes inside
    /// `handle_message`, `tick`, `submit` or `drain_outbox`).
    l1_wake: Vec<Cycle>,
    l2_wake: Vec<Cycle>,
    mem_wake: Vec<Cycle>,
    /// Cached `!is_quiescent()` per controller, same validity rule.
    l1_busy: Vec<bool>,
    l2_busy: Vec<bool>,
    mem_busy: Vec<bool>,
    /// The indexed pending-event queue behind [`System::step_indexed`]:
    /// one slot per component (cores, then L1s, then L2 tiles, then
    /// memory controllers), holding the same cached absolute wake
    /// cycles as the `*_wake` vectors, so picking the next event is
    /// amortized O(1) instead of a min-scan over every component.
    wake_queue: WakeQueue,
    /// Cached `is_done()` per core, so `cores_running` updates
    /// incrementally from only the cores a step actually ticks.
    core_done: Vec<bool>,
    /// Scratch id sets reused by every `step_indexed` (no per-step
    /// allocation): queue pops, then per-class candidate lists.
    due_ids: Vec<u32>,
    cand_core: Vec<u32>,
    drain_l1: Vec<u32>,
    tick_l2: Vec<u32>,
    drain_l2: Vec<u32>,
    drain_mem: Vec<u32>,
}

impl System {
    /// Builds a machine running one program per core. Cores beyond
    /// `programs.len()` idle (an empty program halts immediately).
    ///
    /// # Panics
    ///
    /// Panics if more programs than cores are supplied, or if the
    /// configuration is invalid for the chosen protocol (see
    /// [`System::try_new`] for the fallible form).
    pub fn new(cfg: SystemConfig, programs: Vec<Program>) -> Self {
        match Self::try_new(cfg, programs) {
            Ok(sys) => sys,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: like [`System::new`], but an invalid
    /// configuration (or a program/core-count mismatch) is returned as
    /// a [`ConfigError`] instead of panicking — what binaries use to
    /// exit with a clean message and a nonzero status.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] describing the first violated constraint.
    pub fn try_new(cfg: SystemConfig, programs: Vec<Program>) -> Result<Self, ConfigError> {
        cfg.validate().map_err(ConfigError)?;
        if programs.len() > cfg.n_cores {
            return Err(ConfigError(format!(
                "{} programs for {} cores",
                programs.len(),
                cfg.n_cores
            )));
        }
        let shape = cfg.shape();
        let topo = shape.mesh;
        let mut programs = programs;
        while programs.len() < cfg.n_cores {
            programs.push(Program::new(vec![tsocc_isa::Instr::Halt]));
        }
        let cores: Vec<Core> = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Core::new(i, p, cfg.core, cfg.seed.wrapping_add(i as u64 * 7919)))
            .collect();
        let l1s: Vec<Box<dyn L1Controller>> = (0..cfg.n_cores)
            .map(|i| cfg.protocol.l1(i, &shape))
            .collect();
        let l2s: Vec<Box<dyn L2Controller>> = (0..cfg.n_tiles())
            .map(|t| cfg.protocol.l2(t, &shape))
            .collect();
        let mems: Vec<MemCtrl> = (0..cfg.n_mem)
            .map(|j| MemCtrl::new(j, MainMemory::new(), cfg.mem_latency))
            .collect();
        let mesh = Mesh::new(topo, cfg.noc);
        let cores_running = cores.len();
        let n_tiles = l2s.len();
        let cfg_n_mem = mems.len();
        Ok(System {
            cfg,
            topo,
            cores,
            l1s,
            l2s,
            mems,
            mesh,
            now: Cycle::ZERO,
            trace: TraceSink::disabled(),
            arrivals: Vec::new(),
            outgoing: Vec::new(),
            cores_running,
            busy_controllers: 0,
            steps: 0,
            wake: Cycle::ZERO,
            l1_msg_gen: vec![0; cores_running],
            l2_msg_gen: vec![0; n_tiles],
            mem_msg_gen: vec![0; cfg_n_mem],
            l1_wake: vec![Cycle::MAX; cores_running],
            l2_wake: vec![Cycle::MAX; n_tiles],
            mem_wake: vec![Cycle::MAX; cfg_n_mem],
            l1_busy: vec![false; cores_running],
            l2_busy: vec![false; n_tiles],
            mem_busy: vec![false; cfg_n_mem],
            wake_queue: WakeQueue::new(0),
            core_done: vec![false; cores_running],
            due_ids: Vec::new(),
            cand_core: Vec::new(),
            drain_l1: Vec::new(),
            tick_l2: Vec::new(),
            drain_l2: Vec::new(),
            drain_mem: Vec::new(),
        })
    }

    /// Enables or disables per-message protocol tracing (off by
    /// default; the disabled path costs one branch per message).
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// The recorded protocol trace (one line per delivered message).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Access to core `i` (final registers for litmus outcomes).
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// The memory controller owning `addr`'s line: the one backing the
    /// line's home L2 tile (L2s target `Agent::Mem(tile % n_mem)`, so
    /// routing through [`MachineShape::home_tile`] keeps the two maps
    /// agreeing under any bank interleaving).
    ///
    /// [`MachineShape::home_tile`]: tsocc_coherence::MachineShape::home_tile
    fn mem_ctrl_of(&self, addr: Addr) -> usize {
        let tile = self.cfg.shape().home_tile(addr.line());
        tile % self.cfg.n_mem
    }

    /// Initializes one memory word before the run.
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let ctrl = self.mem_ctrl_of(addr);
        self.mems[ctrl].memory_mut().write_word(addr, value);
    }

    /// Reads one memory word from DRAM. Note that after a run, the most
    /// recent value of a line may still live dirty in a cache; programs
    /// should read results through their own loads (or fence before
    /// halting) when exact final values matter.
    pub fn read_mem_word(&self, addr: Addr) -> u64 {
        let ctrl = self.mem_ctrl_of(addr);
        self.mems[ctrl].memory().read_word(addr)
    }

    /// A deterministic snapshot of DRAM: every line ever written,
    /// **sorted by line address** — a guarantee, not an iteration-order
    /// accident. Each controller's [`tsocc_mem::MainMemory::lines`] is
    /// already sorted; the sort here merely merges the per-controller
    /// (line-interleaved) sequences into one ordered image. Used by
    /// parity tests to compare final memory images across steppers and
    /// protocols.
    pub fn memory_image(&self) -> Vec<(LineAddr, LineData)> {
        let mut image: Vec<(LineAddr, LineData)> = self
            .mems
            .iter()
            .flat_map(|m| m.memory().lines().map(|(l, d)| (l, *d)))
            .collect();
        image.sort_unstable_by_key(|&(l, _)| l);
        image
    }

    fn router_of(&self, agent: Agent) -> usize {
        match agent {
            Agent::L1(i) | Agent::L2(i) => i,
            Agent::Mem(j) => {
                let corners = self.topo.corners();
                corners[j % 4]
            }
        }
    }

    fn dispatch(&mut self, now: Cycle, nm: NetMsg) {
        self.trace
            .emit(now, || format!("{} -> {}: {:?}", nm.src, nm.dst, nm.msg));
        match nm.dst {
            Agent::L1(i) => {
                self.l1s[i].handle_message(now, nm.src, nm.msg);
                self.l1_msg_gen[i] = self.steps;
            }
            Agent::L2(i) => {
                self.l2s[i].handle_message(now, nm.src, nm.msg);
                self.l2_msg_gen[i] = self.steps;
            }
            Agent::Mem(j) => {
                self.mems[j].handle_message(now, nm.src, nm.msg);
                self.mem_msg_gen[j] = self.steps;
            }
        }
    }

    /// Advances the machine one cycle; returns whether any component
    /// showed activity (message movement).
    ///
    /// While running its phases this also maintains, for free (the
    /// loops already touch every component):
    /// - the outstanding-work ledger behind the O(1)
    ///   [`System::is_finished`], and
    /// - `self.wake`, the earliest cycle at which any component can act
    ///   on its own — the next mesh arrival, the next outbox-ready
    ///   deadline, or the next self-driven core event. Every simulated
    ///   cycle strictly between `self.now` and `self.wake` is provably
    ///   a no-op for every component, which is what lets the
    ///   event-driven run loop skip those cycles bit-exactly. Each
    ///   component is sampled after its last possible mutation in the
    ///   step (cores after phase 2, controller outboxes after their
    ///   phase-4 drain, the mesh after injection).
    ///
    /// `stop` is the first cycle the run loop will not execute; cores
    /// run ahead only through instructions that issue before it.
    fn step(&mut self, stop: Cycle) -> bool {
        let now = self.now;
        self.steps += 1;
        let mut active = false;
        let mut wake = Cycle::MAX;

        // 1. Deliver arrived network messages.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.mesh.deliver_into(now, &mut arrivals);
        active |= !arrivals.is_empty();
        for (_router, nm) in arrivals.drain(..) {
            self.dispatch(now, nm);
        }
        self.arrivals = arrivals;

        // 2. Cores execute against their L1s. A core's tick is provably
        // a no-op — and is skipped — unless the core can act this cycle
        // (its own wake deadline has arrived) or its L1 just received a
        // message (which may have queued completions to pop).
        let gen = self.steps;
        let next = now + 1;
        let mut cores_running = 0;
        for (i, (core, l1)) in self.cores.iter_mut().zip(self.l1s.iter_mut()).enumerate() {
            if self.l1_msg_gen[i] == gen || core.next_event(now) <= now {
                // The tick may submit into the L1, so the L1's cached
                // wake/quiescence are stale from here on: re-stamp.
                core.tick(now, stop, l1.as_mut());
                self.l1_msg_gen[i] = gen;
            }
            if !core.is_done() {
                cores_running += 1;
            }
            wake = wake.min(core.next_event(next));
        }
        self.cores_running = cores_running;

        // 3. Tile controllers advance (queued-request replay). Replay
        // entries only appear while handling a message, so a tile that
        // received nothing this step has nothing to do.
        for (i, l2) in self.l2s.iter_mut().enumerate() {
            if self.l2_msg_gen[i] == gen {
                l2.tick(now);
            }
        }

        // 4. Inject ready outgoing messages into the mesh, draining
        // every controller into one reusable scratch buffer. A
        // controller untouched this step (no message handled, no core
        // submit, no tick) whose cached wake deadline has not arrived
        // provably has nothing ready — its outbox, quiescence and
        // next_event are exactly what they were when last sampled — so
        // the drain and its virtual calls are skipped and the cached
        // values are reused.
        let mut outgoing = std::mem::take(&mut self.outgoing);
        let mut busy_controllers = 0;
        for (i, l1) in self.l1s.iter_mut().enumerate() {
            if self.l1_msg_gen[i] == gen || self.l1_wake[i] <= now {
                l1.drain_outbox(now, &mut outgoing);
                self.l1_busy[i] = !l1.is_quiescent();
                self.l1_wake[i] = l1.next_event();
            }
            busy_controllers += usize::from(self.l1_busy[i]);
            wake = wake.min(self.l1_wake[i]);
        }
        for (i, l2) in self.l2s.iter_mut().enumerate() {
            if self.l2_msg_gen[i] == gen || self.l2_wake[i] <= now {
                l2.drain_outbox(now, &mut outgoing);
                self.l2_busy[i] = !l2.is_quiescent();
                self.l2_wake[i] = l2.next_event();
            }
            busy_controllers += usize::from(self.l2_busy[i]);
            wake = wake.min(self.l2_wake[i]);
        }
        for (i, mem) in self.mems.iter_mut().enumerate() {
            if self.mem_msg_gen[i] == gen || self.mem_wake[i] <= now {
                mem.drain_outbox(now, &mut outgoing);
                self.mem_busy[i] = !mem.is_quiescent();
                self.mem_wake[i] = mem.next_event();
            }
            busy_controllers += usize::from(self.mem_busy[i]);
            wake = wake.min(self.mem_wake[i]);
        }
        self.busy_controllers = busy_controllers;
        active |= !outgoing.is_empty();
        for nm in outgoing.drain(..) {
            let src = self.router_of(nm.src);
            let dst = self.router_of(nm.dst);
            let vnet = nm.msg.vnet();
            let flits = self.cfg.noc.flits_for_payload(nm.msg.payload_bytes());
            let extra = self
                .cfg
                .faults
                .noc_extra_delay(now.as_u64(), src, dst, vnet);
            self.mesh
                .send_with_delay(now, src, dst, vnet, flits, extra, nm);
        }
        self.outgoing = outgoing;
        self.wake = wake.min(self.mesh.next_arrival().unwrap_or(Cycle::MAX));

        self.now += 1;
        active
    }

    /// First queue id of the L1 class (cores occupy `0..l1_id_base()`).
    fn l1_id_base(&self) -> usize {
        self.cores.len()
    }

    /// First queue id of the L2 class.
    fn l2_id_base(&self) -> usize {
        self.cores.len() + self.l1s.len()
    }

    /// First queue id of the memory-controller class.
    fn mem_id_base(&self) -> usize {
        self.l2_id_base() + self.l2s.len()
    }

    /// (Re)builds the indexed event queue and the incremental ledgers
    /// from the machine's current state: one full scan at run start, so
    /// that no later step of [`System::step_indexed`] ever needs one.
    fn prime_queue(&mut self) {
        let now = self.now;
        self.wake_queue
            .reset(self.mem_id_base() + self.mems.len(), now.as_u64());
        let mut running = 0;
        for (i, core) in self.cores.iter().enumerate() {
            let done = core.is_done();
            self.core_done[i] = done;
            running += usize::from(!done);
            // Sampled at `now` (not `now + 1`) so cores due at the very
            // first executed cycle are already in the queue.
            self.wake_queue.set(i, core.next_event(now).as_u64());
        }
        self.cores_running = running;
        let mut busy = 0;
        let (l1b, l2b, memb) = (self.l1_id_base(), self.l2_id_base(), self.mem_id_base());
        for (i, l1) in self.l1s.iter().enumerate() {
            self.l1_wake[i] = l1.next_event();
            self.l1_busy[i] = !l1.is_quiescent();
            busy += usize::from(self.l1_busy[i]);
            self.wake_queue.set(l1b + i, self.l1_wake[i].as_u64());
        }
        for (i, l2) in self.l2s.iter().enumerate() {
            self.l2_wake[i] = l2.next_event();
            self.l2_busy[i] = !l2.is_quiescent();
            busy += usize::from(self.l2_busy[i]);
            self.wake_queue.set(l2b + i, self.l2_wake[i].as_u64());
        }
        for (i, mem) in self.mems.iter().enumerate() {
            self.mem_wake[i] = mem.next_event();
            self.mem_busy[i] = !mem.is_quiescent();
            busy += usize::from(self.mem_busy[i]);
            self.wake_queue.set(memb + i, self.mem_wake[i].as_u64());
        }
        self.busy_controllers = busy;
    }

    /// The indexed step: semantically identical to [`System::step`],
    /// but instead of scanning every component for work and for the
    /// next wake cycle, it visits only the components that are **due**
    /// (their queued wake deadline arrived — popped from the
    /// [`WakeQueue`]) or **touched** (a network message landed on them
    /// this cycle). Every skipped component provably satisfies the same
    /// "untouched and not due" conditions under which the reference
    /// loop's phases are no-ops, so the two produce bit-identical
    /// machines; the per-step cost is O(active components), not O(n).
    ///
    /// Equivalence of the core wake test deserves a note: the queue
    /// holds `core.next_event(prev + 1)` sampled after the core's last
    /// tick at `prev`, while the reference compares
    /// `core.next_event(now) <= now` each cycle. For an untouched core
    /// the two are interchangeable — `next_event(t)` only ever returns
    /// a constant deadline, `t` itself, or `MAX`, so "cached sample
    /// `<= now`" and "fresh sample `<= now`" agree for every `now`
    /// after the sample point.
    fn step_indexed(&mut self, stop: Cycle) -> bool {
        let now = self.now;
        self.steps += 1;
        let gen = self.steps;
        let mut active = false;

        // Components whose cached wake deadline has arrived. Popped
        // entries are consumed; each is re-armed below after its class
        // phase runs (the drain/tick re-samples `next_event`).
        let mut due_ids = std::mem::take(&mut self.due_ids);
        due_ids.clear();
        self.wake_queue.pop_due(now.as_u64(), &mut due_ids);

        let mut cand_core = std::mem::take(&mut self.cand_core);
        let mut drain_l1 = std::mem::take(&mut self.drain_l1);
        let mut tick_l2 = std::mem::take(&mut self.tick_l2);
        let mut drain_l2 = std::mem::take(&mut self.drain_l2);
        let mut drain_mem = std::mem::take(&mut self.drain_mem);
        cand_core.clear();
        drain_l1.clear();
        tick_l2.clear();
        drain_l2.clear();
        drain_mem.clear();

        let (l1b, l2b, memb) = (self.l1_id_base(), self.l2_id_base(), self.mem_id_base());
        for &id in &due_ids {
            let id = id as usize;
            if id < l1b {
                cand_core.push(id as u32);
            } else if id < l2b {
                drain_l1.push((id - l1b) as u32);
            } else if id < memb {
                drain_l2.push((id - l2b) as u32);
            } else {
                drain_mem.push((id - memb) as u32);
            }
        }

        // 1. Deliver arrived network messages, recording which
        // components they touch — the indexed equivalent of the
        // reference loop discovering fresh `*_msg_gen` stamps by scan.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.mesh.deliver_into(now, &mut arrivals);
        active |= !arrivals.is_empty();
        for (_router, nm) in arrivals.drain(..) {
            match nm.dst {
                Agent::L1(i) => {
                    if self.l1_msg_gen[i] != gen {
                        cand_core.push(i as u32);
                    }
                }
                Agent::L2(i) => {
                    if self.l2_msg_gen[i] != gen {
                        tick_l2.push(i as u32);
                        drain_l2.push(i as u32);
                    }
                }
                Agent::Mem(j) => {
                    if self.mem_msg_gen[j] != gen {
                        drain_mem.push(j as u32);
                    }
                }
            }
            self.dispatch(now, nm);
        }
        self.arrivals = arrivals;

        // 2. Cores execute against their L1s. Condition verbatim from
        // the reference step; candidates outside the due/touched sets
        // would fail it anyway.
        cand_core.sort_unstable();
        cand_core.dedup();
        let next = now + 1;
        for &i in &cand_core {
            let i = i as usize;
            let core = &mut self.cores[i];
            if self.l1_msg_gen[i] == gen || core.next_event(now) <= now {
                core.tick(now, stop, self.l1s[i].as_mut());
                self.l1_msg_gen[i] = gen;
            }
            let done = core.is_done();
            if done != self.core_done[i] {
                self.core_done[i] = done;
                if done {
                    self.cores_running -= 1;
                } else {
                    self.cores_running += 1;
                }
            }
            self.wake_queue.set(i, core.next_event(next).as_u64());
        }

        // 3. Touched tiles advance (queued-request replay).
        tick_l2.sort_unstable();
        tick_l2.dedup();
        for &i in &tick_l2 {
            let i = i as usize;
            if self.l2_msg_gen[i] == gen {
                self.l2s[i].tick(now);
            }
        }

        // 4. Drain candidates into the mesh — ascending index within
        // each class, classes in L1, L2, memory order, so the mesh sees
        // the exact injection sequence of the reference step (its
        // link-contention and tie-break state are order-sensitive).
        let mut outgoing = std::mem::take(&mut self.outgoing);
        drain_l1.extend_from_slice(&cand_core);
        drain_l1.sort_unstable();
        drain_l1.dedup();
        for &i in &drain_l1 {
            let i = i as usize;
            if self.l1_msg_gen[i] == gen || self.l1_wake[i] <= now {
                let l1 = &mut self.l1s[i];
                l1.drain_outbox(now, &mut outgoing);
                let busy = !l1.is_quiescent();
                if busy != self.l1_busy[i] {
                    self.l1_busy[i] = busy;
                    if busy {
                        self.busy_controllers += 1;
                    } else {
                        self.busy_controllers -= 1;
                    }
                }
                self.l1_wake[i] = l1.next_event();
                self.wake_queue.set(l1b + i, self.l1_wake[i].as_u64());
            }
        }
        drain_l2.sort_unstable();
        drain_l2.dedup();
        for &i in &drain_l2 {
            let i = i as usize;
            if self.l2_msg_gen[i] == gen || self.l2_wake[i] <= now {
                let l2 = &mut self.l2s[i];
                l2.drain_outbox(now, &mut outgoing);
                let busy = !l2.is_quiescent();
                if busy != self.l2_busy[i] {
                    self.l2_busy[i] = busy;
                    if busy {
                        self.busy_controllers += 1;
                    } else {
                        self.busy_controllers -= 1;
                    }
                }
                self.l2_wake[i] = l2.next_event();
                self.wake_queue.set(l2b + i, self.l2_wake[i].as_u64());
            }
        }
        drain_mem.sort_unstable();
        drain_mem.dedup();
        for &j in &drain_mem {
            let j = j as usize;
            if self.mem_msg_gen[j] == gen || self.mem_wake[j] <= now {
                let mem = &mut self.mems[j];
                mem.drain_outbox(now, &mut outgoing);
                let busy = !mem.is_quiescent();
                if busy != self.mem_busy[j] {
                    self.mem_busy[j] = busy;
                    if busy {
                        self.busy_controllers += 1;
                    } else {
                        self.busy_controllers -= 1;
                    }
                }
                self.mem_wake[j] = mem.next_event();
                self.wake_queue.set(memb + j, self.mem_wake[j].as_u64());
            }
        }
        active |= !outgoing.is_empty();
        for nm in outgoing.drain(..) {
            let src = self.router_of(nm.src);
            let dst = self.router_of(nm.dst);
            let vnet = nm.msg.vnet();
            let flits = self.cfg.noc.flits_for_payload(nm.msg.payload_bytes());
            let extra = self
                .cfg
                .faults
                .noc_extra_delay(now.as_u64(), src, dst, vnet);
            self.mesh
                .send_with_delay(now, src, dst, vnet, flits, extra, nm);
        }
        self.outgoing = outgoing;
        self.wake = Cycle::new(self.wake_queue.next_wake())
            .min(self.mesh.next_arrival().unwrap_or(Cycle::MAX));

        self.due_ids = due_ids;
        self.cand_core = cand_core;
        self.drain_l1 = drain_l1;
        self.tick_l2 = tick_l2;
        self.drain_l2 = drain_l2;
        self.drain_mem = drain_mem;
        self.now += 1;
        active
    }

    /// Whether every core has finished and the machine is quiescent.
    /// O(1): reads the outstanding-work counters maintained by `step`.
    pub fn is_finished(&self) -> bool {
        self.cores_running == 0 && self.busy_controllers == 0 && self.mesh.is_idle()
    }

    /// Number of steps the run loop actually executed so far. Under the
    /// event-driven scheduler this is the host-event count — typically
    /// far below [`RunStats::cycles`]; under [`Stepper::Reference`] the
    /// two advance in lockstep.
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Runs until every core halts and the machine drains, or until
    /// `max_cycles`, using the configured [`Stepper`].
    ///
    /// # Errors
    ///
    /// [`RunError::Timeout`] if the budget is exceeded;
    /// [`RunError::Deadlock`] if nothing moves for a long stretch while
    /// cores are unfinished. The deadlock report carries outstanding-
    /// work counters and the first blocked line; call
    /// [`System::hang_report`] for the full structured diagnosis.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, RunError> {
        let result = match self.cfg.stepper {
            Stepper::EventDriven => self.run_event_driven(max_cycles),
            Stepper::Reference => self.run_reference(max_cycles),
        };
        match result {
            // The steppers report the *where*; the enrichment here
            // (outside their hot loops and borrow scopes) adds the
            // *what was outstanding* from the intact post-run machine.
            Err(RunError::Deadlock {
                stalled_at,
                cores_unfinished,
                ..
            }) => {
                let report = self.hang_report();
                Err(RunError::Deadlock {
                    stalled_at,
                    cores_unfinished,
                    busy_controllers: self.busy_controllers,
                    msgs_in_flight: self.mesh.in_flight_len(),
                    first_blocked_line: report.first_blocked_line(),
                })
            }
            other => other,
        }
    }

    /// Snapshots the machine's outstanding work into a structured
    /// [`HangReport`]: per-controller probes, in-flight messages, the
    /// wait-for graph and (when one exists) its cycle — the deadlock
    /// witness. Valid at any point; meaningful after [`System::run`]
    /// returned [`RunError::Deadlock`] or [`RunError::Timeout`].
    pub fn hang_report(&self) -> HangReport {
        let l1s: Vec<L1Hang> = self
            .l1s
            .iter()
            .enumerate()
            .map(|(core, c)| L1Hang {
                core,
                probe: CacheController::probe(c.as_ref()),
            })
            .filter(|h| !h.probe.is_empty())
            .collect();
        let l2s: Vec<L2Hang> = self
            .l2s
            .iter()
            .enumerate()
            .map(|(tile, c)| L2Hang {
                tile,
                probe: CacheController::probe(c.as_ref()),
            })
            .filter(|h| !h.probe.is_empty())
            .collect();
        let mut in_flight: Vec<NetHang> = self
            .mesh
            .in_flight_msgs()
            .map(|(at, dst, nm)| NetHang {
                at: at.as_u64(),
                dst,
                kind: nm.msg.kind_name(),
                line: nm.msg.line(),
            })
            .collect();
        in_flight.sort_unstable_by_key(|m| (m.at, m.dst, m.kind, m.line));
        let shape = self.cfg.shape();
        let (edges, cycle) =
            crate::hang::wait_graph(self.cores.len(), &l1s, &l2s, |line| shape.home_tile(line));
        HangReport {
            at_cycle: self.now.as_u64(),
            cores_unfinished: self.cores_running,
            busy_controllers: self.busy_controllers,
            l1s,
            l2s,
            in_flight,
            edges,
            cycle,
        }
    }

    /// The first cycle a run loop will not execute, given its budget
    /// and the cycle after its last active step: it stops at
    /// `max_cycles` (timeout) or one deadlock window after the last
    /// message moved. A core's run-ahead never passes it, so a failed
    /// run's statistics are exactly those of the cycles it ran.
    fn stop_cycle(max_cycles: u64, last_active: Cycle) -> Cycle {
        Cycle::new(max_cycles).min(last_active.saturating_add(DEADLOCK_WINDOW + 1))
    }

    /// The original cycle-by-cycle polling loop, kept as the
    /// determinism oracle for the event-driven scheduler.
    fn run_reference(&mut self, max_cycles: u64) -> Result<RunStats, RunError> {
        let mut last_active = self.now;
        while self.now.as_u64() < max_cycles {
            let active = self.step(Self::stop_cycle(max_cycles, last_active));
            if active {
                last_active = self.now;
            }
            if self.is_finished() {
                return Ok(self.collect_stats());
            }
            if self.now - last_active > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock {
                    stalled_at: self.now.as_u64(),
                    cores_unfinished: self.cores_running,
                    busy_controllers: 0,
                    msgs_in_flight: 0,
                    first_blocked_line: None,
                });
            }
        }
        Err(RunError::Timeout { max_cycles })
    }

    /// The event-driven scheduler: identical per-cycle semantics to
    /// [`System::run_reference`], but each executed step visits only
    /// due-or-touched components ([`System::step_indexed`]), and after
    /// it simulated time jumps straight to the earliest cycle any
    /// component can act — the queue minimum — instead of
    /// single-stepping through the idle window. The skipped cycles are
    /// exactly those in which the reference loop's step would have been
    /// a no-op, so both loops produce bit-identical results — including
    /// timeout and deadlock reporting, which is emulated at the cycle
    /// the reference loop would have detected it.
    fn run_event_driven(&mut self, max_cycles: u64) -> Result<RunStats, RunError> {
        self.prime_queue();
        let mut last_active = self.now;
        loop {
            if self.now - last_active > DEADLOCK_WINDOW {
                return Err(RunError::Deadlock {
                    stalled_at: self.now.as_u64(),
                    cores_unfinished: self.cores_running,
                    busy_controllers: 0,
                    msgs_in_flight: 0,
                    first_blocked_line: None,
                });
            }
            if self.now.as_u64() >= max_cycles {
                return Err(RunError::Timeout { max_cycles });
            }
            let active = self.step_indexed(Self::stop_cycle(max_cycles, last_active));
            if active {
                last_active = self.now;
            }
            if self.is_finished() {
                return Ok(self.collect_stats());
            }
            // Fast-forward over the idle window, stopping where the
            // reference loop would declare deadlock or run out of budget.
            let target = self.wake.min(Self::stop_cycle(max_cycles, last_active));
            if target > self.now {
                self.now = target;
            }
        }
    }

    /// Aggregates all statistics (valid at any point, typically after
    /// [`System::run`]).
    pub fn collect_stats(&self) -> RunStats {
        let mut stats = RunStats {
            cycles: self.now.as_u64(),
            noc: self.mesh.stats().clone(),
            sched: self.wake_queue.stats(),
            ..RunStats::default()
        };
        for l1 in &self.l1s {
            stats.l1.merge(L1Controller::stats(l1.as_ref()));
        }
        for l2 in &self.l2s {
            stats.l2.merge(L2Controller::stats(l2.as_ref()));
        }
        for core in &self.cores {
            let cs = core.stats();
            stats.instructions += cs.instructions.get();
            stats.rmw_latency.merge(&cs.rmw_latency);
            stats.load_latency.merge(&cs.load_latency);
            stats.wb_full_stalls += cs.wb_full_stalls.get();
        }
        stats
    }
}

#[cfg(test)]
mod tests;
