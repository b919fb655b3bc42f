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
    ///
    /// The run loop reads every field from the machine at the cycle it
    /// detects the deadlock; the counts and the blocked line equal
    /// those of [`System::hang_report`] taken after the run.
    Deadlock {
        /// The cycle at which progress stopped.
        stalled_at: u64,
        /// How many cores were still running.
        cores_unfinished: usize,
        /// Controllers with outstanding work when progress stopped.
        busy_controllers: usize,
        /// Messages still in flight in the mesh.
        msgs_in_flight: usize,
        /// The smallest blocked line address over every outstanding
        /// MSHR, parked writeback and busy directory transaction — the
        /// first place to look.
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

/// One component's entry in the run ledger. [`System`] indexes the
/// ledger, its wake queue and the ids a step visits alike: cores
/// `0..n`, then L1s, L2 tiles and memory controllers, so ascending ids
/// visit the controllers in the mesh's injection order.
#[derive(Clone, Copy, Debug)]
struct LedgerEntry {
    /// The step (`System::steps` value) at which a network message last
    /// landed on the component — for an L1, also at which its core last
    /// ticked (a tick may submit into the L1; the thread-private
    /// instructions a tick runs ahead through never touch it). A step
    /// can thereby prove which cores, tiles and outboxes cannot
    /// possibly act this cycle and skip their ticks and drains.
    touched: u64,
    /// A controller's cached `next_event()`, valid while `touched`
    /// proves the controller untouched since it was sampled (its wake
    /// deadline only changes inside `handle_message`, `tick`, `submit`
    /// or `drain_outbox`). Unused for a core, whose wake is read fresh.
    wake: Cycle,
    /// An unfinished core or a non-quiescent controller, as last
    /// sampled (same validity rule).
    busy: bool,
}

impl LedgerEntry {
    /// Records a fresh sample of whether the component is busy, keeping
    /// `count`, the number of busy entries, in step.
    fn set_busy(&mut self, busy: bool, count: &mut usize) {
        if busy != self.busy {
            self.busy = busy;
            if busy {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }
}

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
    /// The ledger ids a step visits, ascending: every id under
    /// [`Stepper::Reference`] (built once per run), the due and touched
    /// ones under [`Stepper::EventDriven`] (rebuilt by every step).
    visit: Vec<u32>,
    /// Host-side count of actually executed steps (the event-driven
    /// scheduler executes far fewer steps than simulated cycles).
    steps: u64,
    /// Per-component run state, one [`LedgerEntry`] per id.
    ledger: Vec<LedgerEntry>,
    /// How many ledger entries are busy, so [`System::is_finished`] is
    /// O(1) instead of re-scanning every component per cycle.
    busy: usize,
    /// The event-driven stepper's pending-event queue, one wake per
    /// ledger id, so picking the next event is amortized O(1) instead of
    /// a min-scan over every component. The reference stepper never
    /// touches it.
    wake_queue: WakeQueue,
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
        // Until a run samples them, every core counts as unfinished.
        let n_ids = 2 * cores.len() + l2s.len() + mems.len();
        let ledger = (0..n_ids)
            .map(|id| LedgerEntry {
                touched: 0,
                wake: Cycle::MAX,
                busy: id < cores.len(),
            })
            .collect();
        let busy = cores.len();
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
            visit: Vec::new(),
            steps: 0,
            ledger,
            busy,
            wake_queue: WakeQueue::new(0),
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

    /// The ledger id of a message's destination.
    fn id_of(&self, agent: Agent) -> usize {
        let n = self.cores.len();
        match agent {
            Agent::L1(i) => n + i,
            Agent::L2(i) => 2 * n + i,
            Agent::Mem(j) => 2 * n + self.l2s.len() + j,
        }
    }

    /// The controller with ledger id `id` (any id past the cores).
    fn ctrl_mut(&mut self, id: usize) -> &mut dyn CacheController {
        let n = self.cores.len();
        let mem = 2 * n + self.l2s.len();
        if id < 2 * n {
            self.l1s[id - n].as_mut()
        } else if id < mem {
            self.l2s[id - 2 * n].as_mut()
        } else {
            &mut self.mems[id - mem]
        }
    }

    /// Samples every component into the ledger — and, unless `every`
    /// (the reference stepper), arms the wake queue with each one's
    /// wake: one full scan at run start, so that no step needs one.
    fn prime(&mut self, every: bool) {
        let now = self.now;
        let n = self.cores.len();
        let n_ids = self.ledger.len();
        if every {
            self.visit = (0..n_ids as u32).collect();
        } else {
            self.wake_queue.reset(n_ids, now.as_u64());
        }
        for id in 0..n_ids {
            let wake = if id < n {
                let core = &self.cores[id];
                self.ledger[id].busy = !core.is_done();
                // Sampled at `now` (not `now + 1`) so cores due at the
                // very first executed cycle are already in the queue.
                core.next_event(now)
            } else {
                let ctrl = self.ctrl_mut(id);
                let (wake, busy) = (ctrl.next_event(), !ctrl.is_quiescent());
                self.ledger[id].wake = wake;
                self.ledger[id].busy = busy;
                wake
            };
            if !every {
                self.wake_queue.set(id, wake.as_u64());
            }
        }
        self.busy = self.ledger.iter().filter(|e| e.busy).count();
    }

    /// Advances the machine one cycle. Returns whether any component
    /// showed activity (message movement), and the cycle the run loop
    /// may jump to: the earliest at which any component can act on its
    /// own — the next mesh arrival, the next outbox-ready deadline, or
    /// the next self-driven core event — under the event-driven
    /// stepper, and simply the next cycle under the reference one.
    ///
    /// With `EVERY` (the reference stepper) the step visits every
    /// component. Otherwise it visits only the components that are
    /// **due** (their queued wake deadline arrived — popped from the
    /// [`WakeQueue`]) or **touched** (a network message lands on them
    /// this cycle), and re-arms each one it visits. Every component it
    /// leaves out is untouched and not due, so it fails the phase
    /// predicates below, under which a tick or drain would be a no-op.
    /// The two modes thus produce bit-identical machines; the
    /// event-driven step costs O(active components), not O(n).
    ///
    /// Equivalence of the core wake test deserves a note: the queue
    /// holds `core.next_event(prev + 1)` sampled after the core's last
    /// tick at `prev`, while the predicate compares
    /// `core.next_event(now) <= now`. For an untouched core the two are
    /// interchangeable — `next_event(t)` only ever returns a constant
    /// deadline, `t` itself, or `MAX`, so "cached sample `<= now`" and
    /// "fresh sample `<= now`" agree for every `now` after the sample
    /// point.
    ///
    /// `stop` is the first cycle the run loop will not execute; cores
    /// run ahead only through instructions that issue before it.
    fn step<const EVERY: bool>(&mut self, stop: Cycle) -> (bool, Cycle) {
        let now = self.now;
        self.steps += 1;
        let gen = self.steps;
        let n = self.cores.len();
        let mut visit = std::mem::take(&mut self.visit);
        if !EVERY {
            visit.clear();
            self.wake_queue.pop_due(now.as_u64(), &mut visit);
        }

        // 1. Deliver arrived network messages, stamping each
        // destination as touched.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.mesh.deliver_into(now, &mut arrivals);
        let mut active = !arrivals.is_empty();
        for (_router, nm) in arrivals.drain(..) {
            self.trace
                .emit(now, || format!("{} -> {}: {:?}", nm.src, nm.dst, nm.msg));
            let id = self.id_of(nm.dst);
            if !EVERY && self.ledger[id].touched != gen {
                // A message at an L1 makes its core a candidate (the L1
                // may have queued completions to pop), and through the
                // core the L1 itself.
                let cand = if id < 2 * n { id - n } else { id };
                visit.push(cand as u32);
            }
            self.ctrl_mut(id).handle_message(now, nm.src, nm.msg);
            self.ledger[id].touched = gen;
        }
        self.arrivals = arrivals;
        if !EVERY {
            // A candidate core may submit into its L1, so the L1 is a
            // drain candidate too.
            for k in 0..visit.len() {
                if (visit[k] as usize) < n {
                    visit.push(visit[k] + n as u32);
                }
            }
            visit.sort_unstable();
            visit.dedup();
        }
        let split = visit.partition_point(|&id| (id as usize) < n);

        // 2. Cores execute against their L1s. A core's tick is provably
        // a no-op — and is skipped — unless the core can act this cycle
        // (its own wake deadline has arrived) or its L1 just received a
        // message (which may have queued completions to pop).
        let next = now + 1;
        for &id in &visit[..split] {
            let i = id as usize;
            let core = &mut self.cores[i];
            if self.ledger[n + i].touched == gen || core.next_event(now) <= now {
                // The tick may submit into the L1, so the L1's cached
                // wake and busy flag are stale from here on: re-stamp.
                core.tick(now, stop, self.l1s[i].as_mut());
                self.ledger[n + i].touched = gen;
            }
            self.ledger[i].set_busy(!core.is_done(), &mut self.busy);
            if !EVERY {
                self.wake_queue.set(i, core.next_event(next).as_u64());
            }
        }

        // 3. Controllers drain their ready outgoing messages into one
        // reusable scratch buffer, in ascending id order — L1s, then
        // tiles, then memory controllers, each by index — which is the
        // injection order the mesh's link contention and tie-breaks see.
        // A controller untouched this step (no message handled, no core
        // submit) whose cached wake deadline has not arrived provably
        // has nothing ready — its outbox, quiescence and next_event are
        // exactly what they were when last sampled — so its drain and
        // virtual calls are skipped and the cached values are reused. A
        // touched tile first replays its queued requests; replay entries
        // only appear while handling a message, so an untouched tile has
        // none.
        let mut outgoing = std::mem::take(&mut self.outgoing);
        let tiles = 2 * n..2 * n + self.l2s.len();
        for &id in &visit[split..] {
            let id = id as usize;
            let touched = self.ledger[id].touched == gen;
            if !touched && self.ledger[id].wake > now {
                continue;
            }
            let ctrl = self.ctrl_mut(id);
            if touched && tiles.contains(&id) {
                ctrl.tick(now);
            }
            ctrl.drain_outbox(now, &mut outgoing);
            let (wake, busy) = (ctrl.next_event(), !ctrl.is_quiescent());
            self.ledger[id].wake = wake;
            self.ledger[id].set_busy(busy, &mut self.busy);
            if !EVERY {
                self.wake_queue.set(id, wake.as_u64());
            }
        }
        self.visit = visit;

        // 4. Inject the drained messages into the mesh.
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

        self.now += 1;
        let wake = if EVERY {
            self.now
        } else {
            Cycle::new(self.wake_queue.next_wake())
                .min(self.mesh.next_arrival().unwrap_or(Cycle::MAX))
        };
        (active, wake)
    }

    /// Whether every core has finished and the machine is quiescent.
    /// O(1): reads the busy count that every step keeps.
    pub fn is_finished(&self) -> bool {
        self.busy == 0 && self.mesh.is_idle()
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
    /// One loop serves both steppers: it executes a step, then jumps to
    /// the cycle the step reports — under [`Stepper::EventDriven`] the
    /// earliest cycle any component can act, skipping every cycle in
    /// which the step would be a no-op; under [`Stepper::Reference`] the
    /// next cycle, so no cycle is skipped. The jump never passes the
    /// cycle at which the budget runs out or the deadlock window
    /// closes, so both steppers report timeouts and deadlocks at the
    /// same cycle.
    ///
    /// # Errors
    ///
    /// [`RunError::Timeout`] if the budget is exceeded;
    /// [`RunError::Deadlock`] if nothing moves for a long stretch while
    /// cores are unfinished. The deadlock report carries outstanding-
    /// work counters and the first blocked line; call
    /// [`System::hang_report`] for the full structured diagnosis.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, RunError> {
        let every = self.cfg.stepper == Stepper::Reference;
        self.prime(every);
        let mut last_active = self.now;
        loop {
            if self.now - last_active > DEADLOCK_WINDOW {
                let report = self.hang_report();
                return Err(RunError::Deadlock {
                    stalled_at: self.now.as_u64(),
                    cores_unfinished: report.cores_unfinished,
                    busy_controllers: report.busy_controllers,
                    msgs_in_flight: self.mesh.in_flight_len(),
                    first_blocked_line: report.first_blocked_line(),
                });
            }
            if self.now.as_u64() >= max_cycles {
                return Err(RunError::Timeout { max_cycles });
            }
            let stop = Self::stop_cycle(max_cycles, last_active);
            let (active, wake) = if every {
                self.step::<true>(stop)
            } else {
                self.step::<false>(stop)
            };
            if active {
                last_active = self.now;
            }
            if self.is_finished() {
                return Ok(self.collect_stats());
            }
            let target = wake.min(Self::stop_cycle(max_cycles, last_active));
            if target > self.now {
                self.now = target;
            }
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
        let (cores, ctrls) = self.ledger.split_at(self.cores.len());
        let busy = |entries: &[LedgerEntry]| entries.iter().filter(|e| e.busy).count();
        HangReport {
            at_cycle: self.now.as_u64(),
            cores_unfinished: busy(cores),
            busy_controllers: busy(ctrls),
            l1s,
            l2s,
            in_flight,
            edges,
            cycle,
        }
    }

    /// The first cycle the run loop will not execute, given its budget
    /// and the cycle after its last active step: it stops at
    /// `max_cycles` (timeout) or one deadlock window after the last
    /// message moved. A core's run-ahead never passes it, so a failed
    /// run's statistics are exactly those of the cycles it ran.
    fn stop_cycle(max_cycles: u64, last_active: Cycle) -> Cycle {
        Cycle::new(max_cycles).min(last_active.saturating_add(DEADLOCK_WINDOW + 1))
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
