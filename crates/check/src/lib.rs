#![warn(missing_docs)]

//! Exhaustive stateless model checking of the coherence protocols.
//!
//! The conformance campaign (`tsocc-conform`) samples schedules by
//! running the timed simulator under randomized jitter: great coverage
//! per CPU-second, but never a proof. This crate closes the gap for
//! *small* configurations (2–3 cores, 1–2 lines): it drives the real
//! protocol controllers through the [`tsocc::scheduler`] seam and
//! explores **every** schedule up to FIFO-channel message reordering —
//! an exhaustive check of the same machine code the big simulations
//! run, not of a hand-abstracted model.
//!
//! After every transition that touches an L1 it checks the coherence
//! axioms (only such a transition can change an L1's permissions, so
//! every reached state is covered):
//!
//! - **single writer** (all protocols): at most one L1 holds a line
//!   with write permission;
//! - **writer excludes readers** ([`CoherenceDiscipline::Eager`]
//!   protocols only): while a writer exists, no other L1 holds the
//!   line at all. TSO-CC declares itself
//!   [`CoherenceDiscipline::Lazy`] — stale read-only copies are its
//!   design (paper §3.1), and the TSO outcome oracle judges them
//!   instead;
//!
//! and on every terminal state it checks deadlock-freedom plus the
//! observed outcome against the exact x86-TSO allowed set from
//! [`tsocc_workloads::tso_model`].
//!
//! Naive schedule enumeration explodes factorially, so the explorer
//! implements **dynamic partial-order reduction** (Flanagan &
//! Godefroid) with sleep sets: after executing a transition it plants
//! a backtrack point before *every* earlier dependent transition in
//! the trace (planting only before the last one is incomplete without
//! happens-before vector clocks), and sleep sets keep schedules that
//! merely commute independent transitions from being explored again.
//! Each depth-first frame keeps its done, backtrack and sleep sets as
//! bitmasks over its enabled choices, so a state may enable at most 64
//! choices; a wider one is rejected with [`CheckError::FrameTooWide`].
//! Dependence is keyed on the controller touched and refined by cache
//! line: two deliveries to the same controller for *different* lines
//! with disjoint emission channels commute.
//! (The refinement is sound here because checker configurations place
//! pool lines in distinct cache sets with spare ways — no evictions —
//! and it is disabled outright when a protocol mutation is armed,
//! since one-shot fault triggers make even different-line deliveries
//! order-sensitive.) [`CheckReport::reduction`] against a naive run
//! quantifies the pruning.
//!
//! Each [`check_model`] call builds one [`tsocc::ScheduledSystem`] and
//! walks it down and up the tree: a descent applies a choice, and a
//! backtrack pops the exhausted frame and undoes its parent's choice
//! ([`tsocc::ScheduledSystem::undo`]). No transition is applied twice,
//! and an undone machine is the machine a replay from the root reaches,
//! so the search order, the backtrack obligations and the sleep sets
//! are those of a search that replays, and so is the explored tree. The
//! machine's undo log is the current path: race detection reads the
//! earlier steps' footprints from it ([`tsocc::ScheduledSystem::path`]).
//!
//! Popped frames hand their enabled lists to new ones, the machine
//! reuses the buffers of undone steps, and the axiom check and the
//! terminal outcome reuse one buffer each, so the explorer allocates
//! nothing per transition. The protocol controllers may still allocate
//! inside a transition.
//!
//! The checker shares one blessed program surface with the campaign:
//! litmus programs are [`ModelProgram`]s, lowered to coherence-layer
//! ops by [`tsocc_conform::core_ops`], and violating programs shrink
//! to minimal reproducers with [`tsocc_conform::shrink()`]
//! ([`shrink_to_reproducer`]).

use std::collections::BTreeSet;

use tsocc::{Choice, ScheduledSystem, StepInfo, SystemConfig, Terminal};
use tsocc_coherence::{Agent, CoherenceDiscipline, FaultPlan, LineAccess};
use tsocc_conform::{core_ops, shrink};
use tsocc_mem::LineAddr;
use tsocc_protocols::Protocol;
use tsocc_workloads::tso_model::{enumerate, ModelMode, ModelProgram, StateSpaceTooLarge};

/// The two-location address pools the systematic litmus family
/// ([`tsocc_workloads::tso_model::generate_two_thread_programs`]) runs
/// over. `lines == 1` places both model locations on one cache line —
/// the hard case for line-granular protocols; `lines == 2` places them
/// on different lines *in different cache sets*, which the DPOR
/// same-controller refinement requires (no evictions, ever).
///
/// # Panics
///
/// Panics unless `lines` is 1 or 2.
pub fn pool_for_lines(lines: usize) -> Vec<u64> {
    match lines {
        1 => vec![0x2000, 0x2008],
        2 => vec![0x2000, 0x2040],
        _ => panic!("checker pools cover 1 or 2 lines, not {lines}"),
    }
}

/// Exploration bounds and mode.
#[derive(Clone, Copy, Debug)]
pub struct CheckOpts {
    /// Disable DPOR and sleep sets: explore every enabled choice at
    /// every state. Only use to *measure* the reduction — the naive
    /// space explodes factorially.
    pub naive: bool,
    /// Stop after this many terminal schedules (the report is then
    /// marked incomplete).
    pub max_schedules: u64,
    /// Per-schedule transition bound; exceeding it is reported as a
    /// livelock violation.
    pub max_steps: usize,
    /// State bound handed to the x86-TSO oracle enumeration.
    pub oracle_max_states: usize,
}

impl Default for CheckOpts {
    fn default() -> Self {
        CheckOpts {
            naive: false,
            max_schedules: 1_000_000,
            max_steps: 10_000,
            oracle_max_states: 2_000_000,
        }
    }
}

/// A property violation, with the schedule that reaches it.
#[derive(Clone, Debug)]
pub struct CheckViolation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The choice sequence reproducing it from the initial state (feed
    /// to [`tsocc::ReplaySchedule`]).
    pub schedule: Vec<Choice>,
}

/// The property a schedule violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two or more L1s hold the same line with write permission.
    MultipleWriters {
        /// The line.
        line: LineAddr,
        /// The offending cores.
        cores: Vec<usize>,
    },
    /// An [`CoherenceDiscipline::Eager`] protocol let a reader coexist
    /// with a writer.
    ReaderWriterOverlap {
        /// The line.
        line: LineAddr,
        /// The core holding write permission.
        writer: usize,
        /// The cores holding stale copies.
        readers: Vec<usize>,
    },
    /// A terminal state observed an outcome outside the exact x86-TSO
    /// allowed set.
    ForbiddenOutcome {
        /// The observed (forbidden) outcome, thread-major.
        outcome: Vec<u64>,
    },
    /// No transition is enabled but some thread has not finished.
    Deadlock,
    /// One schedule exceeded [`CheckOpts::max_steps`] transitions.
    Livelock,
}

impl ViolationKind {
    /// Short machine-readable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ViolationKind::MultipleWriters { .. } => "multiple_writers",
            ViolationKind::ReaderWriterOverlap { .. } => "reader_writer_overlap",
            ViolationKind::ForbiddenOutcome { .. } => "forbidden_outcome",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Livelock => "livelock",
        }
    }
}

/// Why a check could not run at all.
#[derive(Clone, Debug)]
pub enum CheckError {
    /// The derived system configuration was rejected.
    Config(tsocc::ConfigError),
    /// The x86-TSO oracle state space outgrew
    /// [`CheckOpts::oracle_max_states`].
    OracleTooLarge(StateSpaceTooLarge),
    /// A reached state enables more choices than the explorer's frame
    /// masks hold (64).
    FrameTooWide {
        /// The number of enabled choices.
        width: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Config(e) => write!(f, "config rejected: {}", e.0),
            CheckError::OracleTooLarge(e) => write!(f, "oracle: {e}"),
            CheckError::FrameTooWide { width } => write!(
                f,
                "a state enables {width} choices; the explorer covers at most {MAX_FRAME_WIDTH}"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// The result of exploring one program on one protocol.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Terminal schedules reached.
    pub schedules: u64,
    /// Transitions applied. Backtracking undoes transitions and never
    /// re-applies one, so each edge of the explored tree counts once.
    pub transitions: u64,
    /// Branches pruned because every enabled choice was asleep.
    pub sleep_blocked: u64,
    /// Every outcome observed across all explored schedules.
    pub outcomes: BTreeSet<Vec<u64>>,
    /// The oracle's exact allowed-outcome set.
    pub allowed: BTreeSet<Vec<u64>>,
    /// Violations found (exploration stops at the first one).
    pub violations: Vec<CheckViolation>,
    /// The exploration ran to exhaustion (no bound was hit, no
    /// violation cut it short).
    pub complete: bool,
}

impl CheckReport {
    /// The DPOR pruning factor against a naive run of the same
    /// program: `naive.schedules / self.schedules`.
    pub fn reduction(&self, naive: &CheckReport) -> f64 {
        naive.schedules as f64 / (self.schedules.max(1)) as f64
    }
}

/// Exhaustively checks `program` on `protocol` (with `faults` armed,
/// if any) over the addresses in `pool`.
///
/// # Errors
///
/// [`CheckError`] if the configuration is rejected or the oracle's
/// state space exceeds its bound. An incomplete *exploration* (bound
/// hit) is not an error — see [`CheckReport::complete`].
pub fn check_model(
    protocol: &Protocol,
    faults: FaultPlan,
    program: &ModelProgram,
    pool: &[u64],
    opts: &CheckOpts,
) -> Result<CheckReport, CheckError> {
    let allowed = enumerate(program, ModelMode::Tso, opts.oracle_max_states)
        .map_err(CheckError::OracleTooLarge)?
        .outcomes;
    let cfg = SystemConfig::builder()
        .small()
        .cores(program.len())
        .protocol(*protocol)
        .faults(faults)
        .build()
        .map_err(CheckError::Config)?;
    let programs = program.iter().map(|ops| core_ops(ops, pool)).collect();
    let state = ScheduledSystem::new(&cfg, programs).map_err(CheckError::Config)?;
    // One-shot fault triggers are order-sensitive even across different
    // lines, so the same-controller commutation refinement is only safe
    // on the unmutated protocol.
    let refine_lines = faults.protocol.is_none();
    let mut explorer = Explorer::new(refine_lines, *opts, allowed);
    explorer.explore(state)?;
    Ok(explorer.report)
}

/// Shrinks a checker-violating `program` to a minimal reproducer with
/// the campaign shrinker, re-checking every candidate: the result is
/// the smallest program on which [`check_model`] still reports a
/// violation (or `program` itself if shrinking finds nothing smaller).
pub fn shrink_to_reproducer(
    protocol: &Protocol,
    faults: FaultPlan,
    program: &ModelProgram,
    pool: &[u64],
    opts: &CheckOpts,
) -> ModelProgram {
    shrink(program, |p| {
        check_model(protocol, faults, p, pool, opts)
            .map(|r| !r.violations.is_empty())
            .unwrap_or(false)
    })
}

/// One canonical mutation-testing case: a protocol fault plus the
/// litmus program that exposes it.
#[derive(Clone, Debug)]
pub struct MutationCase {
    /// Stable case name (the fault's variant name in snake case).
    pub name: &'static str,
    /// Protocol under mutation.
    pub protocol: Protocol,
    /// The armed fault plan.
    pub faults: FaultPlan,
    /// The exposing program.
    pub program: ModelProgram,
    /// The address pool the program runs over.
    pub pool: Vec<u64>,
}

/// The result of running one [`MutationCase`] through the checker and
/// the shrinker.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// The case name.
    pub name: &'static str,
    /// The checker found at least one violation (the mutation was
    /// caught).
    pub caught: bool,
    /// Tag of the first violation, if any.
    pub violation: Option<&'static str>,
    /// Schedules explored before the catch.
    pub schedules: u64,
    /// The shrunk minimal reproducer.
    pub shrunk: ModelProgram,
    /// Re-running the checker on the shrunk program still violates.
    pub shrunk_verified: bool,
}

/// The four canonical protocol-mutation cases
/// ([`tsocc_coherence::ProtocolFault`]) at `cores` cores, each paired
/// with a program the checker must catch it on. `seed` rotates which
/// physical core hosts each logical thread (and with it the faulty
/// core), so repeated runs cover every placement. `lines` selects the
/// pool via [`pool_for_lines`] — except `skip_ts_reset`, which is
/// architecturally invisible with a single line (stale data on the
/// *missed* line is the line just fetched; the timestamp acquire check
/// only guards *other* cached lines) and therefore always runs on the
/// two-line pool.
///
/// # Panics
///
/// Panics if `cores < 2` or `lines` is not 1 or 2.
pub fn mutation_cases(cores: usize, lines: usize, seed: u64) -> Vec<MutationCase> {
    use tsocc_coherence::ProtocolFault;
    use tsocc_workloads::tso_model::ModelOp;
    assert!(cores >= 2, "mutation cases need at least 2 cores");
    let st = |addr, value| ModelOp::Store { addr, value };
    let ld = |addr| ModelOp::Load { addr };
    let rot = |i: usize| (i + seed as usize) % cores;
    // Places logical thread i at physical core rot(i); other cores run
    // empty programs.
    let place = |threads: Vec<Vec<ModelOp>>| {
        let mut program = vec![Vec::new(); cores];
        for (i, ops) in threads.into_iter().enumerate() {
            program[rot(i)] = ops;
        }
        program
    };
    let pool = pool_for_lines(lines);
    let line = tsocc_mem::Addr::new(pool[0]).line();
    // The writer reads first too: a sole GetS is granted Exclusive, so
    // only a read-read-write history puts the directory in Shared with
    // a real sharer fan-out — the path both invalidation faults hide
    // in.
    let reader_writer = vec![vec![ld(0)], vec![ld(0), st(0, 1)]];
    let fault = |protocol| FaultPlan {
        protocol: Some(protocol),
        ..FaultPlan::none()
    };
    // Timestamps must wrap quickly for the silent-wrap fault to open
    // its stale window: 2-bit timestamps, one write per group.
    let tiny_ts = tsocc_proto::TsoCcConfig {
        max_acc: 16,
        write_ts: Some(tsocc_proto::TsParams {
            ts_bits: 2,
            write_group_bits: 0,
        }),
        sro_ts: true,
        decay_writes: None,
        epoch_bits: 3,
    };
    let ts_pool = pool_for_lines(2);
    vec![
        MutationCase {
            name: "drop_inv_ack",
            protocol: Protocol::Mesi,
            faults: fault(ProtocolFault::DropInvAck { core: rot(0) }),
            program: place(reader_writer.clone()),
            pool: pool.clone(),
        },
        MutationCase {
            name: "corrupt_sharers",
            protocol: Protocol::Mesi,
            faults: fault(ProtocolFault::CorruptSharers {
                tile: line.home_banked(cores, 1),
            }),
            program: place(reader_writer.clone()),
            pool: pool.clone(),
        },
        MutationCase {
            name: "skip_ts_reset",
            protocol: Protocol::TsoCc(tiny_ts),
            faults: fault(ProtocolFault::SkipTsReset { core: rot(1) }),
            // The writer climbs the 2-bit timestamp to its cap, wraps
            // silently (the fault), then publishes the flag with a
            // small wrapped timestamp the reader's transitive-reduction
            // check mistakes for already-seen — leaving the reader's
            // stale copy of location 1 alive past the acquire.
            program: place(vec![
                vec![ld(1), ld(0), ld(1)],
                vec![st(1, 1), st(1, 2), st(1, 3), st(1, 4), st(1, 5), st(0, 1)],
            ]),
            pool: ts_pool,
        },
        MutationCase {
            name: "hold_mshr",
            protocol: Protocol::Mesi,
            faults: fault(ProtocolFault::HoldMshr { core: rot(0), line }),
            program: place(reader_writer),
            pool: pool.clone(),
        },
    ]
}

/// Runs one mutation case end to end: check, shrink, re-verify the
/// shrunk reproducer.
pub fn run_mutation(case: &MutationCase, opts: &CheckOpts) -> Result<MutationOutcome, CheckError> {
    let report = check_model(&case.protocol, case.faults, &case.program, &case.pool, opts)?;
    let caught = !report.violations.is_empty();
    let (shrunk, shrunk_verified) = if caught {
        let shrunk =
            shrink_to_reproducer(&case.protocol, case.faults, &case.program, &case.pool, opts);
        let verified = check_model(&case.protocol, case.faults, &shrunk, &case.pool, opts)
            .map(|r| !r.violations.is_empty())
            .unwrap_or(false);
        (shrunk, verified)
    } else {
        (case.program.clone(), false)
    };
    Ok(MutationOutcome {
        name: case.name,
        caught,
        violation: report.violations.first().map(|v| v.kind.tag()),
        schedules: report.schedules,
        shrunk,
        shrunk_verified,
    })
}

/// A set of a frame's choices, as a bitmask over its `enabled` list:
/// bit `i` stands for `enabled[i]`.
type Mask = u64;

/// The widest frame a [`Mask`] covers; a state with more enabled
/// choices is rejected with [`CheckError::FrameTooWide`].
const MAX_FRAME_WIDTH: usize = Mask::BITS as usize;

/// The mask of choice `index`.
fn bit(index: usize) -> Mask {
    1 << index
}

/// The DFS frame for one depth of the current trace.
struct Frame {
    /// Enabled choices at this state, in the scheduler's canonical
    /// order (identical on every visit). At most [`MAX_FRAME_WIDTH`].
    enabled: Vec<Choice>,
    /// Choices fully explored from this state.
    done: Mask,
    /// Race-driven exploration obligations (DPOR mode).
    backtrack: Mask,
    /// Choices proven redundant here (explored at an ancestor and
    /// still independent of everything since).
    sleep: Mask,
    /// The index in `enabled` of the choice currently being explored
    /// below this frame.
    chosen: Option<usize>,
}

impl Frame {
    fn new(enabled: Vec<Choice>, sleep: Mask) -> Frame {
        Frame {
            enabled,
            done: 0,
            backtrack: 0,
            sleep,
            chosen: None,
        }
    }

    /// The choice currently being explored below this frame.
    fn chosen(&self) -> Choice {
        self.enabled[self.chosen.expect("an executed frame")]
    }

    /// Every enabled choice.
    fn all(&self) -> Mask {
        Mask::MAX
            .checked_shr((MAX_FRAME_WIDTH - self.enabled.len()) as u32)
            .unwrap_or(0)
    }

    /// The enabled choices that belong to process `p`.
    fn of_process(&self, p: &Process) -> Mask {
        self.enabled
            .iter()
            .enumerate()
            .filter(|&(_, &c)| process(c) == *p)
            .fold(0, |mask, (i, _)| mask | bit(i))
    }
}

/// The process a choice belongs to, for backtrack-point planting: the
/// thread for issues and drains, the channel for deliveries.
#[derive(PartialEq, Eq)]
enum Process {
    Thread(usize),
    Channel(tsocc::Channel),
}

fn process(c: Choice) -> Process {
    match c {
        Choice::Issue { thread } | Choice::Drain { thread } => Process::Thread(thread),
        Choice::Deliver { channel } => Process::Channel(channel),
    }
}

struct Explorer {
    refine_lines: bool,
    opts: CheckOpts,
    report: CheckReport,
    /// The `enabled` lists of popped frames, recycled by new ones.
    spare_lists: Vec<Vec<Choice>>,
    /// The axiom check's buffer of `(line, access, core)` holdings.
    held: Vec<(LineAddr, LineAccess, usize)>,
    /// The buffer a terminal state's outcome is read into.
    outcome: Vec<u64>,
}

impl Explorer {
    fn new(refine_lines: bool, opts: CheckOpts, allowed: BTreeSet<Vec<u64>>) -> Self {
        Explorer {
            refine_lines,
            opts,
            report: CheckReport {
                allowed,
                complete: true,
                ..CheckReport::default()
            },
            spare_lists: Vec::new(),
            held: Vec::new(),
            outcome: Vec::new(),
        }
    }

    /// The enabled choices of `state` in a recycled list, rejected when
    /// a frame's masks cannot hold them.
    fn enabled_choices(&mut self, state: &ScheduledSystem) -> Result<Vec<Choice>, CheckError> {
        let mut enabled = self.spare_lists.pop().unwrap_or_default();
        state.enabled_into(&mut enabled);
        if enabled.len() > MAX_FRAME_WIDTH {
            return Err(CheckError::FrameTooWide {
                width: enabled.len(),
            });
        }
        Ok(enabled)
    }

    /// Depth-first exploration of `state`, a machine in its initial
    /// state: descend picking one choice per frame, check terminals,
    /// backtrack to the deepest frame with an outstanding obligation
    /// (see [`Self::backtrack`]), repeat.
    fn explore(&mut self, mut state: ScheduledSystem) -> Result<(), CheckError> {
        let mut frames = vec![Frame::new(self.enabled_choices(&state)?, 0)];
        loop {
            if !self.report.violations.is_empty() {
                self.report.complete = false;
                return Ok(());
            }
            if self.report.schedules >= self.opts.max_schedules {
                self.report.complete = false;
                return Ok(());
            }
            let depth = frames.len() - 1;
            let frame = frames.last().expect("root frame");
            if frame.enabled.is_empty() {
                self.on_terminal(&state, &frames);
                if !self.backtrack(&mut frames, &mut state) {
                    return Ok(());
                }
                continue;
            }
            if depth >= self.opts.max_steps {
                self.violation(ViolationKind::Livelock, &frames);
                continue;
            }
            let Some(index) = self.pick(frame) else {
                if frame.chosen.is_none() && frame.done == 0 {
                    // Every enabled choice is asleep: this whole branch
                    // is a reordering of independent transitions the
                    // search has already covered.
                    self.report.sleep_blocked += 1;
                }
                if !self.backtrack(&mut frames, &mut state) {
                    return Ok(());
                }
                continue;
            };
            let choice = frame.enabled[index];
            frames.last_mut().expect("frame").chosen = Some(index);
            // Only an L1 transition can change an L1's permissions:
            // deliveries to an L2 or a memory controller leave the
            // axioms as the previous check found them.
            let at_l1 = matches!(state.apply(choice).ctrl, Agent::L1(_));
            self.report.transitions += 1;
            if !self.opts.naive {
                self.plant_backtrack(&mut frames, &state);
            }
            if at_l1 {
                self.check_axioms(&mut state, &frames);
            }
            let enabled = self.enabled_choices(&state)?;
            let sleep = self.child_sleep(frames.last().expect("frame"), &state, &enabled);
            frames.push(Frame::new(enabled, sleep));
        }
    }

    /// The index of the next unexplored choice at `frame`, or `None`
    /// when the frame is exhausted (or sleep-set blocked).
    fn pick(&self, frame: &Frame) -> Option<usize> {
        debug_assert!(frame.chosen.is_none());
        let candidates = if self.opts.naive {
            // Exhaustive enumeration: every enabled choice, no pruning.
            frame.all() & !frame.done
        } else if frame.done == 0 {
            // First visit: any non-sleeping choice seeds the subtree.
            frame.all() & !frame.sleep
        } else {
            // Revisit: only race-mandated obligations are explored.
            frame.backtrack & !frame.done & !frame.sleep
        };
        (candidates != 0).then(|| candidates.trailing_zeros() as usize)
    }

    /// Race detection: plant an exploration obligation before *every*
    /// executed transition dependent with the one just taken.
    ///
    /// Classic DPOR only plants before the last dependent transition
    /// and relies on happens-before vector clocks to see through it to
    /// earlier races; without the clocks, stopping at the last one is
    /// incomplete (it misses races shadowed by a causally intermediate
    /// dependent step — observed as DPOR losing the `[1,1]` outcome of
    /// same-line store buffering). Planting at all of them
    /// over-approximates the obligation set, trading some pruning for
    /// unconditional coverage; the sleep sets claw most of it back.
    ///
    /// The step just taken is the last one on `state`'s path, and the
    /// chosen step of the deepest frame.
    fn plant_backtrack(&self, frames: &mut [Frame], state: &ScheduledSystem) {
        let mut path = state.path().rev();
        let info = path.next().expect("the step just taken");
        let (current, prefix) = frames.split_last_mut().expect("current frame");
        let choice = current.chosen();
        let p = process(choice);
        for (frame, prior) in prefix.iter_mut().rev().zip(path) {
            if !self.dependent((frame.chosen(), prior), choice, info) {
                continue;
            }
            let alts = frame.of_process(&p);
            // When the process had nothing enabled there (the race is
            // causally downstream), conservatively oblige every choice.
            frame.backtrack |= if alts == 0 { frame.all() } else { alts };
        }
    }

    /// Whether executed `prior` and the just-executed `(choice, info)`
    /// are dependent (do not commute, or affect each other's
    /// enabledness).
    fn dependent(
        &self,
        (prior_choice, prior): (Choice, &StepInfo),
        choice: Choice,
        info: &StepInfo,
    ) -> bool {
        if prior.ctrl == info.ctrl {
            // Same controller: dependent, except two deliveries for
            // different lines whose emissions touch disjoint channels
            // (no shared FIFO order to disturb, no shared line state —
            // and no evictions by pool construction).
            if self.refine_lines
                && matches!(prior_choice, Choice::Deliver { .. })
                && matches!(choice, Choice::Deliver { .. })
            {
                if let (Some(a), Some(b)) = (prior.line, info.line) {
                    if a != b && prior.emitted.iter().all(|ch| !info.emitted.contains(ch)) {
                        return false;
                    }
                }
            }
            return true;
        }
        // Cross-controller: the only interaction is through channels —
        // a delivery racing with the push that enqueued (or enabled)
        // its message.
        if let Choice::Deliver { channel } = choice {
            if prior.emitted.contains(&channel) {
                return true;
            }
        }
        if let Choice::Deliver { channel } = prior_choice {
            if info.emitted.contains(&channel) {
                return true;
            }
        }
        false
    }

    /// The sleep set for the child of `frame` (whose `chosen` step was
    /// just taken, the last one on `state`'s path), over the child's
    /// `enabled` list: everything fully explored or asleep at the parent
    /// that stays independent of the executed step.
    fn child_sleep(&self, frame: &Frame, state: &ScheduledSystem, enabled: &[Choice]) -> Mask {
        if self.opts.naive {
            return 0;
        }
        let step = state.path().next_back().expect("the step just taken");
        let mut carried = frame.sleep | frame.done;
        let mut sleep = 0;
        while carried != 0 {
            let s = frame.enabled[carried.trailing_zeros() as usize];
            carried &= carried - 1;
            if !sleeps_through(s, step) {
                continue;
            }
            // An independent step can neither advance a sleeping
            // thread nor pop a sleeping channel, so the choice must
            // still be enabled in the child.
            let at = enabled.iter().position(|&c| c == s).unwrap_or(usize::MAX);
            assert!(at < enabled.len(), "sleeping {s:?} disabled by {step:?}");
            sleep |= bit(at);
        }
        sleep
    }

    /// Pops exhausted frames, marks their choices done and undoes them,
    /// down to the deepest frame with a choice left. Returns `false`
    /// when the whole tree is exhausted.
    fn backtrack(&mut self, frames: &mut Vec<Frame>, state: &mut ScheduledSystem) -> bool {
        loop {
            let exhausted = frames.pop().expect("a current frame");
            self.spare_lists.push(exhausted.enabled);
            let Some(frame) = frames.last_mut() else {
                return false;
            };
            let index = frame.chosen.take().expect("ancestor frames have chosen");
            frame.done |= bit(index);
            state.undo();
            if self.pick(frame).is_some() {
                return true;
            }
        }
    }

    /// Terminal-state checks (the state has no enabled choice):
    /// deadlock-freedom and the TSO outcome oracle.
    fn on_terminal(&mut self, state: &ScheduledSystem, frames: &[Frame]) {
        self.report.schedules += 1;
        match state.stuck() {
            Terminal::Done => {
                state.outcome_into(&mut self.outcome);
                if !self.report.allowed.contains(&self.outcome) {
                    self.violation(
                        ViolationKind::ForbiddenOutcome {
                            outcome: self.outcome.clone(),
                        },
                        frames,
                    );
                }
                if !self.report.outcomes.contains(&self.outcome) {
                    self.report.outcomes.insert(self.outcome.clone());
                }
            }
            Terminal::Deadlock => self.violation(ViolationKind::Deadlock, frames),
        }
    }

    /// State-invariant checks, run after every transition that touched
    /// an L1.
    fn check_axioms(&mut self, state: &mut ScheduledSystem, frames: &[Frame]) {
        state.l1_access_into(&mut self.held);
        self.held.sort_unstable();
        self.held.dedup();
        let eager = state.discipline() == CoherenceDiscipline::Eager;
        if let Some(kind) = axiom_violation(&self.held, eager) {
            self.violation(kind, frames);
        }
    }

    fn violation(&mut self, kind: ViolationKind, frames: &[Frame]) {
        let schedule = frames
            .iter()
            .filter_map(|f| f.chosen.map(|i| f.enabled[i]))
            .collect();
        self.report
            .violations
            .push(CheckViolation { kind, schedule });
    }
}

/// The first coherence-axiom violation among `held`, the L1s' sorted
/// and deduplicated `(line, access, core)` holdings; `eager` adds the
/// writer-excludes-readers axiom to the single-writer one.
fn axiom_violation(held: &[(LineAddr, LineAccess, usize)], eager: bool) -> Option<ViolationKind> {
    held.chunk_by(|a, b| a.0 == b.0).find_map(|on_line| {
        let line = on_line[0].0;
        // Within a line the holdings sort readers before writers.
        let (readers, writers) =
            on_line.split_at(on_line.partition_point(|h| h.1 == LineAccess::Read));
        let cores = |held: &[(LineAddr, LineAccess, usize)]| held.iter().map(|h| h.2).collect();
        if writers.len() > 1 {
            Some(ViolationKind::MultipleWriters {
                line,
                cores: cores(writers),
            })
        } else if eager && writers.len() == 1 && !readers.is_empty() {
            Some(ViolationKind::ReaderWriterOverlap {
                line,
                writer: writers[0].2,
                readers: cores(readers),
            })
        } else {
            None
        }
    })
}

/// Whether sleeping choice `s` stays independent of an executed step:
/// conservative (any doubt wakes the choice up, which only costs
/// exploration, never soundness).
fn sleeps_through(s: Choice, info: &StepInfo) -> bool {
    match s {
        Choice::Issue { thread } | Choice::Drain { thread } => info.ctrl != Agent::L1(thread),
        Choice::Deliver { channel } => info.ctrl != channel.1 && !info.emitted.contains(&channel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_workloads::tso_model::ModelOp;

    fn st(addr: u8, value: u64) -> ModelOp {
        ModelOp::Store { addr, value }
    }

    fn ld(addr: u8) -> ModelOp {
        ModelOp::Load { addr }
    }

    fn sb() -> ModelProgram {
        vec![vec![st(0, 1), ld(1)], vec![st(1, 1), ld(0)]]
    }

    #[test]
    fn clean_mesi_sb_explores_all_four_outcomes() {
        let pool = pool_for_lines(2);
        let report = check_model(
            &Protocol::Mesi,
            FaultPlan::none(),
            &sb(),
            &pool,
            &CheckOpts::default(),
        )
        .unwrap();
        assert!(report.complete, "{report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // The machine must realize the full TSO outcome set, including
        // the relaxed [0, 0].
        assert_eq!(report.outcomes, report.allowed);
        assert!(report.outcomes.contains(&vec![0, 0]));
        // The explored tree's (schedules, transitions, sleep-blocked)
        // totals: any change to the exploration order, the race
        // detection or the sleep sets moves them.
        assert_eq!(
            (report.schedules, report.transitions, report.sleep_blocked),
            (6_216, 62_782, 8_997)
        );
    }

    #[test]
    fn dpor_matches_naive_outcomes_with_large_reduction() {
        let pool = pool_for_lines(1);
        // Small enough to enumerate naively to exhaustion: DPOR must
        // reach exactly the same outcome set, an order of magnitude
        // cheaper.
        let tiny: ModelProgram = vec![vec![st(0, 1)], vec![ld(0)]];
        let dpor = check_model(
            &Protocol::Mesi,
            FaultPlan::none(),
            &tiny,
            &pool,
            &CheckOpts::default(),
        )
        .unwrap();
        let naive = check_model(
            &Protocol::Mesi,
            FaultPlan::none(),
            &tiny,
            &pool,
            &CheckOpts {
                naive: true,
                ..CheckOpts::default()
            },
        )
        .unwrap();
        assert!(dpor.complete && naive.complete);
        assert_eq!(dpor.outcomes, naive.outcomes, "DPOR must lose no outcome");
        assert!(
            dpor.reduction(&naive) >= 10.0,
            "reduction {:.1}x (dpor {} vs naive {})",
            dpor.reduction(&naive),
            dpor.schedules,
            naive.schedules
        );

        // Same-line store buffering: the machine must realize the full
        // TSO outcome set — including the relaxed [0,0] — through an
        // exhaustive DPOR run. (The naive comparison would take 50x+
        // longer; `tsocc check`'s reduction probe measures it.)
        let program = sb();
        let dpor = check_model(
            &Protocol::Mesi,
            FaultPlan::none(),
            &program,
            &pool,
            &CheckOpts::default(),
        )
        .unwrap();
        assert!(dpor.complete && dpor.violations.is_empty());
        assert_eq!(dpor.outcomes, dpor.allowed);
    }

    #[test]
    fn dpor_matches_naive_search_on_every_one_op_program() {
        // Naive search explores every schedule, so it also backtracks,
        // and undoes transitions, far more often than DPOR does.
        let family = tsocc_workloads::tso_model::generate_two_thread_programs(1);
        for name in ["MESI", "MESI-P2-G2", "TSO-CC-4-basic"] {
            let protocol = Protocol::from_name(name).unwrap();
            for lines in [1, 2] {
                let pool = pool_for_lines(lines);
                for program in &family {
                    let what = format!("{name}, {lines} line(s), {program:?}");
                    let check = |naive| {
                        let opts = CheckOpts {
                            naive,
                            ..CheckOpts::default()
                        };
                        check_model(&protocol, FaultPlan::none(), program, &pool, &opts).unwrap()
                    };
                    let (dpor, naive) = (check(false), check(true));
                    assert!(naive.complete, "{what}: the naive search was cut off");
                    assert!(dpor.complete, "{what}: the DPOR search was cut off");
                    assert_eq!(dpor.outcomes, naive.outcomes, "{what}");
                }
            }
        }
    }

    #[test]
    fn a_frame_wider_than_its_masks_is_rejected_with_its_width() {
        // One fence per thread: every thread's issue is enabled at the
        // root, and fences at different L1s commute, so a frame exactly
        // as wide as the masks explores in one schedule.
        let explore = |threads: usize| {
            let cfg = SystemConfig::builder()
                .small()
                .cores(threads)
                .protocol(Protocol::TsoCc(tsocc_proto::TsoCcConfig::basic()))
                .build()
                .unwrap();
            let programs = vec![vec![tsocc_coherence::CoreOp::Fence]; threads];
            let state = ScheduledSystem::new(&cfg, programs).unwrap();
            let allowed = BTreeSet::from([Vec::new()]);
            let mut explorer = Explorer::new(true, CheckOpts::default(), allowed);
            explorer.explore(state).map(|()| explorer.report)
        };
        let report = explore(MAX_FRAME_WIDTH).unwrap();
        assert!(
            report.complete && report.violations.is_empty(),
            "{report:?}"
        );
        assert_eq!(
            (report.schedules, report.transitions),
            (1, MAX_FRAME_WIDTH as u64)
        );
        let err = explore(MAX_FRAME_WIDTH + 1).unwrap_err();
        assert!(
            matches!(err, CheckError::FrameTooWide { width: 65 }),
            "{err:?}"
        );
        assert!(err.to_string().contains("enables 65 choices"), "{err}");
    }

    #[test]
    fn oracle_bound_is_surfaced_as_an_error() {
        let pool = pool_for_lines(1);
        let err = check_model(
            &Protocol::Mesi,
            FaultPlan::none(),
            &sb(),
            &pool,
            &CheckOpts {
                oracle_max_states: 2,
                ..CheckOpts::default()
            },
        );
        assert!(matches!(err, Err(CheckError::OracleTooLarge(_))));
    }
}
