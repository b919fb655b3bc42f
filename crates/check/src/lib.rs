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
//! On every explored state it checks the coherence axioms:
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
//! Godefroid) with sleep sets: after executing a transition it finds
//! the last dependent transition in the trace and plants a backtrack
//! point there; schedules that merely commute independent transitions
//! are never replayed. Dependence is keyed on the controller touched
//! and refined by cache line: two deliveries to the same controller
//! for *different* lines with disjoint emission channels commute.
//! (The refinement is sound here because checker configurations place
//! pool lines in distinct cache sets with spare ways — no evictions —
//! and it is disabled outright when a protocol mutation is armed,
//! since one-shot fault triggers make even different-line deliveries
//! order-sensitive.) [`CheckReport::reduction`] against a naive run
//! quantifies the pruning.
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
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Config(e) => write!(f, "config rejected: {}", e.0),
            CheckError::OracleTooLarge(e) => write!(f, "oracle: {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

/// The result of exploring one program on one protocol.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Terminal schedules reached.
    pub schedules: u64,
    /// Transitions executed on first exploration (prefix replays during
    /// backtracking excluded).
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
    let programs: Vec<_> = program.iter().map(|ops| core_ops(ops, pool)).collect();
    let mut explorer = Explorer {
        cfg: &cfg,
        programs,
        // One-shot fault triggers are order-sensitive even across
        // different lines, so the same-controller commutation
        // refinement is only safe on the unmutated protocol.
        refine_lines: faults.protocol.is_none(),
        opts: *opts,
        report: CheckReport {
            schedules: 0,
            transitions: 0,
            sleep_blocked: 0,
            outcomes: BTreeSet::new(),
            allowed,
            violations: Vec::new(),
            complete: true,
        },
    };
    explorer.explore().map_err(CheckError::Config)?;
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

/// One executed transition in the current trace.
#[derive(Clone, Debug)]
struct ExecStep {
    choice: Choice,
    info: StepInfo,
}

/// The DFS frame for one depth of the current trace.
struct Frame {
    /// Enabled choices at this state, in the scheduler's canonical
    /// order (identical on every replay).
    enabled: Vec<Choice>,
    /// Choices fully explored from this state.
    done: BTreeSet<Choice>,
    /// Race-driven exploration obligations (DPOR mode).
    backtrack: BTreeSet<Choice>,
    /// Choices proven redundant here (explored at an ancestor and
    /// still independent of everything since).
    sleep: BTreeSet<Choice>,
    /// The choice currently being explored below this frame.
    chosen: Option<ExecStep>,
}

impl Frame {
    fn new(enabled: Vec<Choice>, sleep: BTreeSet<Choice>) -> Frame {
        Frame {
            enabled,
            done: BTreeSet::new(),
            backtrack: BTreeSet::new(),
            sleep,
            chosen: None,
        }
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

struct Explorer<'a> {
    cfg: &'a SystemConfig,
    programs: Vec<Vec<tsocc_coherence::CoreOp>>,
    refine_lines: bool,
    opts: CheckOpts,
    report: CheckReport,
}

impl Explorer<'_> {
    /// Depth-first stateless exploration: descend picking one choice
    /// per frame, check terminals, backtrack to the deepest frame with
    /// an outstanding obligation, replay the prefix, repeat.
    fn explore(&mut self) -> Result<(), tsocc::ConfigError> {
        let mut state = ScheduledSystem::new(self.cfg, self.programs.clone())?;
        let mut frames = vec![Frame::new(state.enabled(), BTreeSet::new())];
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
                if !self.backtrack(&mut frames, &mut state)? {
                    return Ok(());
                }
                continue;
            }
            if depth >= self.opts.max_steps {
                self.violation(ViolationKind::Livelock, &frames);
                continue;
            }
            let Some(choice) = self.pick(frame) else {
                if frame.chosen.is_none() && frame.done.is_empty() {
                    // Every enabled choice is asleep: this whole branch
                    // is a reordering of independent transitions the
                    // search has already covered.
                    self.report.sleep_blocked += 1;
                }
                if !self.backtrack(&mut frames, &mut state)? {
                    return Ok(());
                }
                continue;
            };
            let info = state.apply(choice);
            self.report.transitions += 1;
            if !self.opts.naive {
                self.plant_backtrack(&mut frames, choice, &info);
            }
            let child_sleep = self.child_sleep(frames.last().expect("frame"), choice, &info);
            frames.last_mut().expect("frame").chosen = Some(ExecStep { choice, info });
            self.check_axioms(&state, &frames);
            frames.push(Frame::new(state.enabled(), child_sleep));
        }
    }

    /// The next unexplored choice at `frame`, or `None` when the frame
    /// is exhausted (or sleep-set blocked).
    fn pick(&self, frame: &Frame) -> Option<Choice> {
        debug_assert!(frame.chosen.is_none());
        if self.opts.naive {
            // Exhaustive enumeration: every enabled choice, no pruning.
            return frame
                .enabled
                .iter()
                .copied()
                .find(|c| !frame.done.contains(c));
        }
        if frame.done.is_empty() {
            // First visit: any non-sleeping choice seeds the subtree.
            frame
                .enabled
                .iter()
                .copied()
                .find(|c| !frame.sleep.contains(c))
        } else {
            // Revisit: only race-mandated obligations are explored.
            frame.enabled.iter().copied().find(|c| {
                frame.backtrack.contains(c) && !frame.done.contains(c) && !frame.sleep.contains(c)
            })
        }
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
    fn plant_backtrack(&mut self, frames: &mut [Frame], choice: Choice, info: &StepInfo) {
        let depth = frames.len() - 1;
        for i in (0..depth).rev() {
            let dependent = {
                let prior = frames[i].chosen.as_ref().expect("executed frame");
                self.dependent(prior, choice, info)
            };
            if !dependent {
                continue;
            }
            let p = process(choice);
            let alts: Vec<Choice> = frames[i]
                .enabled
                .iter()
                .copied()
                .filter(|&c| process(c) == p)
                .collect();
            if alts.is_empty() {
                // The process had nothing enabled there (the race is
                // causally downstream): conservatively oblige every
                // choice.
                let all = frames[i].enabled.clone();
                frames[i].backtrack.extend(all);
            } else {
                frames[i].backtrack.extend(alts);
            }
        }
    }

    /// Whether executed `prior` and the just-executed `(choice, info)`
    /// are dependent (do not commute, or affect each other's
    /// enabledness).
    fn dependent(&self, prior: &ExecStep, choice: Choice, info: &StepInfo) -> bool {
        if prior.info.ctrl == info.ctrl {
            // Same controller: dependent, except two deliveries for
            // different lines whose emissions touch disjoint channels
            // (no shared FIFO order to disturb, no shared line state —
            // and no evictions by pool construction).
            if self.refine_lines
                && matches!(prior.choice, Choice::Deliver { .. })
                && matches!(choice, Choice::Deliver { .. })
            {
                if let (Some(a), Some(b)) = (prior.info.line, info.line) {
                    if a != b
                        && prior
                            .info
                            .emitted
                            .iter()
                            .all(|ch| !info.emitted.contains(ch))
                    {
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
            if prior.info.emitted.contains(&channel) {
                return true;
            }
        }
        if let Choice::Deliver { channel } = prior.choice {
            if info.emitted.contains(&channel) {
                return true;
            }
        }
        false
    }

    /// The sleep set for the child frame after taking `choice`:
    /// everything fully explored or asleep at the parent that stays
    /// independent of the executed step.
    fn child_sleep(&self, frame: &Frame, choice: Choice, info: &StepInfo) -> BTreeSet<Choice> {
        if self.opts.naive {
            return BTreeSet::new();
        }
        frame
            .sleep
            .iter()
            .chain(frame.done.iter())
            .copied()
            .filter(|&s| s != choice && sleeps_through(s, info))
            .collect()
    }

    /// Pops exhausted frames, marks their choices done, and replays the
    /// surviving prefix into a fresh system. Returns `false` when the
    /// whole tree is exhausted.
    fn backtrack(
        &mut self,
        frames: &mut Vec<Frame>,
        state: &mut ScheduledSystem,
    ) -> Result<bool, tsocc::ConfigError> {
        loop {
            frames.pop();
            let Some(frame) = frames.last_mut() else {
                return Ok(false);
            };
            let step = frame.chosen.take().expect("ancestor frames have chosen");
            frame.done.insert(step.choice);
            if self.pick(frame).is_some() {
                *state = ScheduledSystem::new(self.cfg, self.programs.clone())?;
                for f in &frames[..frames.len() - 1] {
                    state.apply(f.chosen.as_ref().expect("prefix frame").choice);
                }
                return Ok(true);
            }
        }
    }

    /// Terminal-state checks: deadlock-freedom and the TSO outcome
    /// oracle.
    fn on_terminal(&mut self, state: &ScheduledSystem, frames: &[Frame]) {
        self.report.schedules += 1;
        match state.terminal() {
            Some(Terminal::Done) => {
                let outcome = state.outcome();
                if !self.report.allowed.contains(&outcome) {
                    self.violation(
                        ViolationKind::ForbiddenOutcome {
                            outcome: outcome.clone(),
                        },
                        frames,
                    );
                }
                self.report.outcomes.insert(outcome);
            }
            Some(Terminal::Deadlock) => self.violation(ViolationKind::Deadlock, frames),
            None => unreachable!("on_terminal called with enabled choices"),
        }
    }

    /// State-invariant checks, run after every transition.
    fn check_axioms(&mut self, state: &ScheduledSystem, frames: &[Frame]) {
        let access = state.l1_access();
        let mut lines: Vec<LineAddr> = access
            .iter()
            .flat_map(|l1| l1.iter().map(|&(line, _)| line))
            .collect();
        lines.sort_unstable();
        lines.dedup();
        for line in lines {
            let holder = |want: LineAccess| {
                access
                    .iter()
                    .enumerate()
                    .filter(move |(_, l1)| l1.iter().any(|&(l, a)| l == line && a == want))
                    .map(|(core, _)| core)
            };
            let writers: Vec<usize> = holder(LineAccess::Write).collect();
            if writers.len() > 1 {
                self.violation(
                    ViolationKind::MultipleWriters {
                        line,
                        cores: writers,
                    },
                    frames,
                );
                return;
            }
            if state.discipline() == CoherenceDiscipline::Eager && writers.len() == 1 {
                let readers: Vec<usize> = holder(LineAccess::Read).collect();
                if !readers.is_empty() {
                    self.violation(
                        ViolationKind::ReaderWriterOverlap {
                            line,
                            writer: writers[0],
                            readers,
                        },
                        frames,
                    );
                    return;
                }
            }
        }
    }

    fn violation(&mut self, kind: ViolationKind, frames: &[Frame]) {
        let schedule = frames
            .iter()
            .filter_map(|f| f.chosen.as_ref().map(|s| s.choice))
            .collect();
        self.report
            .violations
            .push(CheckViolation { kind, schedule });
    }
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

/// This crate's compiled version. The orchestrator (`tsocc-orch`) folds
/// the versions of every simulated-metric-affecting crate into the
/// code-version fingerprint that content-addresses cached results, so
/// bumping a crate version invalidates exactly the results its code
/// could have changed.
pub const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

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
        // longer; `tsocc check --naive-cap` measures it.)
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
