//! The mutation-testing leg: every [`tsocc_coherence::ProtocolFault`]
//! must be caught exhaustively by the model checker on a small
//! configuration, and its reproducer must survive shrinking.

use tsocc::{ReplaySchedule, ScheduledSystem, SystemConfig, Terminal};
use tsocc_check::{check_model, mutation_cases, run_mutation, CheckOpts, ViolationKind};
use tsocc_coherence::LineAccess;
use tsocc_conform::core_ops;

fn op_total(program: &[Vec<tsocc_workloads::tso_model::ModelOp>]) -> usize {
    program.iter().map(Vec::len).sum()
}

#[test]
fn all_four_mutations_are_caught_and_shrink_to_verified_reproducers() {
    // Every fault below is exposed within ~1k schedules; the cap only
    // bounds the shrinker's exhaustive re-checks of *clean* candidate
    // programs, which would otherwise dominate the test's runtime.
    let opts = CheckOpts {
        max_schedules: 20_000,
        ..CheckOpts::default()
    };
    let cases = mutation_cases(2, 1, 0);
    assert_eq!(cases.len(), 4);
    // The last column is the schedules explored before the catch: 0
    // means the axiom check fired before the first terminal state.
    let expected = [
        ("drop_inv_ack", "deadlock", 1),
        ("corrupt_sharers", "reader_writer_overlap", 0),
        ("skip_ts_reset", "forbidden_outcome", 1_079),
        ("hold_mshr", "deadlock", 1),
    ];
    for (case, (name, kind, schedules)) in cases.iter().zip(expected) {
        assert_eq!(case.name, name);
        let outcome = run_mutation(case, &opts).unwrap();
        assert!(outcome.caught, "{name}: mutation escaped the checker");
        assert_eq!(
            outcome.violation,
            Some(kind),
            "{name}: caught as {:?}",
            outcome.violation
        );
        assert_eq!(
            outcome.schedules, schedules,
            "{name}: caught after a different number of schedules"
        );
        assert!(
            outcome.shrunk_verified,
            "{name}: shrunk reproducer no longer violates"
        );
        assert!(
            op_total(&outcome.shrunk) <= op_total(&case.program),
            "{name}: shrinking grew the program"
        );
    }
}

#[test]
fn rotated_placement_is_still_caught() {
    // Seed 1 moves every logical thread (and the faulty core) to the
    // other physical core; the catch must not depend on placement.
    // Detection only — shrinking is exercised by the test above.
    let opts = CheckOpts::default();
    for case in mutation_cases(2, 1, 1) {
        let report = check_model(
            &case.protocol,
            case.faults,
            &case.program,
            &case.pool,
            &opts,
        )
        .unwrap();
        assert!(
            !report.violations.is_empty(),
            "{}: rotated mutation escaped",
            case.name
        );
    }
}

#[test]
fn every_reported_violation_replays_on_a_freshly_built_machine() {
    // The explorer builds each reported schedule on one machine that it
    // drives down and undoes, about a thousand times for skip_ts_reset.
    // Replayed on a machine built for the purpose, the schedule must
    // reach the violation the checker reported.
    let mut replayed = 0;
    for lines in [1, 2] {
        for seed in [0, 1] {
            for case in mutation_cases(2, lines, seed) {
                let what = format!("{} ({lines} line(s), seed {seed})", case.name);
                let report = check_model(
                    &case.protocol,
                    case.faults,
                    &case.program,
                    &case.pool,
                    &CheckOpts::default(),
                )
                .unwrap();
                let violation = report
                    .violations
                    .first()
                    .unwrap_or_else(|| panic!("{what}: mutation escaped"));
                let cfg = SystemConfig::builder()
                    .small()
                    .cores(case.program.len())
                    .protocol(case.protocol)
                    .faults(case.faults)
                    .build()
                    .unwrap();
                let programs = case
                    .program
                    .iter()
                    .map(|ops| core_ops(ops, &case.pool))
                    .collect();
                let mut machine = ScheduledSystem::new(&cfg, programs).unwrap();
                let schedule = &violation.schedule;
                let end = machine.run(
                    &mut ReplaySchedule::new(schedule.clone()),
                    schedule.len() as u64 + 1,
                );
                assert_eq!(
                    machine.transitions(),
                    schedule.len() as u64,
                    "{what}: the replay left the schedule"
                );
                let access = machine.l1_access();
                let holds = |core: usize, line, want| access[core].contains(&(line, want));
                match &violation.kind {
                    ViolationKind::Deadlock => {
                        assert_eq!(end, Some(Terminal::Deadlock), "{what}")
                    }
                    ViolationKind::ForbiddenOutcome { outcome } => {
                        assert_eq!(end, Some(Terminal::Done), "{what}");
                        assert_eq!(&machine.outcome(), outcome, "{what}");
                    }
                    ViolationKind::ReaderWriterOverlap {
                        line,
                        writer,
                        readers,
                    } => {
                        assert!(holds(*writer, *line, LineAccess::Write), "{what}");
                        for &reader in readers {
                            assert!(holds(reader, *line, LineAccess::Read), "{what}");
                        }
                    }
                    ViolationKind::MultipleWriters { line, cores } => {
                        for &core in cores {
                            assert!(holds(core, *line, LineAccess::Write), "{what}");
                        }
                    }
                    ViolationKind::Livelock => panic!("{what}: reported a livelock"),
                }
                replayed += 1;
            }
        }
    }
    assert_eq!(replayed, 16);
}
