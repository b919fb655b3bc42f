//! `tsocc`: the one command-line entry point of the reproduction.
//!
//! ```text
//! tsocc <subcommand> [flags]
//! ```
//!
//! One module per subcommand: `sweep` (the committed sweep artifact and
//! its drift check), `figures` and `ablation` (the paper's tables,
//! figures and §4.2 design-space sweeps), `litmus` (§4.3), and
//! `conform` and `check` (the conformance and model-checking
//! campaigns). The oracles' own self-tests, such as the fault-injection
//! matrix, are tier-1 tests, not subcommands. Every subcommand parses
//! its flags through [`tsocc_bench::cli`]: `tsocc <subcommand> --help`
//! lists them, and an unknown flag, a malformed value or a `--cores`
//! value the subcommand cannot honour exits 2 with the usage page
//! before anything runs.

use tsocc_bench::cli::ParsedArgs;
use tsocc_bench::sweep::SweepPoint;

mod ablation;
mod check;
mod conform;
mod figures;
mod litmus;
mod sweep;

/// A subcommand's entry point, handed the arguments after the
/// subcommand word.
type Run = fn(Vec<String>);

/// Every subcommand: its name, its one-line description, its entry.
const SUBCOMMANDS: [(&str, &str, Run); 6] = [
    ("sweep", sweep::ABOUT, sweep::main),
    ("figures", figures::ABOUT, figures::main),
    ("ablation", ablation::ABOUT, ablation::main),
    ("litmus", litmus::ABOUT, litmus::main),
    ("conform", conform::ABOUT, conform::main),
    ("check", check::ABOUT, check::main),
];

/// Builds every point's machine through the fallible builder before
/// the fan-out: a core count the machine cannot honour (no cores, or
/// more than a protocol's directory encodes) exits 2 with the usage
/// page instead of panicking in a worker.
fn vet_points(args: &ParsedArgs, points: &[SweepPoint], base_seed: u64) {
    for point in points {
        if let Err(e) = point.try_system_config(base_seed) {
            args.fail(format!(
                "--cores {} on {}: {e}",
                point.n_cores,
                point.protocol.name()
            ));
        }
    }
}

fn usage() -> String {
    let mut page = String::from(
        "tsocc — the TSO-CC reproduction's sweeps, figures and verification campaigns\n\n\
         usage: tsocc <subcommand> [flags]\n\nsubcommands:\n",
    );
    for (name, about, _) in SUBCOMMANDS {
        page.push_str(&format!("  {name:<9} {about}\n"));
    }
    page.push_str("\nrun `tsocc <subcommand> --help` for the subcommand's flags.\n");
    page
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--help" | "-h") => print!("{}", usage()),
        None => {
            eprint!("{}", usage());
            std::process::exit(2);
        }
        Some(name) => match SUBCOMMANDS.iter().find(|(n, ..)| *n == name) {
            Some((_, _, run)) => {
                args.remove(0);
                run(args);
            }
            None => {
                eprint!("tsocc: unknown subcommand {name:?}\n\n{}", usage());
                std::process::exit(2);
            }
        },
    }
}
