//! `tsocc`: the one command-line entry point of the reproduction.
//!
//! ```text
//! tsocc <subcommand> [flags]
//! ```
//!
//! One module per subcommand: `sweep` (the committed sweep artifact and
//! its drift check), `figures` and `ablation` (the paper's tables,
//! figures and §4.2 design-space sweeps), `litmus` (§4.3), `conform`,
//! `check` and `faults` (the conformance, model-checking and
//! fault-injection campaigns), and `campaign` / `status` (manifest runs
//! through the result cache, and what the cache holds). Every
//! subcommand parses its flags through [`tsocc_bench::cli`]:
//! `tsocc <subcommand> --help` lists them, and an unknown flag or a
//! malformed value exits 2 with the usage page.

mod ablation;
mod campaign;
mod check;
mod conform;
mod faults;
mod figures;
mod litmus;
mod status;
mod sweep;

use tsocc_bench::cli::{Cli, ParsedArgs};
use tsocc_orch::ResultCache;

/// A subcommand's entry point, handed the arguments after the
/// subcommand word.
type Run = fn(Vec<String>);

/// Every subcommand: its name, its one-line description, its entry.
const SUBCOMMANDS: [(&str, &str, Run); 9] = [
    ("sweep", sweep::ABOUT, sweep::main),
    ("figures", figures::ABOUT, figures::main),
    ("ablation", ablation::ABOUT, ablation::main),
    ("litmus", litmus::ABOUT, litmus::main),
    ("conform", conform::ABOUT, conform::main),
    ("check", check::ABOUT, check::main),
    ("faults", faults::ABOUT, faults::main),
    ("campaign", campaign::ABOUT, campaign::main),
    ("status", status::ABOUT, status::main),
];

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

/// The flags of the subcommands that run jobs through the result cache
/// (`sweep` and `campaign`).
fn cache_flags(cli: Cli) -> Cli {
    cli.opt(
        "--cache-dir",
        "PATH",
        "content-addressed result store directory (default .tsocc-cache)",
    )
    .switch("--no-cache", "compute everything, touch no cache")
    .opt("--jobs", "N", "worker threads (0 = one per CPU)")
    .opt("--report", "PATH", "tsocc-orch-report/v1 output path")
}

/// Opens the store named by `--cache-dir` unless `--no-cache`; `None`
/// means compute-only.
fn open_cache(args: &ParsedArgs) -> Option<ResultCache> {
    if args.present("--no-cache") {
        return None;
    }
    let dir = args.str("--cache-dir").unwrap_or(".tsocc-cache");
    match ResultCache::open(dir) {
        Ok(cache) => Some(cache),
        Err(e) => args.fail(format!("cannot open cache at {dir}: {e}")),
    }
}
