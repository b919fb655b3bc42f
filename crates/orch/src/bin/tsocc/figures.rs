//! `tsocc figures`: regenerates any table or figure of the paper.
//!
//! ```text
//! tsocc figures [--cores N] [--scale NAME] [--seed N] [--jobs N] SEL...
//! ```
//!
//! `SEL` is `table1`–`table3`, `fig2`–`fig9`, `separation` or `all`.
//! Several selections render in order and share one benchmark sweep
//! ([`tsocc_bench::figures::render_all`]); `all` prints everything.
//! Defaults are the paper's: 32 cores, `small` scale.

use tsocc_bench::cli::Cli;
use tsocc_bench::figures::render_all;
use tsocc_bench::SweepOpts;

pub const ABOUT: &str = "regenerate tables and figures of the paper";

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc figures", ABOUT)
        .positional("SEL", "table1-table3, fig2-fig9, separation, or all")
        .opt(
            "--cores",
            "N",
            "core count (default 32, the paper's Table 2)",
        )
        .opt("--scale", "NAME", "workload scale: tiny, small, full")
        .opt("--seed", "N", "base simulation seed")
        .opt("--jobs", "N", "sweep worker threads (0 = one per CPU)")
        .parse(args);
    if args.positionals().is_empty() {
        args.fail("needs at least one selection");
    }
    let defaults = SweepOpts::default();
    let opts = SweepOpts {
        n_cores: args.usize("--cores").unwrap_or(defaults.n_cores),
        scale: args.scale("--scale").unwrap_or(defaults.scale),
        seed: args.u64("--seed").unwrap_or(defaults.seed),
        threads: args.usize("--jobs").unwrap_or(defaults.threads),
    };
    if let Err(e) = render_all(args.positionals(), opts) {
        eprintln!("tsocc figures: {e}");
        std::process::exit(2);
    }
}
