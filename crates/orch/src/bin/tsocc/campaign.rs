//! `tsocc campaign`: expands a `tsocc-campaign-manifest/v1` document
//! (the built-in smoke manifest when `--manifest` is omitted) into jobs,
//! runs them through the cache-aware executor, writes a
//! `tsocc-orch-report/v1` report with per-job timings, cache keys and
//! hit/miss/evict statistics, and exits 1 if any job reports a
//! violation.
//!
//! ```text
//! tsocc campaign [--manifest PATH] [--cache-dir PATH] [--no-cache]
//!                [--jobs N] [--report PATH]
//! ```

use tsocc_bench::cli::Cli;
use tsocc_orch::executor::execute;
use tsocc_orch::manifest::{parse_manifest, DEFAULT_MANIFEST};

pub const ABOUT: &str = "run a declarative campaign manifest through the result cache";

pub fn main(args: Vec<String>) {
    let args = crate::cache_flags(Cli::new("tsocc campaign", ABOUT))
        .opt(
            "--manifest",
            "PATH",
            "tsocc-campaign-manifest/v1 document (built-in smoke manifest if omitted)",
        )
        .parse(args);

    let src = match args.str("--manifest") {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| args.fail(format!("cannot read {path}: {e}"))),
        None => DEFAULT_MANIFEST.to_string(),
    };
    let manifest = parse_manifest(&src).unwrap_or_else(|e| args.fail(format!("bad manifest: {e}")));
    let report_path = args.str("--report").unwrap_or("ORCH_campaign_report.json");

    let cache = crate::open_cache(&args);
    let report = execute(
        &manifest.jobs,
        args.usize("--jobs").unwrap_or(0),
        cache.as_ref(),
    );
    let failed = report.failed_rows();
    std::fs::write(
        report_path,
        report.to_json("campaign", cache.as_ref()) + "\n",
    )
    .expect("write orchestrator report");
    eprintln!(
        "tsocc campaign: {} jobs ({} cached, {} failed), {:.2}s; wrote {report_path}",
        report.rows.len(),
        report.cached_rows(),
        failed,
        report.wall_seconds,
    );
    if failed > 0 {
        for row in report.rows.iter().filter(|r| !r.clean) {
            eprintln!("tsocc campaign: FAILED {}", row.label);
        }
        std::process::exit(1);
    }
}
