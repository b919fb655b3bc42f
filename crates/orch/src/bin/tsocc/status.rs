//! `tsocc status`: scans a result-cache directory and prints a
//! `tsocc-orch-status/v1` summary of its records by freshness against
//! the current code fingerprint.
//!
//! ```text
//! tsocc status [--cache-dir PATH]
//! ```

use tsocc_bench::cli::Cli;
use tsocc_bench::json;
use tsocc_orch::{code_fingerprint, ResultCache};

pub const ABOUT: &str = "report what the result-cache directory holds";

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc status", ABOUT)
        .opt(
            "--cache-dir",
            "PATH",
            "content-addressed result store directory (default .tsocc-cache)",
        )
        .parse(args);

    let dir = args.str("--cache-dir").unwrap_or(".tsocc-cache");
    let cache = ResultCache::open(dir)
        .unwrap_or_else(|e| args.fail(format!("cannot open cache at {dir}: {e}")));
    let scan = cache.scan();
    let doc = json::Object::new()
        .str("schema", "tsocc-orch-status/v1")
        .str("cache_dir", dir)
        .str("fingerprint", &code_fingerprint())
        .u64("records_fresh", scan.fresh)
        .u64("records_stale", scan.stale)
        .u64("records_invalid", scan.invalid)
        .u64("bytes", scan.bytes)
        .build();
    println!("{doc}");
}
