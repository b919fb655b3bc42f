//! The code fingerprint folded into every cache key.
//!
//! A cached simulation result is only valid as long as the *code* that
//! produced it would still produce the same simulated metrics. The
//! fingerprint pins that with a fact the build computes: `build.rs`
//! hashes the sources of every `crates/*` package other than
//! `crates/orch`, plus `Cargo.lock` and `rustc -V` (`src/srchash.rs`),
//! and bakes the result in as `TSOCC_SOURCE_HASH`. Any edit to those
//! sources moves the fingerprint, so every old record misses and is
//! recomputed.

use crate::hash::Fnv;

/// The source hash `build.rs` computed, as 16 lowercase hex digits.
const SOURCE_HASH: &str = env!("TSOCC_SOURCE_HASH");

/// The fingerprint as 16 lowercase hex digits: the source hash folded
/// with the build profile.
///
/// Debug and release builds fingerprint differently: the simulator's
/// metrics are profile-independent by contract, but debug trees are
/// where unreleased changes live, so they must never poison a release
/// cache (or vice versa).
pub fn code_fingerprint() -> String {
    let mut h = Fnv::new();
    h.eat_str("tsocc-orch-fingerprint/v2");
    h.eat_str(SOURCE_HASH);
    h.eat_str(if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    });
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srchash::{hashed_packages, source_hash};
    use std::path::Path;

    /// The values of the `name = "..."` lines of a manifest or lock file.
    fn names(root: &Path, rel: &str) -> Vec<String> {
        let src = std::fs::read_to_string(root.join(rel)).unwrap();
        src.lines()
            .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .map(str::to_string)
            .collect()
    }

    fn root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(code_fingerprint(), code_fingerprint());
        assert_eq!(code_fingerprint().len(), 16);
    }

    #[test]
    fn hashed_packages_are_the_lock_file_packages_but_orch_and_the_umbrella() {
        let dirs = hashed_packages(root()).unwrap();
        let mut hashed: Vec<String> = dirs
            .iter()
            .map(|dir| names(root(), &format!("{dir}/Cargo.toml")).remove(0))
            .collect();
        let mut locked = names(root(), "Cargo.lock");
        locked.retain(|n| n != "tsocc-orch" && n != "tsocc-repro");
        hashed.sort();
        locked.sort();
        assert_eq!(hashed, locked);
    }

    /// Fails when the build script did not rerun after an edit.
    #[test]
    fn baked_source_hash_is_the_hash_of_the_checked_out_tree() {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let version = std::process::Command::new(rustc).arg("-V").output();
        let version = String::from_utf8_lossy(&version.unwrap().stdout).into_owned();
        let fresh = source_hash(root(), version.trim()).unwrap();
        assert_eq!(SOURCE_HASH, format!("{fresh:016x}"));
    }
}
