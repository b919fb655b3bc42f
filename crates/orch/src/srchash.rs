//! The source hash behind the result cache's code fingerprint: every
//! package directory `crates/*/` except `crates/orch` (its `Cargo.toml`
//! and every file under its `src/`), then `Cargo.lock` and `rustc -V`.
//!
//! That set covers `tsocc-orch`'s normal dependencies plus the two
//! dev-only shims, whose edits only cost a false miss. `crates/orch`
//! stays out: how rows are scheduled, stored and served cannot change
//! them. Files are hashed by content under their workspace-relative
//! path, in sorted path order, so neither the checkout location nor
//! file mtimes matter.
//!
//! std-only and free of `crate::` paths: `build.rs` includes this file
//! and `hash.rs` with `#[path]`, and there `crate` is the build script.

use std::io;
use std::path::Path;

use super::hash::Fnv;

/// The package directories the hash covers: every `crates/*/` holding
/// a `Cargo.toml`, except `crates/orch`, as sorted workspace-relative
/// paths.
///
/// # Errors
///
/// Propagates a failure to list `root/crates`.
pub fn hashed_packages(root: &Path) -> io::Result<Vec<String>> {
    let mut dirs = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let rel = format!("crates/{}", entry?.file_name().to_string_lossy());
        if rel != "crates/orch" && root.join(&rel).join("Cargo.toml").is_file() {
            dirs.push(rel);
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// Appends `rel`, or every file below it if it is a directory.
fn walk(root: &Path, rel: String, out: &mut Vec<String>) -> io::Result<()> {
    let path = root.join(&rel);
    if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            let name = entry?.file_name();
            walk(root, format!("{rel}/{}", name.to_string_lossy()), out)?;
        }
    } else if path.is_file() {
        out.push(rel);
    }
    Ok(())
}

/// Every file the hash reads, in hashing order: the hashed packages'
/// `Cargo.toml` and `src/**` files sorted by workspace-relative path
/// (`/`-separated), then `Cargo.lock`.
///
/// # Errors
///
/// Propagates a failure to list a directory.
fn hashed_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    for dir in hashed_packages(root)? {
        walk(root, format!("{dir}/Cargo.toml"), &mut files)?;
        walk(root, format!("{dir}/src"), &mut files)?;
    }
    files.sort();
    files.push("Cargo.lock".to_string());
    Ok(files)
}

/// The source hash of the workspace at `root` under the compiler that
/// reports `rustc_version`.
///
/// # Errors
///
/// Propagates a failure to list a directory or read a hashed file.
pub fn source_hash(root: &Path, rustc_version: &str) -> io::Result<u64> {
    let mut h = Fnv::new();
    for rel in hashed_files(root)? {
        let bytes = std::fs::read(root.join(&rel))?;
        h.eat_str(&rel);
        h.eat_u64(bytes.len() as u64);
        h.eat(&bytes);
    }
    h.eat_str(rustc_version);
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn write(root: &Path, rel: &str, content: &str) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
    }

    /// A miniature workspace under a fresh temp root: one simulator
    /// crate with a nested source file, `crates/orch` and a lock file.
    fn tree(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("tsocc-srchash-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        write(&root, "Cargo.lock", "version = 4");
        write(&root, "crates/x/Cargo.toml", "name = \"x\"");
        write(&root, "crates/x/src/deep/mod.rs", "hop = 1");
        write(&root, "crates/orch/src/bin/tsocc/main.rs", "fn main() {}");
        write(&root, "crates/orch/Cargo.toml", "name = \"orch\"");
        root
    }

    #[test]
    fn simulator_edits_move_the_hash_and_orch_edits_do_not() {
        let root = tree("edits");
        let hash = || source_hash(&root, "rustc 1.0.0").unwrap();
        let before = hash();
        write(&root, "crates/x/src/deep/mod.rs", "hop = 2");
        assert_ne!(hash(), before, "one byte under crates/x/src");
        write(&root, "crates/x/src/deep/mod.rs", "hop = 1");
        assert_eq!(hash(), before, "the hash is over content, not mtimes");
        write(&root, "crates/orch/src/bin/tsocc/main.rs", "// a comment");
        write(&root, "crates/orch/Cargo.toml", "name = \"o\"");
        assert_eq!(hash(), before, "crates/orch is not hashed");
        assert_ne!(source_hash(&root, "rustc 1.0.1").unwrap(), before);
        write(&root, "crates/y/Cargo.toml", "name = \"y\"");
        assert_ne!(hash(), before, "a new crate directory");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_same_tree_under_two_roots_hashes_the_same() {
        let (a, b) = (tree("a"), tree("b"));
        let files = [
            "crates/x/Cargo.toml",
            "crates/x/src/deep/mod.rs",
            "Cargo.lock",
        ];
        assert_eq!(hashed_files(&a).unwrap(), files);
        assert_eq!(source_hash(&a, "").unwrap(), source_hash(&b, "").unwrap());
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }
}
