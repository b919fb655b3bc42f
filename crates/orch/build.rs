//! Bakes the simulator's source hash (`src/srchash.rs`) into the crate
//! as `TSOCC_SOURCE_HASH`. Cargo reruns this script when a hashed
//! `src/` directory (scanned recursively), a hashed `Cargo.toml` or
//! `Cargo.lock` changes; a new crate directory always changes
//! `Cargo.lock`.

use std::path::Path;
use std::process::Command;

// Only `Fnv` is used here; the rest of the module serves the library.
#[allow(dead_code)]
#[path = "src/hash.rs"]
mod hash;
#[path = "src/srchash.rs"]
mod srchash;

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let root = Path::new(&manifest_dir)
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let rustc = std::env::var("RUSTC").expect("set by cargo");
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .expect("run rustc -V");
    let version = String::from_utf8_lossy(&version.stdout);
    let hash = srchash::source_hash(root, version.trim()).expect("hash the sources");
    for dir in srchash::hashed_packages(root).expect("list the crates") {
        for watched in ["Cargo.toml", "src"] {
            let path = root.join(&dir).join(watched);
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
    let lock = root.join("Cargo.lock");
    println!("cargo:rerun-if-changed={}", lock.display());
    println!("cargo:rustc-env=TSOCC_SOURCE_HASH={hash:016x}");
}
