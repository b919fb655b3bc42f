//! The content-addressed result store.
//!
//! One simulation result = one immutable JSON record under the cache
//! directory, addressed by a 128-bit content hash of the job's
//! **canonical description** (see [`crate::jobs::JobSpec::canonical`])
//! and the **code-version fingerprint**
//! ([`crate::fingerprint::code_fingerprint`]). Records are append-only:
//! the store never rewrites a record in place — a record is either
//! absent, valid, or *evicted* (deleted) the moment validation fails,
//! and a changed tree simply addresses different keys, leaving the old
//! generation behind for `tsocc status` to report as stale.
//!
//! Lookup is paranoid by design: before a record is served, the store
//! re-parses it, recomputes its integrity checksum, and compares the
//! *stored* canonical description byte-for-byte against the query. A
//! truncated file, a flipped metric digit, or a hash collision all fail
//! one of those gates and the job is recomputed — a poisoned cache can
//! cost time, never correctness.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tsocc_bench::json;

use crate::fingerprint::code_fingerprint;
use crate::hash::{hex128_parts, Fnv};

/// Computes the cache key a record with this canonical description
/// lives under. The fingerprint participates in the address itself, so
/// a code change *misses* (old records stay behind) rather than
/// requiring an in-place invalidation pass.
pub fn cache_key(canonical: &str, fingerprint: &str) -> String {
    hex128_parts(&["tsocc-orch-key/v2", canonical, fingerprint])
}

/// The on-disk record format. Records of any other schema fail
/// [`CacheRecord::parse`]: a lookup evicts and recomputes them, and
/// `tsocc status` counts them invalid.
const SCHEMA: &str = "tsocc-orch-cache/v3";

/// One stored result, exactly as serialized to disk.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheRecord {
    /// The canonical job description the key was derived from.
    pub canonical: String,
    /// Code-version fingerprint the result was computed under.
    pub fingerprint: String,
    /// The serialized sweep row, stored verbatim. It holds simulated
    /// outcomes only, so serving it reproduces a computed row
    /// byte-for-byte.
    pub payload: String,
}

impl CacheRecord {
    /// The key this record is addressed by.
    pub fn key(&self) -> String {
        cache_key(&self.canonical, &self.fingerprint)
    }

    /// Integrity checksum over every content field. Stored in the
    /// record and recomputed on lookup, so any single-field corruption
    /// — including a flipped digit inside the row — is detected.
    fn checksum(&self) -> String {
        let mut h = Fnv::new();
        h.eat_str(SCHEMA);
        h.eat_str(&self.canonical);
        h.eat_str(&self.fingerprint);
        h.eat_str(&self.payload);
        format!("{:016x}", h.finish())
    }

    /// Serializes the record (the on-disk format,
    /// `tsocc-orch-cache/v3`).
    pub fn to_json(&self) -> String {
        json::Object::new()
            .str("schema", SCHEMA)
            .str("key", &self.key())
            .str("canonical", &self.canonical)
            .str("fingerprint", &self.fingerprint)
            .str("payload", &self.payload)
            .str("checksum", &self.checksum())
            .build()
    }

    /// Parses and *verifies* a serialized record: schema, checksum, and
    /// key self-consistency all have to hold.
    ///
    /// # Errors
    ///
    /// A description of the first failed gate (malformed JSON, missing
    /// field, checksum mismatch, key mismatch).
    pub fn parse(src: &str) -> Result<CacheRecord, String> {
        let doc = json::parse(src)?;
        let str_field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("record is missing {name:?}"))?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("record field {name:?} is not a string"))
        };
        if str_field("schema")? != SCHEMA {
            return Err("record schema mismatch".to_string());
        }
        let record = CacheRecord {
            canonical: str_field("canonical")?,
            fingerprint: str_field("fingerprint")?,
            payload: str_field("payload")?,
        };
        if str_field("checksum")? != record.checksum() {
            return Err("record checksum mismatch".to_string());
        }
        if str_field("key")? != record.key() {
            return Err("record key does not match its content".to_string());
        }
        Ok(record)
    }
}

/// Hit/miss/store/evict counters, shared across worker threads.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

/// A point-in-time copy of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a valid record.
    pub hits: u64,
    /// Lookups that found no (valid) record.
    pub misses: u64,
    /// Records written.
    pub stores: u64,
    /// Invalid records deleted during lookup.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (`1.0` on an all-hit run,
    /// `0.0` when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The stats as a JSON object (the report's `cache` field).
    pub fn to_json_obj(&self) -> json::Object {
        json::Object::new()
            .u64("hits", self.hits)
            .u64("misses", self.misses)
            .u64("stores", self.stores)
            .u64("evictions", self.evictions)
            .f64("hit_rate", self.hit_rate())
    }
}

/// What `tsocc status` reports about a cache directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanSummary {
    /// Valid records addressed by the *current* code fingerprint.
    pub fresh: u64,
    /// Valid records from other fingerprints (older code generations).
    pub stale: u64,
    /// Files that failed record validation.
    pub invalid: u64,
    /// Total bytes across all record files.
    pub bytes: u64,
}

/// The content-addressed result store rooted at one directory.
///
/// Layout: `<dir>/<key[0..2]>/<key>.json`, one immutable record per
/// key, written atomically (temp file + rename) so concurrent workers
/// and interrupted runs can never leave a half-written record behind —
/// and if anything else does, lookup validation evicts it.
pub struct ResultCache {
    dir: PathBuf,
    fingerprint: String,
    counters: Counters,
}

impl ResultCache {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            fingerprint: code_fingerprint(),
            counters: Counters::default(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The code fingerprint this store addresses new records under.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The key a job with this canonical description is addressed by
    /// under the current fingerprint.
    pub fn key_for(&self, canonical: &str) -> String {
        cache_key(canonical, &self.fingerprint)
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(&key[..2]).join(format!("{key}.json"))
    }

    /// Looks `key` up, expecting a record whose canonical description
    /// matches `canonical` byte-for-byte. Counts a hit or a miss; an
    /// existing-but-invalid record is evicted (deleted and counted) and
    /// reported as a miss, so a poisoned record is *recomputed*, never
    /// served.
    pub fn lookup(&self, canonical: &str, key: &str) -> Option<CacheRecord> {
        let path = self.path_for(key);
        let Ok(src) = std::fs::read_to_string(&path) else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let valid = CacheRecord::parse(&src)
            .ok()
            .filter(|r| r.key() == key && r.canonical == canonical);
        match valid {
            Some(record) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(record)
            }
            None => {
                let _ = std::fs::remove_file(&path);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Writes `record` under its content key (atomic temp + rename; a
    /// concurrent writer of the same key harmlessly wins the rename
    /// race with an identical record).
    ///
    /// # Errors
    ///
    /// Propagates the filesystem failure; the store is left without a
    /// partial record either way.
    pub fn store(&self, record: &CacheRecord) -> io::Result<()> {
        let key = record.key();
        let path = self.path_for(&key);
        let parent = path.parent().expect("record path has a shard directory");
        std::fs::create_dir_all(parent)?;
        let tmp = parent.join(format!(".{key}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, record.to_json() + "\n")?;
        std::fs::rename(&tmp, &path)?;
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A snapshot of this handle's hit/miss/store/evict counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// Walks every record file in the store and classifies it against
    /// the current fingerprint (the `tsocc status` scan). Invalid
    /// files are counted but left in place — they are only evicted when
    /// a lookup actually trips over them.
    pub fn scan(&self) -> ScanSummary {
        let mut summary = ScanSummary::default();
        let Ok(shards) = std::fs::read_dir(&self.dir) else {
            return summary;
        };
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            for file in files.flatten() {
                let Ok(src) = std::fs::read_to_string(file.path()) else {
                    continue;
                };
                summary.bytes += src.len() as u64;
                match CacheRecord::parse(&src) {
                    Ok(r) if r.fingerprint == self.fingerprint => summary.fresh += 1,
                    Ok(_) => summary.stale += 1,
                    Err(_) => summary.invalid += 1,
                }
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CacheRecord {
        CacheRecord {
            canonical: "bench=fft;demo=1".to_string(),
            fingerprint: code_fingerprint(),
            payload: format!("{{\"cycles\": 123, \"mem_fp\": {}}}", u64::MAX),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tsocc-orch-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_round_trips_exactly() {
        let r = record();
        let parsed = CacheRecord::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn store_then_lookup_hits_and_counts() {
        let dir = tmp_dir("hit");
        let cache = ResultCache::open(&dir).unwrap();
        let r = record();
        let key = r.key();
        assert!(cache.lookup(&r.canonical, &key).is_none());
        cache.store(&r).unwrap();
        let served = cache.lookup(&r.canonical, &key).unwrap();
        assert_eq!(served, r);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canonical_mismatch_is_never_served() {
        // A (hypothetical) key collision between two different jobs
        // must fall back to recomputation: the stored canonical string
        // is the authoritative identity, not the hash.
        let dir = tmp_dir("collide");
        let cache = ResultCache::open(&dir).unwrap();
        let r = record();
        cache.store(&r).unwrap();
        assert!(cache.lookup("bench=fft;demo=2", &r.key()).is_none());
        assert_eq!(cache.stats().evictions, 1, "colliding record is evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_classifies_generations() {
        let dir = tmp_dir("scan");
        let cache = ResultCache::open(&dir).unwrap();
        let fresh = record();
        cache.store(&fresh).unwrap();
        let stale = CacheRecord {
            fingerprint: "0123456789abcdef".to_string(),
            ..record()
        };
        cache.store(&stale).unwrap();
        std::fs::create_dir_all(dir.join("zz")).unwrap();
        std::fs::write(dir.join("zz/zz.json"), "{broken").unwrap();
        let summary = cache.scan();
        assert_eq!((summary.fresh, summary.stale, summary.invalid), (1, 1, 1));
        assert!(summary.bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
