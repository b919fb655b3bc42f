//! Property tests of the orchestrator's content-addressed identity and
//! cache integrity — the three invariants the result store's
//! correctness rests on:
//!
//! - **The canonical description is an identity, not a transcript.**
//!   However a [`SystemConfig`] was *constructed* — builder setters in
//!   any order, geometry left implicit or spelled out, any stepper —
//!   equal machines render equal canonical strings, so equivalent jobs
//!   share one cache address.
//! - **Every simulated-metric-affecting field splits the address.**
//!   Perturbing any one field that can move a simulated metric
//!   (protocol, core count, latencies, cache geometry, NoC parameters,
//!   seed, fault plan, ...) changes the canonical string — and
//!   therefore the key — while the stepper choice (proven bit-identical
//!   by the parity suites) never does.
//! - **A poisoned record is recomputed, never served.** Any truncation
//!   or single-character corruption of an on-disk record trips a
//!   validation gate on lookup; the record is evicted, the lookup
//!   reports a miss, and a fresh store repopulates the slot.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tsocc::{Stepper, SystemConfig, SystemConfigBuilder};
use tsocc_mem::CacheParams;
use tsocc_orch::{cache_key, canonical_config, code_fingerprint, CacheRecord, ResultCache};
use tsocc_protocols::Protocol;

/// The protocol palette the identity properties draw from.
const PROTOCOLS: [fn() -> Protocol; 3] = [
    || Protocol::Mesi,
    || Protocol::MesiCoarse(Default::default()),
    || Protocol::TsoCc(Default::default()),
];

/// Valid mesh-able core counts (the builder wants rows × cols
/// factorizations to exist; powers of two always do).
const CORE_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// A fresh per-case cache directory (unique across cases and across
/// concurrently running test processes).
fn tmp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsocc-orch-props-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One independent builder setter, applicable in any order.
type Setter = Box<dyn Fn(SystemConfigBuilder) -> SystemConfigBuilder>;

/// One named mutation of a built config's simulated-metric fields.
type Mutation<'a> = (&'a str, Box<dyn Fn(&mut SystemConfig)>);

fn setters(proto: usize, n_cores: usize, seed: u64, latency: u64) -> Vec<Setter> {
    vec![
        Box::new(move |b| b.cores(n_cores)),
        Box::new(move |b| b.protocol(PROTOCOLS[proto % PROTOCOLS.len()]())),
        Box::new(move |b| b.seed(seed)),
        Box::new(move |b| b.l2_latency(10 + latency)),
        Box::new(move |b| b.mem_latency(100 + latency)),
        Box::new(move |b| b.l2_banks(1)),
    ]
}

/// Applies `setters` to a fresh builder in the order given by the
/// factorial-number-system decomposition of `perm`.
fn build_permuted(mut setters: Vec<Setter>, mut perm: usize) -> SystemConfig {
    let mut b = SystemConfig::builder();
    while !setters.is_empty() {
        let i = perm % setters.len();
        perm /= setters.len();
        b = setters.remove(i)(b);
    }
    b.build().expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder call order is construction history, not identity: every
    /// permutation of the same setter list canonicalizes identically.
    #[test]
    fn canonical_is_invariant_under_builder_field_ordering(
        proto in 0usize..3,
        cores_idx in 0usize..4,
        seed in any::<u64>(),
        latency in 0u64..50,
        perm in 0usize..720,
    ) {
        let n_cores = CORE_COUNTS[cores_idx];
        let reference = build_permuted(setters(proto, n_cores, seed, latency), 0);
        let permuted = build_permuted(setters(proto, n_cores, seed, latency), perm);
        prop_assert_eq!(canonical_config(&reference), canonical_config(&permuted));
    }

    /// Implicit geometry (`mesh: None`) and the equivalent explicit
    /// `mesh(rows, cols)` are the same machine, hence the same address.
    #[test]
    fn canonical_resolves_implicit_geometry(
        proto in 0usize..3,
        cores_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n_cores = CORE_COUNTS[cores_idx];
        let implicit = SystemConfig::builder()
            .cores(n_cores)
            .protocol(PROTOCOLS[proto]())
            .seed(seed)
            .build()
            .expect("valid config");
        let shape = implicit.shape();
        let explicit = SystemConfig::builder()
            .cores(n_cores)
            .protocol(PROTOCOLS[proto]())
            .seed(seed)
            .mesh(shape.mesh.rows(), shape.mesh.cols())
            .build()
            .expect("valid config");
        prop_assert!(implicit.mesh.is_none());
        prop_assert!(explicit.mesh.is_some());
        prop_assert_eq!(canonical_config(&implicit), canonical_config(&explicit));
    }

    /// Each simulated-metric-affecting field splits the canonical
    /// string on its own; the stepper never does.
    #[test]
    fn canonical_distinguishes_every_simulated_field(
        proto in 0usize..3,
        cores_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let base = SystemConfig::builder()
            .cores(CORE_COUNTS[cores_idx])
            .protocol(PROTOCOLS[proto]())
            .seed(seed)
            .build()
            .expect("valid config");
        let canon = canonical_config(&base);

        // `canonical_config` renders fields without revalidating, so
        // mutations may edit the built struct directly.
        let mutations: Vec<Mutation> = vec![
            ("protocol", Box::new(move |c: &mut SystemConfig| {
                c.protocol = PROTOCOLS[(proto + 1) % PROTOCOLS.len()]().into();
            })),
            ("n_cores", Box::new(|c| {
                c.n_cores *= 2;
                c.mesh = None;
            })),
            ("n_mem", Box::new(|c| c.n_mem += 1)),
            ("l2_banks", Box::new(|c| c.l2_banks *= 2)),
            ("seed", Box::new(|c| c.seed = c.seed.wrapping_add(1))),
            ("l2_latency", Box::new(|c| c.l2_latency += 1)),
            ("mem_latency", Box::new(|c| c.mem_latency += 1)),
            ("write_buffer", Box::new(|c| c.core.write_buffer_entries += 1)),
            ("l1_hit_latency", Box::new(|c| c.core.l1_hit_latency += 1)),
            ("l1_geometry", Box::new(|c| {
                c.l1_params = CacheParams::new(c.l1_params.sets() * 2, c.l1_params.ways());
            })),
            ("l2_geometry", Box::new(|c| {
                c.l2_params = CacheParams::new(c.l2_params.sets(), c.l2_params.ways() + 1);
            })),
            ("router_latency", Box::new(|c| c.noc.router_latency += 1)),
            ("link_latency", Box::new(|c| c.noc.link_latency += 1)),
            ("flit_bytes", Box::new(|c| c.noc.flit_bytes *= 2)),
            ("fault_plan", Box::new(|c| c.faults.seed = c.faults.seed.wrapping_add(1))),
        ];
        for (name, mutate) in mutations {
            let mut cfg = base.clone();
            mutate(&mut cfg);
            prop_assert_ne!(
                canonical_config(&cfg),
                canon.clone(),
                "mutating {} must change the canonical description",
                name
            );
        }

        // The deliberate exclusion: steppers are bit-identical, so the
        // run loop must NOT split the cache.
        for stepper in [Stepper::Reference, Stepper::EventDriven] {
            let mut cfg = base.clone();
            cfg.stepper = stepper;
            prop_assert_eq!(canonical_config(&cfg), canon.clone());
        }
    }

    /// The key mixes in both identity components.
    #[test]
    fn cache_key_splits_on_canonical_and_fingerprint(
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let canon = format!("seed={a};x={b}");
        let key = cache_key(&canon, "fp0");
        prop_assert_eq!(key.len(), 32);
        prop_assert_ne!(key.clone(), cache_key(&format!("{canon};y=1"), "fp0"));
        prop_assert_ne!(key, cache_key(&canon, "fp1"));
    }

    /// Truncated or corrupted records are detected on lookup, evicted,
    /// and recomputed — never served.
    #[test]
    fn poisoned_records_are_evicted_never_served(
        seed in any::<u64>(),
        cycles in any::<u64>(),
        cut in 0usize..1000,
        digit_pick in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let dir = tmp_dir();
        let cache = ResultCache::open(&dir).unwrap();
        let record = CacheRecord {
            canonical: format!("bench=fft;seed={seed}"),
            fingerprint: code_fingerprint(),
            payload: format!("{{\"cycles\": {cycles}, \"flits\": {}}}", !cycles),
        };
        let key = record.key();
        cache.store(&record).unwrap();
        let path = dir.join(&key[..2]).join(format!("{key}.json"));
        let src = std::fs::read_to_string(&path).unwrap();

        let poisoned = if truncate {
            // Cut strictly inside the serialized object so the result
            // is not a complete record (the final `}` is gone).
            src[..cut % (src.len() - 2)].to_string()
        } else {
            // Replace one digit with a different digit: whichever field
            // it lands in (the canonical description, the fingerprint,
            // the checksum, the key, a metric in the payload), some
            // validation gate must trip.
            let digits: Vec<usize> = src
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let at = digits[(digit_pick % digits.len() as u64) as usize];
            let old = src.as_bytes()[at] - b'0';
            let new = (old + 1 + (digit_pick % 9) as u8) % 10;
            let mut bytes = src.clone().into_bytes();
            bytes[at] = b'0' + new;
            String::from_utf8(bytes).unwrap()
        };
        prop_assert_ne!(&poisoned, &src);
        std::fs::write(&path, &poisoned).unwrap();

        prop_assert!(
            cache.lookup(&record.canonical, &key).is_none(),
            "poisoned record must not be served"
        );
        let stats = cache.stats();
        prop_assert_eq!(stats.evictions, 1);
        prop_assert_eq!(stats.hits, 0);
        prop_assert!(!path.exists(), "poisoned record must be evicted");

        // Recompute-and-store repopulates the slot; the next lookup
        // serves the intact record again.
        cache.store(&record).unwrap();
        let served = cache.lookup(&record.canonical, &key);
        prop_assert_eq!(served, Some(record));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
