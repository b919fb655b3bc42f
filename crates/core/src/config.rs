//! System configuration (the paper's Table 2).

use tsocc_coherence::{FaultPlan, MachineShape, ProtocolHandle};
use tsocc_cpu::CoreConfig;
use tsocc_mem::CacheParams;
use tsocc_noc::NocConfig;

/// A rejected [`SystemConfig`]: the machine geometry, protocol limits,
/// or workload wiring are inconsistent.
///
/// Produced by [`crate::System::try_new`]; the message is the same
/// human-readable constraint description [`SystemConfig::validate`]
/// returns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid system configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Which run loop drives the machine.
///
/// Both steppers run the one step and the one run loop of
/// [`crate::System`] and are **bit-identical** in every simulated
/// outcome (cycles, messages, flits, statistics, final memory). They
/// differ only in what they skip: the event-driven stepper visits the
/// components that are due or touched and jumps over cycles in which
/// none can act; the reference stepper visits every component and
/// skips no cycle. It is kept as the determinism oracle for those skips
/// (`tests/event_driven_parity.rs` diffs the two on the 27 sweep points
/// at 2, 4 and 8 cores; `tsocc sweep --check` on all 63 points of the
/// committed artifact). The per-cycle phases themselves are shared, so
/// stepper parity cannot see an error in them; golden digests check
/// those (see the README's "Simulation engine").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stepper {
    /// Indexed event queue: every component's wake deadline lives in a
    /// calendar queue (`tsocc_sim::WakeQueue`) and simulated time jumps
    /// straight to the minimum, visiting only due-or-touched components.
    /// The default.
    #[default]
    EventDriven,
    /// The same step over every component, every cycle; the wake queue
    /// stays untouched, so `RunStats::sched` reads zero.
    Reference,
}

/// Full machine configuration.
///
/// The coherence protocol is an open extension point: `protocol` is a
/// [`ProtocolHandle`] (a shared [`tsocc_coherence::ProtocolFactory`]),
/// so this crate never names a concrete protocol. Pass any factory —
/// or the `tsocc_protocols::Protocol` enum, which converts into a
/// handle — to the constructors.
///
/// Build through [`SystemConfig::builder`]: the default preset
/// reproduces the paper's simulated machine; [`SystemConfigBuilder::small`]
/// shrinks the caches so unit and litmus tests exercise evictions and
/// run fast.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of cores (32 in Table 2); one L2 tile per core.
    pub n_cores: usize,
    /// Number of memory controllers (mesh corners).
    pub n_mem: usize,
    /// Explicit mesh dimensions `(rows, cols)`; `None` picks the
    /// near-square default for the tile count
    /// ([`tsocc_noc::MeshTopology::for_tiles`]: 32→4×8, 128→8×16).
    /// Must multiply to the tile count — `rows × cols == n_cores`.
    pub mesh: Option<(usize, usize)>,
    /// L2 banks per tile: the line→home interleaving granularity
    /// (see [`MachineShape::home_tile`]). 1 for the paper's Table 2
    /// machine; the builder's preset raises it to 2 at 128 cores and
    /// beyond.
    pub l2_banks: usize,
    /// Core pipeline/write-buffer parameters.
    pub core: CoreConfig,
    /// L1 geometry.
    pub l1_params: CacheParams,
    /// L2 tile geometry.
    pub l2_params: CacheParams,
    /// L2 array access latency (cycles).
    pub l2_latency: u64,
    /// Memory access latency (cycles).
    pub mem_latency: u64,
    /// Network parameters.
    pub noc: NocConfig,
    /// Coherence protocol factory.
    pub protocol: ProtocolHandle,
    /// Seed for all deterministic randomness (workload perturbation).
    pub seed: u64,
    /// Which run loop drives the machine (identical results either
    /// way; see [`Stepper`]).
    pub stepper: Stepper,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] — the
    /// default from every constructor — keeps the machine byte-exact
    /// with the pre-fault-axis simulator; real experiments never set
    /// this. See `tsocc_faults`.
    pub faults: FaultPlan,
}

/// Typed constructor for [`SystemConfig`], the one blessed way to build
/// a machine. Starts from the paper's Table 2 preset; [`Self::small`]
/// switches to the small test machine. Geometry that the presets derive
/// from the core count (`n_mem`, `l2_banks`, the mesh) and the seed are
/// always derived, so `SystemConfig::builder().cores(n).protocol(p).build()`
/// is field-identical to the historical `table2_with_cores(p, n)` at
/// every `n` — the builder migration cannot perturb a single simulated
/// metric. To depart from a preset, assign the public field on the
/// built config: [`crate::System::try_new`] validates it again.
///
/// ```
/// use tsocc::{Stepper, SystemConfig};
/// use tsocc_protocols::Protocol;
///
/// let mut cfg = SystemConfig::builder()
///     .small()
///     .cores(2)
///     .protocol(Protocol::Mesi)
///     .build()
///     .expect("valid config");
/// cfg.stepper = Stepper::Reference;
/// assert_eq!(cfg.n_cores, 2);
/// ```
#[derive(Clone, Debug)]
pub struct SystemConfigBuilder {
    n_cores: usize,
    protocol: Option<ProtocolHandle>,
    faults: FaultPlan,
    small: bool,
}

impl SystemConfigBuilder {
    /// Switches to the small test machine: tiny caches (8×2 L1, 16×4
    /// L2) force evictions, short latencies keep litmus iteration fast.
    pub fn small(mut self) -> Self {
        self.small = true;
        self
    }

    /// Sets the core count; `n_mem`, `l2_banks` and the mesh derive
    /// from it exactly as the presets always have.
    pub fn cores(mut self, n: usize) -> Self {
        self.n_cores = n;
        self
    }

    /// Sets the coherence protocol (required).
    pub fn protocol(mut self, protocol: impl Into<ProtocolHandle>) -> Self {
        self.protocol = Some(protocol.into());
        self
    }

    /// Sets the deterministic fault-injection plan (defaults to
    /// [`FaultPlan::none`]).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Resolves the derived fields and validates the machine against
    /// both the protocol-independent geometry constraints and the
    /// configured protocol's own limits ([`SystemConfig::validate`]).
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when no protocol was set or the assembled
    /// configuration violates a constraint (zero-core machine,
    /// directory capacity, …).
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        let Some(protocol) = self.protocol else {
            return Err(ConfigError(
                "no protocol set: SystemConfig::builder() needs .protocol(…)".to_string(),
            ));
        };
        let n = self.n_cores;
        let table2 = SystemConfig {
            n_cores: n,
            n_mem: n.clamp(1, 4),
            mesh: None,
            l2_banks: if n >= 128 { 2 } else { 1 },
            core: CoreConfig::default(),
            l1_params: CacheParams::from_capacity(32 * 1024, 4),
            l2_params: CacheParams::from_capacity(1024 * 1024, 16),
            l2_latency: 20,
            mem_latency: 150,
            noc: NocConfig::default(),
            protocol,
            seed: 0xC0FFEE,
            stepper: Stepper::default(),
            faults: self.faults,
        };
        let cfg = if self.small {
            SystemConfig {
                n_mem: n.clamp(1, 2),
                l2_banks: 1,
                core: CoreConfig {
                    write_buffer_entries: 8,
                    l1_hit_latency: 1,
                },
                l1_params: CacheParams::new(8, 2),
                l2_params: CacheParams::new(16, 4),
                l2_latency: 4,
                mem_latency: 20,
                seed: 42,
                ..table2
            }
        } else {
            table2
        };
        cfg.validate().map_err(ConfigError)?;
        Ok(cfg)
    }
}

impl SystemConfig {
    /// A typed builder starting from the paper's Table 2 machine:
    /// 32 cores, 32 KiB 4-way L1s, 1 MiB 16-way L2 tiles, 2D mesh, 4
    /// memory controllers. See [`SystemConfigBuilder`].
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            n_cores: 32,
            protocol: None,
            faults: FaultPlan::none(),
            small: false,
        }
    }

    /// Number of L2 tiles (one per core).
    pub fn n_tiles(&self) -> usize {
        self.n_cores
    }

    /// The display name of the configured protocol.
    pub fn protocol_name(&self) -> String {
        self.protocol.protocol_name()
    }

    /// Checks the configuration against both the protocol-independent
    /// geometry constraints and the configured protocol's own limits
    /// (e.g. a full-bit-vector directory caps the core count at its
    /// sharer-set width). [`crate::System::new`] calls this, so an
    /// oversized machine fails with a clean message up front instead of
    /// a shift overflow deep inside directory construction.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.protocol.validate_shape(&self.shape())
    }

    /// The protocol-independent machine geometry handed to the
    /// [`tsocc_coherence::ProtocolFactory`] when controllers are built.
    pub fn shape(&self) -> MachineShape {
        use tsocc_coherence::MeshTopology;
        // `for_tiles` needs a positive tile count; a zero-tile machine
        // still gets a shape so `validate` can report the real error.
        let mesh = match self.mesh {
            Some((rows, cols)) => MeshTopology::new(rows, cols),
            None => MeshTopology::for_tiles(self.n_tiles().max(1)),
        };
        MachineShape {
            n_cores: self.n_cores,
            n_tiles: self.n_tiles(),
            n_mem: self.n_mem,
            mesh,
            l2_banks: self.l2_banks,
            l1_params: self.l1_params,
            l2_params: self.l2_params,
            l1_issue_latency: 1,
            l2_latency: self.l2_latency,
            faults: self.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_protocols::Protocol;

    fn mesi() -> SystemConfigBuilder {
        SystemConfig::builder().protocol(Protocol::Mesi)
    }

    #[test]
    fn table2_matches_paper() {
        let cfg = mesi().build().unwrap();
        assert_eq!(cfg.n_cores, 32);
        assert_eq!(cfg.core.write_buffer_entries, 32);
        assert_eq!(cfg.l1_params.lines() * 64, 32 * 1024);
        assert_eq!(cfg.l2_params.lines() * 64, 1024 * 1024);
        assert_eq!(cfg.n_tiles(), 32);
        assert_eq!(cfg.protocol_name(), "MESI");
    }

    #[test]
    fn shape_mirrors_config() {
        let cfg = mesi().small().cores(4).build().unwrap();
        let shape = cfg.shape();
        assert_eq!(shape.n_cores, 4);
        assert_eq!(shape.n_tiles, cfg.n_tiles());
        assert_eq!(shape.n_mem, cfg.n_mem);
        assert_eq!(shape.l2_latency, cfg.l2_latency);
        assert_eq!(shape.l2_banks, 1);
        assert_eq!((shape.mesh.rows(), shape.mesh.cols()), (2, 2));
    }

    #[test]
    fn mesh_override_must_match_tile_count() {
        let mut cfg = mesi().small().cores(4).build().unwrap();
        cfg.mesh = Some((1, 4));
        assert!(cfg.validate().is_ok());
        cfg.mesh = Some((2, 3));
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("routers"), "{err}");
    }

    #[test]
    fn l2_goes_two_banked_at_128_cores() {
        // The paper-size machines keep Table 2's flat interleaving…
        for n in [2, 16, 32, 64] {
            assert_eq!(mesi().cores(n).build().unwrap().l2_banks, 1);
        }
        // …and the 128-core climb stripes line pairs across tiles.
        let cfg = mesi().cores(128).build().unwrap();
        assert_eq!(cfg.l2_banks, 2);
        let shape = cfg.shape();
        assert_eq!((shape.mesh.rows(), shape.mesh.cols()), (8, 16));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn full_vector_directory_rejects_129_cores() {
        // MESI's one-bit-per-core u128 sharer vector caps the machine
        // at 128 cores; 129+ must be a clean config error, not a shift
        // overflow during directory construction.
        assert!(mesi().cores(128).build().is_ok());
        let err = mesi().cores(129).build().unwrap_err();
        assert!(err.0.contains("128") && err.0.contains("129"), "{err}");
    }

    #[test]
    fn builder_without_protocol_is_rejected() {
        let err = SystemConfig::builder().cores(4).build().unwrap_err();
        assert!(err.0.contains("protocol"), "{err}");
    }

    #[test]
    fn coarse_directory_capacity_scales_with_granularity() {
        use tsocc_mesi_coarse::MesiCoarseConfig;
        // One group bit per 4 cores: up to 512 cores fit the u128.
        let p4g4 = Protocol::MesiCoarse(MesiCoarseConfig::new(4, 4));
        let coarse = |n| SystemConfig::builder().protocol(p4g4).cores(n).build();
        assert!(coarse(512).is_ok());
        assert!(coarse(513).is_err());
        // TSO-CC has no sharer vector: no core-count cap.
        let tsocc = Protocol::TsoCc(tsocc_proto::TsoCcConfig::default());
        assert!(SystemConfig::builder()
            .protocol(tsocc)
            .cores(1024)
            .build()
            .is_ok());
    }

    #[test]
    fn zero_core_machine_is_rejected() {
        assert!(mesi().small().cores(0).build().is_err());
    }

    #[test]
    fn config_is_cloneable_and_debuggable() {
        let cfg = mesi().small().cores(2).build().unwrap();
        let cfg2 = cfg.clone();
        assert_eq!(cfg2.n_cores, 2);
        assert!(format!("{cfg2:?}").contains("MESI"));
    }

    /// The builder's derived fields must keep producing exactly the
    /// machines the (now removed) `table2_with_cores`/`small_test`
    /// constructors produced — `tsocc sweep --check` holds the
    /// simulated metrics byte-exact across history, and this pins the
    /// config layer it rests on.
    #[test]
    fn builder_pins_the_historical_presets() {
        for n in [1usize, 2, 4, 32, 64, 128] {
            let t2 = mesi().cores(n).build().unwrap();
            assert_eq!(t2.n_mem, n.clamp(1, 4), "table2 n_mem at {n} cores");
            assert_eq!(t2.l2_banks, if n >= 128 { 2 } else { 1 });
            assert_eq!(t2.seed, 0xC0FFEE);
            assert_eq!(t2.core.write_buffer_entries, 32);
            assert_eq!(t2.l1_params.lines() * 64, 32 * 1024);
            assert_eq!(t2.l2_params.lines() * 64, 1024 * 1024);
            assert_eq!((t2.l2_latency, t2.mem_latency), (20, 150));

            let small = mesi().small().cores(n).build().unwrap();
            assert_eq!(small.n_mem, n.clamp(1, 2), "small n_mem at {n} cores");
            assert_eq!(small.l2_banks, 1);
            assert_eq!(small.seed, 42);
            assert_eq!(small.core.write_buffer_entries, 8);
            assert_eq!(small.l1_params.lines(), 8 * 2);
            assert_eq!(small.l2_params.lines(), 16 * 4);
            assert_eq!((small.l2_latency, small.mem_latency), (4, 20));
        }
    }
}
