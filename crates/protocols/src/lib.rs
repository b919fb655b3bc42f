#![warn(missing_docs)]

//! Protocol registry: one convenient enum over every built-in
//! [`ProtocolFactory`].
//!
//! The system assembly (`tsocc` crate) is protocol-agnostic — it builds
//! controllers through a [`ProtocolHandle`](tsocc_coherence::ProtocolHandle)
//! and never names MESI or
//! TSO-CC. This crate sits on the *other* side of that seam: it depends
//! on every concrete protocol crate and packages them behind the closed
//! [`Protocol`] enum that tests, examples and the evaluation harness
//! use to enumerate configurations (e.g. [`Protocol::paper_configs`]).
//!
//! `Protocol` itself implements [`ProtocolFactory`], so any API that
//! accepts `impl Into<ProtocolHandle>` accepts a `Protocol` directly:
//!
//! ```
//! use tsocc_coherence::ProtocolHandle;
//! use tsocc_protocols::Protocol;
//!
//! let handle: ProtocolHandle = Protocol::Mesi.into();
//! assert_eq!(handle.protocol_name(), "MESI");
//! # use tsocc_coherence::ProtocolFactory;
//! ```
//!
//! A protocol living outside this enum needs no registration: implement
//! `ProtocolFactory` in its own crate and pass the factory wherever a
//! `Protocol` would go.

use tsocc_coherence::{
    CoherenceDiscipline, L1Controller, L2Controller, MachineShape, ProtocolFactory,
};
use tsocc_mesi::MesiFactory;
use tsocc_mesi_coarse::{MesiCoarseConfig, MesiCoarseFactory};
use tsocc_proto::{TsoCcConfig, TsoCcFactory};

/// Which coherence protocol the system runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// The MESI directory baseline with a full sharing vector.
    Mesi,
    /// MESI with a limited-pointer / coarse-sharing-vector directory —
    /// the storage-reduced directory baseline, a policy over the same
    /// chassis and L1 rules as [`Protocol::Mesi`].
    MesiCoarse(MesiCoarseConfig),
    /// TSO-CC in any of its configurations (§4.2); includes
    /// CC-shared-to-L2 via [`TsoCcConfig::cc_shared_to_l2`].
    TsoCc(TsoCcConfig),
}

impl Protocol {
    /// The paper's name for this configuration (Figure 3 legend);
    /// MESI-coarse points are named `MESI-P<pointers>-G<granularity>`.
    pub fn name(&self) -> String {
        match self {
            Protocol::Mesi => "MESI".to_string(),
            Protocol::MesiCoarse(cfg) => cfg.name(),
            Protocol::TsoCc(cfg) => cfg.name(),
        }
    }

    /// All seven configurations evaluated in the paper, in figure
    /// order.
    pub fn paper_configs() -> Vec<Protocol> {
        vec![
            Protocol::Mesi,
            Protocol::TsoCc(TsoCcConfig::cc_shared_to_l2()),
            Protocol::TsoCc(TsoCcConfig::basic()),
            Protocol::TsoCc(TsoCcConfig::noreset()),
            Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
            Protocol::TsoCc(TsoCcConfig::realistic(12, 0)),
            Protocol::TsoCc(TsoCcConfig::realistic(9, 3)),
        ]
    }

    /// The sweep-baseline matrix: every paper configuration plus the
    /// limited-pointer directory points `BENCH_sweep.json` tracks (the
    /// balanced Dir_4_CV default and a one-pointer configuration that
    /// exercises the coarse fallback on every sharing pattern).
    pub fn sweep_configs() -> Vec<Protocol> {
        let mut configs = Protocol::paper_configs();
        configs.push(Protocol::MesiCoarse(MesiCoarseConfig::default()));
        configs.push(Protocol::MesiCoarse(MesiCoarseConfig::new(1, 4)));
        configs
    }

    /// Parses a configuration display name back into a `Protocol` —
    /// the inverse of [`Protocol::name`] for every name produced by
    /// [`Protocol::sweep_configs`]-style enumerations, plus arbitrary
    /// `MESI-P<p>-G<g>` and `TSO-CC-4-<ts>-<wg>` points.
    pub fn from_name(name: &str) -> Option<Protocol> {
        match name {
            "MESI" => return Some(Protocol::Mesi),
            "CC-shared-to-L2" => return Some(Protocol::TsoCc(TsoCcConfig::cc_shared_to_l2())),
            "TSO-CC-4-basic" => return Some(Protocol::TsoCc(TsoCcConfig::basic())),
            "TSO-CC-4-noreset" => return Some(Protocol::TsoCc(TsoCcConfig::noreset())),
            _ => {}
        }
        // Parametric names must round-trip exactly: a config whose
        // constructor would clamp or rename the requested parameters
        // (e.g. MESI-P16-G4, TSO-CC-4-62-0) is rejected rather than
        // silently running something other than what was named.
        if let Some(rest) = name.strip_prefix("MESI-P") {
            let (p, g) = rest.split_once("-G")?;
            let cfg = MesiCoarseConfig::new(p.parse().ok()?, g.parse().ok()?);
            return (cfg.name() == name).then_some(Protocol::MesiCoarse(cfg));
        }
        if let Some(rest) = name.strip_prefix("TSO-CC-4-") {
            let (ts, wg) = rest.split_once('-')?;
            let cfg = TsoCcConfig::realistic(ts.parse().ok()?, wg.parse().ok()?);
            return (cfg.name() == name).then_some(Protocol::TsoCc(cfg));
        }
        None
    }
}

impl ProtocolFactory for Protocol {
    fn protocol_name(&self) -> String {
        self.name()
    }

    fn l1(&self, core: usize, shape: &MachineShape) -> Box<dyn L1Controller> {
        match self {
            Protocol::Mesi => MesiFactory.l1(core, shape),
            Protocol::MesiCoarse(cfg) => MesiCoarseFactory::new(*cfg).l1(core, shape),
            Protocol::TsoCc(cfg) => TsoCcFactory::new(*cfg).l1(core, shape),
        }
    }

    fn l2(&self, tile: usize, shape: &MachineShape) -> Box<dyn L2Controller> {
        match self {
            Protocol::Mesi => MesiFactory.l2(tile, shape),
            Protocol::MesiCoarse(cfg) => MesiCoarseFactory::new(*cfg).l2(tile, shape),
            Protocol::TsoCc(cfg) => TsoCcFactory::new(*cfg).l2(tile, shape),
        }
    }

    fn validate_shape(&self, shape: &MachineShape) -> Result<(), String> {
        match self {
            Protocol::Mesi => MesiFactory.validate_shape(shape),
            Protocol::MesiCoarse(cfg) => MesiCoarseFactory::new(*cfg).validate_shape(shape),
            Protocol::TsoCc(cfg) => TsoCcFactory::new(*cfg).validate_shape(shape),
        }
    }

    fn coherence_discipline(&self) -> CoherenceDiscipline {
        match self {
            Protocol::Mesi => MesiFactory.coherence_discipline(),
            Protocol::MesiCoarse(cfg) => MesiCoarseFactory::new(*cfg).coherence_discipline(),
            Protocol::TsoCc(cfg) => TsoCcFactory::new(*cfg).coherence_discipline(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_seven_with_unique_names() {
        let configs = Protocol::paper_configs();
        assert_eq!(configs.len(), 7);
        let mut names: Vec<String> = configs.iter().map(|c| c.name()).collect();
        assert_eq!(names[0], "MESI");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7, "names must be distinct");
    }

    #[test]
    fn sweep_configs_extend_paper_configs_with_mesi_coarse() {
        let configs = Protocol::sweep_configs();
        assert_eq!(configs.len(), 9);
        assert_eq!(&configs[..7], &Protocol::paper_configs()[..]);
        assert!(configs
            .iter()
            .any(|c| c.name() == MesiCoarseConfig::default().name()));
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for p in Protocol::sweep_configs() {
            assert_eq!(Protocol::from_name(&p.name()), Some(p), "{}", p.name());
        }
        assert_eq!(
            Protocol::from_name("MESI-P2-G8"),
            Some(Protocol::MesiCoarse(MesiCoarseConfig::new(2, 8)))
        );
        assert_eq!(Protocol::from_name("bogus"), None);
        assert_eq!(Protocol::from_name("MESI-P2"), None);
        // Out-of-range parameters would be silently clamped by the
        // constructors; the parser must reject them instead.
        assert_eq!(Protocol::from_name("MESI-P16-G4"), None);
        assert_eq!(Protocol::from_name("MESI-P0-G4"), None);
        assert_eq!(
            Protocol::from_name("TSO-CC-4-62-0"),
            None,
            "that is noreset"
        );
    }

    #[test]
    fn enum_delegates_to_concrete_factories() {
        use tsocc_coherence::MeshTopology;
        use tsocc_mem::CacheParams;
        let shape = MachineShape {
            n_cores: 2,
            n_tiles: 2,
            n_mem: 1,
            mesh: MeshTopology::for_tiles(2),
            l2_banks: 1,
            l1_params: CacheParams::new(8, 2),
            l2_params: CacheParams::new(16, 4),
            l1_issue_latency: 1,
            l2_latency: 4,
            faults: tsocc_coherence::FaultPlan::none(),
        };
        for p in Protocol::sweep_configs() {
            assert!(p.l1(0, &shape).is_quiescent(), "{}", p.name());
            assert!(p.l2(1, &shape).is_quiescent(), "{}", p.name());
        }
    }
}
