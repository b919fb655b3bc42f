#![warn(missing_docs)]

//! 2D-mesh on-chip network model (GARNET substitute).
//!
//! The paper models its interconnect with GARNET inside gem5 (Table 2:
//! 2D mesh, 4 rows, 16-byte flits). This crate reproduces the
//! protocol-relevant behaviour of that network:
//!
//! - XY dimension-ordered routing over a rows×cols mesh,
//! - per-hop router and link latency,
//! - per-link serialization at one flit per cycle, so a 5-flit data
//!   message occupies a link five times longer than a 1-flit control
//!   message and contention between messages sharing a link is modelled,
//! - three virtual networks (request / forward / response) so protocol
//!   deadlock freedom mirrors the usual Ruby vnet discipline,
//! - exact flit accounting: injected flits and flit-hops, the metric
//!   behind the paper's Figure 4 ("network traffic, total flits").
//!
//! Substitution note: GARNET models router microarchitecture (VC
//! allocation, switch arbitration) flit by flit. We model message
//! timing hop-by-hop with per-link busy tracking, which preserves
//! serialization and queueing delay — the first-order contention effects —
//! at a fraction of the simulation cost.
//!
//! # Examples
//!
//! ```
//! use tsocc_noc::{Mesh, MeshTopology, NocConfig, VNet};
//! use tsocc_sim::Cycle;
//!
//! let topo = MeshTopology::new(2, 2);
//! let mut mesh: Mesh<&'static str> = Mesh::new(topo, NocConfig::default());
//! mesh.send(Cycle::ZERO, 0, 3, VNet::Request, 1, "GetS");
//! // Walk time forward until the message pops out at router 3.
//! let mut delivered = Vec::new();
//! for t in 0..100 {
//!     delivered.extend(mesh.deliver(Cycle::new(t)));
//! }
//! assert_eq!(delivered, vec![(3, "GetS")]);
//! ```

mod mesh;
mod topology;

pub use mesh::{Mesh, NocConfig, NocStats};
pub use topology::MeshTopology;

/// Virtual network classes, mirroring the request/forward/response
/// message-class split used by directory protocols to avoid protocol
/// deadlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VNet {
    /// L1 → L2 requests (GetS/GetX/PUT).
    Request,
    /// L2 → L1 forwards/invalidations and broadcasts.
    Forward,
    /// Data and acknowledgement responses.
    Response,
}

impl VNet {
    /// All virtual networks, in index order.
    pub const ALL: [VNet; 3] = [VNet::Request, VNet::Forward, VNet::Response];

    /// Dense index for table lookups.
    pub const fn index(self) -> usize {
        match self {
            VNet::Request => 0,
            VNet::Forward => 1,
            VNet::Response => 2,
        }
    }
}
