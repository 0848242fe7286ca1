//! Query-based baseline search algorithms (paper §IV-A):
//!
//! * [`flooding`] — Gnutella-style flooding, TTL = 6;
//! * [`random_walk`] — 5 walkers, TTL = 1024;
//! * [`gsa`] — the "generalized search algorithm": budget-bounded hybrid
//!   search (total message budget 8,000 per query), reconstructed from
//!   Gkantsidis et al.'s hybrid normalized-flooding/random-walk family
//!   (DESIGN.md §5).
//!
//! All three share the same mechanics: a query message carries the search
//! terms; every visited node checks its local content and, on a match,
//! returns a *query hit* directly to the requester. The paper's baseline
//! search cost counts query messages only.

pub mod checkpoint;
pub mod common;
pub mod flooding;
pub mod gsa;
pub mod random_walk;

pub use common::BaselineMsg;
pub use flooding::{Flooding, FloodingConfig};
pub use gsa::{Gsa, GsaConfig};
pub use random_walk::{RandomWalk, RandomWalkConfig};

#[cfg(test)]
pub(crate) mod testutil {
    use asap_overlay::{Overlay, OverlayConfig, OverlayKind};
    use asap_topology::{PhysicalNetwork, TransitStubConfig};
    use asap_workload::{Workload, WorkloadConfig};

    /// A small deterministic world shared by baseline tests.
    pub fn world(peers: usize, queries: usize, seed: u64) -> (PhysicalNetwork, Workload, Overlay) {
        let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
        let workload = asap_workload::generate(&WorkloadConfig::reduced(peers, queries, seed));
        let overlay = OverlayConfig::new(OverlayKind::Random, peers, seed).build();
        (phys, workload, overlay)
    }
}
