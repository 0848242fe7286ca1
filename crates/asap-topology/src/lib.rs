//! GT-ITM transit-stub physical network and an exact latency oracle.
//!
//! The paper's simulator sits on "a hierarchical Internet network with 51,984
//! physical nodes" built with the GT-ITM transit-stub model (§IV-A): 9 transit
//! domains of ~16 transit nodes each, 9 stub domains per transit node, ~40
//! stub nodes per stub domain. Link latencies by tier: 50 ms between transit
//! domains, 20 ms inside a transit domain, 5 ms transit→stub, 2 ms inside a
//! stub domain. Only some physical nodes host P2P peers, but all contribute
//! latency.
//!
//! Because all-pairs shortest paths over 51,984 nodes is infeasible
//! (~2.7 × 10⁹ entries), [`LatencyOracle`] exploits the hierarchy: exact APSP
//! is precomputed only inside each (small) stub domain and over the
//! transit-node core, and any pair query composes those segments in O(1)
//! from the two endpoints' [`LatencyCoord`]s.
//! A reference Dijkstra ([`dijkstra`]) cross-validates the oracle in tests.

pub mod config;
pub mod dijkstra;
pub mod graph;
pub mod gtitm;
pub mod latency;

pub use config::TransitStubConfig;
pub use graph::{NodeKind, PhysGraph, PhysNodeId};
pub use gtitm::generate;
pub use latency::{LatencyCoord, LatencyOracle};

/// A generated physical network: the explicit graph plus its latency oracle.
#[derive(Debug)]
pub struct PhysicalNetwork {
    graph: PhysGraph,
    oracle: LatencyOracle,
}

impl PhysicalNetwork {
    /// Generate a transit-stub network and build its latency oracle.
    pub fn generate(config: &TransitStubConfig) -> Self {
        let graph = gtitm::generate(config);
        let oracle = LatencyOracle::build(&graph);
        Self { graph, oracle }
    }

    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    pub fn graph(&self) -> &PhysGraph {
        &self.graph
    }

    /// One-way latency between two physical nodes, in microseconds.
    #[inline]
    pub fn latency_us(&self, a: PhysNodeId, b: PhysNodeId) -> u64 {
        self.oracle.latency_us(&self.graph, a, b)
    }

    /// Where `node` sits in the hierarchy (see [`LatencyOracle::coord`]):
    /// resolve once, then query pairs with [`Self::coord_latency_us`].
    pub fn coord(&self, node: PhysNodeId) -> LatencyCoord {
        self.oracle.coord(&self.graph, node)
    }

    /// One-way latency between two resolved nodes, in microseconds.
    #[inline]
    pub fn coord_latency_us(&self, a: LatencyCoord, b: LatencyCoord) -> u64 {
        self.oracle.coord_latency_us(&self.graph, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_51984_nodes() {
        // 9 × 16 transit + 9·16 × 9 × 40 stub = 144 + 51,840 = 51,984.
        let cfg = TransitStubConfig::paper_default(7);
        assert_eq!(cfg.expected_nodes(), 51_984);
    }

    #[test]
    fn reduced_network_generates_and_answers_queries() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::reduced(42));
        assert!(net.num_nodes() > 0);
        let a = PhysNodeId(0);
        let b = PhysNodeId(net.num_nodes() as u32 - 1);
        assert_eq!(net.latency_us(a, a), 0);
        let ab = net.latency_us(a, b);
        assert_eq!(ab, net.latency_us(b, a), "latency must be symmetric");
        assert!(ab > 0);
    }
}
