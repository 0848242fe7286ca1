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
pub use graph::{Hierarchy, NodeKind, PhysGraph, PhysNodeId};
pub use gtitm::generate;
pub use latency::{LatencyCoord, LatencyOracle};

/// A generated physical network: the hierarchy records plus the latency
/// oracle built from the graph. The graph's adjacency is dropped once the
/// oracle's tables exist; [`generate`] rebuilds it from the same config.
#[derive(Debug)]
pub struct PhysicalNetwork {
    hierarchy: Hierarchy,
    oracle: LatencyOracle,
}

impl PhysicalNetwork {
    /// Generate a transit-stub network and build its latency oracle.
    pub fn generate(config: &TransitStubConfig) -> Self {
        let graph = gtitm::generate(config);
        let oracle = LatencyOracle::build(&graph);
        Self {
            hierarchy: graph.into_hierarchy(),
            oracle,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.hierarchy.num_nodes()
    }

    /// Heap bytes held: the hierarchy records and the oracle's tables.
    pub fn heap_bytes(&self) -> usize {
        self.hierarchy.heap_bytes() + self.oracle.heap_bytes()
    }

    /// One-way latency between two physical nodes, in microseconds.
    #[inline]
    pub fn latency_us(&self, a: PhysNodeId, b: PhysNodeId) -> u64 {
        self.oracle.latency_us(&self.hierarchy, a, b)
    }

    /// Where `node` sits in the hierarchy (see [`LatencyOracle::coord`]):
    /// resolve once, then query pairs with [`Self::coord_latency_us`].
    pub fn coord(&self, node: PhysNodeId) -> LatencyCoord {
        self.oracle.coord(&self.hierarchy, node)
    }

    /// One-way latency between two resolved nodes, in microseconds.
    #[inline]
    pub fn coord_latency_us(&self, a: LatencyCoord, b: LatencyCoord) -> u64 {
        self.oracle.coord_latency_us(&self.hierarchy, a, b)
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

    /// The default-scale network holds its hierarchy and tables in well
    /// under 512 KB. At `medium` (48 transit nodes, 240 stub domains of 21):
    /// 5,088 kinds × 8 B = 40.7 KB, 240 stub records × 16 B = 3.8 KB, a
    /// 48² × 8 B = 18.4 KB transit table and 240 × 21² × 2 B = 211.7 KB of
    /// hop tables (+ 5.8 KB of `Vec` headers) ≈ 281 KB. Its ≈ 20.5 k edges
    /// would add ≈ 350 KB as CSR, ≈ 780 KB as per-node `Vec`s.
    #[test]
    fn medium_network_heap_is_bounded() {
        let net = PhysicalNetwork::generate(&TransitStubConfig::medium(42));
        let bytes = net.heap_bytes();
        assert!(bytes <= 512 * 1024, "{bytes} B");
        assert!(
            bytes >= 240 * 21 * 21 * 2,
            "{bytes} B misses the hop tables"
        );
    }
}
