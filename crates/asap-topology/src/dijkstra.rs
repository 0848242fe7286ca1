//! Reference single-source shortest paths over the explicit graph.
//!
//! Used to cross-validate the hierarchical [`crate::LatencyOracle`] in tests
//! and property tests; too slow for production queries at paper scale.

use crate::graph::{PhysGraph, PhysNodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dijkstra from `src`; returns distance in µs to every node (`u64::MAX` when
/// unreachable).
pub fn sssp(g: &PhysGraph, src: PhysNodeId) -> Vec<u64> {
    let mut dist = vec![u64::MAX; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &(v, w) in g.neighbors(u) {
            let nd = d + u64::from(w);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Pairwise shortest-path latency via Dijkstra (reference only).
pub fn pair(g: &PhysGraph, a: PhysNodeId, b: PhysNodeId) -> u64 {
    sssp(g, a)[b.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransitStubConfig;
    use crate::gtitm::generate;

    #[test]
    fn distance_to_self_is_zero() {
        let g = generate(&TransitStubConfig::reduced(1));
        assert_eq!(sssp(&g, PhysNodeId(3))[3], 0);
    }

    #[test]
    fn symmetric_on_undirected_graph() {
        let g = generate(&TransitStubConfig::reduced(2));
        let a = PhysNodeId(0);
        let b = PhysNodeId((g.num_nodes() - 1) as u32);
        assert_eq!(pair(&g, a, b), pair(&g, b, a));
    }

    #[test]
    fn respects_triangle_inequality_samples() {
        let g = generate(&TransitStubConfig::reduced(3));
        let d0 = sssp(&g, PhysNodeId(0));
        let d5 = sssp(&g, PhysNodeId(5));
        for v in 0..g.num_nodes() {
            assert!(d0[v] <= d0[5] + d5[v], "triangle violated at {v}");
        }
    }
}
