//! Property-based tests: the hierarchical latency oracle is exact, i.e.
//! agrees with Dijkstra on the explicit graph for arbitrary seeds and
//! node pairs — the load-bearing correctness claim of `asap-topology`.

use asap_topology::{dijkstra, LatencyOracle, PhysNodeId, TransitStubConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn oracle_equals_dijkstra(seed in 0u64..1_000, src_pick in 0usize..300) {
        let g = asap_topology::generate(&TransitStubConfig::reduced(seed));
        let oracle = LatencyOracle::build(&g);
        let src = PhysNodeId((src_pick % g.num_nodes()) as u32);
        let reference = dijkstra::sssp(&g, src);
        // Spot-check a spread of destinations, not all 300 (runtime).
        for d in (0..g.num_nodes()).step_by(7) {
            let dst = PhysNodeId(d as u32);
            prop_assert_eq!(
                oracle.latency_us(g.hierarchy(), src, dst),
                reference[d],
                "mismatch {:?}->{:?} at seed {}", src, dst, seed
            );
        }
    }

    #[test]
    fn latencies_are_symmetric_and_positive(seed in 0u64..500, a in 0usize..300, b in 0usize..300) {
        let g = asap_topology::generate(&TransitStubConfig::reduced(seed));
        let oracle = LatencyOracle::build(&g);
        let (pa, pb) = (
            PhysNodeId((a % g.num_nodes()) as u32),
            PhysNodeId((b % g.num_nodes()) as u32),
        );
        let ab = oracle.latency_us(g.hierarchy(), pa, pb);
        prop_assert_eq!(ab, oracle.latency_us(g.hierarchy(), pb, pa));
        if pa == pb {
            prop_assert_eq!(ab, 0);
        } else {
            // Cheapest possible hop is an intra-stub link.
            prop_assert!(ab >= 2_000);
        }
    }

    /// Exhaustive all-destinations agreement with reference Dijkstra from a
    /// random source — no sampling stride to hide behind (few cases, since
    /// each covers every destination).
    #[test]
    fn oracle_equals_dijkstra_exhaustively(seed in 0u64..200, src_pick in 0usize..300) {
        let g = asap_topology::generate(&TransitStubConfig::reduced(seed));
        let oracle = LatencyOracle::build(&g);
        let src = PhysNodeId((src_pick % g.num_nodes()) as u32);
        let reference = dijkstra::sssp(&g, src);
        for (d, &want) in reference.iter().enumerate() {
            let dst = PhysNodeId(d as u32);
            prop_assert_eq!(
                oracle.latency_us(g.hierarchy(), src, dst),
                want,
                "mismatch {:?}->{:?} at seed {}", src, dst, seed
            );
        }
    }

    /// Shortest-path latencies obey the triangle inequality through any
    /// relay — a structural sanity check on the oracle's decomposition.
    #[test]
    fn oracle_respects_triangle_inequality(
        seed in 0u64..200,
        a in 0usize..300,
        b in 0usize..300,
        c in 0usize..300,
    ) {
        let g = asap_topology::generate(&TransitStubConfig::reduced(seed));
        let oracle = LatencyOracle::build(&g);
        let n = g.num_nodes();
        let (pa, pb, pc) = (
            PhysNodeId((a % n) as u32),
            PhysNodeId((b % n) as u32),
            PhysNodeId((c % n) as u32),
        );
        let ab = oracle.latency_us(g.hierarchy(), pa, pb);
        let ac = oracle.latency_us(g.hierarchy(), pa, pc);
        let cb = oracle.latency_us(g.hierarchy(), pc, pb);
        prop_assert!(ab <= ac + cb, "{ab} > {ac} + {cb} via {:?}", pc);
    }

    #[test]
    fn generated_graphs_have_sane_shape(seed in 0u64..500) {
        let cfg = TransitStubConfig::reduced(seed);
        let g = asap_topology::generate(&cfg);
        prop_assert_eq!(g.num_nodes(), cfg.expected_nodes());
        // Connected: Dijkstra from node 0 reaches everything.
        let dist = dijkstra::sssp(&g, PhysNodeId(0));
        prop_assert!(dist.iter().all(|&d| d != u64::MAX));
    }
}
