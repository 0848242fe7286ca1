//! Exact O(1) pairwise latency queries over the transit-stub hierarchy.
//!
//! The construction is single-homed: each stub domain reaches the rest of the
//! world only through its gateway's 5 ms uplink to one transit node, and stub
//! domains never interconnect. Every shortest path between nodes in different
//! stub domains therefore decomposes as
//!
//! ```text
//! src →(intra-stub hops × 2 ms)→ gateway →(5 ms)→ parent transit
//!     →(transit-core shortest path)→ parent transit of dst's domain
//!     →(5 ms)→ gateway →(intra-stub hops × 2 ms)→ dst
//! ```
//!
//! and within one stub domain the direct intra-domain path is optimal by the
//! triangle inequality (leaving and re-entering costs ≥ 10 ms through the
//! same gateway). So exact APSP is only needed (a) over the transit core
//! (144 nodes at paper scale) and (b) inside each ≤ ~40-node stub domain,
//! where uniform 2 ms edges reduce it to BFS hop counts, computed a word of
//! 64 nodes at a time.
//!
//! Everything a query needs to know about one endpoint — its stub domain,
//! its index there, its parent transit node and its latency to that node —
//! is resolved once into a [`LatencyCoord`]. A transit node is its own
//! parent at exit latency 0, so one formula covers every pair:
//!
//! ```text
//! same stub domain:  hops(a, b) × 2 ms
//! otherwise:         exit(a) + transit_dist(parent(a), parent(b)) + exit(b)
//! ```

use crate::graph::{Hierarchy, NodeKind, PhysGraph, PhysNodeId, StubDomainInfo};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;

/// Hop-table cell of a pair with no intra-domain path. Never a real hop
/// count: `TransitStubConfig::validate` bounds a domain by `u16::MAX`
/// nodes, so the longest path has 65,534 hops.
const UNREACHED_HOPS: u16 = u16::MAX;

/// [`LatencyCoord::stub_domain`] of a transit node.
const NO_STUB: u32 = u32::MAX;

/// Where one physical node sits in the transit-stub hierarchy, resolved by
/// [`LatencyOracle::coord`]: all a pair query reads about an endpoint, in
/// 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyCoord {
    /// The node's stub domain, or `NO_STUB` for a transit node.
    stub_domain: u32,
    /// The node's index inside its stub domain (0 for a transit node).
    local: u32,
    /// Core index of the parent transit node (its own for a transit node).
    transit: u32,
    /// Latency to the parent transit node, µs: intra-stub hops to the
    /// gateway at the intra-stub latency, plus the uplink.
    exit_us: u32,
}

/// Precomputed latency tables; answers any pair query in O(1).
#[derive(Debug)]
pub struct LatencyOracle {
    /// Flattened `n_transit × n_transit` µs distances over the transit core.
    transit_dist: Vec<u64>,
    n_transit: usize,
    /// Per stub domain: flattened `len × len` hop counts.
    stub_hops: Vec<Vec<u16>>,
}

impl LatencyOracle {
    /// Build all tables from the graph's adjacency, which the oracle does not
    /// keep: its queries read only the [`Hierarchy`]. Cost:
    /// `O(T · E_T log T)` for the core plus `O(Σ len² · ⌈len/64⌉)` word
    /// operations of BFS over stub domains — well under a second at paper
    /// scale.
    pub fn build(g: &PhysGraph) -> Self {
        let h = g.hierarchy();
        let n_transit = h.transit_nodes().len();
        let mut transit_dist = vec![u64::MAX; n_transit * n_transit];
        for (i, &t) in h.transit_nodes().iter().enumerate() {
            let row = transit_sssp(g, t, n_transit);
            transit_dist[i * n_transit..(i + 1) * n_transit].copy_from_slice(&row);
        }
        let mut scratch = Vec::new();
        let stub_hops = h
            .stub_domains()
            .iter()
            .map(|sd| stub_hops(g, sd, &mut scratch))
            .collect::<Vec<Vec<u16>>>();
        // Construction-time guarantee: the generator connectivity-repairs
        // every stub domain, so each intra-domain table must be complete.
        // Validating once here keeps the per-query lookup assert debug-only.
        for (domain, hops) in stub_hops.iter().enumerate() {
            if hops.contains(&UNREACHED_HOPS) {
                // lint: allow(release-assert, reason=construction-time validation in build; never reachable from Simulation::run)
                panic!(
                    "stub domain {domain} has unreachable intra-domain pairs; \
                     connectivity repair failed"
                );
            }
        }
        Self {
            transit_dist,
            n_transit,
            stub_hops,
        }
    }

    /// Heap bytes held by the tables (capacity × element size).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.transit_dist.capacity() * size_of::<u64>()
            + self.stub_hops.capacity() * size_of::<Vec<u16>>()
            + self
                .stub_hops
                .iter()
                .map(|hops| hops.capacity() * size_of::<u16>())
                .sum::<usize>()
    }

    #[inline]
    fn transit_pair(&self, a: usize, b: usize) -> u64 {
        self.transit_dist[a * self.n_transit + b]
    }

    #[inline]
    fn stub_pair_hops(&self, domain: u32, len: usize, a: usize, b: usize) -> u64 {
        let h = self.stub_hops[domain as usize][a * len + b];
        debug_assert_ne!(
            h, UNREACHED_HOPS,
            "stub tables are validated complete in build()"
        );
        u64::from(h)
    }

    /// Exact one-way shortest-path latency between two physical nodes, µs.
    #[inline]
    pub fn latency_us(&self, h: &Hierarchy, a: PhysNodeId, b: PhysNodeId) -> u64 {
        self.coord_latency_us(h, self.coord(h, a), self.coord(h, b))
    }

    /// Resolve where `node` sits in the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the node's exit latency does not fit a `u32` of µs (over
    /// 71 minutes) — a construction-time check, so the pair formula never
    /// narrows.
    #[inline]
    pub fn coord(&self, h: &Hierarchy, node: PhysNodeId) -> LatencyCoord {
        let NodeKind::Stub { stub_domain } = h.kind(node) else {
            return LatencyCoord {
                stub_domain: NO_STUB,
                local: 0,
                transit: h.transit_core_index(node) as u32,
                exit_us: 0,
            };
        };
        let sd = h.stub_domain(stub_domain);
        let local = sd.local_index(node);
        let gateway = sd.local_index(sd.gateway);
        let exit_us = self.stub_pair_hops(stub_domain, sd.len(), local, gateway)
            * h.lat_intra_stub_us
            + h.lat_transit_stub_us;
        // lint: allow(release-assert, reason=construction-time validation; coordinates are resolved once per peer before any event dispatch)
        assert!(
            exit_us <= u64::from(u32::MAX),
            "{node:?} sits {exit_us} µs from its transit node; coordinates hold u32 µs"
        );
        LatencyCoord {
            stub_domain,
            local: local as u32,
            transit: h.transit_core_index(sd.parent_transit) as u32,
            exit_us: exit_us as u32,
        }
    }

    /// Exact one-way shortest-path latency between two resolved nodes, µs.
    #[inline]
    pub fn coord_latency_us(&self, h: &Hierarchy, a: LatencyCoord, b: LatencyCoord) -> u64 {
        if a.stub_domain == b.stub_domain && a.stub_domain != NO_STUB {
            let len = h.stub_domain(a.stub_domain).len();
            let hops = self.stub_pair_hops(a.stub_domain, len, a.local as usize, b.local as usize);
            return hops * h.lat_intra_stub_us;
        }
        u64::from(a.exit_us)
            + self.transit_pair(a.transit as usize, b.transit as usize)
            + u64::from(b.exit_us)
    }
}

/// Dijkstra from one transit node restricted to the transit core (transit
/// node ids are dense and low, so the restriction is an id bound).
fn transit_sssp(g: &PhysGraph, src: PhysNodeId, n_transit: usize) -> Vec<u64> {
    let mut dist = vec![u64::MAX; n_transit];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &(v, w) in g.neighbors(u) {
            if v.index() >= n_transit {
                continue; // stub neighbor: never on a transit-transit shortest path
            }
            let nd = d + u64::from(w);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// One stub domain's flattened `len × len` hop table (uniform 2 ms edges,
/// so hops are BFS levels), by a word-parallel BFS per source.
///
/// Row `u` of the domain's adjacency is a bitset of `⌈len/64⌉` words. One
/// BFS level ORs together the rows of the frontier, masks out the visited
/// set, and writes the level into the newly reached columns. A node enters
/// the visited set at its BFS level and never again, so each cell gets the
/// level the per-source queue BFS gives it, and unreached cells keep
/// `UNREACHED_HOPS`. The level counter ends one past the longest hop, at
/// most `len`, which `TransitStubConfig::validate` bounds by `u16::MAX`, so
/// it never wraps. `scratch` holds the bit rows
/// and the three level sets; it is shared across domains, so the table is
/// the only allocation per domain.
fn stub_hops(g: &PhysGraph, sd: &StubDomainInfo, scratch: &mut Vec<u64>) -> Vec<u16> {
    let (base, len) = (sd.members.start, sd.len());
    let words = len.div_ceil(64);
    scratch.clear();
    scratch.resize((len + 3) * words, 0);
    let (adjacency, sets) = scratch.split_at_mut(len * words);
    let (visited, sets) = sets.split_at_mut(words);
    let (mut frontier, mut next) = sets.split_at_mut(words);
    for (u, row) in adjacency.chunks_exact_mut(words).enumerate() {
        for &(v, _) in g.neighbors(PhysNodeId(base + u as u32)) {
            let vi = v.0.wrapping_sub(base) as usize;
            if vi < len {
                row[vi / 64] |= 1 << (vi % 64);
            }
        }
    }
    let mut hops = vec![UNREACHED_HOPS; len * len];
    for (src, row) in hops.chunks_exact_mut(len).enumerate() {
        visited.fill(0);
        visited[src / 64] = 1 << (src % 64);
        frontier.copy_from_slice(visited);
        row[src] = 0;
        let mut level: u16 = 0;
        loop {
            next.fill(0);
            for (w, &word) in frontier.iter().enumerate() {
                for u in set_bits(word) {
                    let adj = &adjacency[(w * 64 + u) * words..][..words];
                    for (n, &a) in next.iter_mut().zip(adj) {
                        *n |= a;
                    }
                }
            }
            level += 1;
            let mut reached = false;
            for (w, (n, seen)) in next.iter_mut().zip(visited.iter_mut()).enumerate() {
                *n &= !*seen;
                *seen |= *n;
                reached |= *n != 0;
                for v in set_bits(*n) {
                    row[w * 64 + v] = level;
                }
            }
            if !reached {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
    }
    hops
}

/// Indices of the set bits of `word`, lowest first.
#[inline]
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransitStubConfig;
    use crate::dijkstra;
    use crate::gtitm::generate;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// BFS hop counts within one stub domain (uniform 2 ms edges) into
    /// `hops`, the source's table row, all `UNREACHED_HOPS` on entry. The
    /// per-source queue BFS the word-parallel kernel replaced, kept as its
    /// reference. `queue` is scratch shared across sources; every BFS leaves
    /// it empty.
    fn stub_bfs(
        g: &PhysGraph,
        base: u32,
        src_local: usize,
        hops: &mut [u16],
        queue: &mut VecDeque<usize>,
    ) {
        let len = hops.len();
        hops[src_local] = 0;
        queue.push_back(src_local);
        while let Some(u) = queue.pop_front() {
            let hu = hops[u];
            for &(v, _) in g.neighbors(PhysNodeId(base + u as u32)) {
                let vi = v.0.wrapping_sub(base) as usize;
                if vi < len && hops[vi] == UNREACHED_HOPS {
                    hops[vi] = hu + 1;
                    queue.push_back(vi);
                }
            }
        }
    }

    /// One stub domain's hop table by the reference queue BFS.
    fn queue_bfs_hops(g: &PhysGraph, sd: &StubDomainInfo) -> Vec<u16> {
        let len = sd.len();
        let mut hops = vec![UNREACHED_HOPS; len * len];
        let mut queue = VecDeque::new();
        for (local, row) in hops.chunks_exact_mut(len).enumerate() {
            stub_bfs(g, sd.members.start, local, row, &mut queue);
        }
        hops
    }

    /// The word-parallel table equals the queue BFS on every stub domain
    /// of the reduced, medium and paper-default networks (8-, 21- and
    /// 40-node domains) at three seeds.
    #[test]
    fn word_parallel_tables_match_queue_bfs_on_every_domain() {
        let configs: [fn(u64) -> TransitStubConfig; 3] = [
            TransitStubConfig::reduced,
            TransitStubConfig::medium,
            TransitStubConfig::paper_default,
        ];
        for config in configs {
            for seed in [1, 2, 3] {
                let g = generate(&config(seed));
                for (domain, sd) in g.hierarchy().stub_domains().iter().enumerate() {
                    assert_eq!(
                        stub_hops(&g, sd, &mut Vec::new()),
                        queue_bfs_hops(&g, sd),
                        "domain {domain}, seed {seed}"
                    );
                }
            }
        }
    }

    /// A network of one transit node and one stub domain of `len` nodes,
    /// the pair `(a, b)` linked with probability `p_milli / 1000` unless
    /// `cut` separates them (`a < cut <= b`), so a cut inside the domain
    /// disconnects it.
    fn random_domain(len: usize, p_milli: u32, cut: usize, seed: u64) -> PhysGraph {
        let mut kinds = vec![NodeKind::Transit { domain: 0 }];
        kinds.extend((0..len).map(|_| NodeKind::Stub { stub_domain: 0 }));
        let h = Hierarchy {
            kinds,
            transit_nodes: vec![PhysNodeId(0)],
            stub_domains: vec![StubDomainInfo {
                parent_transit: PhysNodeId(0),
                gateway: PhysNodeId(1),
                members: 1..1 + len as u32,
            }],
            lat_intra_stub_us: 2_000,
            lat_transit_stub_us: 5_000,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = vec![(PhysNodeId(0), PhysNodeId(1), 5_000)];
        for a in 0..len {
            for b in a + 1..len {
                if !(a < cut && cut <= b) && rng.gen_range(0..1_000u32) < p_milli {
                    edges.push((PhysNodeId(1 + a as u32), PhysNodeId(1 + b as u32), 2_000));
                }
            }
        }
        PhysGraph::new(h, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 6 } else { 64 }))]

        /// Random domain graphs of 1..=130 nodes cross the 64- and 128-bit
        /// word boundaries; sparse or cut ones are disconnected, and their
        /// unreached cells must stay `UNREACHED_HOPS`.
        #[test]
        fn word_parallel_tables_match_queue_bfs_on_random_domains(
            len in 1usize..=130,
            p_milli in 0u32..=1_000,
            cut in 0usize..=130,
            seed in any::<u64>(),
        ) {
            // Square the density so a third of the cases sit below 10 %.
            let g = random_domain(len, p_milli * p_milli / 1_000, cut, seed);
            let sd = &g.hierarchy().stub_domains()[0];
            let hops = stub_hops(&g, sd, &mut Vec::new());
            prop_assert_eq!(&hops, &queue_bfs_hops(&g, sd), "len {}, cut {}", len, cut);
            if (1..len).contains(&cut) {
                prop_assert_eq!(hops[len - 1], UNREACHED_HOPS, "cut {} of {}", cut, len);
            }
        }
    }

    /// The per-pair walk of the hierarchy that per-node coordinates
    /// replaced, kept as the reference the coordinate formula must equal.
    impl LatencyOracle {
        fn reference_latency_us(&self, h: &Hierarchy, a: PhysNodeId, b: PhysNodeId) -> u64 {
            if a == b {
                return 0;
            }
            match (h.kind(a), h.kind(b)) {
                (NodeKind::Transit { .. }, NodeKind::Transit { .. }) => {
                    self.transit_pair(h.transit_core_index(a), h.transit_core_index(b))
                }
                (NodeKind::Transit { .. }, NodeKind::Stub { stub_domain }) => {
                    self.transit_to_stub(h, a, stub_domain, b)
                }
                (NodeKind::Stub { stub_domain }, NodeKind::Transit { .. }) => {
                    self.transit_to_stub(h, b, stub_domain, a)
                }
                (NodeKind::Stub { stub_domain: da }, NodeKind::Stub { stub_domain: db }) => {
                    if da == db {
                        let sd = h.stub_domain(da);
                        let hops =
                            self.stub_pair_hops(da, sd.len(), sd.local_index(a), sd.local_index(b));
                        hops * h.lat_intra_stub_us
                    } else {
                        self.stub_exit(h, da, a)
                            + self.transit_pair(
                                h.transit_core_index(h.stub_domain(da).parent_transit),
                                h.transit_core_index(h.stub_domain(db).parent_transit),
                            )
                            + self.stub_exit(h, db, b)
                    }
                }
            }
        }

        /// Latency from a stub node to its domain's parent transit node:
        /// intra-domain hops to the gateway plus the 5 ms uplink.
        fn stub_exit(&self, h: &Hierarchy, domain: u32, node: PhysNodeId) -> u64 {
            let sd = h.stub_domain(domain);
            let hops = self.stub_pair_hops(
                domain,
                sd.len(),
                sd.local_index(node),
                sd.local_index(sd.gateway),
            );
            hops * h.lat_intra_stub_us + h.lat_transit_stub_us
        }

        fn transit_to_stub(&self, h: &Hierarchy, t: PhysNodeId, domain: u32, s: PhysNodeId) -> u64 {
            self.transit_pair(
                h.transit_core_index(t),
                h.transit_core_index(h.stub_domain(domain).parent_transit),
            ) + self.stub_exit(h, domain, s)
        }
    }

    /// Coordinates resolved once per node, then every listed pair through
    /// the formula against the reference walk.
    fn coords_match_reference(g: &PhysGraph, pairs: impl Iterator<Item = (u32, u32)>) -> usize {
        let oracle = LatencyOracle::build(g);
        let h = g.hierarchy();
        let coords: Vec<LatencyCoord> = (0..g.num_nodes() as u32)
            .map(|i| oracle.coord(h, PhysNodeId(i)))
            .collect();
        let mut checked = 0;
        for (a, b) in pairs {
            let (pa, pb) = (PhysNodeId(a), PhysNodeId(b));
            let formula = oracle.coord_latency_us(h, coords[a as usize], coords[b as usize]);
            assert_eq!(
                formula,
                oracle.reference_latency_us(h, pa, pb),
                "coordinate formula differs from the reference for {pa:?}->{pb:?}"
            );
            checked += 1;
        }
        checked
    }

    #[test]
    fn coords_match_reference_on_every_reduced_pair() {
        for seed in [1, 2, 3] {
            let g = generate(&TransitStubConfig::reduced(seed));
            let n = g.num_nodes() as u32;
            let pairs = (0..n).flat_map(|a| (0..n).map(move |b| (a, b)));
            assert_eq!(coords_match_reference(&g, pairs), 300 * 300);
        }
    }

    #[test]
    fn coords_match_reference_on_sampled_medium_pairs() {
        let g = generate(&TransitStubConfig::medium(4));
        let n = g.num_nodes() as u32;
        let mut rng = SmallRng::seed_from_u64(4);
        let pairs: Vec<(u32, u32)> = (0..200_000)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        assert_eq!(coords_match_reference(&g, pairs.into_iter()), 200_000);
    }

    #[test]
    fn coords_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<LatencyCoord>(), 16);
    }

    fn oracle_matches_dijkstra(seed: u64) {
        let g = generate(&TransitStubConfig::reduced(seed));
        let oracle = LatencyOracle::build(&g);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..40 {
            let a = PhysNodeId(rng.gen_range(0..g.num_nodes() as u32));
            let reference = dijkstra::sssp(&g, a);
            for _ in 0..10 {
                let b = PhysNodeId(rng.gen_range(0..g.num_nodes() as u32));
                assert_eq!(
                    oracle.latency_us(g.hierarchy(), a, b),
                    reference[b.index()],
                    "oracle mismatch for {a:?}->{b:?} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn oracle_is_exact_seed_1() {
        oracle_matches_dijkstra(1);
    }

    #[test]
    fn oracle_is_exact_seed_2() {
        oracle_matches_dijkstra(2);
    }

    #[test]
    fn oracle_is_exact_seed_3() {
        oracle_matches_dijkstra(3);
    }

    #[test]
    fn self_latency_zero_everywhere() {
        let g = generate(&TransitStubConfig::reduced(4));
        let oracle = LatencyOracle::build(&g);
        for i in (0..g.num_nodes() as u32).step_by(17) {
            assert_eq!(
                oracle.latency_us(g.hierarchy(), PhysNodeId(i), PhysNodeId(i)),
                0
            );
        }
    }

    #[test]
    fn symmetric() {
        let g = generate(&TransitStubConfig::reduced(5));
        let oracle = LatencyOracle::build(&g);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let a = PhysNodeId(rng.gen_range(0..g.num_nodes() as u32));
            let b = PhysNodeId(rng.gen_range(0..g.num_nodes() as u32));
            assert_eq!(
                oracle.latency_us(g.hierarchy(), a, b),
                oracle.latency_us(g.hierarchy(), b, a)
            );
        }
    }

    #[test]
    fn build_validates_stub_tables_completely() {
        // `build` panics if any intra-domain pair is unreachable, so a
        // successful build IS the guarantee; re-check the tables anyway so
        // this test pins the invariant the hot-path debug_assert relies on.
        for seed in [8, 9, 10] {
            let g = generate(&TransitStubConfig::reduced(seed));
            let oracle = LatencyOracle::build(&g);
            for (domain, hops) in oracle.stub_hops.iter().enumerate() {
                assert!(
                    !hops.contains(&UNREACHED_HOPS),
                    "domain {domain} incomplete (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn same_stub_domain_is_cheap() {
        let g = generate(&TransitStubConfig::reduced(6));
        let oracle = LatencyOracle::build(&g);
        let sd = &g.hierarchy().stub_domains()[0];
        let a = PhysNodeId(sd.members.start);
        let b = PhysNodeId(sd.members.start + 1);
        let lat = oracle.latency_us(g.hierarchy(), a, b);
        // Intra-stub paths cost 2 ms per hop; the domain has ≤ 8 nodes.
        assert!((2_000..=2_000 * 8).contains(&lat), "{lat}");
    }

    #[test]
    fn cross_domain_pays_backbone() {
        let g = generate(&TransitStubConfig::reduced(7));
        let oracle = LatencyOracle::build(&g);
        // Find stub nodes whose parents live in different transit domains.
        let sds = g.hierarchy().stub_domains();
        let (mut a, mut b) = (None, None);
        for sd in sds {
            match g.hierarchy().kind(sd.parent_transit) {
                NodeKind::Transit { domain: 0 } if a.is_none() => {
                    a = Some(PhysNodeId(sd.members.start))
                }
                NodeKind::Transit { domain: 2 } if b.is_none() => {
                    b = Some(PhysNodeId(sd.members.start))
                }
                _ => {}
            }
        }
        let (a, b) = (a.unwrap(), b.unwrap());
        // Must include two 5 ms uplinks and ≥ one 50 ms inter-domain hop.
        assert!(oracle.latency_us(g.hierarchy(), a, b) >= 5_000 + 50_000 + 5_000);
    }
}
