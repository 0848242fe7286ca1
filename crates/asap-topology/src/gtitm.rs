//! Transit-stub generator (reimplementation of the GT-ITM construction the
//! paper configures in §IV-A).
//!
//! Construction, in id order:
//! 1. Transit nodes, domain-major. Inside each domain every pair is linked
//!    with probability `p_transit_edge` at 20 ms; domains left disconnected
//!    by sampling are repaired with extra intra-domain edges.
//! 2. The transit domains form a complete graph at the top level: for every
//!    domain pair one 50 ms edge between a random transit node of each.
//! 3. Per transit node, `stub_domains_per_transit_node` stub domains. Inside
//!    each, pairs link with probability `p_stub_edge` at 2 ms (repaired to
//!    connectivity), and one random member (the *gateway*) gets the 5 ms
//!    uplink to the parent transit node.
//!
//! Single-homed stub domains (exactly one uplink) are what make the
//! hierarchical latency oracle exact; GT-ITM's optional extra transit-stub
//! edges are not used by the paper's description.

use crate::config::TransitStubConfig;
use crate::graph::{Edge, Hierarchy, NodeKind, PhysGraph, PhysNodeId, StubDomainInfo};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Salt of the per-stub-domain child streams used by the streamed generator
/// (`TransitStubConfig::stream_stub_domains`). Each domain `sd` draws from
/// `seed ^ SALT ^ splitmix64(sd)`, so domains are mutually independent and
/// the generator can wire them one at a time, in any order, with O(domain)
/// working state. Registered in `lint.toml` as `streams.topology_stub`.
const STUB_STREAM_SALT: u64 = 0x57B0_D0A1_17E5_EED5;

/// Generate a physical network per `config`. Deterministic in `config.seed`.
pub fn generate(config: &TransitStubConfig) -> PhysGraph {
    config.validate();
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5EED_7090_1061);
    let us = |lat: u64| u32::try_from(lat).expect("validate bounds every latency by u32::MAX");

    let n_transit = (config.transit_domains * config.transit_nodes_per_domain) as usize;
    let n_stub_domains = n_transit * config.stub_domains_per_transit_node as usize;
    let n_total = config.expected_nodes();

    // --- node kinds & hierarchy records ---
    let mut kinds = Vec::with_capacity(n_total);
    let mut transit_nodes = Vec::with_capacity(n_transit);
    for d in 0..config.transit_domains {
        for _ in 0..config.transit_nodes_per_domain {
            transit_nodes.push(PhysNodeId(kinds.len() as u32));
            kinds.push(NodeKind::Transit { domain: d });
        }
    }
    let mut stub_domains = Vec::with_capacity(n_stub_domains);
    let mut next = n_transit as u32;
    for t in 0..n_transit {
        for _ in 0..config.stub_domains_per_transit_node {
            let sd = stub_domains.len() as u32;
            let members = next..next + config.stub_nodes_per_domain;
            for _ in members.clone() {
                kinds.push(NodeKind::Stub { stub_domain: sd });
            }
            stub_domains.push(StubDomainInfo {
                parent_transit: PhysNodeId(t as u32),
                gateway: PhysNodeId(members.start), // fixed up below
                members: members.clone(),
            });
            next = members.end;
        }
    }
    debug_assert_eq!(kinds.len(), n_total);

    let mut edges = Vec::new();

    // --- intra-transit-domain edges ---
    for d in 0..config.transit_domains {
        wire_domain(
            &mut edges,
            d * config.transit_nodes_per_domain,
            config.transit_nodes_per_domain as usize,
            config.p_transit_edge,
            us(config.lat_intra_transit_us),
            &mut rng,
        );
    }

    // --- complete graph over transit domains ---
    for d1 in 0..config.transit_domains {
        for d2 in (d1 + 1)..config.transit_domains {
            let a = random_transit_of_domain(config, d1, &mut rng);
            let b = random_transit_of_domain(config, d2, &mut rng);
            edges.push((a, b, us(config.lat_inter_transit_us)));
        }
    }

    // --- stub domains ---
    // Streamed mode gives every domain its own derived stream; sequential
    // mode threads the single topology stream through all domains in order
    // (the historical construction the pinned goldens were generated with).
    for (sd, info) in stub_domains.iter_mut().enumerate() {
        let mut domain_rng;
        let r: &mut SmallRng = if config.stream_stub_domains {
            domain_rng =
                SmallRng::seed_from_u64(config.seed ^ STUB_STREAM_SALT ^ splitmix64(sd as u64));
            &mut domain_rng
        } else {
            &mut rng
        };
        let len = info.len();
        wire_domain(
            &mut edges,
            info.members.start,
            len,
            config.p_stub_edge,
            us(config.lat_intra_stub_us),
            r,
        );
        info.gateway = PhysNodeId(info.members.start + r.gen_range(0..len) as u32);
        edges.push((
            info.parent_transit,
            info.gateway,
            us(config.lat_transit_stub_us),
        ));
    }

    let hierarchy = Hierarchy {
        kinds,
        transit_nodes,
        stub_domains,
        lat_intra_stub_us: config.lat_intra_stub_us,
        lat_transit_stub_us: config.lat_transit_stub_us,
    };
    PhysGraph::new(hierarchy, &edges)
}

/// SplitMix64 finalizer: decorrelates consecutive domain indices into
/// well-separated child seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn random_transit_of_domain(
    config: &TransitStubConfig,
    domain: u32,
    rng: &mut SmallRng,
) -> PhysNodeId {
    let base = domain * config.transit_nodes_per_domain;
    PhysNodeId(base + rng.gen_range(0..config.transit_nodes_per_domain))
}

/// Wire the `n` contiguous nodes from id `first`: sample pairwise edges
/// with probability `p` at weight `lat`, then repair connectivity —
/// components found by union-find are chained together with extra edges
/// between random representatives.
fn wire_domain(edges: &mut Vec<Edge>, first: u32, n: usize, p: f64, lat: u32, rng: &mut SmallRng) {
    let id = |i: usize| PhysNodeId(first + i as u32);
    let mut dsu = Dsu::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                edges.push((id(i), id(j), lat));
                dsu.union(i, j);
            }
        }
    }
    // Repair: link every component to component(0). Every edge inside the
    // domain joins its endpoints' components, so `i` and a `j` from another
    // component are never linked yet: a repair edge is never a duplicate.
    for i in 1..n {
        if dsu.find(i) != dsu.find(0) {
            // Attach through a random already-connected member for variety.
            let mut j = rng.gen_range(0..n);
            while dsu.find(j) == dsu.find(i) {
                j = rng.gen_range(0..n);
            }
            edges.push((id(i), id(j), lat));
            dsu.union(i, j);
        }
    }
}

struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let p = self.parent[x] as usize;
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent[x] = root as u32;
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;

    #[test]
    fn reduced_graph_is_fully_connected() {
        let g = generate(&TransitStubConfig::reduced(11));
        let dist = dijkstra::sssp(&g, PhysNodeId(0));
        assert!(
            dist.iter().all(|&d| d != u64::MAX),
            "every node must be reachable"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&TransitStubConfig::reduced(5));
        let b = generate(&TransitStubConfig::reduced(5));
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TransitStubConfig::reduced(5));
        let b = generate(&TransitStubConfig::reduced(6));
        assert_ne!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn node_counts_match_config() {
        let cfg = TransitStubConfig::reduced(3);
        let g = generate(&cfg);
        assert_eq!(g.num_nodes(), cfg.expected_nodes());
        assert_eq!(
            g.hierarchy().transit_nodes().len(),
            (cfg.transit_domains * cfg.transit_nodes_per_domain) as usize
        );
    }

    #[test]
    fn stub_gateways_have_uplink() {
        let g = generate(&TransitStubConfig::reduced(9));
        for sd in g.hierarchy().stub_domains() {
            assert!(
                g.neighbors(sd.gateway)
                    .iter()
                    .any(|&(n, w)| n == sd.parent_transit && w == 5_000),
                "gateway must link to its parent transit node at 5 ms"
            );
            assert!(sd.members.contains(&sd.gateway.0));
        }
    }

    #[test]
    fn stub_domains_have_no_external_stub_edges() {
        let g = generate(&TransitStubConfig::reduced(13));
        for (a, b, _) in g.edges() {
            if let (NodeKind::Stub { stub_domain: da }, NodeKind::Stub { stub_domain: db }) =
                (g.hierarchy().kind(a), g.hierarchy().kind(b))
            {
                assert_eq!(da, db, "no edges between different stub domains");
            }
        }
    }

    #[test]
    fn edge_latencies_match_tiers() {
        let g = generate(&TransitStubConfig::reduced(17));
        for (a, b, w) in g.edges() {
            let expected = match (g.hierarchy().kind(a), g.hierarchy().kind(b)) {
                (NodeKind::Transit { domain: d1 }, NodeKind::Transit { domain: d2 }) => {
                    if d1 == d2 {
                        20_000
                    } else {
                        50_000
                    }
                }
                (NodeKind::Stub { .. }, NodeKind::Stub { .. }) => 2_000,
                _ => 5_000,
            };
            assert_eq!(w, expected, "edge {a:?}-{b:?}");
        }
    }

    #[test]
    fn streamed_mode_is_deterministic_and_connected() {
        let mut cfg = TransitStubConfig::reduced(21);
        cfg.stream_stub_domains = true;
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        let dist = dijkstra::sssp(&a, PhysNodeId(0));
        assert!(
            dist.iter().all(|&d| d != u64::MAX),
            "streamed graph connected"
        );
        // A different stream per domain: the sample differs from sequential.
        let seq = generate(&TransitStubConfig::reduced(21));
        assert_ne!(
            a.edges().collect::<Vec<_>>(),
            seq.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn streamed_domains_are_independent_of_domain_count() {
        // Wiring of stub domain 0 depends only on (seed, domain index): its
        // intra-domain edges are identical whether the config has 3 or 2
        // stub domains per transit node. The sequential stream can't do
        // this — every earlier domain shifts all later draws.
        let mut big = TransitStubConfig::reduced(33);
        big.stream_stub_domains = true;
        let mut small = big.clone();
        small.stub_domains_per_transit_node = 2;
        let ga = generate(&big);
        let gb = generate(&small);
        let domain_edges = |g: &PhysGraph| {
            let sd = g.hierarchy().stub_domain(0).clone();
            let mut edges: Vec<(u32, u32)> = g
                .edges()
                .filter(|(a, b, _)| sd.members.contains(&a.0) && sd.members.contains(&b.0))
                .map(|(a, b, _)| (a.0 - sd.members.start, b.0 - sd.members.start))
                .collect();
            edges.sort_unstable();
            edges
        };
        assert_eq!(domain_edges(&ga), domain_edges(&gb));
        let gateway = |g: &PhysGraph| {
            let sd = g.hierarchy().stub_domain(0);
            sd.gateway.0 - sd.members.start
        };
        assert_eq!(
            gateway(&ga),
            gateway(&gb),
            "gateway choice is also per-domain"
        );
    }

    #[test]
    fn degenerate_single_domain_works() {
        let mut cfg = TransitStubConfig::reduced(1);
        cfg.transit_domains = 1;
        cfg.transit_nodes_per_domain = 1;
        cfg.stub_domains_per_transit_node = 1;
        cfg.stub_nodes_per_domain = 1;
        let g = generate(&cfg);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1); // just the uplink
    }
}
