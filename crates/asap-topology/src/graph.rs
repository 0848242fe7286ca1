//! The explicit physical graph produced by the generator, and the
//! hierarchy records that outlive it.

use std::mem::size_of;
use std::ops::Range;

/// Index of a physical node. Transit nodes occupy the low ids
/// (domain-major), stub nodes follow (stub-domain-major, contiguous per
/// domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysNodeId(pub u32);

impl PhysNodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What tier a physical node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Transit (backbone) node inside transit domain `domain`.
    Transit { domain: u32 },
    /// Stub node inside stub domain `stub_domain`.
    Stub { stub_domain: u32 },
}

/// Hierarchy record for one stub domain.
#[derive(Debug, Clone)]
pub struct StubDomainInfo {
    /// The transit node this stub domain hangs off.
    pub parent_transit: PhysNodeId,
    /// The stub node carrying the 5 ms uplink to `parent_transit`.
    pub gateway: PhysNodeId,
    /// Contiguous id range of the domain's members.
    pub members: Range<u32>,
}

impl StubDomainInfo {
    #[inline]
    pub fn len(&self) -> usize {
        (self.members.end - self.members.start) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Local (within-domain) index of a member node.
    #[inline]
    pub fn local_index(&self, node: PhysNodeId) -> usize {
        debug_assert!(self.members.contains(&node.0));
        (node.0 - self.members.start) as usize
    }
}

/// One undirected link `(a, b, latency µs)`.
pub(crate) type Edge = (PhysNodeId, PhysNodeId, u32);

/// Where every node sits in the transit-stub hierarchy: all the latency
/// oracle reads about the network once its tables are built.
#[derive(Debug)]
pub struct Hierarchy {
    pub(crate) kinds: Vec<NodeKind>,
    /// All transit node ids, domain-major. A transit node's position in this
    /// list is its "core index" used by the oracle's transit APSP.
    pub(crate) transit_nodes: Vec<PhysNodeId>,
    pub(crate) stub_domains: Vec<StubDomainInfo>,
}

impl Hierarchy {
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    #[inline]
    pub fn kind(&self, node: PhysNodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    pub fn transit_nodes(&self) -> &[PhysNodeId] {
        &self.transit_nodes
    }

    /// Core index of a transit node (its position in [`Self::transit_nodes`]).
    /// Transit ids are allocated first and densely, so this is the id itself.
    #[inline]
    pub fn transit_core_index(&self, node: PhysNodeId) -> usize {
        debug_assert!(matches!(self.kind(node), NodeKind::Transit { .. }));
        node.index()
    }

    pub fn stub_domains(&self) -> &[StubDomainInfo] {
        &self.stub_domains
    }

    #[inline]
    pub fn stub_domain(&self, id: u32) -> &StubDomainInfo {
        &self.stub_domains[id as usize]
    }

    /// Heap bytes held (capacity × element size over the owned vectors).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.kinds.capacity() * size_of::<NodeKind>()
            + self.transit_nodes.capacity() * size_of::<PhysNodeId>()
            + self.stub_domains.capacity() * size_of::<StubDomainInfo>()
    }
}

/// Weighted undirected physical graph: the [`Hierarchy`] plus a CSR
/// adjacency. Node `i`'s neighbors are `nbrs[offsets[i]..offsets[i + 1]]`
/// with their link latencies in µs, in the order the generator added the
/// edges — 4 B per node plus 16 B per undirected edge.
#[derive(Debug)]
pub struct PhysGraph {
    hierarchy: Hierarchy,
    offsets: Vec<u32>,
    nbrs: Vec<(PhysNodeId, u32)>,
}

impl PhysGraph {
    /// Pack an edge list into CSR with one stable counting sort: each row
    /// lists its neighbors in edge-list order.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more directed entries than a `u32` offset
    /// holds — a construction-time limit, checked before anything is built.
    pub(crate) fn new(hierarchy: Hierarchy, edges: &[Edge]) -> Self {
        assert!(
            edges.len() <= (u32::MAX / 2) as usize,
            "{} edges overflow the u32 CSR offsets",
            edges.len()
        );
        let n = hierarchy.num_nodes();
        let mut offsets = vec![0u32; n + 1];
        for &(a, b, _) in edges {
            debug_assert_ne!(a, b, "no self loops");
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut nbrs = vec![(PhysNodeId(0), 0); 2 * edges.len()];
        for &(a, b, w) in edges {
            nbrs[cursor[a.index()] as usize] = (b, w);
            cursor[a.index()] += 1;
            nbrs[cursor[b.index()] as usize] = (a, w);
            cursor[b.index()] += 1;
        }
        Self {
            hierarchy,
            offsets,
            nbrs,
        }
    }

    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Keep the hierarchy, drop the adjacency.
    pub fn into_hierarchy(self) -> Hierarchy {
        self.hierarchy
    }

    pub fn num_nodes(&self) -> usize {
        self.hierarchy.num_nodes()
    }

    pub fn num_edges(&self) -> usize {
        self.nbrs.len() / 2
    }

    #[inline]
    pub fn neighbors(&self, node: PhysNodeId) -> &[(PhysNodeId, u32)] {
        let i = node.index();
        &self.nbrs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate all undirected edges once.
    pub fn edges(&self) -> impl Iterator<Item = (PhysNodeId, PhysNodeId, u32)> + '_ {
        (0..self.num_nodes() as u32).flat_map(move |i| {
            self.neighbors(PhysNodeId(i))
                .iter()
                .filter(move |(j, _)| i < j.0)
                .map(move |&(j, w)| (PhysNodeId(i), j, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PhysGraph {
        let kinds = vec![
            NodeKind::Transit { domain: 0 },
            NodeKind::Stub { stub_domain: 0 },
            NodeKind::Stub { stub_domain: 0 },
        ];
        let stub = StubDomainInfo {
            parent_transit: PhysNodeId(0),
            gateway: PhysNodeId(1),
            members: 1..3,
        };
        let h = Hierarchy {
            kinds,
            transit_nodes: vec![PhysNodeId(0)],
            stub_domains: vec![stub],
        };
        PhysGraph::new(
            h,
            &[
                (PhysNodeId(0), PhysNodeId(1), 5_000),
                (PhysNodeId(1), PhysNodeId(2), 2_000),
            ],
        )
    }

    #[test]
    fn edge_bookkeeping() {
        let g = tiny();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(PhysNodeId(0)), &[(PhysNodeId(1), 5_000)]);
        assert_eq!(
            g.neighbors(PhysNodeId(1)),
            &[(PhysNodeId(0), 5_000), (PhysNodeId(2), 2_000)],
            "a row lists its neighbors in edge-list order"
        );
        assert_eq!(g.neighbors(PhysNodeId(2)), &[(PhysNodeId(1), 2_000)]);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = tiny();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            [
                (PhysNodeId(0), PhysNodeId(1), 5_000),
                (PhysNodeId(1), PhysNodeId(2), 2_000)
            ]
        );
    }

    #[test]
    fn stub_domain_local_index() {
        let g = tiny();
        let d = g.hierarchy().stub_domain(0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.local_index(PhysNodeId(1)), 0);
        assert_eq!(d.local_index(PhysNodeId(2)), 1);
    }
}
