//! The mutable overlay graph.
//!
//! Construction is linear in the graph: generators wire probabilistically
//! and then call [`Overlay::repair_connectivity`], which is one reachability
//! pass — O(n + m) however many orphan components there are (at 100,000
//! peers a random overlay has 667 and a crawled one over 4,700, so a
//! traversal per orphan was all but 1 % of the cost of building one). The
//! repair's output is a function of the wired graph and the RNG alone; its
//! tests keep the traversal-per-orphan version as the oracle for that.

use crate::codec::CodecError;
use rand::rngs::SmallRng;
use rand::Rng;

/// Index of an overlay peer. Dense: `0..num_peers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl PeerId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Undirected overlay graph over a fixed peer-id space, supporting churn.
///
/// Departed peers keep their id (the simulator owns liveness); `detach`
/// removes all their edges, `attach_*` rewires a rejoining peer.
#[derive(Debug, Clone)]
pub struct Overlay {
    adj: Vec<Vec<PeerId>>,
}

impl Overlay {
    pub fn with_peers(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
        }
    }

    pub fn num_peers(&self) -> usize {
        self.adj.len()
    }

    /// The raw adjacency lists (checkpointing). Neighbor order is
    /// history-dependent (`swap_remove` on detach), behavior-relevant for
    /// protocols iterating neighbors, and therefore serialized verbatim.
    pub fn adjacency(&self) -> &[Vec<PeerId>] {
        &self.adj
    }

    /// Rebuild an overlay from [`Overlay::adjacency`] output, verbatim,
    /// after checking it keeps [`Overlay::undirected_violation`]'s
    /// invariant.
    pub fn from_adjacency(adj: Vec<Vec<PeerId>>) -> Result<Self, CodecError> {
        let overlay = Self { adj };
        match overlay.undirected_violation() {
            Some((_, kind)) => Err(CodecError::Invalid(kind)),
            None => Ok(overlay),
        }
    }

    /// The first break, peer by peer, of the undirected invariant
    /// [`Overlay::detach`] and [`Overlay::remove_edge`] rely on: a
    /// self-loop, a neighbor listed twice, or an edge without its reverse,
    /// with the peer whose list holds it. The checkpoint decoder refuses
    /// such an adjacency; the auditor checks for one after every churn.
    pub fn undirected_violation(&self) -> Option<(PeerId, &'static str)> {
        for (i, nbrs) in self.adj.iter().enumerate() {
            let p = PeerId(i as u32);
            for (k, &q) in nbrs.iter().enumerate() {
                let kind = if q == p {
                    "overlay self-loop"
                } else if nbrs[..k].contains(&q) {
                    "overlay duplicate edge"
                } else if !self.adj.get(q.index()).is_some_and(|n| n.contains(&p)) {
                    "overlay edge without its reverse"
                } else {
                    continue;
                };
                return Some((p, kind));
            }
        }
        None
    }

    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    #[inline]
    pub fn degree(&self, p: PeerId) -> usize {
        self.adj[p.index()].len()
    }

    #[inline]
    pub fn neighbors(&self, p: PeerId) -> &[PeerId] {
        &self.adj[p.index()]
    }

    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        2.0 * self.num_edges() as f64 / self.num_peers() as f64
    }

    pub fn has_edge(&self, a: PeerId, b: PeerId) -> bool {
        self.adj[a.index()].contains(&b)
    }

    /// Add an undirected edge. Silently ignores self-loops and duplicates so
    /// generators can sample freely.
    pub fn add_edge(&mut self, a: PeerId, b: PeerId) -> bool {
        if a == b || self.has_edge(a, b) {
            return false;
        }
        self.adj[a.index()].push(b);
        self.adj[b.index()].push(a);
        true
    }

    pub fn remove_edge(&mut self, a: PeerId, b: PeerId) -> bool {
        let Some(i) = self.adj[a.index()].iter().position(|&n| n == b) else {
            return false;
        };
        self.adj[a.index()].swap_remove(i);
        let j = self.adj[b.index()]
            .iter()
            .position(|&n| n == a)
            // lint: allow(unwrap, reason=add_edge always inserts both directions; asymmetry is memory corruption)
            .expect("undirected invariant");
        self.adj[b.index()].swap_remove(j);
        true
    }

    /// Remove all of `p`'s edges (a peer departing the network).
    pub fn detach(&mut self, p: PeerId) {
        let nbrs = std::mem::take(&mut self.adj[p.index()]);
        for n in nbrs {
            let i = self.adj[n.index()]
                .iter()
                .position(|&x| x == p)
                // lint: allow(unwrap, reason=add_edge always inserts both directions; asymmetry is memory corruption)
                .expect("undirected invariant");
            self.adj[n.index()].swap_remove(i);
        }
    }

    /// Rewire a (re)joining peer to `target_degree` peers chosen uniformly
    /// among `candidates` (the currently-alive peers).
    pub fn attach_uniform(
        &mut self,
        p: PeerId,
        candidates: &[PeerId],
        target_degree: usize,
        rng: &mut SmallRng,
    ) {
        let mut added = 0;
        let mut attempts = 0;
        while added < target_degree && attempts < candidates.len() * 4 + 16 {
            attempts += 1;
            let q = candidates[rng.gen_range(0..candidates.len())];
            if q != p && self.add_edge(p, q) {
                added += 1;
            }
        }
    }

    /// Rewire a (re)joining peer with degree-preferential attachment — new
    /// links favor high-degree peers, preserving a heavy-tailed shape under
    /// churn.
    pub fn attach_preferential(
        &mut self,
        p: PeerId,
        candidates: &[PeerId],
        target_degree: usize,
        rng: &mut SmallRng,
    ) {
        let total: usize = candidates.iter().map(|&c| self.degree(c) + 1).sum();
        let mut added = 0;
        let mut attempts = 0;
        while added < target_degree && attempts < candidates.len() * 4 + 16 {
            attempts += 1;
            let mut ticket = rng.gen_range(0..total.max(1));
            let mut chosen = candidates[0];
            for &c in candidates {
                let w = self.degree(c) + 1;
                if ticket < w {
                    chosen = c;
                    break;
                }
                ticket -= w;
            }
            if chosen != p && self.add_edge(p, chosen) {
                added += 1;
            }
        }
    }

    /// Mark `start`'s whole component in `seen` and return how many vertices
    /// that newly marked (0 if `start` was marked already). Marked vertices
    /// are never re-entered, so any number of calls over one `seen` cost
    /// O(n + m) in total. `stack` is scratch, empty on entry and on return.
    fn mark_component(&self, start: PeerId, seen: &mut [bool], stack: &mut Vec<PeerId>) -> usize {
        if seen[start.index()] {
            return 0;
        }
        seen[start.index()] = true;
        let mut marked = 1;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    marked += 1;
                    stack.push(v);
                }
            }
        }
        marked
    }

    /// Whether the graph is a single connected component (isolated-vertex
    /// graphs with `n > 1` are disconnected).
    pub fn is_connected(&self) -> bool {
        let n = self.num_peers();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        self.mark_component(PeerId(0), &mut seen, &mut Vec::new()) == n
    }

    /// Connect all components by linking the lowest-indexed member of each
    /// orphan component to a random member of peer 0's component. Used by
    /// generators after probabilistic wiring.
    ///
    /// One pass, O(n + m) plus the anchor draws: `seen` holds peer 0's
    /// component, the cursor walks up to the lowest unseen peer, and after
    /// the link only that orphan's component is filled in — which leaves
    /// `seen` exactly as a fresh traversal from peer 0 would, so the orphan
    /// order, the anchor draws and the edge insertion order are those of
    /// re-scanning the whole graph per orphan (the `#[cfg(test)]` oracle).
    pub fn repair_connectivity(&mut self, rng: &mut SmallRng) {
        let n = self.num_peers();
        if n == 0 {
            return;
        }
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        self.mark_component(PeerId(0), &mut seen, &mut stack);
        let mut cursor = 0;
        while let Some(offset) = seen[cursor..].iter().position(|&s| !s) {
            let orphan = cursor + offset;
            // Link the orphan component to a random reached node.
            let mut anchor = rng.gen_range(0..n);
            while !seen[anchor] {
                anchor = rng.gen_range(0..n);
            }
            self.add_edge(PeerId(orphan as u32), PeerId(anchor as u32));
            self.mark_component(PeerId(orphan as u32), &mut seen, &mut stack);
            cursor = orphan + 1;
        }
    }

    /// Degree histogram: `hist[d]` = number of peers with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let max = self.adj.iter().map(Vec::len).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for nbrs in &self.adj {
            hist[nbrs.len()] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn add_remove_edge_roundtrip() {
        let mut g = Overlay::with_peers(3);
        assert!(g.add_edge(PeerId(0), PeerId(1)));
        assert!(!g.add_edge(PeerId(0), PeerId(1)), "duplicate rejected");
        assert!(
            !g.add_edge(PeerId(1), PeerId(0)),
            "reverse duplicate rejected"
        );
        assert!(!g.add_edge(PeerId(2), PeerId(2)), "self loop rejected");
        assert_eq!(g.num_edges(), 1);
        assert!(g.remove_edge(PeerId(1), PeerId(0)));
        assert_eq!(g.num_edges(), 0);
        assert!(!g.remove_edge(PeerId(1), PeerId(0)));
    }

    /// The three breaks of the undirected invariant and one good shape: the
    /// check names the first break and its peer, and `from_adjacency`
    /// refuses the adjacency with the same kind.
    #[test]
    fn undirected_violation_names_the_first_break() {
        let p = PeerId;
        let path = vec![vec![p(1)], vec![p(0), p(2)], vec![p(1)]];
        let cases = [
            (path, None),
            (
                vec![vec![p(1)], vec![p(0), p(1)], vec![]],
                Some((p(1), "overlay self-loop")),
            ),
            (
                vec![vec![p(1), p(1)], vec![p(0)], vec![]],
                Some((p(0), "overlay duplicate edge")),
            ),
            (
                vec![vec![p(1)], vec![p(0), p(2)], vec![]],
                Some((p(1), "overlay edge without its reverse")),
            ),
        ];
        for (adj, want) in cases {
            let overlay = Overlay { adj: adj.clone() };
            assert_eq!(overlay.undirected_violation(), want, "{adj:?}");
            let refused = Overlay::from_adjacency(adj).err();
            assert_eq!(refused, want.map(|(_, kind)| CodecError::Invalid(kind)));
        }
    }

    #[test]
    fn detach_clears_both_sides() {
        let mut g = Overlay::with_peers(4);
        g.add_edge(PeerId(0), PeerId(1));
        g.add_edge(PeerId(0), PeerId(2));
        g.add_edge(PeerId(1), PeerId(2));
        g.detach(PeerId(0));
        assert_eq!(g.degree(PeerId(0)), 0);
        assert_eq!(g.degree(PeerId(1)), 1);
        assert_eq!(g.degree(PeerId(2)), 1);
        assert!(!g.has_edge(PeerId(1), PeerId(0)));
    }

    #[test]
    fn attach_uniform_reaches_target() {
        let mut g = Overlay::with_peers(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let candidates: Vec<PeerId> = (1..10).map(PeerId).collect();
        g.attach_uniform(PeerId(0), &candidates, 4, &mut rng);
        assert_eq!(g.degree(PeerId(0)), 4);
    }

    #[test]
    fn attach_preferential_favors_hubs() {
        let mut g = Overlay::with_peers(22);
        let mut rng = SmallRng::seed_from_u64(2);
        // Peer 1 is a hub of degree 20.
        for i in 2..22 {
            g.add_edge(PeerId(1), PeerId(i));
        }
        let candidates: Vec<PeerId> = (1..22).map(PeerId).collect();
        let mut hub_hits = 0;
        for trial in 0..50 {
            let mut g2 = g.clone();
            let _ = trial;
            g2.attach_preferential(PeerId(0), &candidates, 1, &mut rng);
            if g2.has_edge(PeerId(0), PeerId(1)) {
                hub_hits += 1;
            }
        }
        // Hub holds 21/61 of the weight; uniform would give ~1/21.
        assert!(hub_hits > 8, "hub only chosen {hub_hits}/50 times");
    }

    #[test]
    fn connectivity_and_repair() {
        let mut g = Overlay::with_peers(6);
        g.add_edge(PeerId(0), PeerId(1));
        g.add_edge(PeerId(2), PeerId(3));
        assert!(!g.is_connected());
        let mut rng = SmallRng::seed_from_u64(3);
        g.repair_connectivity(&mut rng);
        assert!(g.is_connected());
    }

    /// `repair_connectivity` as it stood before the one-pass version, kept
    /// verbatim as the reference: a full traversal from peer 0, and a fresh
    /// `seen`, for every orphan component.
    fn repair_by_rescan(g: &mut Overlay, rng: &mut SmallRng) {
        let n = g.num_peers();
        if n == 0 {
            return;
        }
        loop {
            let mut seen = vec![false; n];
            let mut stack = vec![PeerId(0)];
            seen[0] = true;
            while let Some(u) = stack.pop() {
                for &v in g.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
            let Some(orphan) = seen.iter().position(|&s| !s) else {
                return;
            };
            // Link the orphan component to a random reached node.
            let mut anchor = rng.gen_range(0..n);
            while !seen[anchor] {
                anchor = rng.gen_range(0..n);
            }
            g.add_edge(PeerId(orphan as u32), PeerId(anchor as u32));
        }
    }

    /// Repair copies of `wired` both ways from the same RNG state and demand
    /// the same adjacency lists, element for element, and the same next draw
    /// (so the same number of anchor draws; none at all when nothing needed
    /// linking). Returns the edges added.
    fn assert_repair_matches_rescan(wired: &Overlay, rng: &SmallRng, what: &str) -> usize {
        let (mut fast, mut fast_rng) = (wired.clone(), rng.clone());
        let (mut slow, mut slow_rng) = (wired.clone(), rng.clone());
        fast.repair_connectivity(&mut fast_rng);
        repair_by_rescan(&mut slow, &mut slow_rng);
        assert!(
            fast.adjacency() == slow.adjacency(),
            "{what}: adjacency differs"
        );
        let next = fast_rng.gen::<u64>();
        assert_eq!(next, slow_rng.gen::<u64>(), "{what}: draw count differs");
        assert!(fast.is_connected(), "{what}: not connected");
        let added = fast.num_edges() - wired.num_edges();
        if added == 0 {
            assert_eq!(
                next,
                rng.clone().gen::<u64>(),
                "{what}: drew with no orphan"
            );
        }
        added
    }

    #[test]
    fn repair_matches_rescan_on_every_generator() {
        use crate::crawled::{CRAWL_ALPHA, CRAWL_AVG_DEGREE};
        use crate::{powerlaw, random, OverlayKind};
        for kind in OverlayKind::ALL {
            for n in [0usize, 1, 2, 150, 1_500, 20_000] {
                let seeds = if n < 20_000 { 1..6u64 } else { 1..3 };
                for seed in seeds {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let wired = match kind {
                        OverlayKind::Random => random::wire(n, 5.0, &mut rng),
                        OverlayKind::PowerLaw => powerlaw::wire(n, 5.0, -0.74, &mut rng),
                        OverlayKind::Crawled => {
                            powerlaw::wire(n, CRAWL_AVG_DEGREE, CRAWL_ALPHA, &mut rng)
                        }
                    };
                    let what = format!("{kind:?} n={n} seed={seed}");
                    let added = assert_repair_matches_rescan(&wired, &rng, &what);
                    if n >= 1_500 {
                        assert!(added > 0, "{what}: nothing to repair, case is vacuous");
                    }
                }
            }
        }
    }

    #[test]
    fn repair_matches_rescan_on_hand_built_graphs() {
        let rng = SmallRng::seed_from_u64(7);
        let path = |g: &mut Overlay, from: u32, to: u32| {
            for i in from..to {
                g.add_edge(PeerId(i), PeerId(i + 1));
            }
        };

        let isolated = Overlay::with_peers(40);
        assert_eq!(
            assert_repair_matches_rescan(&isolated, &rng, "all isolated"),
            39
        );

        // Already connected: no edge, and (checked by the helper) no draw.
        let mut connected = Overlay::with_peers(30);
        path(&mut connected, 0, 29);
        assert_eq!(
            assert_repair_matches_rescan(&connected, &rng, "connected"),
            0
        );

        // Peer 0 alone: every anchor draw must land on 0 until 1..20 joins.
        let mut zero_alone = Overlay::with_peers(20);
        path(&mut zero_alone, 1, 19);
        assert_eq!(
            assert_repair_matches_rescan(&zero_alone, &rng, "peer 0 isolated"),
            1
        );

        let mut halves = Overlay::with_peers(400);
        path(&mut halves, 0, 199);
        path(&mut halves, 200, 399);
        assert_eq!(assert_repair_matches_rescan(&halves, &rng, "two halves"), 1);

        // An orphan component with internal structure: a path of 50 whose
        // lowest peer is an end. Marking only the orphan itself would link
        // every one of the 50 separately.
        let mut tail = Overlay::with_peers(60);
        path(&mut tail, 0, 9);
        path(&mut tail, 10, 59);
        assert_eq!(assert_repair_matches_rescan(&tail, &rng, "path of 50"), 1);

        // Interleaved components: the cursor must skip peers a previous
        // orphan's fill already reached.
        let mut woven = Overlay::with_peers(90);
        for i in 0..87 {
            woven.add_edge(PeerId(i), PeerId(i + 3));
        }
        assert_eq!(
            assert_repair_matches_rescan(&woven, &rng, "three woven paths"),
            2
        );
    }

    #[test]
    fn degree_histogram_sums_to_n() {
        let mut g = Overlay::with_peers(5);
        g.add_edge(PeerId(0), PeerId(1));
        g.add_edge(PeerId(0), PeerId(2));
        let hist = g.degree_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 5);
        assert_eq!(hist[0], 2); // peers 3, 4
        assert_eq!(hist[2], 1); // peer 0
    }

    #[test]
    fn empty_overlay_edge_cases() {
        let g = Overlay::with_peers(0);
        assert!(g.is_connected());
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.degree_histogram(), vec![0usize; 1]);
    }
}
