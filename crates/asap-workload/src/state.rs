//! Runtime content state: per-peer holdings evolving under content changes.
//!
//! Two types, one per job. [`Holdings`] is who holds what — sorted documents
//! per peer, holders per document — and is all the trace generator and
//! [`Trace::validate`](crate::Trace::validate) ever read, so they replay it
//! alone. [`ContentState`] is what the simulator answers match checks from:
//! the same `Holdings` plus a per-peer keyword multiset, an O(terms)
//! prefilter before the exact per-document scan, which is what makes
//! flooding-scale match checks affordable (6.8 M counts in 100,000 hash maps
//! at the XL scale — hence not built where nobody probes it). Both start from
//! the model in one bulk pass, O(copies) and O(copies × keywords).

use crate::content::ContentModel;
use crate::ids::{DocId, InterestSet, KeywordId};
use asap_overlay::collections::DetHashMap;
use asap_overlay::PeerId;

/// Who shares which document, evolving under content changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Holdings {
    /// Sorted docs per peer.
    docs: Vec<Vec<DocId>>,
    /// Holders per doc (unsorted).
    holders: Vec<Vec<PeerId>>,
}

impl Holdings {
    /// Initialize from the model's initial holdings: the lists are sorted
    /// already, and visiting peers in ascending order pushes every holder
    /// list in the order a per-document [`Holdings::add`] replay would.
    pub fn from_model(model: &ContentModel) -> Self {
        let docs = model.initial_holdings.clone();
        let mut holders = vec![Vec::new(); model.num_docs()];
        for (p, held) in docs.iter().enumerate() {
            debug_assert!(
                held.windows(2).all(|w| w[0] < w[1]),
                "peer {p}: unsorted holdings"
            );
            for &d in held {
                holders[d.index()].push(PeerId(p as u32));
            }
        }
        Self { docs, holders }
    }

    /// Peer starts sharing a document. Returns `false` if already held.
    pub fn add(&mut self, peer: PeerId, doc: DocId) -> bool {
        let h = &mut self.docs[peer.index()];
        let Err(pos) = h.binary_search(&doc) else {
            return false;
        };
        h.insert(pos, doc);
        self.holders[doc.index()].push(peer);
        true
    }

    /// Peer stops sharing a document. Returns `false` if it wasn't held.
    pub fn remove(&mut self, peer: PeerId, doc: DocId) -> bool {
        let h = &mut self.docs[peer.index()];
        let Ok(pos) = h.binary_search(&doc) else {
            return false;
        };
        h.remove(pos);
        let hs = &mut self.holders[doc.index()];
        // lint: allow(unwrap, reason=holders mirrors holdings by construction; silent repair would hide corruption)
        let i = hs.iter().position(|&p| p == peer).expect("holder invariant");
        hs.swap_remove(i);
        true
    }

    #[inline]
    pub fn peer_docs(&self, peer: PeerId) -> &[DocId] {
        &self.docs[peer.index()]
    }

    #[inline]
    pub fn holders(&self, doc: DocId) -> &[PeerId] {
        &self.holders[doc.index()]
    }

    pub fn peer_has_doc(&self, peer: PeerId, doc: DocId) -> bool {
        self.docs[peer.index()].binary_search(&doc).is_ok()
    }
}

/// Evolving shared-content state for every peer.
#[derive(Debug, Clone)]
pub struct ContentState {
    holdings: Holdings,
    /// Keyword → occurrence count per peer (across that peer's docs). Only
    /// ever probed by key, never iterated: the maps' iteration order is not
    /// observable, so how they were filled (incrementally or in bulk) is not
    /// either.
    keyword_counts: Vec<DetHashMap<KeywordId, u32>>,
}

impl ContentState {
    /// Initialize from the model's initial holdings.
    pub fn from_model(model: &ContentModel) -> Self {
        Self::over(model, Holdings::from_model(model))
    }

    /// Derive the per-peer keyword multiset for `holdings`.
    fn over(model: &ContentModel, holdings: Holdings) -> Self {
        let mut keyword_counts = vec![DetHashMap::default(); holdings.docs.len()];
        for (docs, counts) in holdings.docs.iter().zip(keyword_counts.iter_mut()) {
            for &d in docs {
                for &kw in &model.doc(d).keywords {
                    *counts.entry(kw).or_insert(0u32) += 1;
                }
            }
        }
        Self {
            holdings,
            keyword_counts,
        }
    }

    /// Peer starts sharing a document. Returns `false` if already held.
    pub fn add(&mut self, model: &ContentModel, peer: PeerId, doc: DocId) -> bool {
        if !self.holdings.add(peer, doc) {
            return false;
        }
        let counts = &mut self.keyword_counts[peer.index()];
        for &kw in &model.doc(doc).keywords {
            *counts.entry(kw).or_insert(0) += 1;
        }
        true
    }

    /// Peer stops sharing a document. Returns `false` if it wasn't held.
    pub fn remove(&mut self, model: &ContentModel, peer: PeerId, doc: DocId) -> bool {
        if !self.holdings.remove(peer, doc) {
            return false;
        }
        let counts = &mut self.keyword_counts[peer.index()];
        for &kw in &model.doc(doc).keywords {
            match counts.get_mut(&kw) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    counts.remove(&kw);
                }
                None => unreachable!("keyword count invariant"),
            }
        }
        true
    }

    #[inline]
    pub fn peer_docs(&self, peer: PeerId) -> &[DocId] {
        self.holdings.peer_docs(peer)
    }

    #[inline]
    pub fn holders(&self, doc: DocId) -> &[PeerId] {
        self.holdings.holders(doc)
    }

    pub fn peer_has_doc(&self, peer: PeerId, doc: DocId) -> bool {
        self.holdings.peer_has_doc(peer, doc)
    }

    /// Does `peer` share at least one document containing **all** `terms`?
    /// (The content-confirmation check.)
    pub fn peer_matches(&self, model: &ContentModel, peer: PeerId, terms: &[KeywordId]) -> bool {
        let counts = &self.keyword_counts[peer.index()];
        if !terms.iter().all(|t| counts.contains_key(t)) {
            return false; // cheap prefilter: some term absent everywhere
        }
        self.holdings.peer_docs(peer)
            .iter()
            .any(|&d| model.doc(d).matches(terms))
    }

    /// All of `peer`'s documents matching `terms`.
    pub fn matching_docs<'a>(
        &'a self,
        model: &'a ContentModel,
        peer: PeerId,
        terms: &'a [KeywordId],
    ) -> impl Iterator<Item = DocId> + 'a {
        self.holdings.peer_docs(peer)
            .iter()
            .copied()
            .filter(move |&d| model.doc(d).matches(terms))
    }

    /// The classes of the peer's current shared content — the topics `T(a)`
    /// an ad from this peer carries.
    pub fn peer_topics(&self, model: &ContentModel, peer: PeerId) -> InterestSet {
        self.holdings.peer_docs(peer)
            .iter()
            .map(|&d| model.doc(d).class)
            .collect()
    }

    /// Raw `(holdings, holders)` views for checkpointing. `holdings` is
    /// sorted per peer; `holders` order is history-dependent (`swap_remove`
    /// on removal) and behavior-relevant, so both are serialized verbatim.
    /// The keyword multiset is derived state and is rebuilt on restore.
    pub fn parts(&self) -> (&[Vec<DocId>], &[Vec<PeerId>]) {
        (&self.holdings.docs, &self.holdings.holders)
    }

    /// Rebuild content state from [`ContentState::parts`] output, restoring
    /// `holdings`/`holders` verbatim and re-deriving the per-peer keyword
    /// multiset from the holdings and the model.
    pub fn from_parts(
        model: &ContentModel,
        holdings: Vec<Vec<DocId>>,
        holders: Vec<Vec<PeerId>>,
    ) -> Self {
        Self::over(
            model,
            Holdings {
                docs: holdings,
                holders,
            },
        )
    }

    /// Number of distinct keywords a peer currently shares.
    #[cfg(test)]
    fn peer_keyword_count(&self, peer: PeerId) -> usize {
        self.keyword_counts[peer.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::content::generate_model;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (ContentModel, ContentState) {
        let cfg = WorkloadConfig::reduced(300, 100, 11);
        let mut rng = SmallRng::seed_from_u64(11);
        let model = generate_model(&cfg, &mut rng);
        let state = ContentState::from_model(&model);
        (model, state)
    }

    #[test]
    fn initial_state_mirrors_model() {
        let (model, state) = setup();
        for p in 0..model.num_peers() {
            assert_eq!(
                state.peer_docs(PeerId(p as u32)),
                model.initial_holdings[p].as_slice()
            );
        }
    }

    #[test]
    fn bulk_holdings_equal_an_add_replay() {
        // Holder order is checkpointed and decides which replica a protocol
        // meets first, so the bulk build must reproduce it, not just the sets.
        let (model, _) = setup();
        let mut replayed = Holdings {
            docs: vec![Vec::new(); model.num_peers()],
            holders: vec![Vec::new(); model.num_docs()],
        };
        for (p, docs) in model.initial_holdings.iter().enumerate() {
            for &d in docs {
                assert!(replayed.add(PeerId(p as u32), d));
            }
        }
        assert!(
            replayed.holders.iter().any(|hs| hs.len() > 2),
            "no replicated document: holder order is untested"
        );
        assert_eq!(Holdings::from_model(&model), replayed);
    }

    /// Same holdings, same holder order, same keyword multiset.
    fn assert_same_state(a: &ContentState, b: &ContentState) {
        assert_eq!(a.holdings, b.holdings);
        assert_eq!(a.keyword_counts, b.keyword_counts);
    }

    #[test]
    fn bulk_state_equals_its_parts_and_stays_exact_under_changes() {
        use rand::Rng;
        let (model, mut state) = setup();
        let rebuild = |s: &ContentState| {
            let (holdings, holders) = s.parts();
            ContentState::from_parts(&model, holdings.to_vec(), holders.to_vec())
        };
        assert_same_state(&state, &rebuild(&state));

        // A mixed tape: adds of arbitrary documents, removals of held ones.
        let mut rng = SmallRng::seed_from_u64(12);
        let (mut added, mut removed) = (0, 0);
        for _ in 0..4_000 {
            let peer = PeerId(rng.gen_range(0..model.num_peers() as u32));
            if rng.gen_bool(0.5) {
                let doc = DocId(rng.gen_range(0..model.num_docs() as u32));
                added += usize::from(state.add(&model, peer, doc));
            } else if let Some(&doc) = state.peer_docs(peer).first() {
                removed += usize::from(state.remove(&model, peer, doc));
            }
        }
        assert!(
            added > 1_000 && removed > 1_000,
            "{added} adds, {removed} removes"
        );
        // The incrementally kept multiset is the one a fresh derivation gives.
        assert_same_state(&state, &rebuild(&state));

        // And the prefilter never changes an answer: one- and two-term
        // queries drawn from random documents, held by the peer or not.
        let (mut hits, mut misses) = (0, 0);
        for p in 0..model.num_peers() as u32 {
            let peer = PeerId(p);
            for _ in 0..8 {
                let a = model.doc(DocId(rng.gen_range(0..model.num_docs() as u32)));
                let b = match state.peer_docs(peer) {
                    [] => a,
                    held => model.doc(held[rng.gen_range(0..held.len())]),
                };
                for terms in [
                    vec![a.keywords[0]],
                    vec![b.keywords[0]],
                    vec![a.keywords[0], b.keywords[0]],
                ] {
                    let exhaustive = state
                        .peer_docs(peer)
                        .iter()
                        .any(|&d| model.doc(d).matches(&terms));
                    assert_eq!(state.peer_matches(&model, peer, &terms), exhaustive);
                    assert_eq!(
                        state.matching_docs(&model, peer, &terms).next().is_some(),
                        exhaustive
                    );
                    if exhaustive {
                        hits += 1
                    } else {
                        misses += 1
                    }
                }
            }
        }
        assert!(hits > 100 && misses > 100, "{hits} hits, {misses} misses");
    }

    #[test]
    fn holders_are_consistent() {
        let (model, state) = setup();
        for d in 0..model.num_docs() {
            for &h in state.holders(DocId(d as u32)) {
                assert!(state.peer_has_doc(h, DocId(d as u32)));
            }
        }
    }

    #[test]
    fn add_remove_roundtrip() {
        let (model, mut state) = setup();
        // Find a doc some peer doesn't hold.
        let peer = PeerId(0);
        let doc = (0..model.num_docs() as u32)
            .map(DocId)
            .find(|&d| !state.peer_has_doc(peer, d))
            .unwrap();
        let before_kw = state.peer_keyword_count(peer);
        assert!(state.add(&model, peer, doc));
        assert!(!state.add(&model, peer, doc), "double add rejected");
        assert!(state.peer_has_doc(peer, doc));
        assert!(state.holders(doc).contains(&peer));
        assert!(state.remove(&model, peer, doc));
        assert!(!state.remove(&model, peer, doc), "double remove rejected");
        assert_eq!(state.peer_keyword_count(peer), before_kw);
    }

    #[test]
    fn peer_matches_agrees_with_exhaustive_scan() {
        let (model, state) = setup();
        let mut checked = 0;
        for p in 0..model.num_peers().min(100) {
            let peer = PeerId(p as u32);
            for &d in state.peer_docs(peer).iter().take(3) {
                let doc = model.doc(d);
                let terms: Vec<KeywordId> =
                    doc.keywords.iter().copied().take(2).collect();
                assert!(state.peer_matches(&model, peer, &terms));
                checked += 1;
            }
        }
        assert!(checked > 0, "test exercised no matches");
    }

    #[test]
    fn peer_matches_rejects_cross_document_terms() {
        // Terms spread across two docs (but no single doc) must not match.
        let (model, state) = setup();
        'outer: for p in 0..model.num_peers() {
            let peer = PeerId(p as u32);
            let docs = state.peer_docs(peer);
            if docs.len() < 2 {
                continue;
            }
            for i in 0..docs.len() {
                for j in (i + 1)..docs.len() {
                    let (a, b) = (model.doc(docs[i]), model.doc(docs[j]));
                    let ka = a.keywords.iter().find(|k| !b.keywords.contains(k));
                    let kb = b.keywords.iter().find(|k| !a.keywords.contains(k));
                    if let (Some(&ka), Some(&kb)) = (ka, kb) {
                        let terms = [ka, kb];
                        let exhaustive = docs
                            .iter()
                            .any(|&d| model.doc(d).matches(&terms));
                        assert_eq!(state.peer_matches(&model, peer, &terms), exhaustive);
                        if !exhaustive {
                            break 'outer; // found and verified a negative case
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn topics_track_content_changes() {
        let (model, mut state) = setup();
        // Pick a sharer and remove all its docs: topics must become empty.
        let peer = (0..model.num_peers() as u32)
            .map(PeerId)
            .find(|&p| !state.peer_docs(p).is_empty())
            .unwrap();
        assert!(!state.peer_topics(&model, peer).is_empty());
        for d in state.peer_docs(peer).to_vec() {
            state.remove(&model, peer, d);
        }
        assert!(state.peer_topics(&model, peer).is_empty());
        assert_eq!(state.peer_keyword_count(peer), 0);
    }
}
