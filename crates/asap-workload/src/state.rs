//! Runtime content state: per-peer holdings evolving under content changes.
//!
//! Two types, one per job, over one shared core: each peer's documents in
//! ascending order, with the one copy of the sorted insert and remove.
//! [`Holdings`] adds the holders of every document — query synthesis picks
//! a live holder of the target — and is all the trace generator and
//! [`Trace::validate`](crate::Trace::validate) ever read, so they replay it
//! alone. [`ContentState`] is what the simulator answers match checks from:
//! the per-peer documents plus a per-peer keyword signature, a fixed
//! 128-byte Bloom filter over the keywords the peer holds that rules out
//! most peers in a few bit tests before the exact per-document scan. That
//! prefilter is what makes flooding-scale match checks affordable, and at
//! 128 bytes a peer it costs 12.8 MB at the XL scale. No protocol, the
//! engine or the auditor asks who holds a document, only what a given peer
//! holds, so `ContentState` keeps no holders. Both start from the model in
//! one bulk pass, O(copies) and O(copies × keywords).
//!
//! Holder lists live in one flat arena, not one heap block per document: at
//! the XL scale there are 1.47 M documents and 89 % of them have a single
//! holder.

use crate::content::{ContentModel, Document};
use crate::ids::{DocId, InterestSet, KeywordId};
use asap_overlay::codec::CodecError;
use asap_overlay::PeerId;
use std::mem::size_of;

/// Each peer's documents, strictly ascending: what [`Holdings`] and
/// [`ContentState`] both keep.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PeerDocs(Vec<Vec<DocId>>);

impl PeerDocs {
    /// The model's initial holdings, which are sorted already.
    fn from_model(model: &ContentModel) -> Self {
        let docs: Vec<Vec<DocId>> = (0..model.num_peers() as u32)
            .map(|p| model.initial_holdings(PeerId(p)).to_vec())
            .collect();
        debug_assert!(docs.iter().all(|held| held.windows(2).all(|w| w[0] < w[1])));
        Self(docs)
    }

    /// Insert `doc` into `peer`'s list. `false` if it is there already.
    fn insert_doc(&mut self, peer: PeerId, doc: DocId) -> bool {
        let held = &mut self.0[peer.index()];
        let Err(pos) = held.binary_search(&doc) else {
            return false;
        };
        held.insert(pos, doc);
        true
    }

    /// Take `doc` out of `peer`'s list. `false` if it was not there.
    fn remove_doc(&mut self, peer: PeerId, doc: DocId) -> bool {
        let held = &mut self.0[peer.index()];
        let Ok(pos) = held.binary_search(&doc) else {
            return false;
        };
        held.remove(pos);
        true
    }

    #[inline]
    fn held_by(&self, peer: PeerId) -> &[DocId] {
        &self.0[peer.index()]
    }

    fn holds(&self, peer: PeerId, doc: DocId) -> bool {
        self.held_by(peer).binary_search(&doc).is_ok()
    }
}

/// Who shares which document, evolving under content changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Holdings {
    docs: PeerDocs,
    /// Holders per doc (unsorted).
    holders: HolderArena,
}

impl Holdings {
    /// Initialize from the model's initial holdings: visiting peers in
    /// ascending order fills every holder row in the order a per-document
    /// [`Holdings::add`] replay would.
    pub fn from_model(model: &ContentModel) -> Self {
        let docs = PeerDocs::from_model(model);
        let holders = HolderArena::transpose(&docs.0, model.num_docs());
        Self { docs, holders }
    }

    /// Peer starts sharing a document. Returns `false` if already held.
    pub fn add(&mut self, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.insert_doc(peer, doc) {
            return false;
        }
        self.holders.push_holder(doc, peer);
        true
    }

    /// Peer stops sharing a document. Returns `false` if it wasn't held.
    pub fn remove(&mut self, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.remove_doc(peer, doc) {
            return false;
        }
        self.holders
            .remove_holder(doc, peer)
            // lint: allow(unwrap, reason=holders mirrors holdings by construction; silent repair would hide corruption)
            .expect("holder invariant");
        true
    }

    #[inline]
    pub fn peer_docs(&self, peer: PeerId) -> &[DocId] {
        self.docs.held_by(peer)
    }

    #[inline]
    pub fn holders(&self, doc: DocId) -> &[PeerId] {
        self.holders.row(doc.index())
    }

    pub fn peer_has_doc(&self, peer: PeerId, doc: DocId) -> bool {
        self.docs.holds(peer, doc)
    }
}

/// Where one document's holder row sits in [`HolderArena::peers`]: `len`
/// holders from `start`, with room for `cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// Smallest capacity a row gets when it first outgrows its slot.
const MIN_ROW_CAP: u32 = 4;

/// Every document's holders in one vector, 12 bytes of [`Span`] per
/// document plus 4 bytes per slot. A row that fills up moves to the end
/// with double the capacity and leaves its old slots unused; rows never
/// shrink. Two arenas are equal when every row is, whatever the layout.
/// Offsets are `u32`: slots stay far below 2³² at any scale this runs.
#[derive(Debug, Clone)]
struct HolderArena {
    peers: Vec<PeerId>,
    spans: Vec<Span>,
}

impl HolderArena {
    /// Holders per document in ascending peer order, each row exactly its
    /// size: a counting sort of `docs` written straight into the arena.
    /// Every id in `docs` must be below `num_docs`.
    fn transpose(docs: &[Vec<DocId>], num_docs: usize) -> Self {
        let mut spans = vec![Span::default(); num_docs];
        for &d in docs.iter().flatten() {
            spans[d.index()].cap += 1;
        }
        let mut end = 0;
        for span in &mut spans {
            span.start = end;
            end += span.cap;
        }
        let mut peers = vec![PeerId(0); end as usize];
        for (p, held) in docs.iter().enumerate() {
            for &d in held {
                let span = &mut spans[d.index()];
                peers[(span.start + span.len) as usize] = PeerId(p as u32);
                span.len += 1;
            }
        }
        Self { peers, spans }
    }

    #[inline]
    fn row(&self, doc: usize) -> &[PeerId] {
        let span = self.spans[doc];
        &self.peers[span.start as usize..(span.start + span.len) as usize]
    }

    /// Append `peer` to `doc`'s row, as `Vec::push` would.
    fn push_holder(&mut self, doc: DocId, peer: PeerId) {
        let span = &mut self.spans[doc.index()];
        if span.len == span.cap {
            let (from, to) = (span.start as usize, (span.start + span.len) as usize);
            span.start = self.peers.len() as u32;
            span.cap = (span.cap * 2).max(MIN_ROW_CAP);
            self.peers.extend_from_within(from..to);
            let end = self.peers.len() + (span.cap - span.len) as usize;
            self.peers.resize(end, PeerId(0));
        }
        self.peers[(span.start + span.len) as usize] = peer;
        span.len += 1;
    }

    /// Take `peer` out of `doc`'s row, as `Vec::swap_remove` would: the
    /// row's last holder takes its place. `None` if `peer` is not in it.
    fn remove_holder(&mut self, doc: DocId, peer: PeerId) -> Option<()> {
        let span = &mut self.spans[doc.index()];
        let row = &mut self.peers[span.start as usize..(span.start + span.len) as usize];
        let i = row.iter().position(|&p| p == peer)?;
        row.swap(i, row.len() - 1);
        span.len -= 1;
        Some(())
    }
}

impl PartialEq for HolderArena {
    fn eq(&self, other: &Self) -> bool {
        self.spans.len() == other.spans.len()
            && (0..self.spans.len()).all(|d| self.row(d) == other.row(d))
    }
}

impl Eq for HolderArena {}

/// Width of a peer's keyword signature in bits, and how many of them each
/// keyword sets. Constants, not options. On `rw.xl` (100,000 peers) the
/// signature lets 38,665 of the run's 3,999,189 match checks through to
/// the exact scan, against 28,061 for the exact keyword multiset it replaced
/// and 8,962 real hits; 512 bits with one position per keyword let 101,256
/// through. On `flooding.default` it is 109,299 against 102,843 (512 × 1:
/// 162,722) of 5,320,355 checks, 37,481 of them hits.
const SIGNATURE_BITS: usize = 1_024;
const SIGNATURE_HASHES: usize = 2;

/// A Bloom filter over the keywords of the documents a peer holds. Never
/// serialized: it is derived from the holdings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Signature([u64; SIGNATURE_BITS / 64]);

impl Signature {
    fn of(model: &ContentModel, docs: &[DocId]) -> Self {
        let mut sig = Self::default();
        for &d in docs {
            sig.add(model.doc(d));
        }
        sig
    }

    fn add(&mut self, doc: Document<'_>) {
        for &kw in doc.keywords {
            for bit in positions(kw) {
                self.0[bit / 64] |= 1 << (bit % 64);
            }
        }
    }

    /// `false` only if no held document has `kw`.
    #[inline]
    fn may_hold(&self, kw: KeywordId) -> bool {
        positions(kw)
            .iter()
            .all(|&bit| self.0[bit / 64] & (1 << (bit % 64)) != 0)
    }
}

/// The signature bits of `kw`: disjoint 10-bit fields of the SplitMix64
/// finalizer of its id. Integer-only, so the same on every host.
#[inline]
fn positions(kw: KeywordId) -> [usize; SIGNATURE_HASHES] {
    let mut z = u64::from(kw.0).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let field = SIGNATURE_BITS.trailing_zeros() as usize;
    std::array::from_fn(|i| (z >> (i * field)) as usize % SIGNATURE_BITS)
}

/// Evolving shared-content state for every peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentState {
    docs: PeerDocs,
    /// One per peer, over exactly the documents it holds now.
    signatures: Vec<Signature>,
}

impl ContentState {
    /// Initialize from the model's initial holdings.
    pub fn from_model(model: &ContentModel) -> Self {
        Self::over(model, PeerDocs::from_model(model))
    }

    /// Derive the per-peer signatures for `docs`.
    fn over(model: &ContentModel, docs: PeerDocs) -> Self {
        let signatures = docs
            .0
            .iter()
            .map(|held| Signature::of(model, held))
            .collect();
        Self { docs, signatures }
    }

    /// Peer starts sharing a document. Returns `false` if already held.
    pub fn add(&mut self, model: &ContentModel, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.insert_doc(peer, doc) {
            return false;
        }
        self.signatures[peer.index()].add(model.doc(doc));
        true
    }

    /// Peer stops sharing a document. Returns `false` if it wasn't held.
    /// A Bloom filter cannot forget a keyword, so the peer's signature is
    /// rebuilt from the documents it still holds.
    pub fn remove(&mut self, model: &ContentModel, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.remove_doc(peer, doc) {
            return false;
        }
        self.signatures[peer.index()] = Signature::of(model, self.docs.held_by(peer));
        true
    }

    #[inline]
    pub fn peer_docs(&self, peer: PeerId) -> &[DocId] {
        self.docs.held_by(peer)
    }

    pub fn peer_has_doc(&self, peer: PeerId, doc: DocId) -> bool {
        self.docs.holds(peer, doc)
    }

    /// Does `peer` share at least one document containing **all** `terms`?
    /// (The content-confirmation check.)
    pub fn peer_matches(&self, model: &ContentModel, peer: PeerId, terms: &[KeywordId]) -> bool {
        let sig = &self.signatures[peer.index()];
        if !terms.iter().all(|&t| sig.may_hold(t)) {
            return false; // cheap prefilter: some term held nowhere
        }
        self.docs
            .held_by(peer)
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
        self.docs
            .held_by(peer)
            .iter()
            .copied()
            .filter(move |&d| model.doc(d).matches(terms))
    }

    /// The classes of the peer's current shared content — the topics `T(a)`
    /// an ad from this peer carries.
    pub fn peer_topics(&self, model: &ContentModel, peer: PeerId) -> InterestSet {
        self.docs
            .held_by(peer)
            .iter()
            .map(|&d| model.doc(d).class)
            .collect()
    }

    /// Heap bytes the state keeps: one list header per peer, each list's
    /// capacity in documents, and one signature per peer.
    pub fn heap_bytes(&self) -> usize {
        let lists = &self.docs.0;
        lists.capacity() * size_of::<Vec<DocId>>()
            + lists
                .iter()
                .map(|held| held.capacity() * size_of::<DocId>())
                .sum::<usize>()
            + self.signatures.capacity() * size_of::<Signature>()
    }

    /// The holdings, sorted per peer, for checkpointing. The signatures are
    /// derived state and are rebuilt on restore.
    pub fn parts(&self) -> &[Vec<DocId>] {
        &self.docs.0
    }

    /// Rebuild content state from [`ContentState::parts`] output, restoring
    /// the holdings verbatim and re-deriving the signatures from them and
    /// the model. Rejects holdings sized for another model, lists not
    /// strictly ascending (every add, remove and lookup binary searches
    /// them), and documents the model does not have.
    pub fn from_parts(model: &ContentModel, holdings: Vec<Vec<DocId>>) -> Result<Self, CodecError> {
        if holdings.len() != model.num_peers() {
            return Err(CodecError::Invalid("holdings size mismatch"));
        }
        if holdings
            .iter()
            .any(|docs| docs.windows(2).any(|w| w[0] >= w[1]))
        {
            return Err(CodecError::Invalid("holdings not strictly ascending"));
        }
        if holdings
            .iter()
            .any(|docs| docs.last().is_some_and(|d| d.index() >= model.num_docs()))
        {
            return Err(CodecError::Invalid("held document out of range"));
        }
        Ok(Self::over(model, PeerDocs(holdings)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::content::generate_model;
    use crate::{TraceEvent, Workload};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

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
            let peer = PeerId(p as u32);
            assert_eq!(state.peer_docs(peer), model.initial_holdings(peer));
        }
    }

    #[test]
    fn bulk_holdings_equal_an_add_replay() {
        // Holder order is checkpointed and decides which replica a protocol
        // meets first, so the bulk build must reproduce it, not just the sets.
        let (model, _) = setup();
        let mut replayed = Holdings {
            docs: PeerDocs(vec![Vec::new(); model.num_peers()]),
            holders: HolderArena::transpose(&[], model.num_docs()),
        };
        for p in (0..model.num_peers() as u32).map(PeerId) {
            for &d in model.initial_holdings(p) {
                assert!(replayed.add(p, d));
            }
        }
        assert!(
            (0..model.num_docs()).any(|d| replayed.holders.row(d).len() > 2),
            "no replicated document: holder order is untested"
        );
        assert_eq!(Holdings::from_model(&model), replayed);
    }

    #[test]
    fn holders_are_consistent() {
        let (model, _) = setup();
        let holdings = Holdings::from_model(&model);
        let mut listed = 0;
        for d in (0..model.num_docs() as u32).map(DocId) {
            for &h in holdings.holders(d) {
                assert!(holdings.peer_has_doc(h, d));
                listed += 1;
            }
        }
        let held: usize = (0..model.num_peers() as u32)
            .map(|p| model.initial_holdings(PeerId(p)).len())
            .sum();
        assert_eq!(listed, held, "every held copy has exactly one holder slot");
    }

    #[test]
    fn add_remove_roundtrip() {
        let (model, mut state) = setup();
        let mut holdings = Holdings::from_model(&model);
        // A replicated document some peer doesn't hold, so the removal
        // swaps within a row that has other holders.
        let doc = (0..model.num_docs() as u32)
            .map(DocId)
            .find(|&d| holdings.holders(d).len() >= 2)
            .unwrap();
        let peer = (0..model.num_peers() as u32)
            .map(PeerId)
            .find(|&p| !holdings.peer_has_doc(p, doc))
            .unwrap();
        let (before, state_before) = (holdings.clone(), state.clone());
        assert!(holdings.add(peer, doc));
        assert!(!holdings.add(peer, doc), "double add rejected");
        assert!(holdings.peer_has_doc(peer, doc));
        assert_eq!(holdings.holders(doc).last(), Some(&peer));
        assert!(state.add(&model, peer, doc));
        assert!(!state.add(&model, peer, doc), "double add rejected");
        assert_eq!(state.peer_docs(peer), holdings.peer_docs(peer));
        assert_ne!(
            state.signatures[peer.index()],
            state_before.signatures[peer.index()]
        );
        assert!(holdings.remove(peer, doc));
        assert!(!holdings.remove(peer, doc), "double remove rejected");
        assert!(state.remove(&model, peer, doc));
        assert!(!state.remove(&model, peer, doc), "double remove rejected");
        assert_eq!(holdings, before, "holdings and holder order restored");
        assert_eq!(state, state_before, "holdings and signature restored");
    }

    #[test]
    fn peer_matches_agrees_with_exhaustive_scan() {
        let (model, state) = setup();
        let mut checked = 0;
        for p in 0..model.num_peers().min(100) {
            let peer = PeerId(p as u32);
            for &d in state.peer_docs(peer).iter().take(3) {
                let doc = model.doc(d);
                let terms: Vec<KeywordId> = doc.keywords.iter().copied().take(2).collect();
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
                        let exhaustive = docs.iter().any(|&d| model.doc(d).matches(&terms));
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
        assert_eq!(state.signatures[peer.index()], Signature::default());
    }

    /// The 10,000-peer world: the paper's peer count, 3,000 queries.
    fn ten_k() -> &'static Workload {
        static W: OnceLock<Workload> = OnceLock::new();
        W.get_or_init(|| crate::generate(&WorkloadConfig::reduced(10_000, 3_000, 42)))
    }

    fn held_keywords(
        model: &ContentModel,
        state: &ContentState,
        peer: PeerId,
    ) -> BTreeSet<KeywordId> {
        state
            .peer_docs(peer)
            .iter()
            .flat_map(|&d| model.doc(d).keywords.iter().copied())
            .collect()
    }

    /// The signature is only worth its 128 bytes if it stays selective: over
    /// the trace's queries × every peer, it may pass at most 1.5× the checks
    /// an exact "every term held somewhere" prefilter (the keyword multiset
    /// it replaced) would. Measured: 324,924 passes against 249,425, 1.30×,
    /// of 30,000,000 checks.
    #[test]
    fn signature_passes_stay_near_the_held_somewhere_oracle() {
        let w = ten_k();
        let state = ContentState::from_model(&w.model);
        let queries: Vec<&[KeywordId]> = w
            .trace
            .events
            .iter()
            .filter_map(|te| match &te.event {
                TraceEvent::Query(q) => Some(q.terms.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(queries.len(), 3_000);
        let (mut passes, mut oracle) = (0u64, 0u64);
        for p in 0..w.model.num_peers() {
            let peer = PeerId(p as u32);
            let held = held_keywords(&w.model, &state, peer);
            let sig = &state.signatures[p];
            for terms in &queries {
                let pass = terms.iter().all(|&t| sig.may_hold(t));
                let held_all = terms.iter().all(|t| held.contains(t));
                assert!(pass || !held_all, "peer {p}: false negative on {terms:?}");
                passes += u64::from(pass);
                oracle += u64::from(held_all);
            }
        }
        assert!(
            oracle > 100_000,
            "only {oracle} oracle passes: the bound is weak"
        );
        assert!(
            passes * 2 <= oracle * 3,
            "{passes} signature passes against {oracle} oracle passes"
        );
    }

    /// The signature is a Bloom filter with k = 2, m = 1,024, so a keyword a
    /// peer does not hold passes with probability `(1 − e^{−kn/m})^k` for its
    /// `n` distinct keywords. Averaged over the 10,000 peers, the measured
    /// rate must be that within ±20 %. Measured: 2.685 % against 2.694 %.
    #[test]
    fn signature_false_pass_rate_matches_the_analytic_formula() {
        const PROBES_PER_PEER: u32 = 128;
        let w = ten_k();
        let state = ContentState::from_model(&w.model);
        let vocab = w.model.vocab.len() as u32;
        let mut rng = SmallRng::seed_from_u64(26);
        let (mut false_passes, mut analytic) = (0u64, 0.0f64);
        let (k, m) = (SIGNATURE_HASHES as f64, SIGNATURE_BITS as f64);
        for p in 0..w.model.num_peers() {
            let held = held_keywords(&w.model, &state, PeerId(p as u32));
            analytic += (1.0 - (-k * held.len() as f64 / m).exp()).powf(k);
            let mut probed = 0;
            while probed < PROBES_PER_PEER {
                let kw = KeywordId(rng.gen_range(0..vocab) as u16);
                if !held.contains(&kw) {
                    probed += 1;
                    false_passes += u64::from(state.signatures[p].may_hold(kw));
                }
            }
        }
        let peers = w.model.num_peers() as f64;
        let measured = false_passes as f64 / (peers * f64::from(PROBES_PER_PEER));
        let analytic = analytic / peers;
        assert!(
            (measured / analytic - 1.0).abs() <= 0.20,
            "measured {measured:.5}, analytic {analytic:.5}"
        );
    }

    /// `ContentState` keeps a list header and a signature per peer and one
    /// `DocId` per held copy: at the 10,000-peer world that is 10,000 ×
    /// 24 B + 10,000 × 128 B + 186,488 copies × 4 B = 2.27 MB, under 2.5 MB
    /// before and after the trace's content changes (measured 2,265,952 and
    /// 2,277,620 B). The XL twin is `xl_content_state_heap_is_bounded` in
    /// asap-bench.
    #[test]
    fn content_state_heap_is_bounded() {
        let w = ten_k();
        let mut state = ContentState::from_model(&w.model);
        let peers = w.model.num_peers();
        let copies: usize = (0..peers as u32)
            .map(|p| w.model.initial_holdings(PeerId(p)).len())
            .sum();
        assert!(
            state.heap_bytes() >= peers * (24 + 128) + copies * 4,
            "{} B misses the lists or the signatures",
            state.heap_bytes()
        );
        assert!(state.heap_bytes() <= 2_500_000, "{} B", state.heap_bytes());
        for te in &w.trace.events {
            match te.event {
                TraceEvent::AddDocument { peer, doc } => assert!(state.add(&w.model, peer, doc)),
                TraceEvent::RemoveDocument { peer, doc } => {
                    assert!(state.remove(&w.model, peer, doc))
                }
                _ => {}
            }
        }
        assert!(
            state.heap_bytes() <= 2_500_000,
            "{} B after the trace",
            state.heap_bytes()
        );
    }
}
