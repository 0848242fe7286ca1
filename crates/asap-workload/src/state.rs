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
//! holds, so `ContentState` keeps no holders.
//!
//! Both are views of the model's initial holdings plus the edits the trace
//! made. A list is read from the model until its first edit, which copies
//! it whole into an ordered map of edited lists (`Edits`). The paper's
//! trace changes content after 10 % of requests, so at the XL scale about
//! a hundred lists are copied, against 1.88 M initial copies. `Holdings`
//! keeps the initial holders as a CSR transpose of the initial holdings,
//! one offset per document plus one peer id per copy (≈ 13.4 MB at XL),
//! with the rows the trace changed in a second map of edits.

use crate::content::{ContentModel, Document};
use crate::ids::{DocId, InterestSet, KeywordId};
use asap_overlay::codec::CodecError;
use asap_overlay::PeerId;
use std::collections::BTreeMap;
use std::mem::size_of;

/// Lists stored whole once edited, over base lists the caller passes in:
/// list `i` reads as its stored copy once it has been edited, as its base
/// until then. The first edit copies the base whole; a stored list stays
/// stored even when later edits bring it back to its base, so equality of
/// the types built on it is by content, not by what is stored.
#[derive(Debug, Clone)]
struct Edits<T>(BTreeMap<u32, Vec<T>>);

impl<T: Copy> Edits<T> {
    fn new() -> Self {
        Self(BTreeMap::new())
    }

    /// List `i`: its stored copy, or `base` if it was never edited.
    #[inline]
    fn read<'a>(&'a self, i: usize, base: &'a [T]) -> &'a [T] {
        self.0.get(&(i as u32)).map_or(base, Vec::as_slice)
    }

    /// List `i` to edit, copied from `base` on its first edit.
    fn copy_on_write(&mut self, i: usize, base: &[T]) -> &mut Vec<T> {
        self.0.entry(i as u32).or_insert_with(|| base.to_vec())
    }

    /// Heap bytes of the stored lists: each one's key, header and capacity.
    /// The map's node slack is not counted.
    fn heap_bytes(&self) -> usize {
        self.0
            .values()
            .map(|list| size_of::<u32>() + size_of::<Vec<T>>() + list.capacity() * size_of::<T>())
            .sum()
    }
}

/// Each peer's documents, strictly ascending: the model's initial holdings
/// with the lists the trace changed stored whole. [`Holdings`] and
/// [`ContentState`] both keep one.
impl Edits<DocId> {
    #[inline]
    fn held_by<'a>(&'a self, model: &'a ContentModel, peer: PeerId) -> &'a [DocId] {
        self.read(peer.index(), model.initial_holdings(peer))
    }

    /// Insert `doc` into `peer`'s list. `false` if it is there already.
    fn insert_held(&mut self, model: &ContentModel, peer: PeerId, doc: DocId) -> bool {
        let base = model.initial_holdings(peer);
        let Err(pos) = self.read(peer.index(), base).binary_search(&doc) else {
            return false;
        };
        self.copy_on_write(peer.index(), base).insert(pos, doc);
        true
    }

    /// Take `doc` out of `peer`'s list. `false` if it was not there.
    fn remove_held(&mut self, model: &ContentModel, peer: PeerId, doc: DocId) -> bool {
        let base = model.initial_holdings(peer);
        let Ok(pos) = self.read(peer.index(), base).binary_search(&doc) else {
            return false;
        };
        self.copy_on_write(peer.index(), base).remove(pos);
        true
    }
}

/// Who shares which document, evolving under content changes.
#[derive(Debug, Clone)]
pub struct Holdings<'m> {
    model: &'m ContentModel,
    docs: Edits<DocId>,
    initial: InitialHolders,
    /// The holder rows the trace changed, keyed by document: `add` pushes
    /// onto a row and `remove` swap-removes from it, so row order is
    /// history.
    holders: Edits<PeerId>,
}

impl<'m> Holdings<'m> {
    /// A view of the model's initial holdings, with nothing edited yet.
    pub fn from_model(model: &'m ContentModel) -> Self {
        Self {
            model,
            docs: Edits::new(),
            initial: InitialHolders::transpose(model),
            holders: Edits::new(),
        }
    }

    /// Peer starts sharing a document. Returns `false` if already held.
    pub fn add(&mut self, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.insert_held(self.model, peer, doc) {
            return false;
        }
        self.holders
            .copy_on_write(doc.index(), self.initial.row(doc))
            .push(peer);
        true
    }

    /// Peer stops sharing a document. Returns `false` if it wasn't held.
    /// The row's last holder takes the leaver's place, as `swap_remove`.
    pub fn remove(&mut self, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.remove_held(self.model, peer, doc) {
            return false;
        }
        let row = self
            .holders
            .copy_on_write(doc.index(), self.initial.row(doc));
        let i = row
            .iter()
            .position(|&p| p == peer)
            // lint: allow(unwrap, reason=holders mirrors holdings by construction; silent repair would hide corruption)
            .expect("holder invariant");
        row.swap_remove(i);
        true
    }

    #[inline]
    pub fn peer_docs(&self, peer: PeerId) -> &[DocId] {
        self.docs.held_by(self.model, peer)
    }

    #[inline]
    pub fn holders(&self, doc: DocId) -> &[PeerId] {
        self.holders.read(doc.index(), self.initial.row(doc))
    }

    pub fn peer_has_doc(&self, peer: PeerId, doc: DocId) -> bool {
        self.peer_docs(peer).binary_search(&doc).is_ok()
    }

    /// Heap bytes the holdings keep: the initial holders' offsets and peer
    /// ids, and the edited lists and rows.
    pub fn heap_bytes(&self) -> usize {
        self.initial.starts.capacity() * size_of::<u32>()
            + self.initial.peers.capacity() * size_of::<PeerId>()
            + self.docs.heap_bytes()
            + self.holders.heap_bytes()
    }
}

/// Equal when every peer's documents and every document's holder row are,
/// in order, whichever of them are stored as edits.
impl PartialEq for Holdings<'_> {
    fn eq(&self, other: &Self) -> bool {
        let (peers, docs) = (self.model.num_peers(), self.model.num_docs());
        peers == other.model.num_peers()
            && docs == other.model.num_docs()
            && (0..peers as u32)
                .map(PeerId)
                .all(|p| self.peer_docs(p) == other.peer_docs(p))
            && (0..docs as u32)
                .map(DocId)
                .all(|d| self.holders(d) == other.holders(d))
    }
}

impl Eq for Holdings<'_> {}

/// The model's initial holdings turned around: document `d`'s holders, in
/// ascending peer order, are `peers[starts[d]..starts[d + 1]]`. Offsets are
/// `u32`: copies stay far below 2³² at any scale this runs.
#[derive(Debug, Clone)]
struct InitialHolders {
    /// `num_docs + 1` offsets into `peers`.
    starts: Vec<u32>,
    peers: Vec<PeerId>,
}

impl InitialHolders {
    /// A counting sort in place: `starts[d]` first counts document `d`'s
    /// copies, then holds the end of its row, and walking the peers from
    /// the last down moves it to the row's start while filling the row from
    /// its back, so each row comes out in ascending peer order (the order a
    /// per-copy [`Holdings::add`] replay pushes) with no second offsets
    /// array.
    fn transpose(model: &ContentModel) -> Self {
        let num_peers = model.num_peers() as u32;
        let mut starts = vec![0u32; model.num_docs() + 1];
        for p in 0..num_peers {
            for &d in model.initial_holdings(PeerId(p)) {
                starts[d.index()] += 1;
            }
        }
        let mut end = 0;
        for s in &mut starts {
            end += *s;
            *s = end;
        }
        let mut peers = vec![PeerId(0); end as usize];
        for p in (0..num_peers).rev() {
            for &d in model.initial_holdings(PeerId(p)) {
                starts[d.index()] -= 1;
                peers[starts[d.index()] as usize] = PeerId(p);
            }
        }
        Self { starts, peers }
    }

    #[inline]
    fn row(&self, doc: DocId) -> &[PeerId] {
        let d = doc.index();
        &self.peers[self.starts[d] as usize..self.starts[d + 1] as usize]
    }
}

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
#[derive(Debug, Clone)]
pub struct ContentState<'m> {
    model: &'m ContentModel,
    docs: Edits<DocId>,
    /// One per peer, over exactly the documents it holds now.
    signatures: Vec<Signature>,
}

impl<'m> ContentState<'m> {
    /// A view of the model's initial holdings, with nothing edited yet.
    pub fn from_model(model: &'m ContentModel) -> Self {
        Self::over(model, Edits::new())
    }

    /// Derive the per-peer signatures for the holdings `docs` makes.
    fn over(model: &'m ContentModel, docs: Edits<DocId>) -> Self {
        let signatures = (0..model.num_peers() as u32)
            .map(|p| Signature::of(model, docs.held_by(model, PeerId(p))))
            .collect();
        Self {
            model,
            docs,
            signatures,
        }
    }

    /// Peer starts sharing a document. Returns `false` if already held.
    pub fn add(&mut self, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.insert_held(self.model, peer, doc) {
            return false;
        }
        self.signatures[peer.index()].add(self.model.doc(doc));
        true
    }

    /// Peer stops sharing a document. Returns `false` if it wasn't held.
    /// A Bloom filter cannot forget a keyword, so the peer's signature is
    /// rebuilt from the documents it still holds.
    pub fn remove(&mut self, peer: PeerId, doc: DocId) -> bool {
        if !self.docs.remove_held(self.model, peer, doc) {
            return false;
        }
        self.signatures[peer.index()] = Signature::of(self.model, self.peer_docs(peer));
        true
    }

    #[inline]
    pub fn peer_docs(&self, peer: PeerId) -> &[DocId] {
        self.docs.held_by(self.model, peer)
    }

    pub fn peer_has_doc(&self, peer: PeerId, doc: DocId) -> bool {
        self.peer_docs(peer).binary_search(&doc).is_ok()
    }

    /// The peers whose list is stored as an edit, ascending.
    pub fn edited_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.docs.0.keys().map(|&p| PeerId(p))
    }

    /// Does `peer` share at least one document containing **all** `terms`?
    /// (The content-confirmation check.)
    pub fn peer_matches(&self, peer: PeerId, terms: &[KeywordId]) -> bool {
        let sig = &self.signatures[peer.index()];
        if !terms.iter().all(|&t| sig.may_hold(t)) {
            return false; // cheap prefilter: some term held nowhere
        }
        self.peer_docs(peer)
            .iter()
            .any(|&d| self.model.doc(d).matches(terms))
    }

    /// All of `peer`'s documents matching `terms`.
    pub fn matching_docs<'a>(
        &'a self,
        peer: PeerId,
        terms: &'a [KeywordId],
    ) -> impl Iterator<Item = DocId> + 'a {
        self.peer_docs(peer)
            .iter()
            .copied()
            .filter(move |&d| self.model.doc(d).matches(terms))
    }

    /// The classes of the peer's current shared content — the topics `T(a)`
    /// an ad from this peer carries.
    pub fn peer_topics(&self, peer: PeerId) -> InterestSet {
        self.peer_docs(peer)
            .iter()
            .map(|&d| self.model.doc(d).class)
            .collect()
    }

    /// Heap bytes the state keeps: one signature per peer, and the edited
    /// lists.
    pub fn heap_bytes(&self) -> usize {
        self.signatures.capacity() * size_of::<Signature>() + self.docs.heap_bytes()
    }

    /// Rebuild content state from every peer's holdings, sorted, in peer
    /// order (what a checkpoint writes from [`ContentState::peer_docs`]),
    /// storing only the lists that differ from the initial ones and
    /// re-deriving the signatures. Rejects holdings sized for another
    /// model, lists not strictly ascending (every add, remove and lookup
    /// binary searches them), and documents the model does not have.
    pub fn from_parts(
        model: &'m ContentModel,
        holdings: Vec<Vec<DocId>>,
    ) -> Result<Self, CodecError> {
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
        let mut docs = Edits::new();
        for (p, held) in (0..).zip(holdings) {
            if held != model.initial_holdings(PeerId(p)) {
                docs.0.insert(p, held);
            }
        }
        Ok(Self::over(model, docs))
    }
}

/// Equal when every peer's documents and signature are, whichever lists
/// are stored as edits.
impl PartialEq for ContentState<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.signatures == other.signatures
            && (0..self.signatures.len() as u32)
                .map(PeerId)
                .all(|p| self.peer_docs(p) == other.peer_docs(p))
    }
}

impl Eq for ContentState<'_> {}

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

    fn model() -> ContentModel {
        let cfg = WorkloadConfig::reduced(300, 100, 11);
        let mut rng = SmallRng::seed_from_u64(11);
        generate_model(&cfg, &mut rng)
    }

    #[test]
    fn initial_state_mirrors_model() {
        let model = model();
        let state = ContentState::from_model(&model);
        for p in 0..model.num_peers() {
            let peer = PeerId(p as u32);
            assert_eq!(state.peer_docs(peer), model.initial_holdings(peer));
        }
    }

    #[test]
    fn bulk_holdings_equal_an_add_replay() {
        // Holder order is checkpointed and decides which replica a protocol
        // meets first, so the bulk build must reproduce it, not just the sets.
        let model = model();
        let mut replayed = vec![Vec::new(); model.num_docs()];
        for p in (0..model.num_peers() as u32).map(PeerId) {
            for &d in model.initial_holdings(p) {
                replayed[d.index()].push(p);
            }
        }
        assert!(
            replayed.iter().any(|row| row.len() > 2),
            "no replicated document: holder order is untested"
        );
        let holdings = Holdings::from_model(&model);
        for (d, row) in replayed.iter().enumerate() {
            assert_eq!(
                holdings.holders(DocId(d as u32)),
                row.as_slice(),
                "document {d}"
            );
        }
    }

    #[test]
    fn holders_are_consistent() {
        let model = model();
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
        let model = model();
        let mut state = ContentState::from_model(&model);
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
        assert!(state.add(peer, doc));
        assert!(!state.add(peer, doc), "double add rejected");
        assert_eq!(state.peer_docs(peer), holdings.peer_docs(peer));
        assert_ne!(
            state.signatures[peer.index()],
            state_before.signatures[peer.index()]
        );
        assert!(holdings.remove(peer, doc));
        assert!(!holdings.remove(peer, doc), "double remove rejected");
        assert!(state.remove(peer, doc));
        assert!(!state.remove(peer, doc), "double remove rejected");
        assert_eq!(holdings, before, "holdings and holder order restored");
        assert_eq!(state, state_before, "holdings and signature restored");
    }

    #[test]
    fn peer_matches_agrees_with_exhaustive_scan() {
        let model = model();
        let state = ContentState::from_model(&model);
        let mut checked = 0;
        for p in 0..model.num_peers().min(100) {
            let peer = PeerId(p as u32);
            for &d in state.peer_docs(peer).iter().take(3) {
                let doc = model.doc(d);
                let terms: Vec<KeywordId> = doc.keywords.iter().copied().take(2).collect();
                assert!(state.peer_matches(peer, &terms));
                checked += 1;
            }
        }
        assert!(checked > 0, "test exercised no matches");
    }

    #[test]
    fn peer_matches_rejects_cross_document_terms() {
        // Terms spread across two docs (but no single doc) must not match.
        let model = model();
        let state = ContentState::from_model(&model);
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
                        assert_eq!(state.peer_matches(peer, &terms), exhaustive);
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
        let model = model();
        let mut state = ContentState::from_model(&model);
        // Pick a sharer and remove all its docs: topics must become empty.
        let peer = (0..model.num_peers() as u32)
            .map(PeerId)
            .find(|&p| !state.peer_docs(p).is_empty())
            .unwrap();
        assert!(!state.peer_topics(peer).is_empty());
        for d in state.peer_docs(peer).to_vec() {
            state.remove(peer, d);
        }
        assert!(state.peer_topics(peer).is_empty());
        assert_eq!(state.signatures[peer.index()], Signature::default());
    }

    /// The 10,000-peer world: the paper's peer count, 3,000 queries.
    fn ten_k() -> &'static Workload {
        static W: OnceLock<Workload> = OnceLock::new();
        W.get_or_init(|| crate::generate(&WorkloadConfig::reduced(10_000, 3_000, 42)))
    }

    fn held_keywords(
        model: &ContentModel,
        state: &ContentState<'_>,
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

    /// `ContentState` keeps a signature per peer and the lists the trace
    /// edited, nothing per initial copy. The lower bound is the signatures:
    /// 10,000 × 128 B = 1,280,000 B, all there is before the trace. The
    /// upper bound adds, for each peer the trace changes, a 4 B key, a 24 B
    /// list header and the list's capacity: copied at its initial length,
    /// grown by doubling, so at most max(4, 2 × (initial length + documents
    /// added)) ids of 4 B. Measured: 1,280,000 B before the trace and
    /// 1,323,992 B after it, against a bound of 1,338,056 B; a list per
    /// peer, as before, kept 2,265,952 and 2,277,620 B. The XL twin is
    /// `xl_content_state_heap_is_bounded` in asap-bench.
    #[test]
    fn content_state_heap_is_bounded() {
        let w = ten_k();
        let mut state = ContentState::from_model(&w.model);
        let signatures = w.model.num_peers() * size_of::<Signature>();
        assert_eq!(state.heap_bytes(), signatures, "before the trace");
        let mut added = BTreeMap::new();
        for te in &w.trace.events {
            match te.event {
                TraceEvent::AddDocument { peer, doc } => {
                    assert!(state.add(peer, doc));
                    *added.entry(peer).or_insert(0) += 1;
                }
                TraceEvent::RemoveDocument { peer, doc } => {
                    assert!(state.remove(peer, doc));
                    added.entry(peer).or_insert(0);
                }
                _ => {}
            }
        }
        let lists: usize = added
            .iter()
            .map(|(&p, &adds)| 28 + 4 * (2 * (w.model.initial_holdings(p).len() + adds)).max(4))
            .sum();
        let bytes = state.heap_bytes();
        assert!(
            bytes > signatures,
            "{bytes} B: no edited list after the trace"
        );
        assert!(
            bytes <= signatures + lists,
            "{bytes} B after the trace, bound {} B",
            signatures + lists
        );
    }
}
