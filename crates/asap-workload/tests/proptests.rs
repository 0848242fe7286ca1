//! Property-based tests for the workload generator: structural invariants
//! that must hold for any seed and (sane) size.

use asap_workload::content::{ContentModel, Document};
use asap_workload::{ContentState, DocId, Holdings, KeywordId, PeerId, TraceEvent, WorkloadConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// 1–4 distinct terms of `doc` (fewer if it has fewer keywords).
fn terms_of(rng: &mut SmallRng, doc: Document<'_>) -> Vec<KeywordId> {
    let mut kws = doc.keywords.to_vec();
    let n = rng.gen_range(1..=4usize).min(kws.len());
    for i in 0..n {
        let j = rng.gen_range(i..kws.len());
        kws.swap(i, j);
    }
    kws.truncate(n);
    kws
}

/// The content state as plain vectors, changed the way the two
/// copy-on-write types promise to change: each peer's documents kept sorted
/// by `insert`, each document's holders by `push` and `swap_remove`.
struct PlainReplay {
    lists: Vec<Vec<DocId>>,
    rows: Vec<Vec<PeerId>>,
}

impl PlainReplay {
    fn new(model: &ContentModel) -> Self {
        let lists: Vec<Vec<DocId>> = (0..model.num_peers() as u32)
            .map(|p| model.initial_holdings(PeerId(p)).to_vec())
            .collect();
        let mut rows = vec![Vec::new(); model.num_docs()];
        for (p, held) in lists.iter().enumerate() {
            for d in held {
                rows[d.index()].push(PeerId(p as u32));
            }
        }
        Self { lists, rows }
    }

    /// Apply one change to the replay, `state` and `holdings` alike, and
    /// assert that both types accept or refuse it as the replay does and
    /// then read as it does for `peer` and `doc`. `true` if the change was
    /// not a no-op.
    fn drive(
        &mut self,
        state: &mut ContentState<'_>,
        holdings: &mut Holdings<'_>,
        add: bool,
        peer: PeerId,
        doc: DocId,
    ) -> bool {
        let (list, row) = (&mut self.lists[peer.index()], &mut self.rows[doc.index()]);
        let changed = match (add, list.binary_search(&doc)) {
            (true, Err(pos)) => {
                list.insert(pos, doc);
                row.push(peer);
                true
            }
            (false, Ok(pos)) => {
                list.remove(pos);
                let i = row
                    .iter()
                    .position(|&p| p == peer)
                    .expect("replayed holder");
                row.swap_remove(i);
                true
            }
            _ => false,
        };
        let accepted = if add {
            (state.add(peer, doc), holdings.add(peer, doc))
        } else {
            (state.remove(peer, doc), holdings.remove(peer, doc))
        };
        let step = format!("{} {peer:?} {doc:?}", if add { "add" } else { "remove" });
        assert_eq!(accepted, (changed, changed), "{step}: accepted");
        assert_eq!(state.peer_docs(peer), list.as_slice(), "{step}: state");
        assert_eq!(
            holdings.peer_docs(peer),
            list.as_slice(),
            "{step}: holdings"
        );
        assert_eq!(state.peer_has_doc(peer, doc), add, "{step}: peer_has_doc");
        assert_eq!(holdings.holders(doc), row.as_slice(), "{step}: holders");
        changed
    }
}

proptest! {
    // Each case replays a tape and probes every peer; a few dozen cover it.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tape runs through `ContentState` and `Holdings` side by side:
    /// after every step both hold the same documents per peer, and both
    /// accept or refuse it alike. After the tape every `Holdings` row
    /// equals, in order, a `Vec<Vec<PeerId>>` replay of the same history
    /// (`push` on add, `swap_remove` on remove); the kept signatures are the
    /// ones a fresh `from_parts` derivation gives; and the signature
    /// prefilter never changes an answer: `peer_matches` and
    /// `matching_docs` equal the exhaustive scan on 1–4-term queries from a
    /// held document, from any document, and across two held documents.
    /// The tape opens on a single-holder document: nine holders move its
    /// row three times, then it is emptied and refilled.
    #[test]
    fn signature_prefilter_never_changes_an_answer(seed in 0u64..10_000, changes in 500usize..3_000) {
        let w = asap_workload::generate(&WorkloadConfig::reduced(150, 10, seed));
        let model = &w.model;
        let mut state = ContentState::from_model(model);
        let mut holdings = Holdings::from_model(model);
        let mut rng = SmallRng::seed_from_u64(seed);
        let (peers, docs) = (model.num_peers() as u32, model.num_docs() as u32);
        let mut plain = PlainReplay::new(model);
        let mut apply = |state: &mut ContentState<'_>, holdings: &mut Holdings<'_>, add: bool, peer: PeerId, doc: DocId| {
            let changed = plain.drive(state, holdings, add, peer, doc);
            for p in (0..peers).map(PeerId) {
                assert_eq!(state.peer_docs(p), holdings.peer_docs(p), "peer {:?}", p);
            }
            changed
        };

        let single = (0..docs).map(DocId).filter(|&d| holdings.holders(d).len() == 1);
        let burst = single.clone().nth(rng.gen_range(0..single.count())).expect("a single-holder document");
        let mut outsiders: Vec<PeerId> =
            (0..peers).map(PeerId).filter(|&p| !state.peer_has_doc(p, burst)).collect();
        outsiders.shuffle(&mut rng);
        for &peer in &outsiders[..8] {
            prop_assert!(apply(&mut state, &mut holdings, true, peer, burst));
        }
        let mut held_by = holdings.holders(burst).to_vec();
        held_by.shuffle(&mut rng);
        for &peer in &held_by {
            prop_assert!(apply(&mut state, &mut holdings, false, peer, burst));
        }
        prop_assert!(holdings.holders(burst).is_empty());
        prop_assert!((0..peers).all(|p| !state.peer_has_doc(PeerId(p), burst)));
        for &peer in &outsiders[8..10] {
            prop_assert!(apply(&mut state, &mut holdings, true, peer, burst));
        }

        let (mut added, mut removed) = (0, 0);
        for _ in 0..changes {
            let peer = PeerId(rng.gen_range(0..peers));
            let held = state.peer_docs(peer);
            if rng.gen_bool(0.5) || held.is_empty() {
                let doc = DocId(rng.gen_range(0..docs));
                added += usize::from(apply(&mut state, &mut holdings, true, peer, doc));
            } else {
                let doc = held[rng.gen_range(0..held.len())];
                removed += usize::from(apply(&mut state, &mut holdings, false, peer, doc));
            }
        }
        prop_assert!(added > 100 && removed > 100, "{} adds, {} removes", added, removed);
        for (d, row) in plain.rows.iter().enumerate() {
            prop_assert_eq!(holdings.holders(DocId(d as u32)), row.as_slice(), "document {}", d);
        }
        let lists = (0..peers).map(|p| state.peer_docs(PeerId(p)).to_vec()).collect();
        let fresh = ContentState::from_parts(model, lists);
        prop_assert!(fresh == Ok(state.clone()), "kept state differs from a fresh derivation");

        let (mut hits, mut misses) = (0, 0);
        for peer in (0..peers).map(PeerId) {
            let held = state.peer_docs(peer);
            for _ in 0..4 {
                let any = model.doc(DocId(rng.gen_range(0..docs)));
                let mut queries = vec![terms_of(&mut rng, any)];
                if !held.is_empty() {
                    let a = model.doc(held[rng.gen_range(0..held.len())]);
                    let b = model.doc(held[rng.gen_range(0..held.len())]);
                    queries.push(terms_of(&mut rng, a));
                    let mut across = terms_of(&mut rng, a);
                    across.truncate(2);
                    across.extend(terms_of(&mut rng, b).into_iter().take(2));
                    across.sort_unstable();
                    across.dedup();
                    queries.push(across);
                }
                for terms in &queries {
                    let exhaustive: Vec<DocId> =
                        held.iter().copied().filter(|&d| model.doc(d).matches(terms)).collect();
                    prop_assert_eq!(state.peer_matches(peer, terms), !exhaustive.is_empty());
                    prop_assert_eq!(state.matching_docs(peer, terms).collect::<Vec<_>>(), exhaustive.clone());
                    if exhaustive.is_empty() { misses += 1 } else { hits += 1 }
                }
            }
        }
        prop_assert!(hits > 200 && misses > 200, "{} hits, {} misses", hits, misses);
    }

    /// An oracle independent of both types: a random add/remove tape runs
    /// through `ContentState`, `Holdings` and a [`PlainReplay`], and after
    /// every step both types accept or refuse it as the replay does and
    /// read as it does: the peer's documents, the document's holder row in
    /// order. The tape grows one document's row to seven or more holders and
    /// takes three of them out (a `remove` in place of `swap_remove` shows
    /// there), tries no-op adds and removes, and ends by removing a document
    /// from a peer it left alone and adding it back, so its list returns
    /// to its initial value. After the tape every list and row equals the
    /// replay's, and `from_parts` of the state's lists equals the state and
    /// stores an edit for exactly the lists that differ from their initial
    /// ones.
    #[test]
    fn copy_on_write_state_equals_a_plain_replay(seed in 0u64..10_000, changes in 200usize..1_500) {
        let w = asap_workload::generate(&WorkloadConfig::reduced(120, 10, seed));
        let model = &w.model;
        let (peers, docs) = (model.num_peers() as u32, model.num_docs() as u32);
        let mut state = ContentState::from_model(model);
        let mut holdings = Holdings::from_model(model);
        let mut plain = PlainReplay::new(model);
        let mut rng = SmallRng::seed_from_u64(seed);
        let burst = DocId(rng.gen_range(0..docs));
        // The tape leaves one sharer alone until its last two steps.
        let back = (0..peers)
            .map(PeerId)
            .find(|&p| !model.initial_holdings(p).is_empty() && !state.peer_has_doc(p, burst))
            .expect("a sharer without the burst document");
        let mut outsiders: Vec<PeerId> = (0..peers)
            .map(PeerId)
            .filter(|&p| p != back && !state.peer_has_doc(p, burst))
            .collect();
        outsiders.shuffle(&mut rng);
        for &peer in &outsiders[..6] {
            prop_assert!(plain.drive(&mut state, &mut holdings, true, peer, burst));
        }
        let mut held_by = holdings.holders(burst).to_vec();
        prop_assert!(held_by.len() >= 7);
        held_by.shuffle(&mut rng);
        for &peer in &held_by[..3] {
            prop_assert!(plain.drive(&mut state, &mut holdings, false, peer, burst));
        }

        let (mut applied, mut refused) = (0, 0);
        for _ in 0..changes {
            let peer = PeerId(rng.gen_range(0..peers));
            if peer == back {
                continue;
            }
            let held = state.peer_docs(peer);
            let (add, doc) = match rng.gen_range(0..10) {
                0..=4 => (true, DocId(rng.gen_range(0..docs))),
                5 if !held.is_empty() => (true, held[rng.gen_range(0..held.len())]),
                6 => (false, DocId(rng.gen_range(0..docs))),
                _ if !held.is_empty() => (false, held[rng.gen_range(0..held.len())]),
                _ => (true, DocId(rng.gen_range(0..docs))),
            };
            if plain.drive(&mut state, &mut holdings, add, peer, doc) {
                applied += 1;
            } else {
                refused += 1;
            }
        }
        prop_assert!(applied > 100 && refused > 20, "{} applied, {} refused", applied, refused);

        prop_assert!(state.edited_peers().all(|p| p != back));
        let doc = state.peer_docs(back)[0];
        prop_assert!(plain.drive(&mut state, &mut holdings, false, back, doc));
        prop_assert!(plain.drive(&mut state, &mut holdings, true, back, doc));
        prop_assert_eq!(state.peer_docs(back), model.initial_holdings(back));

        for p in (0..peers).map(PeerId) {
            prop_assert_eq!(state.peer_docs(p), plain.lists[p.index()].as_slice());
            prop_assert_eq!(holdings.peer_docs(p), plain.lists[p.index()].as_slice());
        }
        for d in (0..docs).map(DocId) {
            prop_assert_eq!(holdings.holders(d), plain.rows[d.index()].as_slice());
        }
        let fresh = ContentState::from_parts(model, plain.lists.clone()).expect("valid lists");
        prop_assert!(fresh == state, "from_parts differs from the state it was read from");
        let differing: Vec<PeerId> = (0..peers)
            .map(PeerId)
            .filter(|&p| plain.lists[p.index()] != model.initial_holdings(p))
            .collect();
        prop_assert_eq!(fresh.edited_peers().collect::<Vec<_>>(), differing.clone());
        prop_assert!(state.edited_peers().any(|p| p == back) && !differing.contains(&back));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated trace is answerable (live non-requester holder with
    /// a term-matching document at issue time), for arbitrary seeds.
    #[test]
    fn every_query_answerable(seed in 0u64..10_000) {
        let cfg = WorkloadConfig::reduced(200, 250, seed);
        let w = asap_workload::generate(&cfg);
        let checked = w.trace.validate(&w.model);
        prop_assert!(checked > 200, "only {} queries", checked);
    }

    /// Replaying the trace never corrupts the content state: removals only
    /// remove held docs, adds only add absent docs, `ContentState` and
    /// `Holdings` hold the same documents, and the holder lists stay their
    /// transpose.
    #[test]
    fn trace_replay_preserves_state_invariants(seed in 0u64..10_000) {
        let cfg = WorkloadConfig::reduced(150, 200, seed);
        let w = asap_workload::generate(&cfg);
        let mut state = ContentState::from_model(&w.model);
        let mut holdings = Holdings::from_model(&w.model);
        for ev in &w.trace.events {
            match &ev.event {
                TraceEvent::AddDocument { peer, doc } => {
                    prop_assert!(!state.peer_has_doc(*peer, *doc), "double add");
                    prop_assert!(state.add(*peer, *doc));
                    prop_assert!(holdings.add(*peer, *doc));
                }
                TraceEvent::RemoveDocument { peer, doc } => {
                    prop_assert!(state.peer_has_doc(*peer, *doc), "phantom remove");
                    prop_assert!(state.remove(*peer, *doc));
                    prop_assert!(holdings.remove(*peer, *doc));
                }
                _ => {}
            }
        }
        let mut copies = 0;
        for p in 0..w.model.num_peers() {
            let peer = PeerId(p as u32);
            prop_assert_eq!(state.peer_docs(peer), holdings.peer_docs(peer));
            for &d in state.peer_docs(peer) {
                prop_assert!(holdings.holders(d).contains(&peer));
                copies += 1;
            }
        }
        let listed: usize = (0..w.model.num_docs() as u32)
            .map(|d| holdings.holders(DocId(d)).len())
            .sum();
        prop_assert_eq!(listed, copies, "a holder listed for a document it does not hold");
    }

    /// Copy statistics stay near the eDonkey marginals across seeds.
    #[test]
    fn copy_stats_stable_across_seeds(seed in 0u64..10_000) {
        let cfg = WorkloadConfig::reduced(1_500, 10, seed);
        let w = asap_workload::generate(&cfg);
        let (mean, singles) = w.model.copy_stats();
        prop_assert!((mean - 1.28).abs() < 0.25, "mean copies {}", mean);
        prop_assert!((singles - 0.89).abs() < 0.08, "singletons {}", singles);
    }

    /// Churn events keep liveness consistent: no dead peer leaves, no live
    /// peer joins, and the alive count never drops below a quarter.
    #[test]
    fn churn_liveness_consistent(seed in 0u64..10_000) {
        let cfg = WorkloadConfig::reduced(200, 300, seed);
        let w = asap_workload::generate(&cfg);
        let mut alive = vec![true; w.model.num_peers()];
        let mut count = alive.len();
        for ev in &w.trace.events {
            match &ev.event {
                TraceEvent::Join(p) => {
                    prop_assert!(!alive[p.index()], "live peer joined");
                    alive[p.index()] = true;
                    count += 1;
                }
                TraceEvent::Leave(p) => {
                    prop_assert!(alive[p.index()], "dead peer left");
                    alive[p.index()] = false;
                    count -= 1;
                    prop_assert!(count > cfg.peers / 4, "network drained");
                }
                _ => {}
            }
        }
    }
}
