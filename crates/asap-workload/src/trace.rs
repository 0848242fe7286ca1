//! The event trace: queries, content changes, churn — time-stamped and
//! generated chronologically against the evolving system state so that every
//! query is answerable when issued (paper: "all the search requests are
//! created such that there is at least one matching document existing in the
//! system at the request time").

use crate::config::WorkloadConfig;
use crate::content::ContentModel;
use crate::ids::{ClassId, DocId, KeywordId};
use crate::state::Holdings;
use crate::zipf::exp_gap_us;
use asap_overlay::PeerId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Poisson request arrival rate, requests per second (paper: λ = 8).
pub const ARRIVAL_RATE_HZ: f64 = 8.0;
/// Query terms drawn from the target document, inclusive range.
pub const QUERY_TERMS: (usize, usize) = (2, 4);

/// One search request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    pub id: u32,
    pub requester: PeerId,
    /// Conjunctive search terms (all must appear in one document).
    pub terms: Vec<KeywordId>,
    /// The document the generator aimed at — ground truth for debugging and
    /// trace validation; protocols never see it.
    pub target: DocId,
}

/// A trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    Query(QuerySpec),
    /// Content change: a peer starts sharing (a replica of) a document.
    AddDocument {
        peer: PeerId,
        doc: DocId,
    },
    /// Content change: a peer stops sharing a document.
    RemoveDocument {
        peer: PeerId,
        doc: DocId,
    },
    /// A peer joins the overlay.
    Join(PeerId),
    /// A peer departs.
    Leave(PeerId),
}

/// Time-stamped event. Events with equal timestamps apply in vector order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    pub time_us: u64,
    pub event: TraceEvent,
}

/// The full trace, sorted by time.
#[derive(Debug, Default)]
pub struct Trace {
    pub events: Vec<TimedEvent>,
}

impl Trace {
    pub fn duration_us(&self) -> u64 {
        self.events.last().map_or(0, |e| e.time_us)
    }

    pub fn num_queries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Query(_)))
            .count()
    }

    /// Replay the trace and assert every query has ≥ 1 matching document on
    /// a live peer other than the requester at issue time. Returns the
    /// number of queries checked.
    pub fn validate(&self, model: &ContentModel, initially_alive: &[bool]) -> usize {
        let mut state = Holdings::from_model(model);
        let mut alive = initially_alive.to_vec();
        let mut checked = 0;
        for te in &self.events {
            match &te.event {
                TraceEvent::Query(q) => {
                    assert!(alive[q.requester.index()], "requester must be alive");
                    let ok = state.holders(q.target).iter().any(|&h| {
                        alive[h.index()]
                            && h != q.requester
                            && model.doc(q.target).matches(&q.terms)
                    });
                    assert!(ok, "query {} unanswerable at issue time", q.id);
                    checked += 1;
                }
                TraceEvent::AddDocument { peer, doc } => {
                    state.add(*peer, *doc);
                }
                TraceEvent::RemoveDocument { peer, doc } => {
                    state.remove(*peer, *doc);
                }
                TraceEvent::Join(p) => alive[p.index()] = true,
                TraceEvent::Leave(p) => alive[p.index()] = false,
            }
        }
        checked
    }
}

/// Generate the trace. Returns the event list and the initial liveness map.
pub fn generate_trace(
    config: &WorkloadConfig,
    model: &ContentModel,
    rng: &mut SmallRng,
) -> (Trace, Vec<bool>) {
    // --- timeline skeleton -------------------------------------------------
    // Query times: Poisson arrivals. Churn times: uniform over the duration.
    let pack = &config.pack;
    let mut query_times = Vec::with_capacity(config.queries);
    let mut t = 0u64;
    for i in 0..config.queries {
        let mut gap = exp_gap_us(ARRIVAL_RATE_HZ, rng);
        // Flash crowd: same exponential draw, compressed — the knob scales
        // the gap rather than drawing again, so an inert pack consumes the
        // exact RNG sequence of the unperturbed generator.
        if pack.flash_boost > 1.0 && pack.in_flash_window(i, config.queries) {
            gap = ((gap as f64 / pack.flash_boost) as u64).max(1);
        }
        t += gap;
        query_times.push(t);
    }
    let duration = t.max(1);

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Slot {
        Query,
        Join,
        Leave,
    }
    let mut slots: Vec<(u64, Slot)> = query_times.iter().map(|&t| (t, Slot::Query)).collect();
    for _ in 0..config.joins {
        slots.push((rng.gen_range(0..duration), Slot::Join));
    }
    for _ in 0..config.leaves {
        slots.push((rng.gen_range(0..duration), Slot::Leave));
    }
    slots.sort_by_key(|&(t, _)| t);

    // --- liveness setup ----------------------------------------------------
    // Rejoin churn: the whole population starts online; departures feed a
    // pool that join events revive from. This matches the paper's snapshot
    // semantics (the 10,000 selected peers own all content; churn moves
    // them off- and back on-line).
    let mut alive = vec![true; config.peers];
    let mut departed: Vec<PeerId> = Vec::new();
    let initially_alive = alive.clone();
    let mut alive_count = config.peers;
    // Rejoin order, newest last — the heavy-tail knob's eviction stack.
    let mut recent_joiners: Vec<PeerId> = Vec::new();

    // --- chronological generation ------------------------------------------
    // Who holds what is all the generator reads; no keyword multiset here.
    let mut state = Holdings::from_model(model);
    let mut events = Vec::with_capacity(slots.len() + config.queries / 8);
    let mut query_id = 0u32;

    for (time_us, slot) in slots {
        match slot {
            Slot::Join => {
                // Revive a random departed peer; a join with nobody offline
                // is dropped (leaves and joins interleave randomly).
                if departed.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..departed.len());
                let p = departed.swap_remove(i);
                alive[p.index()] = true;
                alive_count += 1;
                if pack.session_tail > 0.0 {
                    recent_joiners.push(p);
                }
                events.push(TimedEvent {
                    time_us,
                    event: TraceEvent::Join(p),
                });
            }
            Slot::Leave => {
                // Never drain the network below a quarter of its size.
                if alive_count <= config.peers / 4 + 2 {
                    continue;
                }
                // Heavy-tailed sessions: prefer evicting the most recent
                // rejoiner, so rejoin→leave cycles produce a population of
                // short sessions on top of the uniform baseline.
                let mut picked = None;
                if pack.session_tail > 0.0 && rng.gen_bool(pack.session_tail) {
                    while let Some(p) = recent_joiners.pop() {
                        if alive[p.index()] {
                            picked = Some(p);
                            break;
                        }
                    }
                }
                let p = picked.unwrap_or_else(|| random_alive(&alive, alive_count, rng));
                alive[p.index()] = false;
                alive_count -= 1;
                departed.push(p);
                events.push(TimedEvent {
                    time_us,
                    event: TraceEvent::Leave(p),
                });
            }
            Slot::Query => {
                let progress = f64::from(query_id) / config.queries.max(1) as f64;
                let Some(q) = synthesize_query(
                    config,
                    model,
                    &state,
                    &alive,
                    alive_count,
                    query_id,
                    progress,
                    rng,
                ) else {
                    continue; // no answerable target right now (vanishingly rare)
                };
                query_id += 1;
                events.push(TimedEvent {
                    time_us,
                    event: TraceEvent::Query(q),
                });
                // 10 % of requests are followed by a content change.
                if rng.gen_bool(config.content_change_fraction) {
                    if let Some(ev) = synthesize_change(model, &mut state, &alive, alive_count, rng)
                    {
                        events.push(TimedEvent { time_us, event: ev });
                    }
                }
            }
        }
    }

    (Trace { events }, initially_alive)
}

fn random_alive(alive: &[bool], alive_count: usize, rng: &mut SmallRng) -> PeerId {
    debug_assert!(alive_count > 0);
    loop {
        let p = rng.gen_range(0..alive.len());
        if alive[p] {
            return PeerId(p as u32);
        }
    }
}

/// Pick a requester and an answerable target document within its interests
/// (or, under interest drift, progressively outside them).
#[allow(clippy::too_many_arguments)]
fn synthesize_query(
    config: &WorkloadConfig,
    model: &ContentModel,
    state: &Holdings,
    alive: &[bool],
    alive_count: usize,
    id: u32,
    progress: f64,
    rng: &mut SmallRng,
) -> Option<QuerySpec> {
    let pack = &config.pack;
    // A few requester attempts; each tries several targets.
    for _ in 0..8 {
        let requester = random_alive(alive, alive_count, rng);
        let classes: Vec<ClassId> = model.interests[requester.index()].iter().collect();
        for _ in 0..32 {
            let mut class = classes[rng.gen_range(0..classes.len())];
            // Interest drift: rotate the class by an offset that grows with
            // trace progress — late queries probe classes the requester's
            // static profile (and everyone's cached ads) never covered.
            if pack.drift_strength > 0.0 && rng.gen_bool(pack.drift_strength) {
                let shift = 1 + (progress * (model.num_classes - 1) as f64) as usize;
                class = ClassId(((class.index() + shift) % model.num_classes) as u8);
            }
            let pool = &model.class_docs[class.index()];
            if pool.is_empty() {
                continue;
            }
            // Content hotspot: pile demand onto the class's first document
            // (an arbitrary-but-fixed "hit release") instead of spreading
            // uniformly over the pool.
            let doc = if pack.hotspot_prob > 0.0 && rng.gen_bool(pack.hotspot_prob) {
                pool[0]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if state.peer_has_doc(requester, doc) {
                continue; // peers ask for documents they lack
            }
            if !state
                .holders(doc)
                .iter()
                .any(|&h| alive[h.index()] && h != requester)
            {
                continue; // no live copy
            }
            let terms = pick_terms(model, doc, rng);
            return Some(QuerySpec {
                id,
                requester,
                terms,
                target: doc,
            });
        }
    }
    None
}

/// Random distinct subset of the target document's keywords — so the target
/// matches by construction.
fn pick_terms(model: &ContentModel, doc: DocId, rng: &mut SmallRng) -> Vec<KeywordId> {
    let kws = model.doc(doc).keywords;
    let (lo, hi) = QUERY_TERMS;
    let n = rng.gen_range(lo..=hi).min(kws.len()).max(1);
    let mut picked: Vec<KeywordId> = kws.to_vec();
    picked.shuffle(rng);
    picked.truncate(n);
    picked.sort_unstable();
    picked
}

/// A content change: 50/50 addition (replicating an existing document the
/// peer is interested in but lacks) or removal of a held document. Keeping
/// `D_all` fixed matches the trace-preparation step, where all documents come
/// from the snapshot.
fn synthesize_change(
    model: &ContentModel,
    state: &mut Holdings,
    alive: &[bool],
    alive_count: usize,
    rng: &mut SmallRng,
) -> Option<TraceEvent> {
    if rng.gen_bool(0.5) {
        // Addition.
        for _ in 0..16 {
            let peer = random_alive(alive, alive_count, rng);
            let classes: Vec<ClassId> = model.interests[peer.index()].iter().collect();
            let class = classes[rng.gen_range(0..classes.len())];
            let pool = &model.class_docs[class.index()];
            if pool.is_empty() {
                continue;
            }
            let doc = pool[rng.gen_range(0..pool.len())];
            if state.add(peer, doc) {
                return Some(TraceEvent::AddDocument { peer, doc });
            }
        }
        None
    } else {
        // Removal.
        for _ in 0..16 {
            let peer = random_alive(alive, alive_count, rng);
            let docs = state.peer_docs(peer);
            if docs.is_empty() {
                continue;
            }
            let doc = docs[rng.gen_range(0..docs.len())];
            state.remove(peer, doc);
            return Some(TraceEvent::RemoveDocument { peer, doc });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::generate_model;
    use rand::SeedableRng;

    fn workload(peers: usize, queries: usize, seed: u64) -> (ContentModel, Trace, Vec<bool>) {
        let cfg = WorkloadConfig::reduced(peers, queries, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = generate_model(&cfg, &mut rng);
        let (trace, alive) = generate_trace(&cfg, &model, &mut rng);
        (model, trace, alive)
    }

    #[test]
    fn every_query_is_answerable() {
        let (model, trace, alive) = workload(400, 800, 21);
        let checked = trace.validate(&model, &alive);
        assert!(checked >= 790, "only {checked} queries generated/validated");
    }

    #[test]
    fn events_are_time_sorted() {
        let (_, trace, _) = workload(300, 500, 22);
        assert!(trace
            .events
            .windows(2)
            .all(|w| w[0].time_us <= w[1].time_us));
    }

    #[test]
    fn churn_counts_near_config() {
        let (_, trace, alive) = workload(500, 600, 23);
        let joins = trace
            .events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Join(_)))
            .count();
        let leaves = trace
            .events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Leave(_)))
            .count();
        assert!(joins >= 20, "joins {joins}");
        assert!(leaves >= 40, "leaves {leaves}");
        assert!(joins <= leaves, "every join revives an earlier departure");
        assert!(
            alive.iter().all(|&a| a),
            "rejoin churn: everyone starts online"
        );
    }

    #[test]
    fn content_changes_near_ten_percent() {
        let (_, trace, _) = workload(500, 2_000, 24);
        let changes = trace
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    TraceEvent::AddDocument { .. } | TraceEvent::RemoveDocument { .. }
                )
            })
            .count();
        let queries = trace.num_queries();
        let frac = changes as f64 / queries as f64;
        assert!((frac - 0.10).abs() < 0.03, "change fraction {frac}");
    }

    #[test]
    fn arrival_rate_near_lambda() {
        let (_, trace, _) = workload(300, 2_000, 25);
        let queries = trace.num_queries() as f64;
        let secs = trace.duration_us() as f64 / 1e6;
        let rate = queries / secs;
        assert!((rate - 8.0).abs() < 1.0, "arrival rate {rate}/s");
    }

    #[test]
    fn requesters_do_not_hold_target() {
        let (model, trace, alive) = workload(300, 400, 26);
        let mut state = Holdings::from_model(&model);
        let mut alive = alive;
        for te in &trace.events {
            match &te.event {
                TraceEvent::Query(q) => {
                    assert!(!state.peer_has_doc(q.requester, q.target));
                }
                TraceEvent::AddDocument { peer, doc } => {
                    state.add(*peer, *doc);
                }
                TraceEvent::RemoveDocument { peer, doc } => {
                    state.remove(*peer, *doc);
                }
                TraceEvent::Join(p) => alive[p.index()] = true,
                TraceEvent::Leave(p) => alive[p.index()] = false,
            }
        }
    }

    fn pack_workload(
        pack: crate::config::HeterogeneityPack,
        peers: usize,
        queries: usize,
        seed: u64,
    ) -> (WorkloadConfig, ContentModel, Trace, Vec<bool>) {
        let mut cfg = WorkloadConfig::reduced(peers, queries, seed);
        cfg.pack = pack;
        let mut rng = SmallRng::seed_from_u64(seed);
        let model = generate_model(&cfg, &mut rng);
        let (trace, alive) = generate_trace(&cfg, &model, &mut rng);
        (cfg, model, trace, alive)
    }

    #[test]
    fn stress_pack_traces_stay_answerable() {
        use crate::config::HeterogeneityPack;
        let (cfg, model, trace, alive) = pack_workload(HeterogeneityPack::stress(), 400, 800, 31);
        cfg.validate();
        let checked = trace.validate(&model, &alive);
        assert!(checked >= 700, "only {checked} stress queries validated");
    }

    #[test]
    fn flash_crowd_compresses_arrivals_inside_the_window() {
        use crate::config::HeterogeneityPack;
        let (_, _, trace, _) = pack_workload(HeterogeneityPack::flash_crowd(), 300, 2_000, 32);
        let times: Vec<u64> = trace
            .events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Query(_)))
            .map(|e| e.time_us)
            .collect();
        let n = times.len();
        let mean_gap = |w: &[u64]| {
            w.windows(2).map(|g| (g[1] - g[0]) as f64).sum::<f64>() / (w.len() - 1) as f64
        };
        // The spike window spans the middle fifth of the query sequence.
        let inside = mean_gap(&times[(n * 2) / 5..(n * 3) / 5]);
        let outside = mean_gap(&times[..n / 3]);
        assert!(
            inside * 3.0 < outside,
            "flash window gaps ({inside:.0} µs) should be ≪ baseline ({outside:.0} µs)"
        );
    }

    #[test]
    fn drift_probes_outside_static_interests() {
        use crate::config::HeterogeneityPack;
        let drifted = HeterogeneityPack {
            drift_strength: 0.8,
            ..HeterogeneityPack::inert()
        };
        let (_, model, trace, _) = pack_workload(drifted, 300, 1_000, 33);
        let outside = |trace: &Trace| {
            trace
                .events
                .iter()
                .filter_map(|e| match &e.event {
                    TraceEvent::Query(q) => Some(q),
                    _ => None,
                })
                .filter(|q| {
                    let class = model.doc(q.target).class;
                    !model.interests[q.requester.index()].contains(class)
                })
                .count()
        };
        assert!(outside(&trace) > 0, "drift must reach uninterested classes");
        // The homogeneous generator picks targets from the requester's own
        // interests by construction — zero escapes.
        let (_, model2, baseline, _) = pack_workload(HeterogeneityPack::inert(), 300, 1_000, 33);
        let baseline_outside = baseline
            .events
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Query(q) => Some(q),
                _ => None,
            })
            .filter(|q| {
                let class = model2.doc(q.target).class;
                !model2.interests[q.requester.index()].contains(class)
            })
            .count();
        assert_eq!(baseline_outside, 0);
    }

    #[test]
    fn hotspot_concentrates_target_popularity() {
        use crate::config::HeterogeneityPack;
        let hot = HeterogeneityPack {
            hotspot_prob: 0.8,
            ..HeterogeneityPack::inert()
        };
        let distinct = |trace: &Trace| {
            let mut targets: Vec<DocId> = trace
                .events
                .iter()
                .filter_map(|e| match &e.event {
                    TraceEvent::Query(q) => Some(q.target),
                    _ => None,
                })
                .collect();
            targets.sort_unstable();
            targets.dedup();
            targets.len()
        };
        let (_, _, hot_trace, _) = pack_workload(hot, 300, 1_500, 34);
        let (_, _, cold_trace, _) = pack_workload(HeterogeneityPack::inert(), 300, 1_500, 34);
        assert!(
            distinct(&hot_trace) * 2 < distinct(&cold_trace),
            "hotspot must concentrate targets ({} vs {})",
            distinct(&hot_trace),
            distinct(&cold_trace)
        );
    }

    #[test]
    fn heavy_tail_produces_repeat_leavers() {
        use crate::config::HeterogeneityPack;
        let tail = HeterogeneityPack {
            session_tail: 0.9,
            ..HeterogeneityPack::inert()
        };
        let repeat_leavers = |trace: &Trace| {
            let mut leavers: Vec<PeerId> = trace
                .events
                .iter()
                .filter_map(|e| match e.event {
                    TraceEvent::Leave(p) => Some(p),
                    _ => None,
                })
                .collect();
            leavers.sort_unstable();
            let total = leavers.len();
            leavers.dedup();
            total - leavers.len() // leave events beyond each peer's first
        };
        let mk = |pack| {
            let mut cfg = WorkloadConfig::reduced(400, 2_000, 35);
            cfg.joins = 150;
            cfg.leaves = 150;
            cfg.pack = pack;
            let mut rng = SmallRng::seed_from_u64(35);
            let model = generate_model(&cfg, &mut rng);
            let (trace, _) = generate_trace(&cfg, &model, &mut rng);
            trace
        };
        let tailed = repeat_leavers(&mk(tail));
        let uniform = repeat_leavers(&mk(HeterogeneityPack::inert()));
        assert!(
            tailed > uniform,
            "rejoin-eviction bias must create repeat leavers ({tailed} vs {uniform})"
        );
    }

    #[test]
    fn query_terms_within_configured_range() {
        let cfg = WorkloadConfig::reduced(300, 400, 27);
        let mut rng = SmallRng::seed_from_u64(27);
        let model = generate_model(&cfg, &mut rng);
        let (trace, _) = generate_trace(&cfg, &model, &mut rng);
        for te in &trace.events {
            if let TraceEvent::Query(q) = &te.event {
                assert!(!q.terms.is_empty());
                assert!(q.terms.len() <= QUERY_TERMS.1);
                assert!(model.doc(q.target).matches(&q.terms));
            }
        }
    }
}
