//! Per-layer metrics: spans and counts of the traced run, plus unit costs
//! from micros that time each layer's public functions.
//!
//! What happens inside `sim.run` is attributed from outside as count × unit
//! cost. The counts are the program's always-on counters (`EngineProfile`,
//! `AsapStats`, `RetryCounters`, `LoadRecorder`); the unit costs come from
//! fixtures sized from the workload — the queue held at that workload's
//! high-water mark, the repository filled to that scale's cache capacity,
//! oracle pairs drawn on that workload's network — best of seven rounds, as
//! `perf.rs` times its micros.

use crate::cell::{Counts, Pieces};
use crate::json::{obj, Json};
use crate::span::Spans;
use crate::spec::{Backend, Workload};
use asap_bloom::hashing::KeyHash;
use asap_bloom::{BloomFilter, BloomParams, CountingBloom, FilterPatch, ProbePlan, WireFilter};
use asap_core::{AdPayload, AdRepository, AdSnapshot, Asap, AsapMsg, Forwarding};
use asap_metrics::{LoadRecorder, MsgClass};
use asap_net::wire::{self, Frame};
use asap_overlay::PeerId;
use asap_search::common::SeenTracker;
use asap_search::{BaselineMsg, Flooding};
use asap_sim::event::{EngineEvent, EventQueue};
use asap_sim::{AuditConfig, Checkpoint, CheckpointProtocol, Protocol, Simulation, Transport};
use asap_topology::PhysNodeId;
use asap_workload::{InterestSet, KeywordId, QuerySpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// `(metric name, value)` pairs; a name absent from the list did not apply.
pub type Values = Vec<(&'static str, f64)>;

/// Best of seven rounds of `iters` calls of `f`, in ns per call. The minimum
/// discards scheduler noise instead of averaging it in.
fn time_ns<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// Keywords an ad's filter holds in the fixtures: a sharer's ~25 documents
/// of 3–8 keywords each.
const KEYS_PER_FILTER: usize = 128;

fn key(i: usize) -> String {
    format!("keyword-{i}")
}

fn hashes(range: std::ops::Range<usize>) -> Vec<KeyHash> {
    range.map(|i| KeyHash::of(&key(i))).collect()
}

fn filter_of(params: BloomParams, range: std::ops::Range<usize>) -> CountingBloom {
    let mut cb = CountingBloom::new(params);
    for h in hashes(range) {
        cb.insert_hash(&h);
    }
    cb
}

fn bloom_micros(params: BloomParams, out: &mut Values) {
    let held = hashes(0..KEYS_PER_FILTER);
    let mut cb = filter_of(params, 0..KEYS_PER_FILTER);
    let extra = hashes(KEYS_PER_FILTER..2 * KEYS_PER_FILTER);
    let n = extra.len() as f64;
    // Insert and remove are timed a batch at a time, so that every round
    // starts from the same filter.
    let (mut insert, mut remove) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 * 8 {
        let t = Instant::now();
        for h in &extra {
            cb.insert_hash(black_box(h));
        }
        insert = insert.min(t.elapsed().as_nanos() as f64 / n);
        let t = Instant::now();
        for h in &extra {
            black_box(cb.remove_hash(black_box(h)));
        }
        remove = remove.min(t.elapsed().as_nanos() as f64 / n);
    }
    out.push(("bloom.insert_ns", insert));
    out.push(("bloom.remove_ns", remove));

    let filter = cb.snapshot();
    let keys: Vec<String> = (0..KEYS_PER_FILTER).map(key).collect();
    let mut i = 0;
    out.push((
        "bloom.query_ns",
        time_ns(20_000, || {
            i = (i + 1) % keys.len();
            filter.contains(&keys[i])
        }),
    ));
    // Queries carry 2–4 terms; a plan merges their probes word by word.
    let plans: Vec<ProbePlan> = held.windows(3).map(|t| ProbePlan::new(params, t)).collect();
    out.push((
        "bloom.probe_ns",
        time_ns(20_000, || {
            i = (i + 1) % plans.len();
            filter.contains_plan(&plans[i])
        }),
    ));
    out.push((
        "bloom.plan_build_ns",
        time_ns(20_000, || {
            i = (i + 1) % (held.len() - 3);
            ProbePlan::new(params, &held[i..i + 3])
        }),
    ));
    // The owned copy: what copy-on-write pays at the first mutation after a
    // shared `snapshot_rc`.
    out.push((
        "bloom.snapshot_ns",
        time_ns(20_000, || black_box(&cb).snapshot()),
    ));
    out.push((
        "bloom.wire_encode_ns",
        time_ns(20_000, || WireFilter::encode(black_box(&filter))),
    ));
    // A content change adds or removes one document: a handful of keywords.
    let changed = {
        let mut cb = filter_of(params, 0..KEYS_PER_FILTER);
        for h in &extra[..5] {
            cb.insert_hash(h);
        }
        cb.snapshot()
    };
    out.push((
        "bloom.patch_diff_ns",
        time_ns(5_000, || {
            FilterPatch::diff(black_box(&filter), black_box(&changed))
        }),
    ));
    let patch = FilterPatch::diff(&filter, &changed);
    let mut target = filter.clone();
    out.push((
        "bloom.patch_apply_ns",
        time_ns(20_000, || black_box(&patch).apply(&mut target)),
    ));
    out.push(("bloom.filter_bytes", params.raw_bytes() as f64));

    // False positives at the design load: fill to the capacity the
    // parameters were sized for, probe keys that were never inserted.
    let capacity = (f64::from(params.bits) * std::f64::consts::LN_2 / f64::from(params.hashes))
        .round() as usize;
    let full = filter_of(params, 0..capacity).snapshot();
    let probes = 400_000;
    let false_positives = (0..probes)
        .filter(|i| full.contains(&format!("absent-{i}")))
        .count();
    out.push((
        "bloom.fp_measured_ppm",
        false_positives as f64 / probes as f64 * 1e6,
    ));
    out.push((
        "bloom.fp_analytic_ppm",
        params.false_positive_rate(capacity) * 1e6,
    ));
}

fn snapshot_of(source: u32, version: u16, filter: Rc<BloomFilter>) -> AdSnapshot {
    AdSnapshot {
        source: PeerId(source),
        topics: InterestSet(1 << (source % 14)),
        version,
        filter,
    }
}

fn core_micros(params: BloomParams, capacity: usize, out: &mut Values) {
    // A repository filled to capacity with distinct filters.
    let filters: Vec<Rc<BloomFilter>> = (0..capacity)
        .map(|s| filter_of(params, s * 7..s * 7 + KEYS_PER_FILTER).snapshot_rc())
        .collect();
    let mut repo = AdRepository::new(capacity);
    for (s, f) in filters.iter().enumerate() {
        repo.insert_full(&snapshot_of(s as u32, 1, Rc::clone(f)), s as u64);
    }
    // One lookup scans every cached ad (`capacity` filters).
    let terms: Vec<Vec<KeyHash>> = (0..64).map(|q| hashes(q * 11..q * 11 + 3)).collect();
    let mut i = 0;
    out.push((
        "core.lookup_ns",
        time_ns(2_000, || {
            i = (i + 1) % terms.len();
            repo.lookup(&terms[i], 1_000_000, 0)
        }),
    ));
    // Patches arrive in version order, one source after another.
    let mut versions = vec![1u16; capacity];
    let mut s = 0;
    out.push((
        "core.apply_patch_ns",
        time_ns(20_000, || {
            s = (s + 1) % capacity;
            versions[s] = versions[s].wrapping_add(1);
            repo.apply_patch(
                PeerId(s as u32),
                versions[s],
                InterestSet(1),
                &filters[(s + 1) % capacity],
                2_000_000,
            )
        }),
    ));
    // A full ad from a source not yet cached, into a full repository: the
    // insert evicts the least recently used entry.
    let mut next = capacity as u32;
    out.push((
        "core.insert_full_ns",
        time_ns(5_000, || {
            next += 1;
            let filter = Rc::clone(&filters[next as usize % capacity]);
            repo.insert_full(&snapshot_of(next, 1, filter), 3_000_000 + u64::from(next))
        }),
    ));
}

fn oracle_micro(pieces: &Pieces, out: &mut Values) {
    let n = pieces.phys.num_nodes() as u32;
    let mut rng = SmallRng::seed_from_u64(pieces.seed);
    // Far more pairs than a cache holds lines: warm on the default network,
    // cold on the 103,872-node one, as the run itself is.
    let pairs: Vec<(PhysNodeId, PhysNodeId)> = (0..1 << 16)
        .map(|_| {
            (
                PhysNodeId(rng.gen_range(0..n)),
                PhysNodeId(rng.gen_range(0..n)),
            )
        })
        .collect();
    let mut i = 0;
    out.push((
        "topology.latency_ns",
        time_ns(pairs.len() as u32, || {
            i = (i + 1) % pairs.len();
            pieces.phys.latency_us(pairs[i].0, pairs[i].1)
        }),
    ));
}

/// Push and pop on a queue held at `hwm` entries: each round pushes a batch
/// ahead of the clock, then pops as many from the front.
fn queue_micros(hwm: usize, seed: u64, out: &mut Values) {
    const WINDOW_US: u64 = 2_000_000;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let event = |rng: &mut SmallRng| EngineEvent::Deliver {
        to: PeerId(rng.gen_range(0..1_000)),
        from: PeerId(0),
        msg: 0u32,
        dup: false,
    };
    for _ in 0..hwm {
        let t = rng.gen_range(0..WINDOW_US);
        let ev = event(&mut rng);
        queue.push(t, ev);
    }
    let batch = (hwm / 4).max(4_096);
    let (mut push, mut pop) = (f64::INFINITY, f64::INFINITY);
    let mut now = 0;
    for _ in 0..7 {
        let times: Vec<u64> = (0..batch)
            .map(|_| now + rng.gen_range(0..WINDOW_US))
            .collect();
        let events: Vec<EngineEvent<u32>> = (0..batch).map(|_| event(&mut rng)).collect();
        let t = Instant::now();
        for (time, ev) in times.into_iter().zip(events) {
            black_box(queue.push(time, ev));
        }
        push = push.min(t.elapsed().as_nanos() as f64 / batch as f64);
        let t = Instant::now();
        for _ in 0..batch {
            if let Some(s) = black_box(queue.pop()) {
                now = s.time_us;
            }
        }
        pop = pop.min(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    out.push(("sim.queue_push_ns", push));
    out.push(("sim.queue_pop_ns", pop));
}

/// The engine floor: a protocol whose handler forwards one message to a
/// neighbour and does nothing else.
struct Relay {
    in_flight: usize,
    hops: u32,
}

impl Protocol for Relay {
    type Msg = u32;

    fn on_init<C: Transport<Msg = u32>>(&mut self, ctx: &mut C) {
        for i in 0..self.in_flight {
            let alive = ctx.alive_peers();
            let from = alive[i % alive.len()];
            if let Some(&to) = ctx.neighbors(from).first() {
                ctx.send(from, to, MsgClass::Query, 64, self.hops);
            }
        }
    }

    fn on_query<C: Transport<Msg = u32>>(&mut self, _ctx: &mut C, _query: &QuerySpec) {}

    fn on_message<C: Transport<Msg = u32>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        _from: PeerId,
        left: u32,
    ) {
        let nbrs = ctx.neighbors(to);
        if left > 0 && !nbrs.is_empty() {
            let next = nbrs[left as usize % nbrs.len()];
            ctx.send(to, next, MsgClass::Query, 64, left - 1);
        }
    }
}

fn null_event_micro(w: &Workload, pieces: &Pieces, hwm: usize, out: &mut Values) {
    // Hold the queue near the workload's high-water mark (the preloaded
    // trace is part of it) and dispatch about two million events, so that
    // the trace events' own cost is as diluted as in the real run.
    let in_flight = hwm
        .saturating_sub(pieces.workload.trace.events.len())
        .max(5_000);
    let hops = (2_000_000 / in_flight).clamp(1, 400) as u32;
    let sim = Simulation::builder(
        &pieces.phys,
        &pieces.workload,
        pieces.overlay.clone(),
        w.overlay,
        Relay { in_flight, hops },
        pieces.seed,
    )
    .build();
    let t = Instant::now();
    let report = sim.run();
    let ns = t.elapsed().as_nanos() as f64;
    let p = report.profile;
    out.push((
        "sim.null_event_ns",
        ns / (p.delivers + p.timers_fired + p.trace_events) as f64,
    ));
}

/// Checkpoint a half-run cell, round-trip it through bytes, resume it.
fn checkpoint_micros<P: CheckpointProtocol>(
    w: &Workload,
    pieces: &Pieces,
    make: impl Fn() -> P,
    out: &mut Values,
) {
    let builder = || {
        Simulation::builder(
            &pieces.phys,
            &pieces.workload,
            pieces.overlay.clone(),
            w.overlay,
            make(),
            pieces.seed,
        )
    };
    let mut sim = builder().build();
    sim.run_until(pieces.workload.trace.duration_us() / 2);
    let t = Instant::now();
    let bytes = sim.checkpoint().into_bytes();
    let encode_s = t.elapsed().as_secs_f64();
    drop(sim);
    let mb = bytes.len() as f64 / 1e6;
    out.push(("sim.checkpoint_bytes", bytes.len() as f64));
    out.push(("sim.checkpoint_encode_mbps", mb / encode_s));
    let t = Instant::now();
    let resumed = Checkpoint::from_bytes(bytes)
        .and_then(|ckpt| builder().from_checkpoint(&ckpt).map(|sim| sim.now_us()));
    let decode_s = t.elapsed().as_secs_f64();
    // A checkpoint that does not resume reports no decode rate, and the
    // missing metric fails the run.
    if resumed.is_ok() {
        out.push(("sim.checkpoint_decode_mbps", mb / decode_s));
    }
}

fn audit_tax(w: &Workload, pieces: &Pieces, run_s: f64, out: &mut Values) {
    let builder = Simulation::builder(
        &pieces.phys,
        &pieces.workload,
        pieces.overlay.clone(),
        w.overlay,
        Flooding::new(Default::default()),
        pieces.seed,
    )
    .audit(AuditConfig::default());
    let t = Instant::now();
    black_box(builder.run());
    out.push(("sim.audit_tax_ratio", t.elapsed().as_secs_f64() / run_s));
}

fn search_and_metrics_micros(out: &mut Values) {
    let mut seen = SeenTracker::new(256);
    let mut i = 0u32;
    out.push((
        "search.seen_first_visit_ns",
        time_ns(200_000, || {
            i = i.wrapping_add(1);
            // A flood visits a few thousand nodes per query.
            seen.first_visit(i >> 12, PeerId(i.wrapping_mul(2_654_435_761) % 1_500))
        }),
    ));
    let mut load = LoadRecorder::new();
    let mut t = 0u64;
    out.push((
        "metrics.load_record_ns",
        time_ns(200_000, || {
            t += 25;
            load.record(t, MsgClass::Query, 60)
        }),
    ));
}

/// Encode and decode one frame; returns `(encode_ns, decode_ns, bytes)`.
fn frame_micro<P: CheckpointProtocol>(frame: &Frame<P::Msg>) -> (f64, f64, f64) {
    let mut buf = Vec::new();
    let encode = time_ns(20_000, || {
        buf.clear();
        wire::encode_frame_into::<P>(frame, &mut buf);
    });
    let decode = time_ns(20_000, || wire::decode_frame_exact::<P>(&buf).is_ok());
    (encode, decode, buf.len() as f64)
}

fn net_micros(params: BloomParams, out: &mut Values) {
    let terms: Rc<[KeywordId]> = vec![KeywordId(1), KeywordId(4), KeywordId(9)].into();
    let small = Frame {
        from: PeerId(3),
        to: PeerId(9),
        class: MsgClass::Query,
        billed: 60,
        msg: BaselineMsg::Flood {
            query: 7,
            requester: PeerId(3),
            terms,
            ttl: 5,
        },
    };
    let (encode, decode, bytes) = frame_micro::<Flooding>(&small);
    out.push(("net.encode_small_ns", encode));
    out.push(("net.decode_small_ns", decode));
    out.push(("net.frame_small_bytes", bytes));
    let snap = snapshot_of(3, 1, filter_of(params, 0..KEYS_PER_FILTER).snapshot_rc());
    let ad = Frame {
        from: PeerId(3),
        to: PeerId(9),
        class: MsgClass::FullAd,
        billed: snap.encoded_size() as u32,
        msg: AsapMsg::Ad {
            payload: AdPayload::Full(snap),
            fwd: Forwarding::Walk { budget: 100 },
            delivery: 1,
        },
    };
    let (encode, decode, bytes) = frame_micro::<Asap>(&ad);
    out.push(("net.encode_ad_ns", encode));
    out.push(("net.decode_ad_ns", decode));
    out.push(("net.frame_ad_bytes", bytes));
}

/// Run the micros that apply to `w`, on fixtures sized from its traced run.
pub fn micros(w: &Workload, pieces: &Pieces, counts: &Counts, run_s: f64) -> Values {
    let mut out = Values::new();
    let hwm = counts.profile.map_or(0, |p| p.queue_hwm);
    oracle_micro(pieces, &mut out);
    queue_micros(hwm, pieces.seed, &mut out);
    null_event_micro(w, pieces, hwm, &mut out);
    search_and_metrics_micros(&mut out);
    if w.algo.is_asap() {
        let config = w.algo.asap_config(w.scale);
        bloom_micros(config.bloom, &mut out);
        core_micros(config.bloom, config.cache_capacity, &mut out);
        if w.backend == Backend::Net {
            net_micros(config.bloom, &mut out);
        }
        if w.checkpoint_micro {
            checkpoint_micros(
                w,
                pieces,
                || w.algo.build_asap(w.scale, &pieces.workload.model),
                &mut out,
            );
        }
    }
    if w.audit_micro {
        audit_tax(w, pieces, run_s, &mut out);
    }
    out
}

/// What the traced child knows once its runs and micros are done.
pub struct Traced<'a> {
    pub w: &'a Workload,
    pub pieces: &'a Pieces,
    pub spans: &'a Spans,
    /// Counters of run 0 (on the net workload: of the sim reference run,
    /// which dispatches the same events — the loopback keeps no profile).
    pub counts: &'a Counts,
    pub trace_records: u64,
    pub micros: &'a Values,
    pub wire_errors: u64,
    pub rss_after_setup_mb: f64,
    /// `VmHWM` after the sim reference run (net workload only).
    pub rss_after_reference_mb: Option<f64>,
    pub rss_after_cell_mb: f64,
    pub wall_ns: u64,
}

/// Assemble every per-layer metric that applies to the workload.
pub fn measured(t: &Traced<'_>) -> Values {
    let (w, spans, counts) = (t.w, t.spans, t.counts);
    let micro = |name: &str| {
        t.micros
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut out = t.micros.clone();

    // Spans of run 0; on the net workload the sim engine's spans come from
    // the reference run (run 2).
    let sim_run = if w.backend == Backend::Net { 2 } else { 0 };
    let run_name = if w.backend == Backend::Net {
        "net.run"
    } else {
        "sim.run"
    };
    let run_s = spans.seconds(run_name, 0);
    let sim_run_s = spans.seconds("sim.run", sim_run);
    out.push(("topology.generate_s", spans.seconds("topology.generate", 0)));
    out.push(("topology.nodes", t.pieces.phys.num_nodes() as f64));
    out.push(("overlay.build_s", spans.seconds("overlay.build", 0)));
    out.push(("overlay.clone_s", spans.seconds("overlay.clone", 0)));
    out.push(("overlay.edges", t.pieces.overlay.num_edges() as f64));
    out.push(("workload.generate_s", spans.seconds("workload.generate", 0)));
    out.push((
        "workload.trace_events",
        t.pieces.workload.trace.events.len() as f64,
    ));
    out.push(("core.build_s", spans.seconds("core.build", 0)));
    out.push(("sim.assemble_s", spans.seconds("sim.assemble", 0)));
    out.push(("sim.run_s", sim_run_s));
    out.push(("bench.finish_s", spans.seconds("bench.finish", 0)));

    // Counts.
    let profile = counts.profile.unwrap_or_default();
    let events = counts.events().unwrap_or(0) as f64;
    let sends = profile.sends as f64;
    out.push(("sim.events", events));
    out.push(("sim.sends", sends));
    out.push(("sim.queue_hwm", profile.queue_hwm as f64));
    out.push(("sim.ns_per_event", ratio(sim_run_s * 1e9, events)));
    out.push(("sim.events_per_s", ratio(events, sim_run_s)));
    out.push((
        "sim.rss_run_delta_mb",
        t.rss_after_cell_mb - t.rss_after_setup_mb,
    ));
    let searches = t.pieces.workload.trace.num_queries() as f64;
    out.push(("search.msgs_per_query", ratio(sends, searches)));
    out.push((
        "search.dup_suppressed_ratio",
        ratio(counts.dup_suppressed as f64, profile.delivers as f64),
    ));
    if let Some(asap) = &counts.asap {
        let s = &asap.stats;
        out.push((
            "core.local_hit_ratio",
            ratio(s.local_lookup_hits as f64, searches),
        ));
        out.push((
            "core.confirm_waste_ratio",
            ratio(
                (s.confirms_sent - s.confirms_positive) as f64,
                s.confirms_sent as f64,
            ),
        ));
        out.push(("core.fallback_rounds", s.fallback_rounds as f64));
        out.push(("core.full_deliveries", s.full_deliveries as f64));
        out.push(("core.patch_deliveries", s.patch_deliveries as f64));
        out.push(("core.refresh_deliveries", s.refresh_deliveries as f64));
        out.push(("core.cached_ads", asap.cached_ads as f64));
        // Computed, not measured: filters are shared between cachers, so
        // this is what the caches would hold if each kept its own copy.
        let bytes = w.algo.asap_config(w.scale).bloom.raw_bytes();
        out.push((
            "core.ad_cache_mb",
            asap.cached_ads as f64 * bytes as f64 / 1e6,
        ));
    }

    // Tracing: run 1 is run 0 with the `Recorder` attached.
    let traced_s = spans.seconds(run_name, 1);
    out.push(("trace.tax_ratio", ratio(traced_s - run_s, run_s)));
    out.push(("trace.records", t.trace_records as f64));
    out.push((
        "trace.record_ns",
        ratio((traced_s - run_s) * 1e9, t.trace_records as f64),
    ));
    out.push((
        "trace.span_coverage",
        spans.covered_ns() as f64 / t.wall_ns as f64,
    ));

    // Net: every send is one frame, encoded once and decoded once.
    let mut wire_ns = 0.0;
    if let Some(reference_mb) = t.rss_after_reference_mb {
        let frames = sends;
        out.push(("net.run_s", run_s));
        out.push(("net.frames", frames));
        out.push(("net.wire_errors", t.wire_errors as f64));
        out.push(("net.over_sim_ratio", ratio(run_s, sim_run_s)));
        out.push((
            "net.rss_over_sim_ratio",
            ratio(t.rss_after_cell_mb, reference_mb),
        ));
        out.push(("net.ns_per_frame", ratio(run_s * 1e9, frames)));
        let ads = (counts.class_msgs[MsgClass::FullAd.index()]
            + counts.class_msgs[MsgClass::AdsReply.index()]) as f64;
        wire_ns = ads * (micro("net.encode_ad_ns") + micro("net.decode_ad_ns"))
            + (frames - ads) * (micro("net.encode_small_ns") + micro("net.decode_small_ns"));
    }

    // Attribution of the run (`net.run_s` on the net workload). One thread,
    // nothing contends: a faster layer saves at most its share.
    let run_ns = run_s * 1e9;
    let queue = ratio(
        sends * micro("sim.queue_push_ns") + events * micro("sim.queue_pop_ns"),
        run_ns,
    );
    let oracle = ratio(sends * micro("topology.latency_ns"), run_ns);
    let load = ratio(sends * micro("metrics.load_record_ns"), run_ns);
    let wire = ratio(wire_ns, run_ns);
    // The engine floor is what the same events cost with an empty handler;
    // queue, oracle and load are parts of it, the handler is the rest.
    let floor = ratio(events * micro("sim.null_event_ns"), run_ns);
    out.push(("attrib.queue_share", queue));
    out.push(("attrib.oracle_share", oracle));
    out.push(("attrib.load_share", load));
    out.push(("attrib.wire_share", wire));
    out.push(("attrib.handler_share", 1.0 - floor - wire));
    out.push(("attrib.unexplained_share", floor - queue - oracle - load));
    out
}

pub fn to_json(values: &Values) -> Json {
    obj(values.iter().map(|&(n, v)| (n, Json::from(v))))
}
