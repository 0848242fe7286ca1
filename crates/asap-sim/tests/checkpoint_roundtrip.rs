//! Tier 9 companion — checkpoint codec roundtrips under *hostile* engine
//! states (see TESTING.md).
//!
//! The pinned resume goldens prove bit-identical resume for the shipped
//! protocols. This tier drives a protocol built to keep retry timers in
//! flight at the split point — timers for queries already answered, which
//! fire and find nothing, and timers that re-ask and re-arm — and layers
//! randomized fault plans (loss, jitter, duplication, partition cuts) and
//! adversary role maps on top. The load-bearing claims:
//!
//! * encode → decode → re-encode is **byte-identical** for arbitrary
//!   reachable engine states, including retry timers in flight;
//! * resuming under any plan mix finishes auditor-clean with the same
//!   digest as the uninterrupted run;
//! * decode of truncated, bit-flipped, or wrong-version bytes returns a
//!   typed [`CodecError`] — never a panic, never an oversized allocation;
//! * a checksummed-but-wrong checkpoint — a peer id past the world inside a
//!   queued message's payload, or among a flood tracker's visitors — is a
//!   typed error at resume, not an index panic in the run that follows (or
//!   an allocation sized by the corrupt id); so are content and overlay
//!   sections that break the invariants the run later `expect`s, and an
//!   event-queue, alive-timeline or query-ledger section that breaks the
//!   queue's, the load recorder's or the ledger's own, and a clock at the
//!   engine's clock bound.

use asap_metrics::MsgClass;
use asap_overlay::{Overlay, OverlayConfig, OverlayKind, PeerId};
use asap_sim::checkpoint::{IdBounds, VERSION};
use asap_sim::collections::DetHashMap;
use asap_sim::event::Scheduled;
use asap_sim::util::SeenTracker;
use asap_sim::{
    codec_enum, codec_struct, query_hit_size, query_size, AdversaryPlan, AuditConfig, Checkpoint,
    CheckpointProtocol, Codec, CodecError, Decoder, Encoder, EngineEvent, FaultPlan, Fnv64,
    PartitionWindow, Protocol, SimReport, Simulation, Transport, CLOCK_BOUND_US,
};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::trace::TimedEvent;
use asap_workload::{
    ContentState, DocId, KeywordId, QuerySpec, TraceEvent, Workload, WorkloadConfig,
};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

const PEERS: usize = 120;
const QUERIES: usize = 150;
// Near the median query round-trip, so a run sees *both* outcomes: some
// replies beat their timer, some timers find the query pending and re-ask.
const RETRY_DELAY_US: u64 = 30_000;
const MAX_ATTEMPTS: u8 = 2;

/// One outstanding query on the requester side: everything needed to
/// re-ask when its retry timer fires.
#[derive(Debug, Clone)]
struct Pending {
    requester: PeerId,
    target: DocId,
    terms: Vec<KeywordId>,
    attempts: u8,
}

codec_struct!(Pending {
    requester,
    target,
    attempts,
    terms
});

/// Echo with retries: every query arms a retry timer tagged with its id. A
/// reply drops the pending entry, so the timer finds nothing when it fires
/// and returns, as the shipped protocols' timers do; a timer that finds
/// its query still pending re-asks and re-arms. Splitting a run mid-flight
/// therefore checkpoints pending retries beside timers whose query is
/// already answered.
#[derive(Default)]
struct Pinger {
    pending: DetHashMap<u32, Pending>,
    /// Replies that found their query still pending: their timer will
    /// fire and find nothing.
    beat_timer: u64,
    retried: u64,
}

/// `origin` repeats the sender inside the payload (the reply goes there),
/// so a queued `Ask` carries a peer id the engine's envelope does not.
#[derive(Debug, Clone)]
enum PingMsg {
    Ask {
        origin: PeerId,
        query: u32,
        terms: Vec<KeywordId>,
    },
    Reply {
        query: u32,
    },
}

codec_enum!(PingMsg { 0 => Ask { origin, query, terms }, 1 => Reply { query } });

fn ask<C: Transport<Msg = PingMsg>>(
    ctx: &mut C,
    requester: PeerId,
    target: DocId,
    query: u32,
    terms: &[KeywordId],
) {
    let holder = (0..ctx.model().num_peers() as u32)
        .map(PeerId)
        .find(|&h| h != requester && ctx.alive(h) && ctx.content().peer_has_doc(h, target));
    if let Some(h) = holder {
        ctx.send(
            requester,
            h,
            MsgClass::Query,
            query_size(terms.len()),
            PingMsg::Ask {
                origin: requester,
                query,
                terms: terms.to_vec(),
            },
        );
    }
}

impl Protocol for Pinger {
    type Msg = PingMsg;

    fn on_query<C: Transport<Msg = PingMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
        ask(ctx, q.requester, q.target, q.id, &q.terms);
        ctx.set_timer(q.requester, RETRY_DELAY_US, u64::from(q.id));
        self.pending.insert(
            q.id,
            Pending {
                requester: q.requester,
                target: q.target,
                terms: q.terms.clone(),
                attempts: 0,
            },
        );
    }

    fn on_message<C: Transport<Msg = PingMsg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: PingMsg,
    ) {
        match msg {
            PingMsg::Ask {
                origin,
                query,
                terms,
            } => {
                debug_assert_eq!(origin, from);
                if ctx.content().peer_matches(to, &terms) {
                    ctx.send(
                        to,
                        origin,
                        MsgClass::QueryHit,
                        query_hit_size(1),
                        PingMsg::Reply { query },
                    );
                }
            }
            PingMsg::Reply { query } => {
                if self.pending.remove(&query).is_some() {
                    self.beat_timer += 1;
                }
                ctx.report_answer(query);
            }
        }
    }

    fn on_timer<C: Transport<Msg = PingMsg>>(&mut self, ctx: &mut C, _node: PeerId, tag: u64) {
        let id = tag as u32;
        let Some(mut p) = self.pending.remove(&id) else {
            return;
        };
        if p.attempts >= MAX_ATTEMPTS {
            return;
        }
        p.attempts += 1;
        self.retried += 1;
        ask(ctx, p.requester, p.target, id, &p.terms);
        ctx.set_timer(p.requester, RETRY_DELAY_US, u64::from(id));
        self.pending.insert(id, p);
    }
}

impl CheckpointProtocol for Pinger {
    fn encode_state(&self, enc: &mut Encoder) {
        self.pending.put(enc);
        self.beat_timer.put(enc);
        self.retried.put(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        (self.pending, self.beat_timer, self.retried) = Codec::pull(dec)?;
        Ok(())
    }
}

fn world(seed: u64) -> (PhysicalNetwork, Workload, Overlay) {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, seed));
    let overlay = OverlayConfig::new(OverlayKind::Random, PEERS, seed).build();
    (phys, workload, overlay)
}

fn builder<'w>(
    phys: &'w PhysicalNetwork,
    workload: &'w Workload,
    overlay: Overlay,
    seed: u64,
    faults: Option<&FaultPlan>,
    adversary: Option<&AdversaryPlan>,
) -> asap_sim::SimBuilder<'w, Pinger> {
    let mut b = Simulation::builder(
        phys,
        workload,
        overlay,
        OverlayKind::Random,
        Pinger::default(),
        seed,
    )
    .audit(AuditConfig::default());
    if let Some(f) = faults {
        b = b.faults(f.clone());
    }
    if let Some(a) = adversary {
        b = b.adversary(a.clone());
    }
    b
}

fn digest(report: &SimReport<Pinger>, what: &str) -> u64 {
    let audit = report.audit.as_ref().expect("audited run");
    assert!(
        audit.is_clean(),
        "{what}: violations {:?} (+{} suppressed)",
        audit.violations,
        audit.suppressed
    );
    audit.digest
}

/// Deterministic anchor: the pinger really exercises what this tier is for
/// — some replies beat their timer, some timers re-ask — and a mid-run
/// split with retry timers in flight still resumes bit-identically.
#[test]
fn pinger_split_run_is_bit_identical_with_timers_in_flight() {
    let seed = 71;
    let (phys, workload, overlay) = world(seed);

    let cold = builder(&phys, &workload, overlay.clone(), seed, None, None).run();
    let cold_digest = digest(&cold, "cold");
    assert!(
        cold.protocol.beat_timer > 0,
        "no reply beat its timer — the tier is vacuous"
    );
    assert!(cold.protocol.retried > 0, "no timer ever re-asked");

    // A query resolves within ~2×RETRY_DELAY_US, so an arbitrary midpoint
    // usually lands in a quiet gap with nothing pending. Split 5ms after a
    // mid-trace query instead — its timer is still armed.
    let t_mid = workload
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.event, asap_workload::TraceEvent::Query(_)))
        .nth(QUERIES / 2)
        .expect("mid-trace query")
        .time_us
        + 5_000;
    let mut first = builder(&phys, &workload, overlay.clone(), seed, None, None).build();
    first.run_until(t_mid);
    let ckpt = first.checkpoint();
    // The split must land while timers are pending, else nothing rides.
    assert!(
        !first.protocol().pending.is_empty(),
        "no pending timers at the split point"
    );
    drop(first);

    let ckpt = Checkpoint::from_bytes(ckpt.into_bytes()).expect("self-produced bytes");
    let warm = builder(&phys, &workload, overlay, seed, None, None)
        .from_checkpoint(&ckpt)
        .expect("resume")
        .run();
    assert_eq!(cold_digest, digest(&warm, "warm"), "resume digest diverged");
    assert_eq!(cold.messages_sent, warm.messages_sent);
    assert_eq!(cold.end_time_us, warm.end_time_us);
    assert_eq!(cold.protocol.beat_timer, warm.protocol.beat_timer);
    assert_eq!(cold.protocol.retried, warm.protocol.retried);
}

fn plan_from(
    loss_ppm: u32,
    jitter_max_us: u64,
    duplicate_ppm: u32,
    cut: Option<(u64, u64, u32)>,
) -> Option<FaultPlan> {
    let partitions = cut
        .map(|(start_us, len_us, cut_index)| {
            vec![PartitionWindow {
                start_us,
                end_us: start_us + len_us,
                cut_index,
            }]
        })
        .unwrap_or_default();
    Some(FaultPlan {
        loss_ppm,
        jitter_max_us,
        duplicate_ppm,
        partitions,
    })
}

proptest! {
    // Whole-simulation cases are expensive; a handful of random plan mixes
    // per run is plenty — the deterministic anchors above pin the rest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// encode → decode → reinstall → re-encode is byte-identical, and the
    /// resumed run finishes auditor-clean with the cold digest, for
    /// randomized split points, fault plans, and adversary mixes.
    #[test]
    fn reencode_after_resume_is_byte_identical(
        seed in 0u64..1_000_000,
        split_eighths in 1u64..=7,
        loss_ppm in 0u32..=250_000,
        jitter_max_us in 0u64..=60_000,
        duplicate_ppm in 0u32..=120_000,
        with_cut in 0u32..2,
        cut in (0u64..20_000_000, 1u64..20_000_000, 0u32..(PEERS as u32)),
        spam_ppm in 0u32..=150_000,
        free_rider_ppm in 0u32..=150_000,
    ) {
        let (phys, workload, overlay) = world(seed);
        let faults = plan_from(loss_ppm, jitter_max_us, duplicate_ppm, (with_cut == 1).then_some(cut));
        let adversary = ((spam_ppm | free_rider_ppm) != 0).then(|| AdversaryPlan {
            spam_ppm,
            free_rider_ppm,
            ..AdversaryPlan::none()
        });

        let cold = builder(&phys, &workload, overlay.clone(), seed, faults.as_ref(), adversary.as_ref()).run();
        let cold_digest = digest(&cold, "cold");

        let t_split = workload.trace.duration_us() * split_eighths / 8;
        let mut first =
            builder(&phys, &workload, overlay.clone(), seed, faults.as_ref(), adversary.as_ref()).build();
        first.run_until(t_split);
        let ckpt1 = first.checkpoint();
        drop(first);

        // Byte roundtrip survives validation...
        let ckpt1 = Checkpoint::from_bytes(ckpt1.into_bytes()).expect("self-produced bytes");
        // ...reinstalls losslessly (immediate re-encode is byte-identical)...
        let resumed = builder(&phys, &workload, overlay.clone(), seed, None, None)
            .from_checkpoint(&ckpt1)
            .expect("resume");
        let ckpt2 = resumed.checkpoint();
        prop_assert_eq!(ckpt1.as_bytes(), ckpt2.as_bytes(), "re-encode differs");

        // ...and continues to the cold digest.
        let warm = resumed.run();
        prop_assert_eq!(cold_digest, digest(&warm, "warm"));
        prop_assert_eq!(cold.messages_sent, warm.messages_sent);
        prop_assert_eq!(cold.protocol.beat_timer, warm.protocol.beat_timer);
    }
}

/// One mid-run checkpoint, built once, shared by every corruption proptest
/// below (whole-sim setup is too slow to repeat hundreds of times).
fn sample_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let seed = 72;
        let (phys, workload, overlay) = world(seed);
        let plan = FaultPlan {
            loss_ppm: 30_000,
            jitter_max_us: 40_000,
            ..FaultPlan::none()
        };
        let mut sim = builder(&phys, &workload, overlay, seed, Some(&plan), None).build();
        sim.run_until(workload.trace.duration_us() / 2);
        sim.checkpoint().into_bytes()
    })
}

/// Recompute the trailing checksum after patching body bytes.
fn reseal(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let mut h = Fnv64::new();
    h.write_bytes(&bytes[..body_len]);
    let sum = h.finish();
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
}

/// Checkpoint bytes before section [1]: magic + version + seed + peers +
/// overlay tag + now + started + halted.
const HEADER: usize = 8 + 2 + 8 + 8 + 1 + 8 + 1 + 1;

/// A checkpoint taken halfway through the seed-`seed` run, and a resume of
/// any (resealed) copy of its bytes against the same world.
fn halfway(seed: u64) -> (Vec<u8>, impl Fn(Vec<u8>) -> Result<(), CodecError>) {
    let (phys, workload, overlay) = world(seed);
    let mut sim = builder(&phys, &workload, overlay.clone(), seed, None, None).build();
    sim.run_until(workload.trace.duration_us() / 2);
    let bytes = sim.checkpoint().into_bytes();
    drop(sim);
    let resume = move |bytes: Vec<u8>| {
        let ckpt = Checkpoint::from_bytes(bytes).expect("checksum recomputed");
        builder(&phys, &workload, overlay.clone(), seed, None, None)
            .from_checkpoint(&ckpt)
            .map(|_| ())
    };
    (bytes, resume)
}

/// Where sections [2] (adjacency) and [4] (holdings) sit.
fn overlay_and_content(bytes: &[u8]) -> [Range<usize>; 2] {
    let body = &bytes[..bytes.len() - 8];
    let at = |dec: &Decoder<'_>| body.len() - dec.remaining();
    let mut dec = Decoder::new(body);
    dec.get_bytes(HEADER).expect("header");
    u64::pull(&mut dec).expect("next_seq");
    Vec::<Scheduled<PingMsg>>::pull(&mut dec).expect("queued entries");
    let adjacency = at(&dec);
    Vec::<Vec<PeerId>>::pull(&mut dec).expect("adjacency");
    let liveness = at(&dec);
    dec.get_bytes(PEERS).expect("liveness");
    let holdings = at(&dec);
    Vec::<Vec<DocId>>::pull(&mut dec).expect("holdings");
    [adjacency..liveness, holdings..at(&dec)]
}

/// Where section [6]'s alive timeline sits: after the RNG state of [5]
/// and the load recorder's byte buckets and message totals.
fn alive_timeline(bytes: &[u8]) -> Range<usize> {
    let [_, content] = overlay_and_content(bytes);
    let body = &bytes[..bytes.len() - 8];
    let at = |dec: &Decoder<'_>| body.len() - dec.remaining();
    let mut dec = Decoder::new(body);
    dec.get_bytes(content.end).expect("sections [1] to [4]");
    <[u64; 4]>::pull(&mut dec).expect("section [5]");
    Vec::<[u64; MsgClass::COUNT]>::pull(&mut dec).expect("load buckets");
    <[u64; MsgClass::COUNT]>::pull(&mut dec).expect("message totals");
    let start = at(&dec);
    Vec::<(u64, usize)>::pull(&mut dec).expect("alive steps");
    start..at(&dec)
}

fn decode<T: Codec>(bytes: &[u8]) -> T {
    T::pull(&mut Decoder::new(bytes)).expect("own section")
}

/// `bytes` with the section at `range` replaced by `value`, resealed.
fn spliced<T: Codec>(bytes: &[u8], range: &Range<usize>, value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.put(&mut enc);
    let mut out = [
        &bytes[..range.start],
        &enc.into_bytes(),
        &bytes[range.end..],
    ]
    .concat();
    reseal(&mut out);
    out
}

/// The clock stays below `CLOCK_BOUND_US` (an engine horizon never
/// reaches it), and a protocol may keep a time it reads in 48 bits; a
/// checkpoint whose clock is at the bound is refused before any section
/// is read.
#[test]
fn clock_at_the_clock_bound_is_rejected() {
    let (mut bytes, resume) = halfway(78);
    let now = HEADER - 2 - 8..HEADER - 2;
    bytes[now].copy_from_slice(&CLOCK_BOUND_US.to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        resume(bytes),
        Err(CodecError::Invalid("checkpoint clock past the clock bound"))
    );
}

/// Holdings must be strictly ascending per peer: every content change and
/// `peer_has_doc` binary searches them, so an unsorted list would resume
/// `Ok` and then miss or duplicate a held document.
#[test]
fn holdings_not_strictly_ascending_are_rejected() {
    let (bytes, resume) = halfway(75);
    let [_, at] = overlay_and_content(&bytes);
    let holdings: Vec<Vec<DocId>> = decode(&bytes[at.clone()]);
    let p = holdings
        .iter()
        .position(|h| h.len() >= 2)
        .expect("a peer holding two documents");
    assert_eq!(
        resume(spliced(&bytes, &at, &holdings)),
        Ok(()),
        "re-encoded as it was"
    );

    let mut swapped = holdings.clone();
    swapped[p].swap(0, 1);
    let mut repeated = holdings;
    repeated[p][1] = repeated[p][0];
    for bad in [swapped, repeated] {
        assert_eq!(
            resume(spliced(&bytes, &at, &bad)),
            Err(CodecError::Invalid("holdings not strictly ascending")),
            "{:?} resumed",
            bad[p]
        );
    }
}

/// The alive timeline is appended as the clock moves: its times never
/// decrease and none lies after the clock. A step behind the one before it
/// in the same second resumed `Ok`, then underflowed that second's time
/// weights in the load series: a panic in debug, a huge mean load in
/// release.
#[test]
fn alive_timeline_out_of_order_is_rejected() {
    let (bytes, resume) = halfway(76);
    let now_us = Checkpoint::from_bytes(bytes.clone())
        .expect("sealed")
        .now_us();
    let at = alive_timeline(&bytes);
    let steps: Vec<(u64, usize)> = decode(&bytes[at.clone()]);
    let count = steps.last().expect("the initial step").1;
    let with = |extra: &[(u64, usize)]| {
        let bad = [steps.as_slice(), extra].concat();
        resume(spliced(&bytes, &at, &bad))
    };
    assert_eq!(with(&[]), Ok(()), "re-encoded as it was");
    assert_eq!(
        with(&[(now_us - 1, count), (now_us, count)]),
        Ok(()),
        "a step at the clock itself"
    );
    assert_eq!(
        with(&[(now_us, count), (now_us - 1, count)]),
        Err(CodecError::Invalid("alive timeline goes backwards"))
    );
    assert_eq!(
        with(&[(now_us + 1, count)]),
        Err(CodecError::Invalid("alive step after the clock"))
    );
}

/// A checkpoint taken after content changes, one of them a peer removing a
/// document and adding it back, resumes to content state equal to the
/// uninterrupted run's, re-encodes to the same bytes and finishes with the
/// uninterrupted digest. The live state keeps that peer's list as an edit
/// equal to its initial list; the resumed one, read back by
/// `ContentState::from_parts`, keeps no edit for it. Resuming the same
/// checkpoint still rejects an edited peer's holdings out of order and a
/// document the model lacks, and so does `from_parts` itself.
#[test]
fn content_changes_with_a_re_add_resume_byte_identically() {
    let seed = 79;
    let (phys, mut workload, overlay) = world(seed);
    let t_split = workload.trace.duration_us() / 2;
    let model = &workload.model;
    let peer = (0..PEERS as u32)
        .map(PeerId)
        .find(|&p| model.initial_holdings(p).len() >= 2)
        .expect("a peer sharing two documents");
    let doc = model.initial_holdings(peer)[1];
    let events = &mut workload.trace.events;
    let at = events.partition_point(|e| e.time_us < t_split / 2);
    let t = t_split / 2;
    events.splice(
        at..at,
        [
            TimedEvent {
                time_us: t,
                event: TraceEvent::RemoveDocument { peer, doc },
            },
            TimedEvent {
                time_us: t,
                event: TraceEvent::AddDocument { peer, doc },
            },
        ],
    );
    let changes = events
        .iter()
        .filter(|e| e.time_us < t_split)
        .filter(|e| {
            matches!(
                e.event,
                TraceEvent::AddDocument { .. } | TraceEvent::RemoveDocument { .. }
            )
        })
        .count();
    assert!(
        changes > 3,
        "only the re-add changes content before the split"
    );
    let workload = workload;

    let cold_digest = digest(
        &builder(&phys, &workload, overlay.clone(), seed, None, None).run(),
        "cold",
    );
    let mut first = builder(&phys, &workload, overlay.clone(), seed, None, None).build();
    first.run_until(t_split);
    let live = &first.ctx().content;
    assert_eq!(live.peer_docs(peer), workload.model.initial_holdings(peer));
    assert!(
        live.edited_peers().any(|p| p == peer),
        "the re-added list is not stored as an edit"
    );
    assert!(
        live.edited_peers().count() > 1,
        "no other content change before the split"
    );
    let bytes = first.checkpoint().into_bytes();

    let ckpt = Checkpoint::from_bytes(bytes.clone()).expect("self-produced bytes");
    let resumed = builder(&phys, &workload, overlay.clone(), seed, None, None)
        .from_checkpoint(&ckpt)
        .expect("resume");
    let content = &resumed.ctx().content;
    assert!(*content == *live, "resumed content state differs");
    assert!(
        content.edited_peers().all(|p| p != peer),
        "from_parts stored an edit equal to the initial list"
    );
    assert_eq!(
        resumed.checkpoint().into_bytes(),
        bytes,
        "re-encode differs"
    );
    drop(first);
    assert_eq!(digest(&resumed.run(), "warm"), cold_digest);

    let [_, at] = overlay_and_content(&bytes);
    let holdings: Vec<Vec<DocId>> = decode(&bytes[at.clone()]);
    let resume = |bad: &Vec<Vec<DocId>>| {
        let ckpt = Checkpoint::from_bytes(spliced(&bytes, &at, bad)).expect("resealed");
        builder(&phys, &workload, overlay.clone(), seed, None, None)
            .from_checkpoint(&ckpt)
            .map(|_| ())
    };
    assert_eq!(resume(&holdings), Ok(()), "re-encoded as it was");
    let mut swapped = holdings.clone();
    swapped[peer.index()].swap(0, 1);
    assert_eq!(
        resume(&swapped),
        Err(CodecError::Invalid("holdings not strictly ascending"))
    );
    // The section decoder bounds document ids first; `from_parts` checks
    // them again for callers that do not decode.
    let mut beyond = holdings;
    beyond[peer.index()].push(DocId(workload.model.num_docs() as u32));
    assert_eq!(
        resume(&beyond),
        Err(CodecError::Invalid("doc id out of range"))
    );
    assert_eq!(
        ContentState::from_parts(&workload.model, beyond).map(|_| ()),
        Err(CodecError::Invalid("held document out of range"))
    );
}

/// Adjacency must be undirected, with no self-loop and no neighbor listed
/// twice: `Overlay::detach` `expect`s the reverse of every edge, so a
/// one-sided edge resumed `Ok` and panicked when either end churned.
#[test]
fn adjacency_breaking_the_undirected_invariant_is_rejected() {
    let (bytes, resume) = halfway(77);
    let [at, _] = overlay_and_content(&bytes);
    let adj: Vec<Vec<PeerId>> = decode(&bytes[at.clone()]);
    let p = adj
        .iter()
        .position(|n| n.len() >= 2)
        .expect("a peer with two neighbors");
    let (me, q) = (PeerId(p as u32), adj[p][0]);
    let stranger = (0..PEERS as u32)
        .map(PeerId)
        .find(|&r| r != me && !adj[p].contains(&r))
        .expect("a peer it is not linked to");
    let patched = |edit: &dyn Fn(&mut Vec<Vec<PeerId>>)| {
        let mut bad = adj.clone();
        edit(&mut bad);
        resume(spliced(&bytes, &at, &bad))
    };
    assert_eq!(
        patched(&|a| a[p].reverse()),
        Ok(()),
        "neighbor order is free"
    );

    let invalid = CodecError::Invalid;
    assert_eq!(
        patched(&|a| a[p].push(me)),
        Err(invalid("overlay self-loop"))
    );
    assert_eq!(
        patched(&|a| {
            a[p].push(q);
            a[q.index()].push(me);
        }),
        Err(invalid("overlay duplicate edge"))
    );
    assert_eq!(
        patched(&|a| a[q.index()].retain(|&n| n != me)),
        Err(invalid("overlay edge without its reverse"))
    );
    assert_eq!(
        patched(&|a| a[p].push(stranger)),
        Err(invalid("overlay edge without its reverse"))
    );
}

/// Section [1]: the queue's seq counter and its entries.
struct QueueSection {
    next_seq: u64,
    entries: Vec<Scheduled<PingMsg>>,
}
codec_struct!(QueueSection { next_seq, entries });

/// An edit of section [1], handed the clock of the split.
type QueueEdit<'e> = &'e dyn Fn(&mut QueueSection, u64);

/// A resume of `halfway(seed)`'s checkpoint with section [1] edited.
fn queue_patcher(seed: u64) -> impl Fn(QueueEdit<'_>) -> Result<(), CodecError> {
    let (bytes, resume) = halfway(seed);
    let now_us = Checkpoint::from_bytes(bytes.clone())
        .expect("sealed")
        .now_us();
    let body_len = bytes.len() - 8;
    let mut dec = Decoder::new(&bytes[HEADER..body_len]);
    QueueSection::pull(&mut dec).expect("section [1]");
    let at = HEADER..body_len - dec.remaining();
    move |edit: QueueEdit<'_>| {
        let mut queue: QueueSection = decode(&bytes[at.clone()]);
        edit(&mut queue, now_us);
        resume(spliced(&bytes, &at, &queue))
    }
}

/// Every queued seq was issued by `push`, so it is below `next_seq`; one at
/// `next_seq` would tie with the next push and break the unique
/// `(time, seq)` order `pop` promises.
#[test]
fn queued_entry_with_a_never_issued_seq_is_rejected() {
    let patched = queue_patcher(79);
    assert_eq!(patched(&|_, _| {}), Ok(()), "re-encoded as it was");
    assert_eq!(
        patched(&|q, _| q.entries[0].seq = q.next_seq),
        Err(CodecError::Invalid("queued entry with a never-issued seq"))
    );
}

/// Two queued entries with one seq break the unique `(time, seq)` order.
#[test]
fn queued_entries_sharing_a_seq_are_rejected() {
    let patched = queue_patcher(80);
    assert_eq!(
        patched(&|q, _| q.entries[1].seq = q.entries[0].seq),
        Err(CodecError::Invalid("two queued entries share a seq"))
    );
}

/// Nothing is scheduled before the clock: an entry behind it tripped the
/// engine's "time goes forward" `debug_assert!` at the next step in debug,
/// and turned the clock back in release.
#[test]
fn queued_entry_before_the_clock_is_rejected() {
    let patched = queue_patcher(81);
    assert_eq!(
        patched(&|q, now_us| q.entries[0].time_us = now_us),
        Ok(()),
        "an entry at the clock itself"
    );
    assert_eq!(
        patched(&|q, now_us| q.entries[0].time_us = now_us - 1),
        Err(CodecError::Invalid(
            "queued entry scheduled before the clock"
        ))
    );
}

/// Section [7]: the ledger's raw slot count, then its
/// `(id, issue_us, first_answer_us, answers)` rows by ascending id.
struct LedgerSection {
    raw_len: usize,
    rows: Vec<(u32, u64, Option<u64>, u32)>,
}
codec_struct!(LedgerSection { raw_len, rows });

/// An edit of section [7], handed the clock of the split.
type LedgerEdit<'e> = &'e dyn Fn(&mut LedgerSection, u64);

/// A resume of `halfway(seed)`'s checkpoint with section [7] edited.
fn ledger_patcher(seed: u64) -> impl Fn(LedgerEdit<'_>) -> Result<(), CodecError> {
    let (bytes, resume) = halfway(seed);
    let now_us = Checkpoint::from_bytes(bytes.clone())
        .expect("sealed")
        .now_us();
    let steps = alive_timeline(&bytes);
    let body_len = bytes.len() - 8;
    let mut dec = Decoder::new(&bytes[steps.end..body_len]);
    Vec::<String>::pull(&mut dec).expect("notes");
    let start = body_len - dec.remaining();
    LedgerSection::pull(&mut dec).expect("section [7]");
    let at = start..body_len - dec.remaining();
    move |edit: LedgerEdit<'_>| {
        let mut ledger: LedgerSection = decode(&bytes[at.clone()]);
        edit(&mut ledger, now_us);
        resume(spliced(&bytes, &at, &ledger))
    }
}

/// The first row with an answer.
fn answered(l: &mut LedgerSection) -> &mut (u32, u64, Option<u64>, u32) {
    l.rows
        .iter_mut()
        .find(|r| r.2.is_some())
        .expect("an answered query at the split")
}

const LEDGER_BROKEN: Result<(), CodecError> =
    Err(CodecError::Invalid("query ledger breaks its invariants"));

/// An answer is never recorded before its query is issued. One 1 µs early
/// resumed `Ok`, then underflowed the response-time mean: a panic in debug,
/// a mean of about 10¹⁴ ms in release.
#[test]
fn ledger_answer_before_its_issue_is_rejected() {
    let patched = ledger_patcher(82);
    assert_eq!(patched(&|_, _| {}), Ok(()), "re-encoded as it was");
    assert_eq!(
        patched(&|l, _| {
            let r = answered(l);
            r.2 = Some(r.1);
        }),
        Ok(()),
        "an answer at the issue itself"
    );
    assert_eq!(
        patched(&|l, _| {
            let r = answered(l);
            r.2 = Some(r.1 - 1);
        }),
        LEDGER_BROKEN
    );
}

/// Nothing in the ledger happened after the clock of the split: neither an
/// issue nor a first answer.
#[test]
fn ledger_times_after_the_clock_are_rejected() {
    let patched = ledger_patcher(83);
    let issued_at = |t: u64| {
        move |l: &mut LedgerSection| {
            let r = &mut l.rows[0];
            (r.1, r.2, r.3) = (t, None, 0);
        }
    };
    assert_eq!(
        patched(&|l, now| issued_at(now)(l)),
        Ok(()),
        "issued at the clock"
    );
    assert_eq!(patched(&|l, now| issued_at(now + 1)(l)), LEDGER_BROKEN);
    assert_eq!(
        patched(&|l, now| answered(l).2 = Some(now)),
        Ok(()),
        "answered at the clock"
    );
    assert_eq!(
        patched(&|l, now| answered(l).2 = Some(now + 1)),
        LEDGER_BROKEN
    );
}

/// The answer count and the first-answer time imply each other.
#[test]
fn ledger_answer_count_disagreeing_with_the_first_answer_is_rejected() {
    let patched = ledger_patcher(84);
    assert_eq!(
        patched(&|l, _| answered(l).3 = 0),
        LEDGER_BROKEN,
        "answered zero times"
    );
    assert_eq!(
        patched(&|l, _| answered(l).2 = None),
        LEDGER_BROKEN,
        "answers, no time"
    );
}

/// Every query id is registered once; a row listed twice would overwrite
/// the first silently.
#[test]
fn ledger_query_listed_twice_is_rejected() {
    let patched = ledger_patcher(85);
    assert_eq!(
        patched(&|l, _| l.rows.insert(1, l.rows[0])),
        Err(CodecError::Invalid("query id listed twice in the ledger"))
    );
}

/// A checkpoint can pass the checksum and still be wrong. The engine's
/// envelope (`to`/`from`) was always range-checked; the *payload* of a queued
/// message was not, so a peer id past the world resumed `Ok` and then indexed
/// out of bounds inside `run`. The bounded decoder checks every `PeerId`
/// wherever it sits.
#[test]
fn out_of_range_peer_inside_a_queued_message_is_rejected() {
    let seed = 73;
    let (phys, workload, overlay) = world(seed);
    let mut sim = builder(&phys, &workload, overlay.clone(), seed, None, None).build();
    sim.run_until(workload.trace.duration_us() / 2);
    let bytes = sim.checkpoint().into_bytes();
    drop(sim);

    // Walk section [1] to the first queued `Ask` and note where it starts.
    // time + seq + event tag + to + from + dup + message tag.
    const ORIGIN_AT: usize = 8 + 8 + 1 + 4 + 4 + 1 + 1;
    let body = &bytes[..bytes.len() - 8];
    let mut dec = Decoder::new(body);
    dec.get_bytes(HEADER).expect("header");
    u64::pull(&mut dec).expect("next_seq");
    let queued = dec.get_count().expect("entry count");
    let origin_at = (0..queued)
        .find_map(|_| {
            let at = body.len() - dec.remaining();
            let entry = Scheduled::<PingMsg>::pull(&mut dec).expect("own entry");
            let ask = matches!(
                entry.event,
                EngineEvent::Deliver {
                    msg: PingMsg::Ask { .. },
                    ..
                }
            );
            ask.then_some(at + ORIGIN_AT)
        })
        .expect("an Ask in flight at the split");

    let resume_with = |origin: u32| {
        let mut patched = bytes.clone();
        patched[origin_at..origin_at + 4].copy_from_slice(&origin.to_le_bytes());
        reseal(&mut patched);
        let ckpt = Checkpoint::from_bytes(patched).expect("checksum recomputed");
        builder(&phys, &workload, overlay.clone(), seed, None, None)
            .from_checkpoint(&ckpt)
            .map(|_| ())
    };
    assert_eq!(
        resume_with(PEERS as u32 - 1),
        Ok(()),
        "the last peer is in range"
    );
    for past in [PEERS as u32, u32::MAX] {
        assert_eq!(
            resume_with(past),
            Err(CodecError::Invalid("peer id out of range")),
            "origin {past} resumed"
        );
    }
}

/// The same boundary for the flood trackers' visitor bitsets, which grow to
/// the highest id they are handed: a visitor past the world is refused at
/// decode — a corrupt `u32::MAX` would otherwise become a 512 MB bitset.
#[test]
fn out_of_range_visitor_in_a_seen_tracker_is_rejected() {
    let decode_with = |visitor: u32| {
        let mut tracker: SeenTracker<u32> = SeenTracker::new(4);
        tracker.first_visit(9, 3);
        tracker.first_visit(9, visitor);
        let mut enc = Encoder::new();
        tracker.put(&mut enc);
        let bytes = enc.into_bytes();
        let bounds = IdBounds {
            peers: PEERS,
            ..IdBounds::NONE
        };
        SeenTracker::<u32>::pull(&mut Decoder::new(&bytes).with_bounds(bounds)).map(|mut t| {
            assert!(!t.first_visit(9, 3) && !t.first_visit(9, visitor));
        })
    };
    assert_eq!(decode_with(PEERS as u32 - 1), Ok(()), "last peer");
    for past in [PEERS as u32, u32::MAX] {
        assert_eq!(
            decode_with(past),
            Err(CodecError::Invalid("seen visitor out of range")),
            "visitor {past} decoded"
        );
    }
}

/// A seen tracker decodes only what its encoder writes: each key once, its
/// visitors strictly ascending. A visitor list out of order or a key listed
/// twice used to decode `Ok` and re-encode to other bytes, and the repeated
/// key sat twice in the eviction queue while the map held it once.
#[test]
fn seen_tracker_out_of_canonical_form_is_rejected() {
    let decode = |entries: &[(u32, &[u32])]| {
        let mut enc = Encoder::new();
        enc.put_len(4); // window
        enc.put_len(entries.len());
        for &(key, visitors) in entries {
            enc.put_u32(key);
            enc.put_len(visitors.len());
            for &v in visitors {
                enc.put_u32(v);
            }
        }
        let bytes = enc.into_bytes();
        let bounds = IdBounds {
            peers: PEERS,
            ..IdBounds::NONE
        };
        SeenTracker::<u32>::pull(&mut Decoder::new(&bytes).with_bounds(bounds)).map(|t| {
            let mut again = Encoder::new();
            t.put(&mut again);
            assert_eq!(again.into_bytes(), bytes, "re-encode of {entries:?}");
        })
    };
    assert_eq!(decode(&[(9, &[3, 5]), (2, &[0])]), Ok(()));
    let unsorted = Err(CodecError::Invalid("seen visitors not strictly ascending"));
    assert_eq!(decode(&[(9, &[5, 3])]), unsorted);
    assert_eq!(decode(&[(9, &[3, 3])]), unsorted);
    assert_eq!(
        decode(&[(9, &[3]), (2, &[1]), (9, &[4])]),
        Err(CodecError::Invalid("seen key listed twice"))
    );
}

proptest! {
    /// Every proper prefix decodes to a typed error, never a panic.
    #[test]
    fn truncated_bytes_are_rejected(cut_ppm in 0u32..1_000_000) {
        let bytes = sample_bytes();
        let cut = (bytes.len() as u64 * u64::from(cut_ppm) / 1_000_000) as usize;
        let err = Checkpoint::from_bytes(bytes[..cut].to_vec())
            .expect_err("truncated checkpoint accepted");
        prop_assert!(
            matches!(
                err,
                CodecError::UnexpectedEof | CodecError::BadChecksum | CodecError::BadMagic
            ),
            "unexpected error for {cut}-byte prefix: {err:?}"
        );
    }

    /// Any single bit flip is caught — by the magic, version, or checksum
    /// gate depending on where it lands.
    #[test]
    fn bit_flips_are_rejected(pos_ppm in 0u32..1_000_000, bit in 0u32..8) {
        let mut bytes = sample_bytes().to_vec();
        let pos = (bytes.len() as u64 * u64::from(pos_ppm) / 1_000_000) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            Checkpoint::from_bytes(bytes).is_err(),
            "flipped bit {bit} at byte {pos} went unnoticed"
        );
    }

    /// A foreign version number is reported as such even when the rest of
    /// the file is perfectly valid (checksum recomputed after the patch).
    #[test]
    fn wrong_version_is_typed(version in 0u16..=u16::MAX) {
        // The shim has no `prop_assume`; remap the one valid version.
        let version = if version == VERSION { 0 } else { version };
        let mut bytes = sample_bytes().to_vec();
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        reseal(&mut bytes);
        prop_assert_eq!(
            Checkpoint::from_bytes(bytes).expect_err("foreign version accepted"),
            CodecError::UnsupportedVersion(version)
        );
    }
}

/// The previous format, with a valid checksum over an otherwise valid body,
/// is refused by version: no reader of it is kept.
#[test]
fn previous_version_is_typed() {
    let mut bytes = sample_bytes().to_vec();
    bytes[8..10].copy_from_slice(&(VERSION - 1).to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        Checkpoint::from_bytes(bytes).expect_err("previous version accepted"),
        CodecError::UnsupportedVersion(5)
    );
}
