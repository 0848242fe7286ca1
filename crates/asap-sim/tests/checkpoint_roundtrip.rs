//! Tier 9 companion — checkpoint codec roundtrips under *hostile* engine
//! states (see TESTING.md).
//!
//! The pinned resume goldens prove bit-identical resume for the shipped
//! protocols, but none of those ever calls [`Ctx::cancel_timer`], so their
//! checkpoints carry an empty tombstone set. This tier drives a protocol
//! built to stress exactly the queue shapes the goldens miss — stored timer
//! handles, live tombstones at the split point, retries re-arming timers —
//! and layers randomized fault plans (loss, jitter, duplication, partition
//! cuts) and adversary role maps on top. The load-bearing claims:
//!
//! * encode → decode → re-encode is **byte-identical** for arbitrary
//!   reachable engine states, including tombstoned timers in flight;
//! * resuming under any plan mix finishes auditor-clean with the same
//!   digest as the uninterrupted run;
//! * decode of truncated, bit-flipped, or wrong-version bytes returns a
//!   typed [`CodecError`] — never a panic, never an oversized allocation;
//! * a checksummed-but-wrong checkpoint — a peer id past the world inside a
//!   queued message's payload, or among a flood tracker's visitors — is a
//!   typed error at resume, not an index panic in the run that follows (or
//!   an allocation sized by the corrupt id).

use asap_metrics::MsgClass;
use asap_overlay::{Overlay, OverlayConfig, OverlayKind, PeerId};
use asap_sim::checkpoint::IdBounds;
use asap_sim::collections::DetHashMap;
use asap_sim::event::Scheduled;
use asap_sim::util::SeenTracker;
use asap_sim::{
    codec_enum, query_hit_size, query_size, AdversaryPlan, AuditConfig, Checkpoint,
    CheckpointProtocol, Codec, CodecError, Decoder, Encoder, EngineEvent, EventHandle, FaultPlan,
    Fnv64, PartitionWindow, Protocol, SimReport, Simulation, Transport,
};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{DocId, KeywordId, QuerySpec, Workload, WorkloadConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

const PEERS: usize = 120;
const QUERIES: usize = 150;
// Near the median query round-trip, so a run sees *both* outcomes: some
// replies beat the timer (cancel → tombstone), some timers fire (retry).
const RETRY_DELAY_US: u64 = 30_000;
const MAX_ATTEMPTS: u8 = 2;

/// One outstanding query on the requester side: the armed retry timer plus
/// everything needed to re-ask if it fires.
#[derive(Debug, Clone)]
struct Pending {
    handle: EventHandle,
    requester: PeerId,
    target: DocId,
    terms: Vec<KeywordId>,
    attempts: u8,
}

/// Echo with retries: every query arms a timer whose handle lives in
/// protocol state; a reply **cancels** it (creating a queue tombstone), a
/// firing re-asks and re-arms. Splitting a run mid-flight therefore
/// checkpoints stored handles, live tombstones, and pending retries — the
/// queue shapes none of the shipped protocols produce.
#[derive(Default)]
struct Pinger {
    pending: DetHashMap<u32, Pending>,
    /// Timers cancelled while still pending — i.e. tombstones created.
    cancelled_live: u64,
    retried: u64,
}

/// `origin` repeats the sender inside the payload (the reply goes there),
/// so a queued `Ask` carries a peer id the engine's envelope does not.
#[derive(Debug, Clone)]
enum PingMsg {
    Ask { origin: PeerId, query: u32, terms: Vec<KeywordId> },
    Reply { query: u32 },
}

codec_enum!(PingMsg { 0 => Ask { origin, query, terms }, 1 => Reply { query } });

// Hand-written: the timer handle rides as its raw queue sequence number
// (`EventHandle::raw` / `from_raw` survive checkpoint/resume verbatim).
impl Codec for Pending {
    fn put(&self, enc: &mut Encoder) {
        self.handle.raw().put(enc);
        self.requester.put(enc);
        self.target.put(enc);
        self.attempts.put(enc);
        self.terms.put(enc);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            handle: EventHandle::from_raw(Codec::pull(dec)?),
            requester: Codec::pull(dec)?,
            target: Codec::pull(dec)?,
            attempts: Codec::pull(dec)?,
            terms: Codec::pull(dec)?,
        })
    }
}

fn ask<C: Transport<Msg = PingMsg>>(ctx: &mut C, requester: PeerId, target: DocId, query: u32, terms: &[KeywordId]) {
    let holder = ctx
        .content()
        .holders(target)
        .iter()
        .copied()
        .find(|&h| ctx.alive(h) && h != requester);
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
        let handle = ctx.set_timer(q.requester, RETRY_DELAY_US, u64::from(q.id));
        self.pending.insert(
            q.id,
            Pending {
                handle,
                requester: q.requester,
                target: q.target,
                terms: q.terms.clone(),
                attempts: 0,
            },
        );
    }

    fn on_message<C: Transport<Msg = PingMsg>>(&mut self, ctx: &mut C, to: PeerId, from: PeerId, msg: PingMsg) {
        match msg {
            PingMsg::Ask { origin, query, terms } => {
                debug_assert_eq!(origin, from);
                if ctx.content().peer_matches(ctx.model(), to, &terms) {
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
                if let Some(p) = self.pending.remove(&query) {
                    if ctx.cancel_timer(p.handle) {
                        self.cancelled_live += 1;
                    }
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
        p.handle = ctx.set_timer(p.requester, RETRY_DELAY_US, u64::from(id));
        self.pending.insert(id, p);
    }
}

impl CheckpointProtocol for Pinger {
    fn encode_state(&self, enc: &mut Encoder) {
        self.pending.put(enc);
        self.cancelled_live.put(enc);
        self.retried.put(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        (self.pending, self.cancelled_live, self.retried) = Codec::pull(dec)?;
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
/// — replies cancel armed timers (tombstones), timers fire (retries) — and
/// a mid-run split with tombstones in flight still resumes bit-identically.
#[test]
fn pinger_split_run_is_bit_identical_with_tombstones_in_flight() {
    let seed = 71;
    let (phys, workload, overlay) = world(seed);

    let cold = builder(&phys, &workload, overlay.clone(), seed, None, None).run();
    let cold_digest = digest(&cold, "cold");
    assert!(
        cold.protocol.cancelled_live > 0,
        "replies never cancelled a live timer — the tier is vacuous"
    );
    assert!(cold.protocol.retried > 0, "no timer ever fired");

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
    assert_eq!(cold.protocol.cancelled_live, warm.protocol.cancelled_live);
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
        prop_assert_eq!(cold.protocol.cancelled_live, warm.protocol.cancelled_live);
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
    // magic + version + seed + peers + overlay tag + now + started + halted.
    const HEADER: usize = 8 + 2 + 8 + 8 + 1 + 8 + 1 + 1;
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
                EngineEvent::Deliver { msg: PingMsg::Ask { .. }, .. }
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
    assert_eq!(resume_with(PEERS as u32 - 1), Ok(()), "the last peer is in range");
    for past in [PEERS as u32, u32::MAX] {
        assert_eq!(
            resume_with(past),
            Err(CodecError::Invalid("peer id out of range")),
            "origin {past} resumed"
        );
    }
}

/// The engine keeps one send counter, the profile's `sends`; section [9]
/// repeats it so the format stays byte-identical. A checksummed checkpoint
/// whose [9] disagrees with [10] is a typed error at resume.
#[test]
fn send_counter_disagreeing_with_the_profile_is_rejected() {
    let seed = 74;
    let (phys, workload, overlay) = world(seed);
    let mut sim = builder(&phys, &workload, overlay.clone(), seed, None, None).build();
    sim.run_until(workload.trace.duration_us() / 2);
    let sends = sim.ctx().messages_sent();
    let bytes = sim.checkpoint().into_bytes();
    drop(sim);

    // [9] and the `sends` that opens [10]: the same word twice in a row.
    let pair = [sends.to_le_bytes(), sends.to_le_bytes()].concat();
    let body = &bytes[..bytes.len() - 8];
    let at: Vec<usize> = (0..body.len() - 15).filter(|&i| body[i..i + 16] == pair[..]).collect();
    assert_eq!(at.len(), 1, "the send counter pair is found once");

    let resume_with = |counter: u64| {
        let mut patched = bytes.clone();
        patched[at[0]..at[0] + 8].copy_from_slice(&counter.to_le_bytes());
        reseal(&mut patched);
        let ckpt = Checkpoint::from_bytes(patched).expect("checksum recomputed");
        builder(&phys, &workload, overlay.clone(), seed, None, None)
            .from_checkpoint(&ckpt)
            .map(|_| ())
    };
    assert_eq!(resume_with(sends), Ok(()), "the unpatched counter resumes");
    for wrong in [sends - 1, sends + 1] {
        assert_eq!(
            resume_with(wrong),
            Err(CodecError::Invalid("send counter disagrees with engine profile")),
            "counter {wrong} resumed against sends {sends}"
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
        let version = if version == 1 { 0 } else { version };
        let mut bytes = sample_bytes().to_vec();
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        reseal(&mut bytes);
        prop_assert_eq!(
            Checkpoint::from_bytes(bytes).expect_err("foreign version accepted"),
            CodecError::UnsupportedVersion(version)
        );
    }
}
