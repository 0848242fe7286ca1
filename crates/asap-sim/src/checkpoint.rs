//! Checkpoint/resume: serialize the full engine state at a virtual
//! timestamp and continue bit-identically.
//!
//! The format is versioned, little-endian and fixed-field-order, with no
//! external serialization dependency (see DESIGN.md §6d for the field-order
//! specification). Every serialized type has one [`Codec`] definition —
//! the trait, its container impls and the `codec_struct!`/`codec_enum!`
//! field-list macros live in [`asap_overlay::codec`] and are re-exported
//! here — so this module is the engine's field lists plus the section
//! order of a checkpoint body. Everything behavior-relevant is captured:
//! the event queue with uncollected tombstones, overlay adjacency verbatim
//! (neighbor order is `swap_remove` history), the per-peer content
//! holdings, every RNG stream's raw state, the auditor's running digest
//! word and mirrors, fault/adversary layer state, metrics, and the
//! protocol's own per-node state via [`CheckpointProtocol`]. A run split as
//! `run_until(t)` → `checkpoint()` → resume → `run()` produces the same
//! audit digest as the uninterrupted run, bit for bit.
//!
//! Deliberately *not* serialized:
//!
//! * the trace sink — passive observation, never part of engine state;
//! * the horizon and trace end — recomputed from the builder at resume, so
//!   a warm-started sweep can vary horizon grace across cells;
//! * derived state (per-peer keyword signatures, alive lists, adversary
//!   role maps, physical placement) — recomputed deterministically from the
//!   restored primary state and the validated-equal run seed.
//!
//! Decoding is fully validated and panic-free: corrupted, truncated, or
//! wrong-version bytes yield a typed [`CodecError`], never a panic; a
//! trailing FNV-1a checksum over the body rejects bit flips up front, and
//! the resume decoder carries the world's [`IdBounds`], so every peer,
//! document and keyword id anywhere in the body — in-flight message
//! payloads included — is range-checked by its own `Codec` impl. The
//! overlay, content and query-ledger sections must also keep the invariants
//! the run later relies on (undirected adjacency; strictly ascending
//! holdings; no answer before its issue or after the clock), so a
//! checksummed-but-inconsistent checkpoint is a typed error at resume
//! rather than a panic at the next churn event or in the report.

use crate::adversary::{AdversaryPlan, AdversaryState, AdversaryStats, EclipseTarget};
use crate::audit::SimAuditor;
use crate::engine::{EngineProfile, Protocol, SimBuilder, Simulation};
use crate::event::{EngineEvent, EventQueue, Scheduled};
use crate::fault::{FaultPlan, FaultState, FaultStats, PartitionWindow};
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger, RetryCounters};
use asap_overlay::{codec_enum, codec_struct, Overlay, OverlayKind, PeerId};
use asap_topology::PhysicalNetwork;
use asap_workload::{ContentState, DocId, Workload};
use rand::rngs::SmallRng;

pub use asap_overlay::codec::{
    assert_canonical, Codec, CodecError, Decoder, Encoder, Fnv64, IdBounds,
};

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"ASAPCKPT";
/// Current format version. Decoders reject anything else.
pub const VERSION: u16 = 5;
/// Trailing checksum width (FNV-1a 64 over the body).
const TRAILER: usize = 8;
/// Upper bound on the ledger's raw slot vector accepted at decode time.
/// Query ids are dense per run; this caps the preallocation a corrupted
/// (but checksum-colliding) length field could demand.
const MAX_LEDGER_SLOTS: usize = 1 << 24;

/// A protocol whose messages and per-node state can ride a checkpoint (and,
/// through the same message [`Codec`], an `asap-net` wire frame).
///
/// Implementations must encode *canonically* (deterministic iteration
/// order) so that encode → decode → re-encode is byte-identical, and must
/// decode without panicking — malformed state returns [`CodecError`].
pub trait CheckpointProtocol: Protocol<Msg: Codec> {
    /// Serialize the protocol's own dynamic state (per-node tables,
    /// pending searches, dedup windows, stats...). Static configuration is
    /// *not* serialized — the resume caller reconstructs the protocol with
    /// the same configuration it used for the original run.
    fn encode_state(&self, enc: &mut Encoder);

    /// Restore dynamic state over a freshly configured protocol instance.
    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError>;
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

// --- the engine's field lists ---------------------------------------------

codec_enum!(EngineEvent<M> {
    0 => Deliver { to, from, dup, msg },
    1 => Timer { node, tag },
    2 => Trace(ev),
});
codec_struct!(Scheduled<M> { time_us, seq, event });
codec_struct!(EngineProfile {
    sends,
    delivers,
    timers_fired,
    timers_set,
    trace_events,
    trace_records,
    queue_hwm,
    past_horizon,
});
codec_struct!(PartitionWindow {
    start_us,
    end_us,
    cut_index
});
codec_struct!(FaultStats {
    dropped,
    partitioned,
    duplicated,
    jittered,
    decisions
});
codec_struct!(EclipseTarget {
    victim,
    captured_links
});
codec_struct!(AdversaryStats {
    absorbed,
    spam_peers,
    free_riders,
    eclipsed_edges
});

/// The raw state words of one RNG stream.
struct RngState([u64; 4]);

// Hand-written: the all-zero state is the generator's one invalid state.
impl Codec for RngState {
    fn put(&self, enc: &mut Encoder) {
        self.0.put(enc);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match <[u64; 4]>::pull(dec)? {
            [0, 0, 0, 0] => Err(CodecError::Invalid("all-zero rng state")),
            words => Ok(Self(words)),
        }
    }
}

// Hand-written: a decoded plan must pass `FaultPlan::validate`.
impl Codec for FaultPlan {
    fn put(&self, enc: &mut Encoder) {
        self.loss_ppm.put(enc);
        self.jitter_max_us.put(enc);
        self.duplicate_ppm.put(enc);
        self.partitions.put(enc);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (loss_ppm, jitter_max_us, duplicate_ppm, partitions) = Codec::pull(dec)?;
        let plan = Self {
            loss_ppm,
            jitter_max_us,
            duplicate_ppm,
            partitions,
        };
        match plan.validate() {
            Ok(()) => Ok(plan),
            Err(_) => Err(CodecError::Invalid("fault plan fails validation")),
        }
    }
}

// Hand-written: a decoded plan must pass `AdversaryPlan::validate`.
impl Codec for AdversaryPlan {
    fn put(&self, enc: &mut Encoder) {
        self.spam_ppm.put(enc);
        self.free_rider_ppm.put(enc);
        self.eclipse.put(enc);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (spam_ppm, free_rider_ppm, eclipse) = Codec::pull(dec)?;
        let plan = Self {
            spam_ppm,
            free_rider_ppm,
            eclipse,
        };
        match plan.validate() {
            Ok(()) => Ok(plan),
            Err(_) => Err(CodecError::Invalid("adversary plan fails validation")),
        }
    }
}

// Hand-written: the layer's RNG is rebuilt from its raw stream words.
impl Codec for FaultState {
    fn put(&self, enc: &mut Encoder) {
        self.plan().put(enc);
        RngState(self.rng_state()).put(enc);
        self.stats().put(enc);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (plan, RngState(rng), stats) = Codec::pull(dec)?;
        Ok(Self::from_parts(plan, rng, stats))
    }
}

/// One registered ledger record as it rides the checkpoint:
/// `(id, issue_us, first_answer_us, answers)` — the shape
/// [`QueryLedger::from_parts`] takes.
type LedgerRow = (u32, u64, Option<u64>, u32);

/// What section [12] holds for an attached adversary layer; the role map is
/// re-derived from `(plan, num_peers, run_seed)` at decode.
type AdversaryParts = (AdversaryPlan, AdversaryStats);

// --- the checkpoint object ------------------------------------------------

/// A serialized simulation state: opaque bytes plus the header fields a
/// resume caller needs to reconstruct the matching world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    bytes: Vec<u8>,
    run_seed: u64,
    num_peers: usize,
    overlay_kind: OverlayKind,
    now_us: u64,
}

impl Checkpoint {
    /// Validate magic, version, and the trailing checksum, and parse the
    /// header. Section payloads are validated later, during
    /// [`SimBuilder::from_checkpoint`], where the world they must be
    /// consistent with is known.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CodecError> {
        if bytes.len() < MAGIC.len() + 2 + TRAILER {
            return Err(CodecError::UnexpectedEof);
        }
        let (body, tail) = bytes.split_at(bytes.len() - TRAILER);
        let mut dec = Decoder::new(body);
        preamble(&mut dec)?;
        if checksum(body) != u64::pull(&mut Decoder::new(tail))? {
            return Err(CodecError::BadChecksum);
        }
        let header = Header::pull(&mut dec)?;
        Ok(Self {
            bytes,
            run_seed: header.run_seed,
            num_peers: header.num_peers,
            overlay_kind: header.overlay_kind,
            now_us: header.now_us,
        })
    }

    /// The serialized form (magic through checksum), e.g. for writing to a
    /// file. `from_bytes` accepts exactly this.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The seed of the run this checkpoint was taken from. Resume requires
    /// an identically seeded world.
    pub fn run_seed(&self) -> u64 {
        self.run_seed
    }

    pub fn num_peers(&self) -> usize {
        self.num_peers
    }

    pub fn overlay_kind(&self) -> OverlayKind {
        self.overlay_kind
    }

    /// Virtual time of the last event dispatched before the checkpoint.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }
}

/// The fields between the version word and section [1].
struct Header {
    run_seed: u64,
    num_peers: usize,
    overlay_kind: OverlayKind,
    now_us: u64,
    started: bool,
    halted: bool,
}
codec_struct!(Header {
    run_seed,
    num_peers,
    overlay_kind,
    now_us,
    started,
    halted
});

/// The magic and the version word every checkpoint opens with.
fn preamble(dec: &mut Decoder<'_>) -> Result<(), CodecError> {
    if dec.get_bytes(MAGIC.len())? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    match u16::pull(dec)? {
        VERSION => Ok(()),
        other => Err(CodecError::UnsupportedVersion(other)),
    }
}

// --- serialization --------------------------------------------------------

impl<'a, P: CheckpointProtocol> Simulation<'a, P> {
    /// Serialize the complete engine state at the current virtual time.
    /// Callable at any point between events — before the first event, at a
    /// [`Simulation::run_until`] split, or after the run halted.
    pub fn checkpoint(&self) -> Checkpoint {
        let ctx = &self.ctx;
        let mut enc = Encoder::new();
        self.encode_body(&mut enc);
        let mut bytes = enc.into_bytes();
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        Checkpoint {
            bytes,
            run_seed: ctx.run_seed,
            num_peers: ctx.alive.len(),
            overlay_kind: ctx.overlay_kind,
            now_us: ctx.now_us,
        }
    }

    /// Everything the trailing checksum covers: preamble, header, sections
    /// [1]–[13].
    fn encode_body(&self, enc: &mut Encoder) {
        let ctx = &self.ctx;
        enc.put_bytes(&MAGIC);
        VERSION.put(enc);
        Header {
            run_seed: ctx.run_seed,
            num_peers: ctx.alive.len(),
            overlay_kind: ctx.overlay_kind,
            now_us: ctx.now_us,
            started: self.started,
            halted: self.halted,
        }
        .put(enc);

        // [1] Event queue: allocation counter, surviving entries in
        // canonical (time, seq) order, uncollected tombstones (ascending).
        ctx.queue.next_seq().put(enc);
        enc.put_seq(ctx.queue.entries_sorted());
        ctx.queue.cancelled_sorted().put(enc);
        // [2] Overlay adjacency, verbatim (neighbor order is history).
        enc.put_seq(ctx.overlay.adjacency());
        // [3] Liveness bitmap (count pinned to num_peers by the header).
        for a in &ctx.alive {
            a.put(enc);
        }
        // [4] Content: holdings sorted per peer.
        enc.put_seq(ctx.content.parts());
        // [5] Engine RNG stream.
        RngState(ctx.rng.state()).put(enc);
        // [6] Load recorder: buckets, message totals, alive steps, notes.
        enc.put_seq(ctx.load.buckets());
        ctx.load.class_message_totals().put(enc);
        enc.put_seq(ctx.load.alive_steps());
        enc.put_seq(ctx.load.notes());
        // [7] Query ledger: raw slot length, then registered records by
        // ascending id.
        ctx.ledger.raw_len().put(enc);
        let rows = ctx.ledger.records_with_ids();
        let rows: Vec<LedgerRow> = rows
            .map(|(id, r)| (id, r.issue_us, r.first_answer_us, r.answers))
            .collect();
        rows.put(enc);
        // [8] Robustness counters, [9] engine profile (whose `sends` is the
        // engine's one send counter).
        ctx.retry.counts().put(enc);
        ctx.profile.put(enc);
        // [10] Auditor, [11] fault layer, [12] adversary layer (all optional).
        ctx.audit.put(enc);
        ctx.faults.put(enc);
        let adversary = ctx.adversary.as_deref();
        let adversary: Option<AdversaryParts> = adversary.map(|a| (a.plan().clone(), *a.stats()));
        adversary.put(enc);
        // [13] Protocol dynamic state.
        self.protocol.encode_state(enc);
    }

    /// One-call resume: rebuild the world from the same inputs the original
    /// run used (the checkpoint pins the seed) and restore the state.
    pub fn resume(
        phys: &'a PhysicalNetwork,
        workload: &'a Workload,
        overlay: Overlay,
        overlay_kind: OverlayKind,
        protocol: P,
        ckpt: &Checkpoint,
    ) -> Result<Self, CodecError> {
        Simulation::builder(
            phys,
            workload,
            overlay,
            overlay_kind,
            protocol,
            ckpt.run_seed(),
        )
        .from_checkpoint(ckpt)
    }
}

impl<'a, P: Protocol> SimBuilder<'a, P> {
    /// Finish the builder by restoring a checkpoint instead of starting
    /// fresh. The builder must describe the same world the checkpoint was
    /// taken from — same seed, peer count, and overlay kind (validated
    /// here; the workload and topology follow deterministically from the
    /// seed). Optional layers (audit, faults, adversary) are taken
    /// exclusively from the checkpoint: layers attached on the builder are
    /// discarded, absent layers stay absent. The builder's trace sink and
    /// horizon-grace override are kept — both are outside checkpointed
    /// state.
    pub fn from_checkpoint(self, ckpt: &Checkpoint) -> Result<Simulation<'a, P>, CodecError>
    where
        P: CheckpointProtocol,
    {
        let mut sim = self.build();
        let num_peers = sim.ctx.alive.len();
        let num_docs = sim.ctx.model.num_docs();
        if ckpt.run_seed != sim.ctx.run_seed {
            return Err(CodecError::Invalid("checkpoint seed differs from builder"));
        }
        if ckpt.num_peers != num_peers {
            return Err(CodecError::Invalid(
                "checkpoint peer count differs from builder",
            ));
        }
        if ckpt.overlay_kind != sim.ctx.overlay_kind {
            return Err(CodecError::Invalid(
                "checkpoint overlay kind differs from builder",
            ));
        }

        // Every id decoded below — wherever it sits, message payloads
        // included — is checked against this world by its own `Codec`.
        let body = &ckpt.bytes[..ckpt.bytes.len() - TRAILER];
        let mut dec = Decoder::new(body).with_bounds(IdBounds {
            peers: num_peers,
            docs: num_docs,
            keywords: sim.ctx.model.vocab.len(),
        });
        preamble(&mut dec)?;
        let header = Header::pull(&mut dec)?;

        // [1] Event queue, checked against the queue's own invariants.
        let next_seq = u64::pull(&mut dec)?;
        let entries: Vec<Scheduled<P::Msg>> = Codec::pull(&mut dec)?;
        let cancelled: Vec<u64> = Codec::pull(&mut dec)?;
        let queue = EventQueue::from_parts(header.now_us, next_seq, entries, cancelled)?;
        // [2] Overlay: the undirected invariant `detach` relies on is
        // checked here, not met as a panic mid-run.
        let adj: Vec<Vec<PeerId>> = Codec::pull(&mut dec)?;
        if adj.len() != num_peers {
            return Err(CodecError::Invalid("overlay size mismatch"));
        }
        let overlay = Overlay::from_adjacency(adj)?;
        // [3] Liveness.
        let mut alive = Vec::with_capacity(num_peers);
        for _ in 0..num_peers {
            alive.push(bool::pull(&mut dec)?);
        }
        // [4] Content, checked against the model and its own invariants.
        let holdings: Vec<Vec<DocId>> = Codec::pull(&mut dec)?;
        let content = ContentState::from_parts(sim.ctx.model, holdings)?;
        // [5] Engine RNG.
        let RngState(rng_state) = Codec::pull(&mut dec)?;
        // [6] Load recorder: buckets, message totals, alive steps, notes.
        let buckets: Vec<[u64; MsgClass::COUNT]> = Codec::pull(&mut dec)?;
        let msg_totals = Codec::pull(&mut dec)?;
        let alive_steps = Codec::pull(&mut dec)?;
        let notes = Codec::pull(&mut dec)?;
        // [7] Query ledger, checked against the ledger's own invariants at
        // the header's clock: an answer before its issue would underflow
        // the response-time mean in the report.
        let raw_len = usize::pull(&mut dec)?;
        if raw_len > MAX_LEDGER_SLOTS {
            return Err(CodecError::Invalid("ledger slot count implausibly large"));
        }
        let rows: Vec<LedgerRow> = Codec::pull(&mut dec)?;
        if rows.iter().any(|row| row.0 as usize >= raw_len) {
            return Err(CodecError::Invalid("query id past ledger length"));
        }
        let listed = rows.len();
        let ledger = QueryLedger::from_parts(raw_len, rows);
        if ledger.num_queries() != listed {
            return Err(CodecError::Invalid("query id listed twice in the ledger"));
        }
        if !ledger.check_consistency(header.now_us).is_empty() {
            return Err(CodecError::Invalid("query ledger breaks its invariants"));
        }
        // [8] Robustness counters, [9] engine profile.
        let retry = RetryCounters::from_counts(Codec::pull(&mut dec)?);
        let profile = EngineProfile::pull(&mut dec)?;
        // [10] Auditor.
        let audit: Option<Box<SimAuditor>> = Codec::pull(&mut dec)?;
        if audit.as_ref().is_some_and(|a| a.mirror_len() != num_peers) {
            return Err(CodecError::Invalid("auditor liveness mirror size mismatch"));
        }
        // [11] Fault layer, [12] adversary layer.
        let faults: Option<Box<FaultState>> = Codec::pull(&mut dec)?;
        let adversary: Option<AdversaryParts> = Codec::pull(&mut dec)?;
        // [13] Protocol dynamic state.
        sim.protocol.decode_state(&mut dec)?;
        dec.finish()?;

        // Everything decoded cleanly — install the restored state. The
        // builder-assembled queue, overlay, content, metrics, and optional
        // layers are replaced wholesale; derived liveness views are
        // recomputed from the restored bitmap.
        let ctx = &mut sim.ctx;
        ctx.queue = queue;
        ctx.overlay = overlay;
        ctx.alive_count = alive.iter().filter(|&&a| a).count();
        ctx.alive_list = alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| PeerId(i as u32))
            .collect();
        ctx.alive = alive;
        ctx.content = content;
        ctx.rng = SmallRng::from_state(rng_state);
        ctx.load = LoadRecorder::from_parts(buckets, msg_totals, alive_steps, notes);
        ctx.ledger = ledger;
        ctx.retry = retry;
        ctx.profile = profile;
        ctx.now_us = header.now_us;
        ctx.audit = audit;
        ctx.faults = faults;
        let seed = ctx.run_seed;
        ctx.adversary = adversary.map(|(plan, stats)| {
            Box::new(AdversaryState::from_parts(plan, num_peers, seed, stats))
        });
        sim.started = header.started;
        sim.halted = header.halted;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(body: Encoder) -> Vec<u8> {
        let mut bytes = body.into_bytes();
        let sum = checksum(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    fn minimal_header() -> Encoder {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u16(VERSION);
        enc.put_u64(11); // run_seed
        enc.put_len(3); // num_peers
        enc.put_u8(0); // Random
        enc.put_u64(5_000_000); // now_us
        enc.put_bool(true); // started
        enc.put_bool(false); // halted
        enc
    }

    #[test]
    fn from_bytes_accepts_valid_header() {
        let ckpt = Checkpoint::from_bytes(sealed(minimal_header())).unwrap();
        assert_eq!(ckpt.run_seed(), 11);
        assert_eq!(ckpt.num_peers(), 3);
        assert_eq!(ckpt.overlay_kind(), OverlayKind::Random);
        assert_eq!(ckpt.now_us(), 5_000_000);
    }

    #[test]
    fn from_bytes_rejects_bad_magic() {
        let mut bytes = sealed(minimal_header());
        bytes[0] ^= 0xFF;
        assert_eq!(Checkpoint::from_bytes(bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn from_bytes_rejects_unknown_version() {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u16(99);
        assert_eq!(
            Checkpoint::from_bytes(sealed(enc)),
            Err(CodecError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn from_bytes_rejects_flipped_body_bit() {
        let mut bytes = sealed(minimal_header());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(Checkpoint::from_bytes(bytes), Err(CodecError::BadChecksum));
    }

    #[test]
    fn from_bytes_rejects_truncated_input() {
        let bytes = sealed(minimal_header());
        for cut in [0, 5, bytes.len() - 1] {
            let err = Checkpoint::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            assert!(
                matches!(err, CodecError::UnexpectedEof | CodecError::BadChecksum),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn from_bytes_rejects_bad_overlay_tag() {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u16(VERSION);
        enc.put_u64(11);
        enc.put_len(3);
        enc.put_u8(7); // no such overlay kind
        enc.put_u64(0);
        enc.put_bool(false);
        enc.put_bool(false);
        assert_eq!(Checkpoint::from_bytes(sealed(enc)), Err(CodecError::BadTag));
    }

    #[test]
    fn rng_state_rejects_all_zero() {
        let mut enc = Encoder::new();
        for _ in 0..4 {
            enc.put_u64(0);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            RngState::pull(&mut dec),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn trace_event_codec_roundtrips() {
        use asap_workload::{KeywordId, QuerySpec, TraceEvent};
        assert_canonical(&TraceEvent::Query(QuerySpec {
            id: 9,
            requester: PeerId(2),
            terms: vec![KeywordId(5), KeywordId(17)],
            target: DocId(3),
        }));
        assert_canonical(&TraceEvent::AddDocument {
            peer: PeerId(1),
            doc: DocId(0),
        });
        assert_canonical(&TraceEvent::RemoveDocument {
            peer: PeerId(0),
            doc: DocId(4),
        });
        assert_canonical(&TraceEvent::Join(PeerId(2)));
        assert_canonical(&TraceEvent::Leave(PeerId(1)));
    }

    #[test]
    fn trace_event_decode_validates_ids() {
        use asap_workload::TraceEvent;
        let mut enc = Encoder::new();
        TraceEvent::Join(PeerId(9)).put(&mut enc);
        let bytes = enc.into_bytes();
        let bounds = IdBounds {
            peers: 3,
            docs: 5,
            keywords: 1,
        };
        let mut dec = Decoder::new(&bytes).with_bounds(bounds);
        assert!(matches!(
            TraceEvent::pull(&mut dec),
            Err(CodecError::Invalid(_))
        ));
    }
}
