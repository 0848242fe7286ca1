//! Checkpoint/resume: serialize the full engine state at a virtual
//! timestamp and continue bit-identically.
//!
//! The codec is a hand-rolled, versioned, fixed-field-order binary format
//! (little-endian, no external serialization dependency — see DESIGN.md §8
//! for the field-order specification). Everything behavior-relevant is
//! captured: the event queue with uncollected tombstones, overlay adjacency
//! verbatim (neighbor order is `swap_remove` history), content holdings and
//! holders, every RNG stream's raw state, the auditor's running digest word
//! and mirrors, fault/adversary layer state, metrics, and the protocol's
//! own per-node state via [`CheckpointProtocol`]. A run split as
//! `run_until(t)` → `checkpoint()` → resume → `run()` produces the same
//! audit digest as the uninterrupted run, bit for bit.
//!
//! Deliberately *not* serialized:
//!
//! * the trace sink — passive observation, never part of engine state;
//! * the horizon and trace end — recomputed from the builder at resume, so
//!   a warm-started sweep can vary horizon grace across cells;
//! * derived state (keyword multisets, alive lists, adversary role maps,
//!   physical placement) — recomputed deterministically from the restored
//!   primary state and the validated-equal run seed.
//!
//! Decoding is fully validated and panic-free: corrupted, truncated, or
//! wrong-version bytes yield a typed [`CodecError`], never a panic, and a
//! trailing FNV-1a checksum over the body rejects bit flips up front.

use crate::adversary::{AdversaryPlan, AdversaryState, AdversaryStats, EclipseTarget};
use crate::audit::{Fnv64, SimAuditor};
use crate::engine::{EngineProfile, Protocol, SimBuilder, Simulation};
use crate::event::{EngineEvent, EventQueue, Scheduled};
use crate::fault::{FaultPlan, FaultState, FaultStats, PartitionWindow};
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger, RetryCounters};
use asap_overlay::{Overlay, OverlayKind, PeerId};
use asap_topology::PhysicalNetwork;
use asap_workload::{ContentState, DocId, KeywordId, QuerySpec, TraceEvent, Workload};
use rand::rngs::SmallRng;
use std::fmt;

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"ASAPCKPT";
/// Current format version. Decoders reject anything else.
pub const VERSION: u16 = 1;
/// Trailing checksum width (FNV-1a 64 over the body).
const TRAILER: usize = 8;
/// Upper bound on the ledger's raw slot vector accepted at decode time.
/// Query ids are dense per run; this caps the preallocation a corrupted
/// (but checksum-colliding) length field could demand.
const MAX_LEDGER_SLOTS: usize = 1 << 24;

/// Typed decode failure. Every malformed input maps to one of these —
/// decoding never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the field being read.
    UnexpectedEof,
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// Recognized magic, unknown version word.
    UnsupportedVersion(u16),
    /// An enum discriminant byte outside the defined range.
    BadTag,
    /// Bytes left over after the final field.
    TrailingBytes,
    /// The trailing FNV-1a checksum does not match the body.
    BadChecksum,
    /// A structurally valid field with an out-of-range or inconsistent
    /// value (id past the peer/doc space, zero RNG state, invalid plan...).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of checkpoint data"),
            Self::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::BadTag => write!(f, "unknown enum tag in checkpoint data"),
            Self::TrailingBytes => write!(f, "trailing bytes after checkpoint data"),
            Self::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            Self::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink for the checkpoint codec.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Lengths and counts are always widened to `u64` on the wire.
    #[inline]
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes, no length prefix (magic, fixed-width blobs).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over checkpoint bytes.
#[derive(Debug)]
pub struct Decoder<'b> {
    buf: &'b [u8],
    pos: usize,
}

impl<'b> Decoder<'b> {
    pub fn new(buf: &'b [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Raw byte slice of exactly `n` bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'b [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.get_bytes(1)?[0])
    }

    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        let s = self.get_bytes(2)?;
        let mut b = [0u8; 2];
        b.copy_from_slice(s);
        Ok(u16::from_le_bytes(b))
    }

    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.get_bytes(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.get_bytes(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte out of range")),
        }
    }

    /// A scalar length value: must fit in `usize`, no further guarantees.
    /// Use [`Decoder::get_count`] for item counts that gate allocation.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("length exceeds usize"))
    }

    /// An item count: like [`Decoder::get_len`] but additionally bounded by
    /// the bytes still unread, so a corrupted count can never drive an
    /// oversized allocation (every item occupies at least one byte).
    pub fn get_count(&mut self) -> Result<usize, CodecError> {
        let n = self.get_len()?;
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let n = self.get_count()?;
        let bytes = self.get_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("string not UTF-8"))
    }

    /// Assert the input is fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// A protocol whose messages and per-node state can ride a checkpoint.
///
/// Implementations must encode *canonically* (deterministic iteration
/// order) so that encode → decode → re-encode is byte-identical, and must
/// decode without panicking — malformed payloads return [`CodecError`].
pub trait CheckpointProtocol: Protocol {
    /// Serialize one in-flight message payload.
    fn encode_msg(msg: &Self::Msg, enc: &mut Encoder);

    /// Decode one in-flight message payload.
    fn decode_msg(dec: &mut Decoder<'_>) -> Result<Self::Msg, CodecError>;

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

fn kind_to_tag(kind: OverlayKind) -> u8 {
    match kind {
        OverlayKind::Random => 0,
        OverlayKind::PowerLaw => 1,
        OverlayKind::Crawled => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<OverlayKind, CodecError> {
    match tag {
        0 => Ok(OverlayKind::Random),
        1 => Ok(OverlayKind::PowerLaw),
        2 => Ok(OverlayKind::Crawled),
        _ => Err(CodecError::BadTag),
    }
}

fn get_peer(dec: &mut Decoder<'_>, num_peers: usize) -> Result<PeerId, CodecError> {
    let id = dec.get_u32()?;
    if (id as usize) < num_peers {
        Ok(PeerId(id))
    } else {
        Err(CodecError::Invalid("peer id out of range"))
    }
}

fn get_doc(dec: &mut Decoder<'_>, num_docs: usize) -> Result<DocId, CodecError> {
    let id = dec.get_u32()?;
    if (id as usize) < num_docs {
        Ok(DocId(id))
    } else {
        Err(CodecError::Invalid("doc id out of range"))
    }
}

fn get_rng_state(dec: &mut Decoder<'_>) -> Result<[u64; 4], CodecError> {
    let mut s = [0u64; 4];
    for w in s.iter_mut() {
        *w = dec.get_u64()?;
    }
    if s == [0u64; 4] {
        return Err(CodecError::Invalid("all-zero rng state"));
    }
    Ok(s)
}

// --- workload event codec -------------------------------------------------

fn encode_query_spec(q: &QuerySpec, enc: &mut Encoder) {
    enc.put_u32(q.id);
    enc.put_u32(q.requester.0);
    enc.put_len(q.terms.len());
    for t in &q.terms {
        enc.put_u32(t.0);
    }
    enc.put_u32(q.target.0);
}

fn decode_query_spec(
    dec: &mut Decoder<'_>,
    num_peers: usize,
    num_docs: usize,
) -> Result<QuerySpec, CodecError> {
    let id = dec.get_u32()?;
    let requester = get_peer(dec, num_peers)?;
    let n_terms = dec.get_count()?;
    let mut terms = Vec::with_capacity(n_terms);
    for _ in 0..n_terms {
        terms.push(KeywordId(dec.get_u32()?));
    }
    let target = get_doc(dec, num_docs)?;
    Ok(QuerySpec {
        id,
        requester,
        terms,
        target,
    })
}

fn encode_trace_event(ev: &TraceEvent, enc: &mut Encoder) {
    match ev {
        TraceEvent::Query(q) => {
            enc.put_u8(0);
            encode_query_spec(q, enc);
        }
        TraceEvent::AddDocument { peer, doc } => {
            enc.put_u8(1);
            enc.put_u32(peer.0);
            enc.put_u32(doc.0);
        }
        TraceEvent::RemoveDocument { peer, doc } => {
            enc.put_u8(2);
            enc.put_u32(peer.0);
            enc.put_u32(doc.0);
        }
        TraceEvent::Join(p) => {
            enc.put_u8(3);
            enc.put_u32(p.0);
        }
        TraceEvent::Leave(p) => {
            enc.put_u8(4);
            enc.put_u32(p.0);
        }
    }
}

fn decode_trace_event(
    dec: &mut Decoder<'_>,
    num_peers: usize,
    num_docs: usize,
) -> Result<TraceEvent, CodecError> {
    match dec.get_u8()? {
        0 => Ok(TraceEvent::Query(decode_query_spec(dec, num_peers, num_docs)?)),
        1 => Ok(TraceEvent::AddDocument {
            peer: get_peer(dec, num_peers)?,
            doc: get_doc(dec, num_docs)?,
        }),
        2 => Ok(TraceEvent::RemoveDocument {
            peer: get_peer(dec, num_peers)?,
            doc: get_doc(dec, num_docs)?,
        }),
        3 => Ok(TraceEvent::Join(get_peer(dec, num_peers)?)),
        4 => Ok(TraceEvent::Leave(get_peer(dec, num_peers)?)),
        _ => Err(CodecError::BadTag),
    }
}

fn encode_engine_event<P: CheckpointProtocol>(ev: &EngineEvent<P::Msg>, enc: &mut Encoder) {
    match ev {
        EngineEvent::Deliver { to, from, msg, dup } => {
            enc.put_u8(0);
            enc.put_u32(to.0);
            enc.put_u32(from.0);
            enc.put_bool(*dup);
            P::encode_msg(msg, enc);
        }
        EngineEvent::Timer { node, tag } => {
            enc.put_u8(1);
            enc.put_u32(node.0);
            enc.put_u64(*tag);
        }
        EngineEvent::Trace(te) => {
            enc.put_u8(2);
            encode_trace_event(te, enc);
        }
    }
}

fn decode_engine_event<P: CheckpointProtocol>(
    dec: &mut Decoder<'_>,
    num_peers: usize,
    num_docs: usize,
) -> Result<EngineEvent<P::Msg>, CodecError> {
    match dec.get_u8()? {
        0 => {
            let to = get_peer(dec, num_peers)?;
            let from = get_peer(dec, num_peers)?;
            let dup = dec.get_bool()?;
            let msg = P::decode_msg(dec)?;
            Ok(EngineEvent::Deliver { to, from, msg, dup })
        }
        1 => Ok(EngineEvent::Timer {
            node: get_peer(dec, num_peers)?,
            tag: dec.get_u64()?,
        }),
        2 => Ok(EngineEvent::Trace(decode_trace_event(dec, num_peers, num_docs)?)),
        _ => Err(CodecError::BadTag),
    }
}

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
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let (body, tail) = bytes.split_at(bytes.len() - TRAILER);
        let mut t = [0u8; TRAILER];
        t.copy_from_slice(tail);
        if checksum(body) != u64::from_le_bytes(t) {
            return Err(CodecError::BadChecksum);
        }
        let mut dec = Decoder::new(body);
        let header = Header::decode(&mut dec)?;
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

struct Header {
    run_seed: u64,
    num_peers: usize,
    overlay_kind: OverlayKind,
    now_us: u64,
    started: bool,
    halted: bool,
}

impl Header {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        if dec.get_bytes(MAGIC.len())? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = dec.get_u16()?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        Ok(Self {
            run_seed: dec.get_u64()?,
            num_peers: dec.get_len()?,
            overlay_kind: kind_from_tag(dec.get_u8()?)?,
            now_us: dec.get_u64()?,
            started: dec.get_bool()?,
            halted: dec.get_bool()?,
        })
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

        // Header.
        enc.put_bytes(&MAGIC);
        enc.put_u16(VERSION);
        enc.put_u64(ctx.run_seed);
        enc.put_len(ctx.alive.len());
        enc.put_u8(kind_to_tag(ctx.overlay_kind));
        enc.put_u64(ctx.now_us);
        enc.put_bool(self.started);
        enc.put_bool(self.halted);

        // [1] Event queue: allocation counter, surviving entries in
        // canonical (time, seq) order, uncollected tombstones.
        enc.put_u64(ctx.queue.next_seq());
        let entries = ctx.queue.entries_sorted();
        enc.put_len(entries.len());
        for s in entries {
            enc.put_u64(s.time_us);
            enc.put_u64(s.seq);
            encode_engine_event::<P>(&s.event, &mut enc);
        }
        let cancelled = ctx.queue.cancelled_sorted();
        enc.put_len(cancelled.len());
        for seq in cancelled {
            enc.put_u64(seq);
        }

        // [2] Overlay adjacency, verbatim (neighbor order is history).
        let adj = ctx.overlay.adjacency();
        enc.put_len(adj.len());
        for nbrs in adj {
            enc.put_len(nbrs.len());
            for n in nbrs {
                enc.put_u32(n.0);
            }
        }

        // [3] Liveness bitmap (count pinned to num_peers by the header).
        for &a in &ctx.alive {
            enc.put_bool(a);
        }

        // [4] Content: holdings sorted per peer, holders verbatim.
        let (holdings, holders) = ctx.content.parts();
        enc.put_len(holdings.len());
        for docs in holdings {
            enc.put_len(docs.len());
            for d in docs {
                enc.put_u32(d.0);
            }
        }
        enc.put_len(holders.len());
        for peers in holders {
            enc.put_len(peers.len());
            for p in peers {
                enc.put_u32(p.0);
            }
        }

        // [5] Engine RNG stream.
        for w in ctx.rng.state() {
            enc.put_u64(w);
        }

        // [6] Load recorder.
        enc.put_len(ctx.load.buckets().len());
        for bucket in ctx.load.buckets() {
            for &b in bucket {
                enc.put_u64(b);
            }
        }
        for &m in &ctx.load.class_message_totals() {
            enc.put_u64(m);
        }
        enc.put_len(ctx.load.alive_steps().len());
        for &(t, c) in ctx.load.alive_steps() {
            enc.put_u64(t);
            enc.put_len(c);
        }
        enc.put_len(ctx.load.notes().len());
        for note in ctx.load.notes() {
            enc.put_str(note);
        }

        // [7] Query ledger: raw slot length, then registered records by
        // ascending id.
        enc.put_len(ctx.ledger.raw_len());
        enc.put_len(ctx.ledger.records_with_ids().count());
        for (id, rec) in ctx.ledger.records_with_ids() {
            enc.put_u32(id);
            enc.put_u64(rec.issue_us);
            match rec.first_answer_us {
                Some(t) => {
                    enc.put_bool(true);
                    enc.put_u64(t);
                }
                None => enc.put_bool(false),
            }
            enc.put_u32(rec.answers);
        }

        // [8] Robustness counters.
        for &c in &ctx.retry.counts() {
            enc.put_u64(c);
        }

        // [9] Send counter.
        enc.put_u64(ctx.messages_sent);

        // [10] Engine profile.
        let p = ctx.profile;
        enc.put_u64(p.sends);
        enc.put_u64(p.delivers);
        enc.put_u64(p.timers_fired);
        enc.put_u64(p.timers_set);
        enc.put_u64(p.trace_events);
        enc.put_u64(p.trace_records);
        enc.put_len(p.queue_hwm);
        enc.put_u64(p.past_horizon);

        // [11] Auditor (optional layer).
        match ctx.audit.as_deref() {
            Some(a) => {
                enc.put_bool(true);
                a.encode_checkpoint(&mut enc);
            }
            None => enc.put_bool(false),
        }

        // [12] Fault layer (optional): plan, RNG stream, stats.
        match ctx.faults.as_deref() {
            Some(f) => {
                enc.put_bool(true);
                let plan = f.plan();
                enc.put_u32(plan.loss_ppm);
                enc.put_u64(plan.jitter_max_us);
                enc.put_u32(plan.duplicate_ppm);
                enc.put_len(plan.partitions.len());
                for w in &plan.partitions {
                    enc.put_u64(w.start_us);
                    enc.put_u64(w.end_us);
                    enc.put_u32(w.cut_index);
                }
                for w in f.rng_state() {
                    enc.put_u64(w);
                }
                let s = f.stats();
                enc.put_u64(s.dropped);
                enc.put_u64(s.partitioned);
                enc.put_u64(s.duplicated);
                enc.put_u64(s.jittered);
                enc.put_u64(s.decisions);
            }
            None => enc.put_bool(false),
        }

        // [13] Adversary layer (optional): plan and stats; the role map is
        // re-derived from (plan, num_peers, run_seed) at decode.
        match ctx.adversary.as_deref() {
            Some(a) => {
                enc.put_bool(true);
                let plan = a.plan();
                enc.put_u32(plan.spam_ppm);
                enc.put_u32(plan.free_rider_ppm);
                enc.put_len(plan.eclipse.len());
                for t in &plan.eclipse {
                    enc.put_u32(t.victim.0);
                    enc.put_u32(t.captured_links);
                }
                let s = a.stats();
                enc.put_u64(s.absorbed);
                enc.put_u64(s.spam_peers);
                enc.put_u64(s.free_riders);
                enc.put_u64(s.eclipsed_edges);
            }
            None => enc.put_bool(false),
        }

        // [14] Protocol dynamic state.
        self.protocol.encode_state(&mut enc);

        // Trailer.
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
        Simulation::builder(phys, workload, overlay, overlay_kind, protocol, ckpt.run_seed())
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
            return Err(CodecError::Invalid("checkpoint peer count differs from builder"));
        }
        if ckpt.overlay_kind != sim.ctx.overlay_kind {
            return Err(CodecError::Invalid("checkpoint overlay kind differs from builder"));
        }

        let body = &ckpt.bytes[..ckpt.bytes.len() - TRAILER];
        let mut dec = Decoder::new(body);
        let header = Header::decode(&mut dec)?;

        // [1] Event queue.
        let next_seq = dec.get_u64()?;
        let n_entries = dec.get_count()?;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let time_us = dec.get_u64()?;
            let seq = dec.get_u64()?;
            let event = decode_engine_event::<P>(&mut dec, num_peers, num_docs)?;
            entries.push(Scheduled {
                time_us,
                seq,
                event,
            });
        }
        let n_cancelled = dec.get_count()?;
        let mut cancelled = Vec::new();
        for _ in 0..n_cancelled {
            cancelled.push(dec.get_u64()?);
        }

        // [2] Overlay.
        let n_adj = dec.get_count()?;
        if n_adj != num_peers {
            return Err(CodecError::Invalid("overlay size mismatch"));
        }
        let mut adj = Vec::new();
        for _ in 0..n_adj {
            let n = dec.get_count()?;
            let mut nbrs = Vec::new();
            for _ in 0..n {
                nbrs.push(get_peer(&mut dec, num_peers)?);
            }
            adj.push(nbrs);
        }

        // [3] Liveness.
        let mut alive = Vec::new();
        for _ in 0..num_peers {
            alive.push(dec.get_bool()?);
        }

        // [4] Content.
        let n_holdings = dec.get_count()?;
        if n_holdings != num_peers {
            return Err(CodecError::Invalid("holdings size mismatch"));
        }
        let mut holdings = Vec::new();
        for _ in 0..n_holdings {
            let n = dec.get_count()?;
            let mut docs = Vec::new();
            for _ in 0..n {
                docs.push(get_doc(&mut dec, num_docs)?);
            }
            holdings.push(docs);
        }
        let n_holders = dec.get_count()?;
        if n_holders != num_docs {
            return Err(CodecError::Invalid("holders size mismatch"));
        }
        let mut holders = Vec::new();
        for _ in 0..n_holders {
            let n = dec.get_count()?;
            let mut peers = Vec::new();
            for _ in 0..n {
                peers.push(get_peer(&mut dec, num_peers)?);
            }
            holders.push(peers);
        }

        // [5] Engine RNG.
        let rng_state = get_rng_state(&mut dec)?;

        // [6] Load recorder.
        let n_buckets = dec.get_count()?;
        let mut buckets = Vec::new();
        for _ in 0..n_buckets {
            let mut bucket = [0u64; MsgClass::COUNT];
            for b in bucket.iter_mut() {
                *b = dec.get_u64()?;
            }
            buckets.push(bucket);
        }
        let mut msg_totals = [0u64; MsgClass::COUNT];
        for m in msg_totals.iter_mut() {
            *m = dec.get_u64()?;
        }
        let n_steps = dec.get_count()?;
        let mut alive_steps = Vec::new();
        for _ in 0..n_steps {
            let t = dec.get_u64()?;
            let c = dec.get_len()?;
            alive_steps.push((t, c));
        }
        let n_notes = dec.get_count()?;
        let mut notes = Vec::new();
        for _ in 0..n_notes {
            notes.push(dec.get_str()?);
        }

        // [7] Query ledger.
        let raw_len = dec.get_len()?;
        if raw_len > MAX_LEDGER_SLOTS {
            return Err(CodecError::Invalid("ledger slot count implausibly large"));
        }
        let n_registered = dec.get_count()?;
        let mut ledger_entries = Vec::new();
        for _ in 0..n_registered {
            let id = dec.get_u32()?;
            if id as usize >= raw_len {
                return Err(CodecError::Invalid("query id past ledger length"));
            }
            let issue_us = dec.get_u64()?;
            let first_answer_us = if dec.get_bool()? {
                Some(dec.get_u64()?)
            } else {
                None
            };
            let answers = dec.get_u32()?;
            ledger_entries.push((id, issue_us, first_answer_us, answers));
        }

        // [8] Robustness counters.
        let mut retry = [0u64; 4];
        for c in retry.iter_mut() {
            *c = dec.get_u64()?;
        }

        // [9] Send counter.
        let messages_sent = dec.get_u64()?;

        // [10] Engine profile.
        let profile = EngineProfile {
            sends: dec.get_u64()?,
            delivers: dec.get_u64()?,
            timers_fired: dec.get_u64()?,
            timers_set: dec.get_u64()?,
            trace_events: dec.get_u64()?,
            trace_records: dec.get_u64()?,
            queue_hwm: dec.get_len()?,
            past_horizon: dec.get_u64()?,
        };

        // [11] Auditor.
        let audit = if dec.get_bool()? {
            let auditor = SimAuditor::decode_checkpoint(&mut dec)?;
            if auditor.mirror_len() != num_peers {
                return Err(CodecError::Invalid("auditor liveness mirror size mismatch"));
            }
            Some(auditor)
        } else {
            None
        };

        // [12] Fault layer.
        let faults = if dec.get_bool()? {
            let loss_ppm = dec.get_u32()?;
            let jitter_max_us = dec.get_u64()?;
            let duplicate_ppm = dec.get_u32()?;
            let n_windows = dec.get_count()?;
            let mut partitions = Vec::new();
            for _ in 0..n_windows {
                partitions.push(PartitionWindow {
                    start_us: dec.get_u64()?,
                    end_us: dec.get_u64()?,
                    cut_index: dec.get_u32()?,
                });
            }
            let plan = FaultPlan {
                loss_ppm,
                jitter_max_us,
                duplicate_ppm,
                partitions,
            };
            if plan.validate().is_err() {
                return Err(CodecError::Invalid("fault plan fails validation"));
            }
            let fault_rng = get_rng_state(&mut dec)?;
            let stats = FaultStats {
                dropped: dec.get_u64()?,
                partitioned: dec.get_u64()?,
                duplicated: dec.get_u64()?,
                jittered: dec.get_u64()?,
                decisions: dec.get_u64()?,
            };
            Some(FaultState::from_parts(plan, fault_rng, stats))
        } else {
            None
        };

        // [13] Adversary layer.
        let adversary = if dec.get_bool()? {
            let spam_ppm = dec.get_u32()?;
            let free_rider_ppm = dec.get_u32()?;
            let n_targets = dec.get_count()?;
            let mut eclipse = Vec::new();
            for _ in 0..n_targets {
                eclipse.push(EclipseTarget {
                    victim: get_peer(&mut dec, num_peers)?,
                    captured_links: dec.get_u32()?,
                });
            }
            let plan = AdversaryPlan {
                spam_ppm,
                free_rider_ppm,
                eclipse,
            };
            if plan.validate().is_err() {
                return Err(CodecError::Invalid("adversary plan fails validation"));
            }
            let stats = AdversaryStats {
                absorbed: dec.get_u64()?,
                spam_peers: dec.get_u64()?,
                free_riders: dec.get_u64()?,
                eclipsed_edges: dec.get_u64()?,
            };
            Some(AdversaryState::from_parts(
                plan,
                num_peers,
                sim.ctx.run_seed,
                stats,
            ))
        } else {
            None
        };

        // [14] Protocol dynamic state.
        sim.protocol.decode_state(&mut dec)?;
        dec.finish()?;

        // Everything decoded cleanly — install the restored state. The
        // builder-assembled queue, overlay, content, metrics, and optional
        // layers are replaced wholesale; derived liveness views are
        // recomputed from the restored bitmap.
        let ctx = &mut sim.ctx;
        ctx.queue = EventQueue::from_parts(next_seq, entries, cancelled);
        ctx.overlay = Overlay::from_adjacency(adj);
        ctx.alive_count = alive.iter().filter(|&&a| a).count();
        ctx.alive_list = alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| PeerId(i as u32))
            .collect();
        ctx.alive = alive;
        ctx.content = ContentState::from_parts(ctx.model, holdings, holders);
        ctx.rng = SmallRng::from_state(rng_state);
        ctx.load = LoadRecorder::from_parts(buckets, msg_totals, alive_steps, notes);
        ctx.ledger = QueryLedger::from_parts(raw_len, ledger_entries);
        ctx.retry = RetryCounters::from_counts(retry);
        ctx.messages_sent = messages_sent;
        ctx.profile = profile;
        ctx.now_us = header.now_us;
        ctx.audit = audit.map(Box::new);
        ctx.faults = faults.map(Box::new);
        ctx.adversary = adversary.map(Box::new);
        sim.started = header.started;
        sim.halted = header.halted;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_u16(0xBEEF);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(0x0123_4567_89AB_CDEF);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_len(42);
        enc.put_str("hello ünïcode");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert_eq!(dec.get_u16().unwrap(), 0xBEEF);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_len().unwrap(), 42);
        assert_eq!(dec.get_str().unwrap(), "hello ünïcode");
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_truncation() {
        let mut enc = Encoder::new();
        enc.put_u64(7);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        assert_eq!(dec.get_u64(), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn decoder_rejects_bad_bool() {
        let bytes = [2u8];
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(dec.get_bool(), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn decoder_flags_trailing_bytes() {
        let bytes = [0u8; 3];
        let mut dec = Decoder::new(&bytes);
        dec.get_u8().unwrap();
        assert_eq!(dec.finish(), Err(CodecError::TrailingBytes));
    }

    #[test]
    fn count_guard_rejects_oversized_counts() {
        // A count of u64::MAX with only a few bytes behind it must be
        // rejected before any allocation happens.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        enc.put_u8(0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_count().is_err());
    }

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
        assert!(matches!(get_rng_state(&mut dec), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn trace_event_codec_roundtrips() {
        let events = [
            TraceEvent::Query(QuerySpec {
                id: 9,
                requester: PeerId(2),
                terms: vec![KeywordId(5), KeywordId(17)],
                target: DocId(3),
            }),
            TraceEvent::AddDocument {
                peer: PeerId(1),
                doc: DocId(0),
            },
            TraceEvent::RemoveDocument {
                peer: PeerId(0),
                doc: DocId(4),
            },
            TraceEvent::Join(PeerId(2)),
            TraceEvent::Leave(PeerId(1)),
        ];
        for ev in &events {
            let mut enc = Encoder::new();
            encode_trace_event(ev, &mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let back = decode_trace_event(&mut dec, 3, 5).unwrap();
            dec.finish().unwrap();
            let mut enc2 = Encoder::new();
            encode_trace_event(&back, &mut enc2);
            assert_eq!(bytes, enc2.into_bytes(), "re-encode differs for {ev:?}");
        }
    }

    #[test]
    fn trace_event_decode_validates_ids() {
        let mut enc = Encoder::new();
        encode_trace_event(&TraceEvent::Join(PeerId(9)), &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            decode_trace_event(&mut dec, 3, 5),
            Err(CodecError::Invalid(_))
        ));
    }
}
