//! Length-prefixed wire framing over the messages' [`Codec`].
//!
//! The message type of every protocol that can ride a checkpoint
//! ([`CheckpointProtocol`]) has one canonical, panic-free [`Codec`]
//! definition. The wire layer calls it directly: a frame is an envelope
//! (addressing, class, billed size) around exactly one `P::Msg` payload, so
//! sim and net backends serialize identically and no per-protocol wire code
//! exists at all.
//!
//! Frame layout (little-endian, fixed field order):
//!
//! ```text
//! [len: u32]                         length of everything after this field
//! [from: u32] [to: u32]              peer ids
//! [class: u8]                        MsgClass tag (= MsgClass::index())
//! [billed: u32]                      bytes billed by the protocol model
//! [payload: len - 21 bytes]          P::Msg via its Codec
//! [checksum: u64]                    checksum() over from..payload
//! ```
//!
//! [`checksum`] folds the covered bytes eight at a time. A frame is encoded
//! in one pass into the caller's buffer — envelope, payload, checksum, then
//! the length patched in — and decoded only after the checksum verified.
//!
//! The `billed` field carries the *modeled* message size (the paper's
//! analytic sizes, what [`asap_sim::Transport::send`] charges), which is
//! deliberately independent of the encoded byte count — receivers account
//! the same bytes the sender charged without re-deriving them.
//!
//! Decoding is panic-free by construction (lint rule R4 applies to this
//! crate): truncation, bit flips, bad length prefixes, unknown class tags,
//! and malformed payloads all map to a typed [`WireError`]. [`decode_frame`],
//! [`decode_frame_exact`] and the [`crate::Framed`] carrier's `unpack` run
//! one private validator, so they cannot disagree about which frames are
//! valid; the carrier keeps only the message.

use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::{CheckpointProtocol, Codec, CodecError, Decoder, Encoder};

/// The frame checksum: the codec's 64-bit word-wide fold.
pub use asap_overlay::codec::checksum;

/// Hard upper bound on `len` (bytes after the length prefix). Far above any
/// real ASAP message (full ads are ~KB-scale); caps what a corrupted length
/// field can make a reader buffer.
pub const MAX_FRAME: usize = 1 << 20;

/// Envelope bytes covered by `len` besides the payload:
/// from(4) + to(4) + class(1) + billed(4) + checksum(8).
pub const ENVELOPE: usize = 21;

/// Typed framing failure. Decoding never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends mid-frame (only from [`decode_frame_exact`]; the
    /// streaming [`decode_frame`] reports an incomplete prefix as `None`).
    Truncated,
    /// Length prefix exceeds [`MAX_FRAME`].
    OversizedFrame(u32),
    /// Length prefix smaller than the fixed envelope — no room for even an
    /// empty payload.
    UndersizedFrame(u32),
    /// The trailing [`checksum`] does not match the frame body.
    BadChecksum,
    /// Class byte outside the [`MsgClass`] tag range.
    BadClassTag(u8),
    /// The payload failed the protocol's message codec.
    Payload(CodecError),
    /// Payload bytes left over after the message decoded cleanly.
    TrailingPayload,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame truncated"),
            Self::OversizedFrame(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            Self::UndersizedFrame(n) => write!(f, "frame length {n} below envelope {ENVELOPE}"),
            Self::BadChecksum => write!(f, "frame checksum mismatch"),
            Self::BadClassTag(t) => write!(f, "unknown message class tag {t}"),
            Self::Payload(e) => write!(f, "payload decode failed: {e}"),
            Self::TrailingPayload => write!(f, "payload bytes left after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        Self::Payload(e)
    }
}

/// One protocol message with its envelope, as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<M> {
    pub from: PeerId,
    pub to: PeerId,
    pub class: MsgClass,
    /// Modeled message size charged by the sender (see module docs).
    pub billed: u32,
    pub msg: M,
}

/// `MsgClass` → wire tag. The tag *is* [`MsgClass::index`], pinned here so
/// reordering the enum cannot silently change the wire format.
pub fn class_to_tag(class: MsgClass) -> u8 {
    class.index() as u8
}

/// Wire tag → `MsgClass`.
pub fn class_from_tag(tag: u8) -> Result<MsgClass, WireError> {
    MsgClass::ALL
        .get(tag as usize)
        .copied()
        .ok_or(WireError::BadClassTag(tag))
}

/// Append one encoded frame to `out`. Infallible: every `Frame` has exactly
/// one wire image.
pub fn encode_frame_into<P: CheckpointProtocol>(frame: &Frame<P::Msg>, out: &mut Vec<u8>) {
    let start = out.len();
    let mut enc = Encoder::appending_to(std::mem::take(out));
    enc.put_u32(0); // the length, patched once it is known
    enc.put_u32(frame.from.0);
    enc.put_u32(frame.to.0);
    enc.put_u8(class_to_tag(frame.class));
    enc.put_u32(frame.billed);
    frame.msg.put(&mut enc);
    *out = enc.into_bytes();
    let sum = checksum(&out[start + 4..]);
    out.extend_from_slice(&sum.to_le_bytes());
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encode one frame into a fresh buffer.
pub fn encode_frame<P: CheckpointProtocol>(frame: &Frame<P::Msg>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into::<P>(frame, &mut out);
    out
}

/// A successfully parsed frame and the bytes it consumed, or `None` for a
/// valid-so-far but incomplete prefix.
pub type Decoded<M> = Option<(Frame<M>, usize)>;

/// A frame's fields besides its message.
pub(crate) struct Envelope {
    from: PeerId,
    to: PeerId,
    class: MsgClass,
    billed: u32,
}

impl Envelope {
    #[inline]
    fn carrying<M>(self, msg: M) -> Frame<M> {
        Frame {
            from: self.from,
            to: self.to,
            class: self.class,
            billed: self.billed,
            msg,
        }
    }
}

/// The one validation pass behind every decoder, over the frame at the
/// front of `buf`: the length prefix against [`MAX_FRAME`] and
/// [`ENVELOPE`], the checksum, the class tag, the payload through the
/// message's codec, and no payload bytes after the message. `Ok(None)` is
/// a valid but incomplete prefix; a whole frame yields its envelope, its
/// message and its length on the wire.
#[inline]
fn read_frame<P: CheckpointProtocol>(
    buf: &[u8],
) -> Result<Option<(Envelope, P::Msg, usize)>, WireError> {
    let Some(len_bytes) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*len_bytes);
    if (len as usize) > MAX_FRAME {
        return Err(WireError::OversizedFrame(len));
    }
    if (len as usize) < ENVELOPE {
        return Err(WireError::UndersizedFrame(len));
    }
    let total = 4 + len as usize;
    let Some(covered) = buf.get(4..total) else {
        return Ok(None);
    };
    let Some((body, sum)) = covered.split_last_chunk::<8>() else {
        return Err(WireError::UndersizedFrame(len));
    };
    if checksum(body) != u64::from_le_bytes(*sum) {
        return Err(WireError::BadChecksum);
    }
    // Unbounded id spaces: frames are produced in-process by this engine.
    let mut dec = Decoder::new(body);
    let envelope = Envelope {
        from: PeerId(dec.get_u32()?),
        to: PeerId(dec.get_u32()?),
        class: class_from_tag(dec.get_u8()?)?,
        billed: dec.get_u32()?,
    };
    let msg = P::Msg::pull(&mut dec)?;
    dec.finish().map_err(|_| WireError::TrailingPayload)?;
    Ok(Some((envelope, msg, total)))
}

/// [`read_frame`] over a buffer that must hold exactly one whole frame:
/// incomplete input is [`WireError::Truncated`], bytes after the frame
/// [`WireError::TrailingPayload`]. The carrier's decode, which keeps only
/// the message.
#[inline]
pub(crate) fn read_whole_frame<P: CheckpointProtocol>(
    buf: &[u8],
) -> Result<(Envelope, P::Msg), WireError> {
    match read_frame::<P>(buf)? {
        Some((envelope, msg, consumed)) if consumed == buf.len() => Ok((envelope, msg)),
        Some(_) => Err(WireError::TrailingPayload),
        None => Err(WireError::Truncated),
    }
}

/// Streaming decode: parse one frame from the front of `buf`.
///
/// * `Ok(Some((frame, consumed)))` — a complete, valid frame; the caller
///   drops `consumed` bytes and goes again.
/// * `Ok(None)` — the buffer holds a valid but incomplete prefix; read more
///   bytes. (A stream that *ends* here is [`WireError::Truncated`] at the
///   caller's discretion — see [`decode_frame_exact`].)
/// * `Err(_)` — the prefix can never become a valid frame.
pub fn decode_frame<P: CheckpointProtocol>(buf: &[u8]) -> Result<Decoded<P::Msg>, WireError> {
    Ok(read_frame::<P>(buf)?.map(|(envelope, msg, consumed)| (envelope.carrying(msg), consumed)))
}

/// Decode a buffer that must hold exactly one whole frame. Incomplete input
/// is [`WireError::Truncated`]; leftover bytes after the frame are
/// [`WireError::TrailingPayload`]. Every `Rc` in the message is an
/// allocation of its own.
pub fn decode_frame_exact<P: CheckpointProtocol>(buf: &[u8]) -> Result<Frame<P::Msg>, WireError> {
    read_whole_frame::<P>(buf).map(|(envelope, msg)| envelope.carrying(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_search::Flooding;
    use asap_workload::KeywordId;

    fn frame() -> Frame<asap_search::BaselineMsg> {
        Frame {
            from: PeerId(3),
            to: PeerId(9),
            class: MsgClass::Query,
            billed: 60,
            msg: asap_search::BaselineMsg::Flood {
                query: 7,
                requester: PeerId(3),
                terms: vec![KeywordId(1), KeywordId(4)].into(),
                ttl: 5,
            },
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let f = frame();
        let bytes = encode_frame::<Flooding>(&f);
        let back = decode_frame_exact::<Flooding>(&bytes).expect("clean decode");
        assert_eq!(back.from, f.from);
        assert_eq!(back.to, f.to);
        assert_eq!(back.class, f.class);
        assert_eq!(back.billed, f.billed);
        // The message codec is canonical, so decode → re-encode being
        // byte-identical proves the payload survived unchanged.
        assert_eq!(encode_frame::<Flooding>(&back), bytes);
        let ad = encode_frame::<asap_core::Asap>(&ad_frame());
        let back = decode_frame_exact::<asap_core::Asap>(&ad).expect("clean decode");
        assert_eq!(encode_frame::<asap_core::Asap>(&back), ad);
    }

    #[test]
    fn streaming_decode_reports_incomplete_prefixes() {
        let bytes = encode_frame::<Flooding>(&frame());
        for cut in 0..bytes.len() {
            let r = decode_frame::<Flooding>(&bytes[..cut]).expect("prefix is not an error");
            assert!(r.is_none(), "cut at {cut} produced a frame");
        }
        let (f, consumed) = decode_frame::<Flooding>(&bytes)
            .expect("ok")
            .expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(encode_frame::<Flooding>(&f), bytes);
    }

    #[test]
    fn class_tags_cover_every_class() {
        for class in MsgClass::ALL {
            assert_eq!(class_from_tag(class_to_tag(class)).unwrap(), class);
        }
        assert_eq!(
            class_from_tag(MsgClass::COUNT as u8),
            Err(WireError::BadClassTag(MsgClass::COUNT as u8))
        );
    }

    #[test]
    fn bad_length_prefixes_are_typed_errors() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        oversized.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            decode_frame::<Flooding>(&oversized).unwrap_err(),
            WireError::OversizedFrame((MAX_FRAME as u32) + 1)
        );
        let mut undersized = Vec::new();
        undersized.extend_from_slice(&8u32.to_le_bytes());
        undersized.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            decode_frame::<Flooding>(&undersized).unwrap_err(),
            WireError::UndersizedFrame(8)
        );
    }

    /// A full ad as ASAP ships it: a 1.5 KB frame, most of it filter words.
    fn ad_frame() -> Frame<asap_core::AsapMsg> {
        let filter = asap_bloom::BloomFilter::from_keys(
            asap_bloom::BloomParams::paper_default(),
            ["rock", "jazz", "blues"],
        );
        Frame {
            from: PeerId(3),
            to: PeerId(9),
            class: MsgClass::FullAd,
            billed: 1_500,
            msg: asap_core::AsapMsg::Ad {
                payload: asap_core::AdPayload::Full(asap_core::AdSnapshot {
                    source: PeerId(3),
                    topics: asap_workload::InterestSet(0b101),
                    version: 2,
                    filter: std::rc::Rc::new(filter),
                }),
                fwd: asap_core::Forwarding::Walk { budget: 100 },
                delivery: 1,
            },
        }
    }

    /// Flip one bit in every body byte (past the length prefix, before the
    /// checksum): the checksum must catch each before field decoding.
    fn assert_body_flips_fail<P: CheckpointProtocol>(bytes: &[u8])
    where
        P::Msg: std::fmt::Debug,
    {
        for pos in 4..bytes.len() - 8 {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 0x10;
            assert_eq!(
                decode_frame::<P>(&bad).unwrap_err(),
                WireError::BadChecksum,
                "flip at {pos} slipped through"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        assert_body_flips_fail::<Flooding>(&encode_frame::<Flooding>(&frame()));
        let ad = encode_frame::<asap_core::Asap>(&ad_frame());
        assert_eq!(ad.len(), 1_512);
        assert_body_flips_fail::<asap_core::Asap>(&ad);
    }

    #[test]
    fn appended_frames_are_decoded_where_they_start() {
        let mut buf = vec![0xEE; 3];
        encode_frame_into::<Flooding>(&frame(), &mut buf);
        let one = buf.len();
        encode_frame_into::<asap_core::Asap>(&ad_frame(), &mut buf);
        assert_eq!(buf[..3], [0xEE; 3], "what the buffer held is kept");
        assert_eq!(buf[3..one], encode_frame::<Flooding>(&frame()));
        assert_eq!(buf[one..], encode_frame::<asap_core::Asap>(&ad_frame()));
    }
}
