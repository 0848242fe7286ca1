//! Property tests for the wire framing codec, mirroring the checkpoint-codec
//! tier (`asap-sim/tests/checkpoint_roundtrip.rs`): every frame that encodes
//! must decode back to a byte-identical re-encode, and every corrupted or
//! truncated buffer must map to a typed [`WireError`] — never a panic (the
//! decode path sits under lint rule R4 panic-reachability).
//!
//! Messages are built deterministically from proptest-generated integers
//! rather than via `Arbitrary` impls: the vendored shim has no shrinking, so
//! small seed tuples keep failing cases readable. The same construction
//! covers all four `BaselineMsg` variants, nine `AsapMsg` shapes (full,
//! patch and refresh ads, fetches, warm-up and query-driven ads requests,
//! replies with Bloom-backed snapshots, confirms and their replies) and all
//! nine `SuperMsg` variants of the super-peer deployment. A patch ad is the
//! one frame that carries both a `FilterPatch` and a whole 1,443 B filter.
//!
//! The [`Framed`] carrier queues a frame of up to [`PackedFrame::INLINE`]
//! bytes inline and a longer one on the heap, and decodes through the same
//! validation as [`decode_frame_exact`]: both storages round-trip, and
//! every malformed buffer below is `None` through `unpack` as well.

use std::rc::Rc;

use asap_bloom::{BloomFilter, BloomParams, FilterPatch};
use asap_core::superpeer::SuperMsg;
use asap_core::{AdPayload, AdSnapshot, Asap, AsapMsg, Forwarding, SuperAsap};
use asap_metrics::MsgClass;
use asap_net::wire::{
    checksum, decode_frame, decode_frame_exact, encode_frame, Frame, WireError, ENVELOPE, MAX_FRAME,
};
use asap_net::{Framed, PackedFrame};
use asap_overlay::PeerId;
use asap_search::{BaselineMsg, Flooding};
use asap_sim::checkpoint::assert_canonical;
use asap_sim::{Carrier, CheckpointProtocol, Codec, Encoder};
use asap_workload::{InterestSet, KeywordId};
use proptest::prelude::*;

/// Deterministic keyword list: distinct ids derived from a seed.
fn keywords(seed: u32, n: usize) -> Rc<[KeywordId]> {
    (0..n as u32)
        .map(|i| {
            let id = seed.wrapping_mul(2_654_435_761).wrapping_add(i * 7919) % 50_000;
            KeywordId(id as u16)
        })
        .collect::<Vec<_>>()
        .into()
}

/// One to five keys derived from a seed.
fn filter_keys(seed: u32) -> Vec<String> {
    (0..(seed % 5) + 1)
        .map(|i| format!("k{seed}-{i}"))
        .collect()
}

/// Bloom-backed snapshot from a seed, as ASAP ads replies carry them.
fn snapshot(seed: u32) -> AdSnapshot {
    let keys = filter_keys(seed);
    AdSnapshot {
        source: PeerId(seed % 10_000),
        topics: InterestSet((seed % 0xFFFF) as u16),
        version: (seed % 900) as u16,
        filter: Rc::new(BloomFilter::from_keys(
            BloomParams::paper_default(),
            keys.iter().map(String::as_str),
        )),
    }
}

/// A patch ad's payload from a seed: the diff from [`snapshot`]'s filter
/// to that filter with up to seven more keys, and the paper-sized filter it
/// yields.
fn patch_payload(seed: u32, source: PeerId, version: u16) -> AdPayload {
    let old = snapshot(seed).filter;
    let mut keys = filter_keys(seed);
    keys.extend((0..=seed % 7).map(|i| format!("p{seed}-{i}")));
    let new = BloomFilter::from_keys(
        BloomParams::paper_default(),
        keys.iter().map(String::as_str),
    );
    AdPayload::Patch {
        source,
        topics: InterestSet((seed % 0xFFFF) as u16),
        version,
        patch: Rc::new(FilterPatch::diff(&old, &new)),
        result: Rc::new(new),
    }
}

/// One of the four baseline wire messages, selected by `kind`.
fn baseline_msg(kind: u8, query: u32, peer: u32, ttl: u16, nterms: usize) -> BaselineMsg {
    let requester = PeerId(peer % 100_000);
    let terms = keywords(query, nterms);
    match kind % 4 {
        0 => BaselineMsg::Flood {
            query,
            requester,
            terms,
            ttl: (ttl % 32) as u8,
        },
        1 => BaselineMsg::Walk {
            query,
            requester,
            terms,
            ttl,
        },
        2 => BaselineMsg::Gsa {
            query,
            requester,
            terms,
            budget: u32::from(ttl) * 7 + 1,
        },
        _ => BaselineMsg::Hit {
            query,
            results: u32::from(ttl),
        },
    }
}

/// How many `AsapMsg` shapes [`asap_msg`] builds.
const ASAP_SHAPES: u8 = 9;

/// One of the nine ASAP wire message shapes, selected by `kind`.
fn asap_msg(kind: u8, query: u32, peer: u32, ttl: u16, nterms: usize) -> AsapMsg {
    let requester = PeerId(peer % 10_000);
    match kind % ASAP_SHAPES {
        0 => AsapMsg::Ad {
            payload: AdPayload::Full(snapshot(query)),
            fwd: Forwarding::Flood {
                ttl: (ttl % 32) as u8,
            },
            delivery: u64::from(query) << 16 | u64::from(ttl),
        },
        1 => AsapMsg::Ad {
            payload: patch_payload(query, requester, ttl % 900),
            fwd: Forwarding::Gsa {
                budget: u32::from(ttl) + 1,
            },
            delivery: u64::from(peer) << 16 | u64::from(ttl),
        },
        2 => AsapMsg::Ad {
            payload: AdPayload::Refresh {
                source: requester,
                topics: InterestSet((query % 0xFFFF) as u16),
                version: ttl % 900,
            },
            fwd: Forwarding::Walk {
                budget: u32::from(ttl) + 1,
            },
            delivery: u64::from(query),
        },
        3 => AsapMsg::FullAdFetch,
        4 => AsapMsg::AdsRequest {
            requester,
            interests: InterestSet((query % 0xFFFF) as u16),
            hops: (ttl % 8) as u8,
            query: Some(query),
            terms: Some(keywords(query, nterms)),
        },
        // Join-time warm-up shape: no live query attached.
        5 => AsapMsg::AdsRequest {
            requester,
            interests: InterestSet((query % 0xFFFF) as u16),
            hops: (ttl % 8) as u8,
            query: None,
            terms: None,
        },
        6 => AsapMsg::AdsReply {
            ads: (0..nterms % 4)
                .map(|i| snapshot(query.wrapping_add(i as u32)))
                .collect(),
            query: if ttl.is_multiple_of(2) {
                Some(query)
            } else {
                None
            },
        },
        7 => AsapMsg::Confirm {
            query,
            requester,
            terms: keywords(query, nterms.max(1)),
        },
        _ => AsapMsg::ConfirmReply {
            query,
            results: u32::from(ttl),
        },
    }
}

/// How many `SuperMsg` variants [`super_msg`] builds.
const SUPER_SHAPES: u8 = 9;

/// One of the nine super-peer ASAP wire messages, selected by `kind`.
fn super_msg(kind: u8, query: u32, peer: u32, ttl: u16, nterms: usize) -> SuperMsg {
    let requester = PeerId(peer % 10_000);
    let terms = keywords(query, nterms.max(1));
    match kind % SUPER_SHAPES {
        0 => SuperMsg::Register {
            snap: snapshot(query),
        },
        1 => SuperMsg::Digest {
            entries: (0..nterms as u32)
                .map(|i| {
                    let p = query.wrapping_add(i) % 10_000;
                    (PeerId(p), InterestSet((p % 0xFFFF) as u16), ttl % 900)
                })
                .collect::<Vec<_>>()
                .into(),
            budget: u32::from(ttl) + 1,
        },
        2 => SuperMsg::Fetch,
        3 => SuperMsg::FetchReply {
            snap: snapshot(query ^ peer),
        },
        4 => SuperMsg::QueryAsk {
            query,
            requester,
            terms,
        },
        5 => SuperMsg::Confirm {
            query,
            requester,
            terms,
        },
        6 => SuperMsg::ConfirmReply {
            query,
            results: u32::from(ttl),
        },
        7 => SuperMsg::AdsRequest {
            query,
            requester,
            terms,
        },
        _ => SuperMsg::AdsReply {
            query,
            requester,
            terms,
            ads: (0..nterms % 4)
                .map(|i| snapshot(query.wrapping_add(i as u32)))
                .collect(),
        },
    }
}

fn frame<M>(msg: M, peer: u32, class_idx: usize, billed: u32) -> Frame<M> {
    Frame {
        from: PeerId(peer % 100_000),
        to: PeerId(peer / 7 % 100_000),
        class: MsgClass::ALL[class_idx % MsgClass::ALL.len()],
        billed,
        msg,
    }
}

/// Decode → re-encode must be byte-identical: the message codecs are
/// canonical, so byte identity proves every field survived.
fn assert_roundtrip<P: CheckpointProtocol>(bytes: &[u8]) {
    let back = decode_frame_exact::<P>(bytes).expect("clean frame decodes");
    assert_eq!(
        encode_frame::<P>(&back),
        bytes,
        "re-encode is not byte-identical"
    );
    // The streaming decoder must agree with the exact one and consume all.
    let (stream, consumed) = decode_frame::<P>(bytes)
        .expect("streaming decode of a clean frame")
        .expect("frame is complete");
    assert_eq!(consumed, bytes.len());
    assert_eq!(encode_frame::<P>(&stream), bytes);
}

/// The frame payload *is* the message's [`Codec`] image — the same bytes a
/// checkpoint holds for the message in flight — and that image is canonical.
fn assert_payload_is_codec<M: Codec + std::fmt::Debug>(msg: &M, frame_bytes: &[u8]) {
    assert_canonical(msg);
    let mut enc = Encoder::new();
    msg.put(&mut enc);
    // len(4) + from(4) + to(4) + class(1) + billed(4), then payload, then
    // the 8-byte checksum.
    assert_eq!(&frame_bytes[17..frame_bytes.len() - 8], enc.into_bytes());
}

/// A malformed buffer, queued as the carrier queues a frame, unpacks to
/// `None`: the engine drops it and counts a wire error, never panics.
fn assert_carrier_rejects<P: CheckpointProtocol>(bad: &[u8]) {
    let msg = Framed::<P>::default().unpack(PackedFrame::copy_of(bad));
    assert!(msg.is_none(), "the carrier accepted a malformed frame");
}

/// Pack `f` the way `send` does; returns the queued frame.
fn pack<P: CheckpointProtocol>(f: &Frame<P::Msg>) -> PackedFrame {
    Framed::<P>::default().pack(f.from, f.to, f.class, f.billed as usize, f.msg.clone())
}

/// Every proper prefix is either "keep reading" (streaming) or a typed
/// `Truncated` (exact) — never a panic, never a bogus frame.
fn assert_prefixes_truncate<P: CheckpointProtocol>(bytes: &[u8], cut: usize)
where
    P::Msg: std::fmt::Debug,
{
    let prefix = &bytes[..cut];
    match decode_frame::<P>(prefix) {
        Ok(None) => {}
        Ok(Some((_, consumed))) => panic!("prefix of {cut} bytes decoded, consuming {consumed}"),
        Err(e) => panic!("prefix of {cut} bytes is a hard error: {e}"),
    }
    assert_eq!(
        decode_frame_exact::<P>(prefix).expect_err("prefix cannot be a whole frame"),
        WireError::Truncated
    );
    assert_carrier_rejects::<P>(prefix);
}

/// Frames on both sides of the inline capacity, every baseline shape with
/// zero to seven terms: each packs into the storage its length calls for,
/// holds the bytes `encode_frame` writes, and unpacks to a message that
/// re-encodes to them.
#[test]
fn frames_straddling_the_inline_capacity_roundtrip_through_the_carrier() {
    let mut lengths = Vec::new();
    for kind in 0..4 {
        for nterms in 0..8 {
            let f = frame(baseline_msg(kind, 911, 4_242, 17, nterms), 4_242, 3, 60);
            let bytes = encode_frame::<Flooding>(&f);
            let packed = pack::<Flooding>(&f);
            assert_eq!(packed.as_bytes(), bytes);
            assert_eq!(packed.is_inline(), bytes.len() <= PackedFrame::INLINE);
            let msg = Framed::<Flooding>::default()
                .unpack(packed)
                .expect("a clean frame unpacks");
            assert_eq!(encode_frame::<Flooding>(&Frame { msg, ..f }), bytes);
            lengths.push(bytes.len());
        }
    }
    for len in [PackedFrame::INLINE, PackedFrame::INLINE + 1] {
        assert!(lengths.contains(&len), "no {len}-byte frame: {lengths:?}");
    }
}

/// One flipped bit anywhere in a queued frame, inline or on the heap, is
/// `None` out of `unpack`.
#[test]
fn a_flipped_byte_in_either_storage_is_dropped() {
    let small = pack::<Flooding>(&frame(baseline_msg(0, 5, 6, 7, 2), 6, 0, 60));
    let large = pack::<Asap>(&frame(asap_msg(0, 5, 6, 7, 2), 6, 2, 1_500));
    assert!(small.is_inline() && !large.is_inline());
    fn flip_each<P: CheckpointProtocol>(clean: &PackedFrame) {
        for pos in 0..clean.as_bytes().len() {
            let mut bad = PackedFrame::copy_of(clean.as_bytes());
            bad.as_bytes_mut()[pos] ^= 0x10;
            let msg = Framed::<P>::default().unpack(bad);
            assert!(msg.is_none(), "flip at {pos} unpacked");
        }
    }
    flip_each::<Flooding>(&small);
    flip_each::<Asap>(&large);
}

/// Nine frames in ten of an ASAP run are 48-byte refresh ads, and a full-ad
/// fetch is shorter still: both must stay in the queue slot, so a message
/// change that pushes them onto the heap fails here rather than quietly
/// costing an allocation per frame. A full ad goes to the heap.
#[test]
fn refresh_ads_and_fetches_pack_inline() {
    let refresh = frame(asap_msg(2, 40_321, 77, 12, 3), 77, 4, 48);
    let AsapMsg::Ad {
        payload: AdPayload::Refresh { .. },
        ..
    } = &refresh.msg
    else {
        panic!("shape 2 is a refresh ad");
    };
    assert_eq!(encode_frame::<Asap>(&refresh).len(), 48);
    assert!(pack::<Asap>(&refresh).is_inline());
    let fetch = frame(asap_msg(3, 1, 2, 3, 0), 2, 5, 20);
    assert!(matches!(fetch.msg, AsapMsg::FullAdFetch));
    assert!(pack::<Asap>(&fetch).is_inline());
    let full = frame(asap_msg(0, 1, 2, 3, 0), 2, 2, 1_500);
    assert!(!pack::<Asap>(&full).is_inline());
}

/// A patch ad's frame holds the patch and the whole paper-sized filter
/// beside it, and both survive the round trip.
#[test]
fn patch_frames_carry_the_patch_and_the_whole_filter() {
    let f = frame(asap_msg(1, 40_321, 77, 12, 3), 77, 0, 9);
    let AsapMsg::Ad {
        payload: AdPayload::Patch { patch, result, .. },
        ..
    } = &f.msg
    else {
        panic!("shape 1 is a patch ad");
    };
    assert!(!patch.is_empty());
    let filter_bytes = result.params().raw_bytes();
    assert_eq!(filter_bytes, 1_443);
    let bytes = encode_frame::<Asap>(&f);
    assert!(bytes.len() > ENVELOPE + filter_bytes + patch.encoded_size());
    assert_roundtrip::<Asap>(&bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn baseline_frames_roundtrip_byte_identically(
        ids in (0u8..4, 0u32..1_000_000, 0u32..1_000_000),
        shape in (0u16..2_000, 0usize..8, 0usize..16, 0u32..1_000_000),
    ) {
        let (kind, query, peer) = ids;
        let (ttl, nterms, class_idx, billed) = shape;
        let f = frame(baseline_msg(kind, query, peer, ttl, nterms), peer, class_idx, billed);
        let bytes = encode_frame::<Flooding>(&f);
        assert_payload_is_codec(&f.msg, &bytes);
        assert_roundtrip::<Flooding>(&bytes);
    }

    #[test]
    fn asap_frames_roundtrip_byte_identically(
        ids in (0u8..ASAP_SHAPES, 0u32..1_000_000, 0u32..1_000_000),
        shape in (0u16..2_000, 0usize..8, 0usize..16, 0u32..1_000_000),
    ) {
        let (kind, query, peer) = ids;
        let (ttl, nterms, class_idx, billed) = shape;
        let f = frame(asap_msg(kind, query, peer, ttl, nterms), peer, class_idx, billed);
        let bytes = encode_frame::<Asap>(&f);
        assert_payload_is_codec(&f.msg, &bytes);
        assert_roundtrip::<Asap>(&bytes);
    }

    #[test]
    fn super_peer_frames_roundtrip_byte_identically(
        ids in (0u8..SUPER_SHAPES, 0u32..1_000_000, 0u32..1_000_000),
        shape in (0u16..2_000, 0usize..8, 0usize..16, 0u32..1_000_000),
    ) {
        let (kind, query, peer) = ids;
        let (ttl, nterms, class_idx, billed) = shape;
        let f = frame(super_msg(kind, query, peer, ttl, nterms), peer, class_idx, billed);
        let bytes = encode_frame::<SuperAsap>(&f);
        assert_payload_is_codec(&f.msg, &bytes);
        assert_roundtrip::<SuperAsap>(&bytes);
    }

    #[test]
    fn truncation_is_incomplete_or_typed_never_panics(
        ids in (0u8..ASAP_SHAPES, 0u32..1_000_000, 0u32..1_000_000, 0u16..2_000),
        cut_ppm in 0u32..1_000_000,
    ) {
        let (kind, query, peer, ttl) = ids;
        // ppm-scaled cut point so every length of prefix gets exercised
        // across cases regardless of how large the frame came out.
        let cut = |len: usize| (cut_ppm as usize * len / 1_000_000).min(len - 1);
        let f = frame(asap_msg(kind, query, peer, ttl, 3), peer, kind as usize, query);
        let bytes = encode_frame::<Asap>(&f);
        assert_prefixes_truncate::<Asap>(&bytes, cut(bytes.len()));
        let f = frame(super_msg(kind, query, peer, ttl, 3), peer, kind as usize, query);
        let bytes = encode_frame::<SuperAsap>(&f);
        assert_prefixes_truncate::<SuperAsap>(&bytes, cut(bytes.len()));
    }

    #[test]
    fn bit_flips_yield_typed_errors_never_panics(
        ids in (0u8..ASAP_SHAPES, 0u32..1_000_000, 0u32..1_000_000, 0u16..2_000),
        flip in (0u32..1_000_000, 0u8..8),
    ) {
        let (kind, query, peer, ttl) = ids;
        let (pos_ppm, bit) = flip;
        let flipped = |mut bad: Vec<u8>| {
            let pos = (pos_ppm as usize * bad.len() / 1_000_000).min(bad.len() - 1);
            bad[pos] ^= 1 << bit;
            (bad, pos)
        };
        let f = frame(super_msg(kind, query, peer, ttl, 3), peer, kind as usize, query);
        let (bad, pos) = flipped(encode_frame::<SuperAsap>(&f));
        prop_assert!(
            decode_frame_exact::<SuperAsap>(&bad).is_err(),
            "single-bit flip at byte {pos} bit {bit} of a super-peer frame decoded cleanly"
        );
        assert_carrier_rejects::<SuperAsap>(&bad);
        let f = frame(asap_msg(kind, query, peer, ttl, 3), peer, kind as usize, query);
        let (bad, pos) = flipped(encode_frame::<Asap>(&f));
        // A flip in the body fails the checksum; a flip in the length prefix
        // or trailing checksum surfaces as whatever typed error the shifted
        // interpretation hits (Truncated / Oversized / TrailingPayload /
        // BadChecksum). Exhaustive per-variant assertions live in the wire
        // unit tests; the property here is "typed error, never Ok, never
        // panic" for a whole-buffer decode.
        prop_assert!(
            decode_frame_exact::<Asap>(&bad).is_err(),
            "single-bit flip at byte {pos} bit {bit} decoded cleanly"
        );
        assert_carrier_rejects::<Asap>(&bad);
    }

    #[test]
    fn bad_length_prefixes_are_typed_errors(
        ids in (0u8..4, 0u32..1_000_000, 0u32..1_000_000),
        lens in (0u32..1_000_000, 0u32..(ENVELOPE as u32)),
    ) {
        let (kind, query, peer) = ids;
        let (over, under) = lens;
        let f = frame(baseline_msg(kind, query, peer, 9, 2), peer, kind as usize, query);
        let mut bytes = encode_frame::<Flooding>(&f);
        let oversized = MAX_FRAME as u32 + 1 + over;
        bytes[..4].copy_from_slice(&oversized.to_le_bytes());
        prop_assert_eq!(
            decode_frame::<Flooding>(&bytes).unwrap_err(),
            WireError::OversizedFrame(oversized)
        );
        prop_assert_eq!(
            decode_frame_exact::<Flooding>(&bytes).unwrap_err(),
            WireError::OversizedFrame(oversized)
        );
        assert_carrier_rejects::<Flooding>(&bytes);
        bytes[..4].copy_from_slice(&under.to_le_bytes());
        prop_assert_eq!(
            decode_frame::<Flooding>(&bytes).unwrap_err(),
            WireError::UndersizedFrame(under)
        );
        prop_assert_eq!(
            decode_frame_exact::<Flooding>(&bytes).unwrap_err(),
            WireError::UndersizedFrame(under)
        );
        assert_carrier_rejects::<Flooding>(&bytes);
    }

    #[test]
    fn unknown_class_tags_are_typed_errors(
        ids in (0u8..4, 0u32..1_000_000, 0u32..1_000_000),
        tag in 0u8..200,
    ) {
        let (kind, query, peer) = ids;
        let bad_tag = (MsgClass::ALL.len() as u8).saturating_add(tag % 100);
        let f = frame(baseline_msg(kind, query, peer, 9, 2), peer, kind as usize, query);
        let mut bytes = encode_frame::<Flooding>(&f);
        // Patch the class byte (after len+from+to) and re-stamp the checksum
        // so the corruption reaches the tag check instead of BadChecksum.
        bytes[12] = bad_tag;
        let body_end = bytes.len() - 8;
        let sum = checksum(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        prop_assert_eq!(
            decode_frame_exact::<Flooding>(&bytes).unwrap_err(),
            WireError::BadClassTag(bad_tag)
        );
        assert_carrier_rejects::<Flooding>(&bytes);
    }

    #[test]
    fn zero_bytes_appended_to_the_payload_change_the_checksum(
        ids in (0u8..8, 0u32..1_000_000, 0u32..1_000_000),
        extra in 1usize..24,
    ) {
        let (kind, query, peer) = ids;
        let f = frame(asap_msg(kind, query, peer, 9, 2), peer, kind as usize, query);
        let bytes = encode_frame::<Asap>(&f);
        let body_end = bytes.len() - 8;
        let stamped = checksum(&bytes[4..body_end]);
        prop_assert_eq!(&bytes[body_end..], &stamped.to_le_bytes()[..]);
        // Zero padding alone would make these the same words: the length is
        // folded in, so they are not the same checksum.
        let mut padded = bytes[4..body_end].to_vec();
        padded.extend(std::iter::repeat_n(0, extra));
        prop_assert_ne!(checksum(&padded), stamped);
        // And the frame carrying them is rejected, not read as the original.
        let mut grown = bytes[..body_end].to_vec();
        grown.extend(std::iter::repeat_n(0, extra));
        grown.extend_from_slice(&stamped.to_le_bytes());
        let len = (grown.len() - 4) as u32;
        grown[..4].copy_from_slice(&len.to_le_bytes());
        prop_assert_eq!(decode_frame_exact::<Asap>(&grown).unwrap_err(), WireError::BadChecksum);
        assert_carrier_rejects::<Asap>(&grown);
    }

    #[test]
    fn trailing_bytes_after_a_frame_are_typed(
        ids in (0u8..8, 0u32..1_000_000, 0u32..1_000_000),
        extra in 1usize..32,
    ) {
        let (kind, query, peer) = ids;
        let f = frame(asap_msg(kind, query, peer, 9, 2), peer, kind as usize, query);
        let mut bytes = encode_frame::<Asap>(&f);
        let clean_len = bytes.len();
        bytes.extend(std::iter::repeat_n(0xAB, extra));
        // Streaming decode stops exactly at the frame boundary — the extra
        // bytes belong to the next frame. The exact decoder (one datagram =
        // one frame) must reject them.
        let (_, consumed) = decode_frame::<Asap>(&bytes).unwrap().expect("frame is complete");
        prop_assert_eq!(consumed, clean_len);
        prop_assert_eq!(
            decode_frame_exact::<Asap>(&bytes).unwrap_err(),
            WireError::TrailingPayload
        );
        assert_carrier_rejects::<Asap>(&bytes);
    }
}
