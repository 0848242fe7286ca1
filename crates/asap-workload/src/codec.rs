//! [`Codec`] for the workload's ids and trace events (queued trace events
//! ride a checkpoint's event queue; ids ride every protocol message).

use crate::{DocId, InterestSet, KeywordId, QuerySpec, TraceEvent};
use asap_overlay::codec::{Codec, CodecError, Decoder, Encoder};
use asap_overlay::{codec_enum, codec_struct};

// Hand-written: the id must lie inside the decoder's document space.
impl Codec for DocId {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_id(dec.bounds().docs, "doc id out of range")
            .map(DocId)
    }
}

// Hand-written: the id must lie inside the decoder's vocabulary, and
// inside the 16-bit keyword space under any bounds, the wire's included.
// It takes four bytes, so checkpoint and frame formats keep their widths.
impl Codec for KeywordId {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_u32(self.0.into());
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let bound = dec.bounds().keywords.min(KeywordId::SPACE);
        // In range, so the cast is exact.
        dec.get_id(bound, "keyword id out of range")
            .map(|id| KeywordId(id as u16))
    }
}

impl Codec for InterestSet {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_u16(self.0);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_u16().map(InterestSet)
    }
}

codec_struct!(QuerySpec {
    id,
    requester,
    terms,
    target
});
codec_enum!(TraceEvent {
    0 => Query(q),
    1 => AddDocument { peer, doc },
    2 => RemoveDocument { peer, doc },
    3 => Join(p),
    4 => Leave(p),
});

#[cfg(test)]
mod tests {
    use super::*;
    use asap_overlay::codec::{assert_canonical, IdBounds};
    use asap_overlay::PeerId;

    #[test]
    fn bounded_doc_and_keyword_ids_accept_n_minus_one_and_reject_n() {
        let bounds = IdBounds {
            docs: 40,
            keywords: 7,
            ..IdBounds::NONE
        };
        let dec = |bytes: &'static [u8; 4]| Decoder::new(bytes).with_bounds(bounds);
        assert_eq!(DocId::pull(&mut dec(&[39, 0, 0, 0])), Ok(DocId(39)));
        assert!(matches!(
            DocId::pull(&mut dec(&[40, 0, 0, 0])),
            Err(CodecError::Invalid(_))
        ));
        assert_eq!(KeywordId::pull(&mut dec(&[6, 0, 0, 0])), Ok(KeywordId(6)));
        assert!(matches!(
            KeywordId::pull(&mut dec(&[7, 0, 0, 0])),
            Err(CodecError::Invalid(_))
        ));
        assert_eq!(
            DocId::pull(&mut Decoder::new(&[255; 4])),
            Ok(DocId(u32::MAX))
        );
    }

    #[test]
    fn keyword_ids_past_sixteen_bits_are_rejected_under_any_bounds() {
        let wide = IdBounds {
            keywords: 1 << 20,
            ..IdBounds::NONE
        };
        for bounds in [IdBounds::NONE, wide] {
            let pull =
                |id: u32| KeywordId::pull(&mut Decoder::new(&id.to_le_bytes()).with_bounds(bounds));
            assert_eq!(pull(65_535), Ok(KeywordId(u16::MAX)));
            assert_eq!(
                pull(65_536),
                Err(CodecError::Invalid("keyword id out of range"))
            );
            assert_eq!(
                pull(u32::MAX),
                Err(CodecError::Invalid("keyword id out of range"))
            );
        }
        // Still four bytes on the wire.
        let mut enc = Encoder::new();
        KeywordId(u16::MAX).put(&mut enc);
        assert_eq!(enc.into_bytes(), vec![255, 255, 0, 0]);
    }

    #[test]
    fn query_spec_terms_are_checked_against_the_vocabulary() {
        let q = QuerySpec {
            id: 1,
            requester: PeerId(2),
            terms: vec![KeywordId(3), KeywordId(9)],
            target: DocId(4),
        };
        assert_canonical(&TraceEvent::Query(q.clone()));
        let mut enc = Encoder::new();
        q.put(&mut enc);
        let bytes = enc.into_bytes();
        let bounds = IdBounds {
            keywords: 9,
            ..IdBounds::NONE
        };
        let got = QuerySpec::pull(&mut Decoder::new(&bytes).with_bounds(bounds));
        assert_eq!(got, Err(CodecError::Invalid("keyword id out of range")));
    }
}
