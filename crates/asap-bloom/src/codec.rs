//! [`Codec`] for the filter types: how a filter rides a checkpoint or an
//! `asap-net` frame. Every filter carries its [`BloomParams`] inline, so it
//! is self-describing and decodes without access to any protocol config.

use crate::{BloomFilter, BloomParams, CountingBloom, FilterPatch};
use asap_overlay::codec::{Codec, CodecError, Decoder, Encoder};
use asap_overlay::codec_struct;

// Hand-written: a zero `bits` or `hashes` is not a filter geometry.
impl Codec for BloomParams {
    fn put(&self, enc: &mut Encoder) {
        enc.put_u32(self.bits);
        enc.put_u32(self.hashes);
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (bits, hashes) = Codec::pull(dec)?;
        if bits == 0 || hashes == 0 {
            return Err(CodecError::Invalid("degenerate bloom params"));
        }
        Ok(Self { bits, hashes })
    }
}

// Hand-written: `from_words` checks the word count against `bits`, rejects
// set bits past the end, and recounts the ones.
impl Codec for BloomFilter {
    fn put(&self, enc: &mut Encoder) {
        self.params().put(enc);
        enc.put_seq(self.words());
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (params, words) = Codec::pull(dec)?;
        Self::from_words(params, words).ok_or(CodecError::Invalid("bloom filter words"))
    }
}

// Hand-written: `from_counts` checks the slot count against `bits` and
// re-derives the flat snapshot.
impl Codec for CountingBloom {
    fn put(&self, enc: &mut Encoder) {
        self.params().put(enc);
        enc.put_seq(self.counts());
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (params, counts) = Codec::pull(dec)?;
        Self::from_counts(params, counts).ok_or(CodecError::Invalid("counting bloom counts"))
    }
}

codec_struct!(FilterPatch { set, cleared });
