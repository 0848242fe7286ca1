//! [`Codec`] for the filter types: how a filter rides a checkpoint or an
//! `asap-net` frame. Every filter carries its [`BloomParams`] inline, so it
//! is self-describing and decodes without access to any protocol config.

use crate::{BloomFilter, BloomParams, FilterPatch};
use asap_overlay::codec::{Codec, CodecError, Decoder, Encoder};
use asap_overlay::codec_struct;

// Hand-written: a zero `bits` or `hashes` is not a filter geometry.
impl Codec for BloomParams {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_u32(self.bits);
        enc.put_u32(self.hashes);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (bits, hashes) = Codec::pull(dec)?;
        if bits == 0 || hashes == 0 {
            return Err(CodecError::Invalid("degenerate bloom params"));
        }
        Ok(Self { bits, hashes })
    }
}

// Hand-written: `from_words` checks the word count against `bits`, rejects
// set bits past the end, and recounts the ones. Every decoded `Rc` is an
// allocation of its own; an ad cache shares equal filters by their contents
// (`asap-core`'s `FilterStore`).
impl Codec for BloomFilter {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        self.params().put(enc);
        enc.put_words(self.words());
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let params = BloomParams::pull(dec)?;
        let words = dec.get_count()?;
        let bytes = words.checked_mul(8).ok_or(CodecError::UnexpectedEof)?;
        let words = dec.get_bytes(bytes)?.chunks_exact(8).map(|chunk| {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            u64::from_le_bytes(word)
        });
        BloomFilter::from_words(params, words.collect())
            .ok_or(CodecError::Invalid("bloom filter words"))
    }
}

codec_struct!(FilterPatch { set, cleared });

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn filter(seed: u32) -> BloomFilter {
        let keys: Vec<String> = (0..4).map(|i| format!("k{seed}-{i}")).collect();
        BloomFilter::from_keys(
            BloomParams::for_capacity(64, 4),
            keys.iter().map(String::as_str),
        )
    }

    fn bytes_of(f: &BloomFilter) -> Vec<u8> {
        let mut enc = Encoder::new();
        f.put(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn block_put_is_the_counted_sequence() {
        let f = filter(1);
        let mut enc = Encoder::new();
        f.params().put(&mut enc);
        enc.put_seq(f.words());
        assert_eq!(bytes_of(&f), enc.into_bytes());
    }

    #[test]
    fn a_bit_past_the_end_is_invalid() {
        let f = filter(3);
        assert_ne!(
            f.params().bits % 64,
            0,
            "the fixture needs a partial last word"
        );
        let mut bytes = bytes_of(&f);
        *bytes.last_mut().unwrap() |= 0x80;
        let invalid = Err(CodecError::Invalid("bloom filter words"));
        let shared = <Rc<BloomFilter>>::pull(&mut Decoder::new(&bytes));
        assert_eq!(shared.map(|_| ()), invalid);
        assert_eq!(
            BloomFilter::pull(&mut Decoder::new(&bytes)).map(|_| ()),
            invalid
        );
    }

    #[test]
    fn every_handle_is_its_own_allocation() {
        let bytes = bytes_of(&filter(4));
        let pull = || <Rc<BloomFilter>>::pull(&mut Decoder::new(&bytes)).unwrap();
        let (a, b) = (pull(), pull());
        assert!(!Rc::ptr_eq(&a, &b));
        assert_eq!(*a, filter(4));
        assert_eq!(bytes_of(&a), bytes);
        // Truncation anywhere is the same typed error.
        for cut in 0..bytes.len() {
            let plain = <Rc<BloomFilter>>::pull(&mut Decoder::new(&bytes[..cut]));
            assert_eq!(
                plain.map(|_| ()),
                Err(CodecError::UnexpectedEof),
                "cut {cut}"
            );
        }
    }
}
