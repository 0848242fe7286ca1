//! [`Codec`] for the filter types: how a filter rides a checkpoint or an
//! `asap-net` frame. Every filter carries its [`BloomParams`] inline, so it
//! is self-describing and decodes without access to any protocol config.

use crate::{BloomFilter, BloomParams, FilterPatch};
use asap_overlay::codec::{checksum, Codec, CodecError, Decoder, Encoder, Interner};
use asap_overlay::codec_struct;
use std::rc::Rc;

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
// set bits past the end, and recounts the ones. Cached ads repeat a source's
// filter at every cacher, so `Rc<BloomFilter>` decodes through the decoder's
// interner when it carries one: equal filters come back as one allocation.
// Only filters that were decoded are ever registered.
impl Codec for BloomFilter {
    fn put(&self, enc: &mut Encoder) {
        self.params().put(enc);
        enc.put_words(self.words());
    }
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (params, image) = image(dec)?;
        build(params, image)
    }
    fn pull_shared(dec: &mut Decoder<'_>) -> Result<Rc<Self>, CodecError> {
        let (params, image) = image(dec)?;
        match dec.interner() {
            Some(table) => intern_filter(table, checksum(image), params, image),
            None => build(params, image).map(Rc::new),
        }
    }
}

/// A filter's params and the little-endian bytes of its counted words.
fn image<'b>(dec: &mut Decoder<'b>) -> Result<(BloomParams, &'b [u8]), CodecError> {
    let params = BloomParams::pull(dec)?;
    let words = dec.get_count()?;
    let bytes = words.checked_mul(8).ok_or(CodecError::UnexpectedEof)?;
    Ok((params, dec.get_bytes(bytes)?))
}

fn words_of(image: &[u8]) -> impl Iterator<Item = u64> + '_ {
    image.chunks_exact(8).map(|chunk| {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        u64::from_le_bytes(word)
    })
}

fn build(params: BloomParams, image: &[u8]) -> Result<BloomFilter, CodecError> {
    BloomFilter::from_words(params, words_of(image).collect())
        .ok_or(CodecError::Invalid("bloom filter words"))
}

/// The filter registered under `key` if its params and every word equal the
/// image; otherwise the image goes through [`build`] — validated exactly as
/// an unshared decode — and is registered. The key only finds the
/// candidate (any deterministic function of the image would do); the
/// comparison decides, over every word without an early exit so that the
/// usual case, a hit, runs at vector width.
fn intern_filter(
    table: &mut Interner,
    key: u64,
    params: BloomParams,
    image: &[u8],
) -> Result<Rc<BloomFilter>, CodecError> {
    table.intern(
        key,
        |f: &BloomFilter| {
            let differing = f.words().iter().zip(words_of(image));
            f.params() == params
                && f.words().len() * 8 == image.len()
                && differing.fold(0, |bits, (have, got)| bits | (have ^ got)) == 0
        },
        || build(params, image),
    )
}

codec_struct!(FilterPatch { set, cleared });

#[cfg(test)]
mod tests {
    use super::*;

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

    fn pull_rc(bytes: &[u8], table: &mut Interner) -> Result<Rc<BloomFilter>, CodecError> {
        let mut dec = Decoder::new(bytes).with_interner(table);
        let rc = Codec::pull(&mut dec)?;
        dec.finish()?;
        Ok(rc)
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
    fn equal_filters_decode_to_one_allocation() {
        let mut table = Interner::default();
        let (a, b) = (bytes_of(&filter(1)), bytes_of(&filter(2)));
        let first = pull_rc(&a, &mut table).unwrap();
        let again = pull_rc(&a, &mut table).unwrap();
        let other = pull_rc(&b, &mut table).unwrap();
        assert!(Rc::ptr_eq(&first, &again));
        assert!(!Rc::ptr_eq(&first, &other));
        assert_eq!((*first).clone(), filter(1));
        assert_eq!((*other).clone(), filter(2));
        assert_eq!(table.entries(), 2);
    }

    #[test]
    fn filters_colliding_on_a_key_are_not_merged() {
        let mut table = Interner::default();
        let (a, b) = (filter(1), filter(2));
        let (image_a, image_b) = (bytes_of(&a), bytes_of(&b));
        // Skip params (8) and the count (8): the word bytes are the image.
        let get = |t: &mut Interner, f: &BloomFilter, bytes: &[u8]| {
            intern_filter(t, 7, f.params(), &bytes[16..]).unwrap()
        };
        let first = get(&mut table, &a, &image_a);
        let second = get(&mut table, &b, &image_b);
        assert_eq!(*first, a);
        assert_eq!(*second, b, "the content check, not the key, decides a hit");
        // The newcomer took the slot; it is the one found from now on.
        assert!(Rc::ptr_eq(&second, &get(&mut table, &b, &image_b)));
        assert_eq!(table.entries(), 1);
        // Same words under other params is a different filter too.
        let mut rehashed = image_b.clone();
        rehashed[4..8].copy_from_slice(&(b.params().hashes + 1).to_le_bytes());
        let third = pull_rc(&rehashed, &mut table).unwrap();
        assert!(!Rc::ptr_eq(&second, &third));
        assert_eq!(third.params().hashes, b.params().hashes + 1);
    }

    #[test]
    fn dead_entries_are_swept_as_the_table_doubles() {
        let mut table = Interner::default();
        let held: Vec<_> = (0..300)
            .map(|i| pull_rc(&bytes_of(&filter(i)), &mut table).unwrap())
            .collect();
        assert_eq!(table.entries(), 300);
        drop(held);
        // 250 more distinct filters: unswept that is 550 entries.
        let live: Vec<_> = (300..550)
            .map(|i| pull_rc(&bytes_of(&filter(i)), &mut table).unwrap())
            .collect();
        assert!(
            table.entries() <= 2 * live.len(),
            "{} entries",
            table.entries()
        );
        // A swept-away filter decodes afresh; a live one is still found.
        assert_eq!(
            *pull_rc(&bytes_of(&filter(0)), &mut table).unwrap(),
            filter(0)
        );
        let again = pull_rc(&bytes_of(&filter(549)), &mut table).unwrap();
        assert!(Rc::ptr_eq(&again, &live[249]));
    }

    #[test]
    fn a_bit_past_the_end_is_invalid_with_or_without_an_interner() {
        let f = filter(3);
        assert_ne!(
            f.params().bits % 64,
            0,
            "the fixture needs a partial last word"
        );
        let mut bytes = bytes_of(&f);
        *bytes.last_mut().unwrap() |= 0x80;
        let invalid = Err(CodecError::Invalid("bloom filter words"));
        let mut table = Interner::default();
        assert_eq!(pull_rc(&bytes, &mut table).map(|_| ()), invalid);
        assert_eq!(table.entries(), 0, "a rejected image is never registered");
        let plain = <Rc<BloomFilter>>::pull(&mut Decoder::new(&bytes));
        assert_eq!(plain.map(|_| ()), invalid);
        assert_eq!(
            BloomFilter::pull(&mut Decoder::new(&bytes)).map(|_| ()),
            invalid
        );
    }

    #[test]
    fn without_an_interner_every_handle_is_its_own_allocation() {
        let bytes = bytes_of(&filter(4));
        let pull = || <Rc<BloomFilter>>::pull(&mut Decoder::new(&bytes)).unwrap();
        let (a, b) = (pull(), pull());
        assert!(!Rc::ptr_eq(&a, &b));
        assert_eq!(*a, filter(4));
        assert_eq!(bytes_of(&a), bytes);
        // Truncation anywhere is the same typed error on both paths.
        let mut table = Interner::default();
        for cut in 0..bytes.len() {
            let eof = Err(CodecError::UnexpectedEof);
            let plain = <Rc<BloomFilter>>::pull(&mut Decoder::new(&bytes[..cut]));
            assert_eq!(plain.map(|_| ()), eof, "cut {cut}");
            assert_eq!(
                pull_rc(&bytes[..cut], &mut table).map(|_| ()),
                eof,
                "cut {cut}"
            );
        }
    }
}
