//! The binary codec behind checkpoints and `asap-net` wire frames: one
//! [`Codec`] definition per serialized type.
//!
//! The format is little-endian with a fixed field order and no external
//! serialization dependency. A type states its field order (and, for enums,
//! its tag bytes) exactly once — through [`codec_struct!`](crate::codec_struct)
//! or [`codec_enum!`](crate::codec_enum) — and both directions are derived
//! from that list. An impl is hand-written only where decoding must enforce
//! an invariant or rebuild a derived field; each such impl says which.
//! Containers compose: counts are `u64`, `Option` is a bool byte, maps and
//! sets serialize in strictly ascending key order and decode only that
//! order, so encode → decode → re-encode is byte-identical.
//!
//! This module lives in `asap-overlay` for the same reason
//! [`crate::collections`] does: it is the one crate every codec-bearing
//! crate (`asap-bloom`, `asap-workload`, `asap-sim`, the protocols) can
//! reach, and the orphan rule wants trait or type to be local.
//! `asap_sim::{Codec, CodecError, Decoder, Encoder, Fnv64}` re-export it.

use crate::collections::{DetHashMap, DetHashSet};
use crate::{OverlayKind, PeerId};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

/// Typed decode failure. Every malformed input maps to one of these —
/// decoding never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the field being read.
    UnexpectedEof,
    /// The first eight bytes are not the checkpoint magic.
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

/// A 64-bit checksum of `bytes`, folded one little-endian `u64` per step:
/// what guards an `asap-net` frame. The tail is zero-padded to a whole word and the length folded in
/// last, so an image and the same image with zero bytes appended differ.
/// Each step is a bijection of the running state (rotate, xor, multiply by
/// an odd constant) and, for a given state, of the word folded in, so
/// corruption confined to one word always changes the result. Whole
/// 32-byte blocks go down four independent lanes, which keeps four
/// multiplies in flight instead of one; the lanes meet in an xor of
/// rotations, a bijection of each lane as well. It catches codec and queue
/// bugs, not an attacker.
#[inline]
pub fn checksum(bytes: &[u8]) -> u64 {
    /// The odd FxHash multiplier; only its mixing quality matters.
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let fold = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let word_of = |chunk: &[u8]| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    };
    let mut lanes = [0u64; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fold(*lane, word_of(chunk));
        }
    }
    let [a, b, c, d] = lanes;
    let mut h = a ^ b.rotate_left(16) ^ c.rotate_left(32) ^ d.rotate_left(48);
    for chunk in blocks.remainder().chunks(8) {
        h = fold(h, word_of(chunk));
    }
    fold(h, bytes.len() as u64)
}

/// Streaming FNV-1a 64-bit hash: the workspace's one byte-at-a-time hash —
/// the checkpoint trailer, the audit digest, Bloom keyword hashing. Stable, dependency-free, and fast enough to run per event;
/// collisions are irrelevant for a regression digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[inline]
    pub const fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Fold one word as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a whole record at once.
    #[inline]
    pub fn write_all(&mut self, vs: &[u64]) {
        for &v in vs {
            self.write_u64(v);
        }
    }

    /// Fold raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// Continue a fold from a raw state word: a previously observed
    /// [`Fnv64::finish`] value (checkpointing; FNV-1a state is just the
    /// running hash word) or a custom offset basis.
    #[inline]
    pub const fn from_raw(h: u64) -> Self {
        Self(h)
    }
}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder that appends to `buf`, keeping what it holds and its
    /// capacity: how a caller encodes into a buffer it reuses.
    #[inline]
    pub fn appending_to(buf: Vec<u8>) -> Self {
        Self { buf }
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

    /// A counted `u64` sequence, byte-identical to [`Encoder::put_seq`] over
    /// the same words but written as one block: one reservation, and a copy
    /// loop the compiler can widen, instead of a capacity check per word.
    #[inline]
    pub fn put_words(&mut self, words: &[u64]) {
        self.put_len(words.len());
        let at = self.buf.len();
        self.buf.resize(at + words.len() * 8, 0);
        for (slot, word) in self.buf[at..].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// A counted sequence: the item count, then every item. This is what a
    /// `Vec<T>` encodes as, for sequences held by reference.
    pub fn put_seq<'a, T: Codec + 'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a T, IntoIter: ExactSizeIterator>,
    ) {
        let items = items.into_iter();
        self.put_len(items.len());
        for item in items {
            item.put(self);
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// The id spaces a [`Decoder`] checks decoded ids against: a `PeerId`,
/// `DocId` or `KeywordId` at or past its bound is [`CodecError::Invalid`].
/// Validation lives in the id types' [`Codec`] impls, so no call site can
/// forget it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdBounds {
    pub peers: usize,
    pub docs: usize,
    pub keywords: usize,
}

impl IdBounds {
    /// No bound: what a wire frame decodes under (frames are produced
    /// in-process by the same engine).
    pub const NONE: Self = Self {
        peers: usize::MAX,
        docs: usize::MAX,
        keywords: usize::MAX,
    };
}

/// Bounds-checked little-endian reader.
#[derive(Debug)]
pub struct Decoder<'b> {
    buf: &'b [u8],
    pos: usize,
    bounds: IdBounds,
}

impl<'b> Decoder<'b> {
    /// A decoder with unbounded id spaces ([`IdBounds::NONE`]).
    #[inline]
    pub fn new(buf: &'b [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            bounds: IdBounds::NONE,
        }
    }

    /// Check every decoded id against `bounds` (a checkpoint resume knows
    /// the world the ids must index into).
    pub fn with_bounds(mut self, bounds: IdBounds) -> Self {
        self.bounds = bounds;
        self
    }

    #[inline]
    pub fn bounds(&self) -> IdBounds {
        self.bounds
    }

    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Raw byte slice of exactly `n` bytes.
    #[inline]
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

    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte out of range")),
        }
    }

    /// A `u32` id that must index into a space of `bound` entries.
    #[inline]
    pub fn get_id(&mut self, bound: usize, what: &'static str) -> Result<u32, CodecError> {
        let id = self.get_u32()?;
        if (id as usize) < bound {
            Ok(id)
        } else {
            Err(CodecError::Invalid(what))
        }
    }

    /// A scalar length value: must fit in `usize`, no further guarantees.
    /// Use [`Decoder::get_count`] for item counts that gate allocation.
    #[inline]
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid("length exceeds usize"))
    }

    /// An item count: like [`Decoder::get_len`] but additionally bounded by
    /// the bytes still unread, so a corrupted count can never drive an
    /// oversized allocation (every item occupies at least one byte).
    #[inline]
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
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// A type with exactly one binary image. `put` must be canonical
/// (deterministic iteration order) and `pull` total: malformed bytes are a
/// [`CodecError`], never a panic.
pub trait Codec: Sized {
    /// Append this value's image.
    fn put(&self, enc: &mut Encoder);

    /// Read one value back.
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

macro_rules! scalar_codec {
    ($($ty:ty => $put:ident / $get:ident),+) => {$(
        impl Codec for $ty {
            #[inline]
            fn put(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            #[inline]
            fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                dec.$get()
            }
        }
    )+};
}
scalar_codec!(u8 => put_u8 / get_u8, u16 => put_u16 / get_u16, u32 => put_u32 / get_u32);
scalar_codec!(u64 => put_u64 / get_u64, bool => put_bool / get_bool, usize => put_len / get_len);

impl Codec for String {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_str()
    }
}

// Hand-written: the id must lie inside the decoder's peer space.
impl Codec for PeerId {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.get_id(dec.bounds().peers, "peer id out of range")
            .map(PeerId)
    }
}

crate::codec_enum!(OverlayKind { 0 => Random, 1 => PowerLaw, 2 => Crawled });

impl<T: Codec> Codec for Option<T> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(enc);
        }
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(if dec.get_bool()? {
            Some(T::pull(dec)?)
        } else {
            None
        })
    }
}

/// The one place an item count gates an allocation (see
/// [`Decoder::get_count`]).
impl<T: Codec> Codec for Vec<T> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_seq(self);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let n = dec.get_count()?;
        // Reserve no more memory than the input has bytes left, however
        // large `T` is in memory; `push` grows past that if it must.
        let mut v = Vec::with_capacity(n.min(dec.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            v.push(T::pull(dec)?);
        }
        Ok(v)
    }
}

impl<T: Codec> Codec for Rc<[T]> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_seq(self.iter());
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Vec::pull(dec).map(Into::into)
    }
}

/// Transparent: every handle writes the whole value and decodes into an
/// allocation of its own.
impl<T: Codec> Codec for Rc<T> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        (**self).put(enc);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        T::pull(dec).map(Rc::new)
    }
}

impl<T: Codec> Codec for Box<T> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        (**self).put(enc);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        T::pull(dec).map(Box::new)
    }
}

/// Fixed-width: no count prefix.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        for item in self {
            item.put(enc);
        }
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let mut a = [T::default(); N];
        for slot in a.iter_mut() {
            *slot = T::pull(dec)?;
        }
        Ok(a)
    }
}

macro_rules! tuple_codec {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            #[inline]
            fn put(&self, enc: &mut Encoder) {
                $(self.$i.put(enc);)+
            }
            #[inline]
            fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(($($t::pull(dec)?,)+))
            }
        }
    };
}
tuple_codec!(A 0, B 1);
tuple_codec!(A 0, B 1, C 2);
tuple_codec!(A 0, B 1, C 2, D 3);

/// A counted sequence whose keys strictly ascend: the one form the map and
/// set encoders write, so decode accepts nothing else — no key out of
/// order, none twice.
#[inline]
fn pull_ascending<T: Codec, K: Ord, C: FromIterator<T>>(
    dec: &mut Decoder<'_>,
    key: impl Fn(&T) -> &K,
) -> Result<C, CodecError> {
    let items = Vec::<T>::pull(dec)?;
    if items.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
        return Err(CodecError::Invalid("keys not strictly ascending"));
    }
    Ok(items.into_iter().collect())
}

/// Maps serialize as a counted sequence of `(key, value)` in ascending key
/// order, whatever the insertion history.
impl<K: Codec + Ord + Hash, V: Codec> Codec for DetHashMap<K, V> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        let mut items: Vec<(&K, &V)> = self.iter().collect();
        items.sort_by_key(|&(k, _)| k);
        enc.put_len(items.len());
        for (k, v) in items {
            k.put(enc);
            v.put(enc);
        }
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        pull_ascending(dec, |(k, _): &(K, V)| k)
    }
}

/// The same bytes as a [`DetHashMap`] of the same entries.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for (k, v) in self {
            k.put(enc);
            v.put(enc);
        }
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        pull_ascending(dec, |(k, _): &(K, V)| k)
    }
}

/// Sets serialize as a counted sequence in ascending element order.
impl<K: Codec + Ord + Hash> Codec for DetHashSet<K> {
    #[inline]
    fn put(&self, enc: &mut Encoder) {
        let mut items: Vec<&K> = self.iter().collect();
        items.sort();
        enc.put_seq(items);
    }
    #[inline]
    fn pull(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        pull_ascending(dec, |k: &K| k)
    }
}

/// `codec_struct!(Name { a, b, c })`: the struct's [`Codec`] is its fields'
/// codecs in the listed order. Generic structs list their parameters:
/// `codec_struct!(Scheduled<M> { time_us, seq, event })`.
#[macro_export]
macro_rules! codec_struct {
    ($name:ident $(<$($g:ident),+>)? { $($f:ident),+ $(,)? }) => {
        impl$(<$($g: $crate::codec::Codec),+>)? $crate::codec::Codec for $name$(<$($g),+>)? {
            #[inline]
            fn put(&self, enc: &mut $crate::codec::Encoder) {
                $($crate::codec::Codec::put(&self.$f, enc);)+
            }
            #[inline]
            fn pull(
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(Self { $($f: $crate::codec::Codec::pull(dec)?),+ })
            }
        }
    };
}

/// `codec_enum!(Name { 0 => Unit, 1 => Tuple(x), 2 => Struct { a, b } })`:
/// a tag byte, then the variant's fields in the listed order (tuple fields
/// are named only to count them). An unlisted tag decodes to
/// [`CodecError::BadTag`].
#[macro_export]
macro_rules! codec_enum {
    ($name:ident $(<$($g:ident),+>)? {
        $($tag:literal => $var:ident $(($($t:ident),+))? $({$($f:ident),+})?),+ $(,)?
    }) => {
        impl$(<$($g: $crate::codec::Codec),+>)? $crate::codec::Codec for $name$(<$($g),+>)? {
            #[inline]
            fn put(&self, enc: &mut $crate::codec::Encoder) {
                match self {$(
                    Self::$var $(($($t),+))? $({$($f),+})? => {
                        enc.put_u8($tag);
                        $($($crate::codec::Codec::put($t, enc);)+)?
                        $($($crate::codec::Codec::put($f, enc);)+)?
                    }
                )+}
            }
            #[inline]
            fn pull(
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match dec.get_u8()? {
                    $($tag => Self::$var
                        $(($({
                            let $t = $crate::codec::Codec::pull(dec)?;
                            $t
                        }),+))?
                        $({$($f: $crate::codec::Codec::pull(dec)?),+})?,)+
                    _ => return Err($crate::codec::CodecError::BadTag),
                })
            }
        }
    };
}

/// Test helper: `v` encodes, decodes back consuming every byte, and
/// re-encodes to the identical bytes — the canonical-form property every
/// [`Codec`] promises.
pub fn assert_canonical<T: Codec + fmt::Debug>(v: &T) {
    let mut enc = Encoder::new();
    v.put(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes);
    let back = T::pull(&mut dec).unwrap_or_else(|e| panic!("decoding {v:?} failed: {e}"));
    assert_eq!(dec.finish(), Ok(()), "bytes left after {v:?}");
    let mut again = Encoder::new();
    back.put(&mut again);
    assert_eq!(bytes, again.into_bytes(), "re-encode differs for {v:?}");
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

    /// Maps and sets decode only the strictly ascending keys their
    /// encoders write: a key out of order or listed twice is refused, not
    /// sorted or merged into a state that re-encodes to other bytes.
    #[test]
    fn maps_and_sets_decode_only_ascending_keys() {
        let bytes = |keys: &[u32], with_values: bool| {
            let mut enc = Encoder::new();
            enc.put_len(keys.len());
            for (i, &k) in keys.iter().enumerate() {
                enc.put_u32(k);
                if with_values {
                    enc.put_u32(i as u32 + 1);
                }
            }
            enc.into_bytes()
        };
        let set = |b: &[u8]| DetHashSet::<u32>::pull(&mut Decoder::new(b)).map(|_| ());
        let map = |b: &[u8]| DetHashMap::<u32, u32>::pull(&mut Decoder::new(b)).map(|_| ());
        let tree = |b: &[u8]| BTreeMap::<u32, u32>::pull(&mut Decoder::new(b)).map(|_| ());
        let refused = Err(CodecError::Invalid("keys not strictly ascending"));
        for (keys, expect) in [
            (&[][..], Ok(())),
            (&[3, 7], Ok(())),
            (&[7, 3], refused),
            (&[3, 3], refused),
            (&[1, 5, 4], refused),
        ] {
            assert_eq!(set(&bytes(keys, false)), expect, "set {keys:?}");
            assert_eq!(map(&bytes(keys, true)), expect, "map {keys:?}");
            assert_eq!(tree(&bytes(keys, true)), expect, "tree {keys:?}");
        }
        let mut entries = DetHashMap::default();
        entries.insert(9u32, 1u32);
        entries.insert(2, 2);
        assert_canonical(&entries);
        assert_canonical(
            &entries
                .iter()
                .map(|(&k, &v)| (k, v))
                .collect::<BTreeMap<_, _>>(),
        );
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

    #[test]
    fn checksum_sees_every_word_the_tail_and_the_length() {
        // Long enough for whole 32-byte blocks, loose words and a tail.
        let base: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(37)).collect();
        let sum = checksum(&base);
        for pos in 0..base.len() {
            for bit in 0..8 {
                let mut bad = base.clone();
                bad[pos] ^= 1 << bit;
                assert_ne!(checksum(&bad), sum, "flip at byte {pos} bit {bit}");
            }
        }
        // Zero bytes appended pad to the same words; the length tells them
        // apart. So does it for the empty image.
        let mut longer = base.clone();
        for _ in 0..9 {
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "{} bytes", longer.len());
        }
        assert_ne!(checksum(&[]), checksum(&[0]));
        // Words that trade places change their lane or their step.
        let mut swapped = base.clone();
        swapped.swap(0, 8);
        assert_ne!(checksum(&swapped), sum);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        // A word folds its eight little-endian bytes; cross-check against a
        // direct byte-at-a-time computation.
        let mut h = Fnv64::new();
        h.write_u64(0x0102_0304_0506_0708);
        let mut expect = 0xcbf2_9ce4_8422_2325u64;
        for b in [0x08u8, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01] {
            expect = (expect ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(h.finish(), expect);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_all(&[1, 2]);
        let mut b = Fnv64::new();
        b.write_all(&[2, 1]);
        assert_ne!(a.finish(), b.finish());
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u32, u8),
        Poly { sides: u16, tags: Vec<u8> },
    }
    crate::codec_enum!(Shape { 0 => Dot, 1 => Line(len, width), 4 => Poly { sides, tags } });

    #[derive(Debug, PartialEq)]
    struct Wrapper<T> {
        id: u64,
        inner: Option<T>,
    }
    crate::codec_struct!(Wrapper<T> { id, inner });

    fn encode<T: Codec>(v: &T) -> Vec<u8> {
        let mut enc = Encoder::new();
        v.put(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn containers_and_macros_are_canonical() {
        assert_canonical(&(7u8, 9u16, 11u32, 13u64));
        assert_canonical(&(true, usize::MAX >> 1, String::from("ünï")));
        assert_canonical(&vec![Some(3u32), None, Some(0)]);
        assert_canonical(&[1u64, 2, 3]);
        assert_canonical(&Rc::new(vec![(1u8, 2u16)]));
        assert_canonical(&Box::new(5u16));
        let terms: Rc<[u32]> = vec![4, 5, 6].into();
        assert_canonical(&terms);
        assert_canonical(&Shape::Dot);
        assert_canonical(&Shape::Line(80, 2));
        assert_canonical(&Shape::Poly {
            sides: 5,
            tags: vec![1, 2],
        });
        assert_canonical(&Wrapper {
            id: 1,
            inner: Some(Shape::Dot),
        });
        assert_canonical(&OverlayKind::Crawled);
        // The struct form is its fields in order; the enum form a tag first.
        assert_eq!(
            encode(&Wrapper {
                id: 2,
                inner: Some(7u8)
            }),
            [2, 0, 0, 0, 0, 0, 0, 0, 1, 7]
        );
        assert_eq!(encode(&Shape::Line(1, 9)), [1, 1, 0, 0, 0, 9]);
    }

    #[test]
    fn vec_count_past_the_input_is_eof_before_any_allocation() {
        // Claims 2^40 items with nine bytes behind the count: a reservation
        // of that size would abort, so reaching the error proves none ran.
        let mut enc = Encoder::new();
        enc.put_u64(1 << 40);
        enc.put_bytes(&[0; 9]);
        let bytes = enc.into_bytes();
        let got = Vec::<u64>::pull(&mut Decoder::new(&bytes));
        assert_eq!(got, Err(CodecError::UnexpectedEof));
        let got = <Rc<[u8]>>::pull(&mut Decoder::new(&bytes));
        assert_eq!(got.map(|_| ()), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn option_tag_two_is_invalid() {
        let got = Option::<u8>::pull(&mut Decoder::new(&[2, 0]));
        assert!(matches!(got, Err(CodecError::Invalid(_))));
    }

    #[test]
    fn unknown_enum_tag_is_bad_tag() {
        // Tags 2 and 3 are unlisted (the list may be sparse), 5 is past it.
        for tag in [2u8, 3, 5, 255] {
            let got = Shape::pull(&mut Decoder::new(&[tag, 0, 0, 0, 0, 0]));
            assert_eq!(got, Err(CodecError::BadTag), "tag {tag}");
        }
        assert_eq!(
            OverlayKind::pull(&mut Decoder::new(&[3])),
            Err(CodecError::BadTag)
        );
    }

    #[test]
    fn map_and_set_bytes_ignore_insertion_order() {
        let keys = [17u32, 3, 99, 42, 8];
        let fwd: DetHashMap<u32, u16> = keys.iter().map(|&k| (k, k as u16 * 2)).collect();
        let rev: DetHashMap<u32, u16> = keys.iter().rev().map(|&k| (k, k as u16 * 2)).collect();
        assert_eq!(encode(&fwd), encode(&rev));
        assert_canonical(&fwd);
        // Ascending keys, stated once: count, then (3, 6) first.
        assert_eq!(
            encode(&fwd)[..14],
            [5, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 6, 0]
        );
        let fwd: DetHashSet<PeerId> = keys.iter().map(|&k| PeerId(k)).collect();
        let rev: DetHashSet<PeerId> = keys.iter().rev().map(|&k| PeerId(k)).collect();
        assert_eq!(encode(&fwd), encode(&rev));
        assert_canonical(&fwd);
    }

    #[test]
    fn bounded_peer_id_accepts_n_minus_one_and_rejects_n() {
        let bounds = IdBounds {
            peers: 120,
            ..IdBounds::NONE
        };
        let pull = |id: u32| PeerId::pull(&mut Decoder::new(&id.to_le_bytes()).with_bounds(bounds));
        assert_eq!(pull(119), Ok(PeerId(119)));
        assert_eq!(pull(120), Err(CodecError::Invalid("peer id out of range")));
        assert_eq!(
            pull(u32::MAX),
            Err(CodecError::Invalid("peer id out of range"))
        );
        // Unbounded (a wire frame): any u32 is a peer id.
        let any = PeerId::pull(&mut Decoder::new(&u32::MAX.to_le_bytes()));
        assert_eq!(any, Ok(PeerId(u32::MAX)));
        // The bound reaches ids nested inside containers.
        let nested = encode(&vec![(PeerId(5), Some(PeerId(120)))]);
        let got =
            Vec::<(PeerId, Option<PeerId>)>::pull(&mut Decoder::new(&nested).with_bounds(bounds));
        assert!(matches!(got, Err(CodecError::Invalid(_))));
    }
}
