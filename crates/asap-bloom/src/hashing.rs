//! Deterministic keyword hashing shared by every node.
//!
//! The paper assumes "all nodes agree on a set of universal hash functions
//! {h₁ … h_k}". We realize the family with Kirsch–Mitzenmacher double
//! hashing: `gᵢ(x) = h₁(x) + i·h₂(x) (mod m)`, which is indistinguishable
//! from `k` independent hashes for Bloom-filter purposes while needing only
//! two base hashes per key.
//!
//! The base hashes must be *deterministic across processes* (ads are built on
//! one node and queried on another), so we use FNV-1a with two different
//! offset bases followed by a 64-bit finalizer, rather than
//! `std::collections`' randomly-keyed `DefaultHasher`.

use asap_overlay::codec::Fnv64;

/// The second base hash starts from FNV's offset basis with its halves
/// swapped; the first is plain FNV-1a.
const FNV_OFFSET_B: u64 = 0x8422_2325_CBF2_9CE4;

#[inline]
fn fnv1a(mut h: Fnv64, bytes: &[u8]) -> u64 {
    h.write_bytes(bytes);
    h.finish()
}

/// SplitMix64 finalizer — breaks up FNV's weak avalanche on short keys.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two base hashes `(h₁, h₂)` of a keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash {
    h1: u64,
    h2: u64,
}

impl KeyHash {
    /// Hash a keyword. Keywords are compared case-insensitively throughout
    /// the system, so callers should lower-case beforehand; this function
    /// hashes the bytes exactly as given.
    #[inline]
    pub fn of(key: &str) -> Self {
        let bytes = key.as_bytes();
        Self {
            h1: mix(fnv1a(Fnv64::new(), bytes)),
            // Force h2 odd so successive probes never collapse onto one bit
            // when m shares factors with h2.
            h2: mix(fnv1a(Fnv64::from_raw(FNV_OFFSET_B), bytes)) | 1,
        }
    }

    /// The `i`-th derived bit position in a filter of `bits` bits.
    #[inline]
    pub fn bit(&self, i: u32, bits: u32) -> u32 {
        let g = self.h1.wrapping_add((i as u64).wrapping_mul(self.h2));
        (g % u64::from(bits)) as u32
    }

    /// Iterator over all `k` bit positions for filter parameters `(bits, k)`.
    #[inline]
    pub fn bits(&self, bits: u32, hashes: u32) -> impl Iterator<Item = u32> + '_ {
        (0..hashes).map(move |i| self.bit(i, bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let a = KeyHash::of("metallica");
        let b = KeyHash::of("metallica");
        assert_eq!(a, b);
        assert_eq!(
            a.bits(11_542, 8).collect::<Vec<_>>(),
            b.bits(11_542, 8).collect::<Vec<_>>()
        );
    }

    /// Every ad ever built hashes through `KeyHash::of`, so its values are
    /// pinned: these were computed before the base hash moved onto the
    /// shared `Fnv64`.
    #[test]
    fn key_hashes_are_pinned() {
        let pins = [
            ("", 0xf52a_15e9_a9b5_e89b, 0xfe53_61af_3ba5_1715),
            ("a", 0x02c0_bdbf_4814_20f8, 0xa4e6_26d0_7eda_00bd),
            ("metallica", 0xdb33_a7b9_2cf3_34f6, 0x68d1_c755_1e10_bf4b),
            (
                "rock and roll",
                0x43ab_1054_3671_f8b6,
                0x75a2_c155_7497_0d9d,
            ),
            ("key-9999", 0x7b4c_0cd0_b067_d976, 0xf31d_fa83_1d3f_d3a5),
        ];
        for (key, h1, h2) in pins {
            assert_eq!(KeyHash::of(key), KeyHash { h1, h2 }, "{key:?}");
        }
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(KeyHash::of("rock"), KeyHash::of("jazz"));
    }

    #[test]
    fn positions_in_range() {
        for key in ["a", "bb", "ccc", "a somewhat longer keyword 123"] {
            for pos in KeyHash::of(key).bits(997, 8) {
                assert!(pos < 997);
            }
        }
    }

    #[test]
    fn h2_is_odd() {
        for key in ["x", "y", "hello world", ""] {
            assert_eq!(KeyHash::of(key).h2 & 1, 1);
        }
    }

    #[test]
    fn probes_spread_over_filter() {
        // k = 8 positions of a single key should rarely all collide.
        let positions: std::collections::BTreeSet<u32> =
            KeyHash::of("spread-test").bits(11_542, 8).collect();
        assert!(positions.len() >= 6, "positions: {positions:?}");
    }

    #[test]
    fn distribution_roughly_uniform() {
        // Hash 10k distinct keys into 64 buckets via bit(0); expect each
        // bucket near 156 ± generous slack.
        let mut buckets = [0u32; 64];
        for i in 0..10_000 {
            let k = KeyHash::of(&format!("key-{i}"));
            buckets[k.bit(0, 64) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            assert!((80..=240).contains(&c), "bucket {i} has {c}");
        }
    }
}
