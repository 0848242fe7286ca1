//! Wire encoding of full-ad filters and its byte-size model.
//!
//! "For those peers who share few files and keywords, we use a compressed
//! representation of the filter as a collection of 2-tuples (i, x) …
//! Only the first number in each tuple is transmitted over the network."
//! (paper §III-B). So a sparse filter ships as a list of set-bit positions
//! (2 bytes each for `m < 2¹⁶`); a dense filter ships raw (`m/8` bytes).
//! The encoder picks whichever is smaller.

use crate::filter::BloomFilter;

/// Framing overhead of either encoding (kind tag + length + params echo).
const FRAMING: usize = 4;

/// Wire form of a full-ad content filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFilter {
    /// Raw bit vector, `⌈m/8⌉` bytes. Chosen for dense filters.
    Raw { bytes: usize },
    /// Sparse list of set-bit positions, 2 bytes each.
    Sparse { positions: usize },
}

impl WireFilter {
    /// Pick the cheaper encoding for `filter`.
    pub fn encode(filter: &BloomFilter) -> Self {
        let raw = filter.params().raw_bytes();
        let sparse = 2 * filter.count_ones() as usize;
        if sparse < raw {
            Self::Sparse {
                positions: filter.count_ones() as usize,
            }
        } else {
            Self::Raw { bytes: raw }
        }
    }

    /// Encoded size in bytes, including framing.
    pub fn encoded_size(&self) -> usize {
        FRAMING
            + match self {
                Self::Raw { bytes } => *bytes,
                Self::Sparse { positions } => 2 * positions,
            }
    }

    /// Size the cheaper encoding of `filter` would occupy on the wire.
    pub fn size_of(filter: &BloomFilter) -> usize {
        Self::encode(filter).encoded_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BloomParams;

    #[test]
    fn sparse_chosen_for_few_keys() {
        let p = BloomParams::paper_default(); // 11,542 bits = 1,443 raw bytes
        let f = BloomFilter::from_keys(p, ["one", "two"]);
        match WireFilter::encode(&f) {
            WireFilter::Sparse { positions } => {
                assert_eq!(positions, f.count_ones() as usize)
            }
            other => panic!("expected sparse, got {other:?}"),
        }
        assert!(WireFilter::size_of(&f) < p.raw_bytes());
    }

    #[test]
    fn raw_chosen_for_dense_filters() {
        let p = BloomParams::for_capacity(100, 8);
        // Grossly overload the filter so > raw_bytes/2 bits are set.
        let keys: Vec<String> = (0..2_000).map(|i| format!("k{i}")).collect();
        let f = BloomFilter::from_keys(p, keys.iter().map(String::as_str));
        match WireFilter::encode(&f) {
            WireFilter::Raw { bytes } => assert_eq!(bytes, p.raw_bytes()),
            other => panic!("expected raw, got {other:?}"),
        }
    }

    #[test]
    fn empty_filter_is_tiny() {
        let f = BloomFilter::empty(BloomParams::paper_default());
        assert_eq!(WireFilter::size_of(&f), 4);
    }

    #[test]
    fn paper_full_filter_close_to_1_43_kb() {
        let p = BloomParams::paper_default();
        let keys: Vec<String> = (0..1_000).map(|i| format!("kw{i}")).collect();
        let f = BloomFilter::from_keys(p, keys.iter().map(String::as_str));
        let size = WireFilter::size_of(&f) as f64 / 1024.0;
        assert!(
            size <= 1.45,
            "full ad filter should be ≤ ~1.43 KB, got {size}"
        );
    }

    #[test]
    fn encoder_never_worse_than_raw() {
        let p = BloomParams::for_capacity(500, 8);
        for n in [0usize, 1, 10, 100, 500, 1500] {
            let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
            let f = BloomFilter::from_keys(p, keys.iter().map(String::as_str));
            assert!(WireFilter::size_of(&f) <= FRAMING + p.raw_bytes());
        }
    }
}
