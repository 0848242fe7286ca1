//! Bloom filters for ASAP advertisements.
//!
//! An ASAP *ad* carries a synopsis of a peer's shared content as a Bloom filter
//! over the peer's keyword set (paper §III-B). This crate provides:
//!
//! * [`BloomParams`] — sizing and false-positive math (`m = ⌈n·k/ln 2⌉`,
//!   `p_min = (1/2)^k`),
//! * [`BloomFilter`] — the flat bit vector that travels inside a *full ad*;
//!   a peer's own filter is rebuilt from what it holds on every content
//!   change ([`BloomFilter::from_hashes`]),
//! * [`CountingBloom`] — the paper's counting filter (the `(i, x)` 2-tuples:
//!   bit `i` is set `x` times), kept as the reference model the rebuilt
//!   filters are tested against. No peer keeps one: the counts are
//!   recomputable from the peer's holdings,
//! * [`FilterPatch`] — the list of changed bit positions that travels inside a
//!   *patch ad*,
//! * [`WireFilter`] — the wire encoding (raw bits vs. sparse positions) with a
//!   byte-size model used for bandwidth accounting.
//!
//! Hashing uses the Kirsch–Mitzenmacher double-hashing scheme over two
//! independent deterministic 64-bit hashes, so a filter built on one node
//! queries identically on every other node (the paper's "set of universal
//! hash functions all nodes agree on").

pub mod codec;
pub mod encoding;
pub mod filter;
pub mod hashing;
pub mod params;
pub mod patch;

pub use encoding::WireFilter;
pub use filter::{BloomFilter, CountingBloom, ProbePlan};
pub use params::BloomParams;
pub use patch::FilterPatch;
