//! Tier 9 companion for ASAP (see TESTING.md): checkpoints whose ad-cache
//! section breaks what the running caches keep are a typed error at resume.
//!
//! Each case takes an ASAP(RW) checkpoint halfway through a tiny run,
//! parses the head of its protocol section — the filter table, then the
//! node records whose caches index it — edits it, re-encodes it, reseals
//! the checksum and resumes. The encoder writes sorted unique sources, no
//! node caching its own ad, and a table of distinct filters each named by
//! an entry in order of first use. Unsorted or repeated sources and a
//! node's own ad used to resume, then re-encode to other bytes or send a
//! confirmation from a node to itself mid-run; the protocol's `validate`
//! refuses them now, the decoder's table checks hold the rest of that
//! form, and `validate` holds every cached filter to the configured
//! geometry. A stamp at or past the engine's clock bound, which a
//! repository could not keep exactly, is refused by the decoder.
//! Super-peer ASAP's registrations are held to the same canonical form. The control cases resume the unedited splice and
//! re-encode it byte for byte.

use asap_core::superpeer::Role;
use asap_core::{Asap, AsapConfig, SuperAsap};
use asap_overlay::{Overlay, OverlayConfig, OverlayKind, PeerId};
use asap_sim::util::Backoff;
use asap_sim::{codec_struct, Checkpoint, CheckpointProtocol, Codec, CodecError, Decoder, Encoder};
use asap_sim::{Fnv64, Simulation, CLOCK_BOUND_US};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{ContentModel, InterestSet, Workload, WorkloadConfig};
use std::marker::PhantomData;

const PEERS: usize = 120;
const QUERIES: usize = 150;

fn world(seed: u64) -> (PhysicalNetwork, Workload, Overlay) {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, seed));
    let overlay = OverlayConfig::new(OverlayKind::Random, PEERS, seed).build();
    (phys, workload, overlay)
}

/// Recompute the trailing checksum after patching body bytes.
fn reseal(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let mut h = Fnv64::new();
    h.write_bytes(&bytes[..body_len]);
    let sum = h.finish();
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
}

/// A Bloom filter's image: `(bits, hashes)`, then the counted words.
type FilterImage = ((u32, u32), Vec<u64>);

/// One cache entry as a `VERSION = 4` ASAP checkpoint writes it: `filter`
/// indexes the protocol's filter table.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    source: PeerId,
    topics: InterestSet,
    version: u16,
    filter: u32,
    last_used_us: u64,
    last_refreshed_us: u64,
    stale: bool,
}
codec_struct!(CacheEntry {
    source,
    topics,
    version,
    filter,
    last_used_us,
    last_refreshed_us,
    stale
});

/// A flat ASAP node record.
struct AsapNode {
    snapshot: FilterImage,
    version: u16,
    cache: Vec<CacheEntry>,
    fetching: Vec<PeerId>,
    fetch_backoff: Vec<(PeerId, Backoff)>,
    fetches_served: u64,
    readvert: Option<(u64, Backoff)>,
}
codec_struct!(AsapNode {
    snapshot,
    version,
    cache,
    fetching,
    fetch_backoff,
    fetches_served,
    readvert
});

/// The head of ASAP's protocol section: the filter table, then the node
/// records whose caches index it. The pending searches and the rest follow.
struct AsapCaches {
    table: Vec<FilterImage>,
    nodes: Vec<AsapNode>,
}
codec_struct!(AsapCaches { table, nodes });

/// A super-peer ASAP node record: a super peer's cache indexes the same
/// kind of filter table, and its registered dependents ascend by source.
struct SuperNode {
    snapshot: FilterImage,
    version: u16,
    cache: Option<Vec<CacheEntry>>,
    registered: Vec<(PeerId, (InterestSet, u16))>,
}
codec_struct!(SuperNode {
    snapshot,
    version,
    cache,
    registered
});

/// The head of super-peer ASAP's protocol section: roles, the filter
/// table, the node records. The union interests and the rest follow.
struct SuperCaches {
    roles: Vec<Role>,
    table: Vec<FilterImage>,
    nodes: Vec<SuperNode>,
}
codec_struct!(SuperCaches {
    roles,
    table,
    nodes
});

/// A checkpoint of protocol `P` halfway through a run, ready to have the
/// head `S` of its protocol section edited and resumed.
struct Splice<P, S> {
    make: fn(&ContentModel) -> P,
    phys: PhysicalNetwork,
    workload: Workload,
    overlay: Overlay,
    seed: u64,
    bytes: Vec<u8>,
    /// Where the protocol section starts; it runs to the checksum.
    head: usize,
    section: PhantomData<S>,
}

type AsapSplice = Splice<Asap, AsapCaches>;

fn flat_rw(model: &ContentModel) -> Asap {
    Asap::new(AsapConfig::rw().scaled_to(PEERS), model)
}

impl<P: CheckpointProtocol, S: Codec> Splice<P, S> {
    fn halfway_with(seed: u64, make: fn(&ContentModel) -> P) -> Self {
        let (phys, workload, overlay) = world(seed);
        let kind = OverlayKind::Random;
        let protocol = make(&workload.model);
        let mut sim =
            Simulation::builder(&phys, &workload, overlay.clone(), kind, protocol, seed).build();
        sim.run_until(workload.trace.duration_us() / 2);
        let bytes = sim.checkpoint().into_bytes();
        let mut state = Encoder::new();
        sim.protocol().encode_state(&mut state);
        let state = state.into_bytes();
        drop(sim);
        let body = &bytes[..bytes.len() - 8];
        assert!(
            body.ends_with(&state),
            "the protocol section closes the body"
        );
        let head = body.len() - state.len();
        Self {
            make,
            phys,
            workload,
            overlay,
            seed,
            bytes,
            head,
            section: PhantomData,
        }
    }

    /// The checkpoint with the head of its protocol section re-encoded
    /// after `edit`, resealed.
    fn spliced(&self, edit: impl FnOnce(&mut S)) -> Vec<u8> {
        let mut dec = Decoder::new(&self.bytes[self.head..self.bytes.len() - 8]);
        let mut section = S::pull(&mut dec).expect("own section head");
        let rest = dec
            .get_bytes(dec.remaining())
            .expect("the rest of the section");
        edit(&mut section);
        let mut enc = Encoder::appending_to(self.bytes[..self.head].to_vec());
        section.put(&mut enc);
        enc.put_bytes(rest);
        enc.put_u64(0);
        let mut out = enc.into_bytes();
        reseal(&mut out);
        out
    }

    /// Resume `bytes`; `Ok` carries the resumed simulation's checkpoint.
    fn resume(&self, bytes: Vec<u8>) -> Result<Vec<u8>, CodecError> {
        let ckpt = Checkpoint::from_bytes(bytes)?;
        let protocol = (self.make)(&self.workload.model);
        let (kind, overlay) = (OverlayKind::Random, self.overlay.clone());
        let resumed = Simulation::builder(
            &self.phys,
            &self.workload,
            overlay,
            kind,
            protocol,
            self.seed,
        )
        .from_checkpoint(&ckpt)?;
        Ok(resumed.checkpoint().into_bytes())
    }
}

impl AsapSplice {
    fn halfway(seed: u64) -> Self {
        Self::halfway_with(seed, flat_rw)
    }
}

/// The first node whose cache holds at least `len` entries.
fn cache_of_at_least(caches: &mut AsapCaches, len: usize) -> &mut Vec<CacheEntry> {
    let node = caches.nodes.iter_mut().find(|n| n.cache.len() >= len);
    &mut node.expect("a cache that full halfway").cache
}

const UNSORTED: Result<Vec<u8>, CodecError> = Err(CodecError::Invalid(
    "ad cache sources not strictly ascending",
));

/// Control: the unedited splice is the checkpoint itself, resumes, and the
/// resumed run re-encodes to it byte for byte.
#[test]
fn asap_unedited_cache_splice_resumes_and_reencodes() {
    let s = AsapSplice::halfway(81);
    let unedited = s.spliced(|_| {});
    assert_eq!(unedited, s.bytes, "decode → encode is byte-identical");
    assert_eq!(s.resume(unedited), Ok(s.bytes.clone()));
}

/// Unsorted sources used to be sorted on the way in: the resume ran, and
/// re-encoded to other bytes than it was given.
#[test]
fn asap_cache_with_unsorted_sources_is_rejected() {
    let s = AsapSplice::halfway(82);
    let edited = s.spliced(|c| {
        let cache = cache_of_at_least(c, 2);
        let (a, b) = (cache[0].source, cache[1].source);
        (cache[0].source, cache[1].source) = (b, a);
    });
    assert_eq!(s.resume(edited), UNSORTED);
}

/// A repeated source used to keep the later entry, silently.
#[test]
fn asap_cache_with_a_repeated_source_is_rejected() {
    let s = AsapSplice::halfway(83);
    let edited = s.spliced(|c| {
        let cache = cache_of_at_least(c, 2);
        cache[1].source = cache[0].source;
    });
    assert_eq!(s.resume(edited), UNSORTED);
}

/// A node caching its own ad resumed: `handle_ad` never stores one, the
/// auditor reports one, and a lookup hitting it sent a confirmation to
/// the node itself.
#[test]
fn asap_cache_holding_its_owners_ad_is_rejected() {
    let s = AsapSplice::halfway(84);
    let capacity = AsapConfig::rw().scaled_to(PEERS).cache_capacity;
    let edited = s.spliced(|c| {
        let (p, node) = c
            .nodes
            .iter_mut()
            .enumerate()
            .find(|(_, n)| !n.cache.is_empty() && n.cache.len() < capacity)
            .expect("a cache with room halfway");
        let owner = PeerId(p as u32);
        let at = node.cache.partition_point(|e| e.source < owner);
        // Table index 0 is named by the first cached entry of all, so an
        // entry naming it is in order of first use wherever it sits.
        let own = CacheEntry {
            source: owner,
            filter: 0,
            ..node.cache[0]
        };
        node.cache.insert(at, own);
    });
    assert_eq!(
        s.resume(edited),
        Err(CodecError::Invalid("ad cache holds its owner's own ad"))
    );
}

#[test]
fn asap_cache_entry_past_the_filter_table_is_rejected() {
    let s = AsapSplice::halfway(85);
    let edited = s.spliced(|c| {
        let past = c.table.len() as u32;
        cache_of_at_least(c, 1)[0].filter = past;
    });
    assert_eq!(
        s.resume(edited),
        Err(CodecError::Invalid("ad cache filter index out of range"))
    );
}

/// A table filter no entry names would be dropped by the re-encode.
#[test]
fn asap_filter_table_entry_no_cache_names_is_rejected() {
    let s = AsapSplice::halfway(86);
    let edited = s.spliced(|c| {
        let (params, words) = c.table[0].clone();
        let empty = (params, vec![0; words.len()]);
        assert!(!c.table.contains(&empty), "no cached ad is empty");
        c.table.push(empty);
    });
    assert_eq!(
        s.resume(edited),
        Err(CodecError::Invalid(
            "filter table holds a filter no entry names"
        ))
    );
}

/// The table is written once per distinct filter, numbered in order of
/// first use; a repeated filter or another numbering would re-encode to
/// other bytes.
#[test]
fn asap_filter_table_out_of_canonical_form_is_rejected() {
    let s = AsapSplice::halfway(87);
    let repeated = s.spliced(|c| {
        let again = c.table[0].clone();
        c.table.push(again);
    });
    assert_eq!(
        s.resume(repeated),
        Err(CodecError::Invalid("filter table repeats a filter"))
    );
    let renumbered = s.spliced(|c| {
        c.table.swap(0, 1);
        for e in c.nodes.iter_mut().flat_map(|n| n.cache.iter_mut()) {
            e.filter = match e.filter {
                0 => 1,
                1 => 0,
                i => i,
            };
        }
    });
    assert_eq!(
        s.resume(renumbered),
        Err(CodecError::Invalid(
            "filter table not in order of first use"
        ))
    );
}

/// A cached filter of another geometry than the configuration's is one no
/// peer could have announced. It used to resume, and every lookup then
/// took the repository's per-hash fallback for it.
#[test]
fn asap_filter_table_entry_of_another_geometry_is_rejected() {
    let s = AsapSplice::halfway(88);
    let edited = s.spliced(|c| {
        let ((_, hashes), _) = &mut c.table[0];
        *hashes += 1;
    });
    assert_eq!(
        s.resume(edited),
        Err(CodecError::Invalid(
            "node filter parameters differ from the configuration"
        ))
    );
}

/// A repository keeps 48 bits of each stamp, which holds every time the
/// clock reaches (it stays below `CLOCK_BOUND_US`). A stamp of 2⁴⁸ µs
/// would be packed to 0 — past the clock check `validate` makes — and
/// re-encode to other bytes, so the decoder refuses it, in either field.
#[test]
fn asap_cache_stamp_past_the_clock_bound_is_rejected() {
    let s = AsapSplice::halfway(90);
    let past = Err(CodecError::Invalid("ad cache stamp past the clock bound"));
    let used = s.spliced(|c| cache_of_at_least(c, 1)[0].last_used_us = CLOCK_BOUND_US);
    assert_eq!(s.resume(used), past);
    let refreshed = s.spliced(|c| cache_of_at_least(c, 1)[0].last_refreshed_us = CLOCK_BOUND_US);
    assert_eq!(s.resume(refreshed), past);
}

/// Super-peer registrations used to be read as a list and collected into a
/// map, so an out-of-order or repeated source was sorted or merged and the
/// resume re-encoded to other bytes. The map decodes strictly ascending
/// sources only.
#[test]
fn superpeer_registrations_out_of_order_or_repeated_are_rejected() {
    let s: Splice<SuperAsap, SuperCaches> = Splice::halfway_with(89, |model| {
        SuperAsap::new(AsapConfig::rw().scaled_to(PEERS), model)
    });
    let unedited = s.spliced(|_| {});
    assert_eq!(s.resume(unedited), Ok(s.bytes.clone()));
    fn registered(c: &mut SuperCaches) -> &mut Vec<(PeerId, (InterestSet, u16))> {
        let node = c.nodes.iter_mut().find(|n| n.registered.len() >= 2);
        &mut node
            .expect("a super peer with two registrations")
            .registered
    }
    let refused = Err(CodecError::Invalid("keys not strictly ascending"));
    let swapped = s.spliced(|c| registered(c).swap(0, 1));
    assert_eq!(s.resume(swapped), refused);
    let repeated = s.spliced(|c| {
        let r = registered(c);
        r[1].0 = r[0].0;
    });
    assert_eq!(s.resume(repeated), refused);
}
