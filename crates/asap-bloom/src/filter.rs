//! The flat filter that travels inside ads, and the counting filter that is
//! its reference model.
//!
//! A peer's own filter is a pure function of what it holds: every content
//! change rebuilds it with [`BloomFilter::from_hashes`]. The paper's `(i, x)`
//! counts (§III-B) are recomputable from the same holdings, so no peer keeps
//! them; [`CountingBloom`] maintains them incrementally and is what tests
//! check the rebuild against.

use crate::hashing::KeyHash;
use crate::params::BloomParams;
use std::rc::Rc;

/// Flat Bloom filter: the content synopsis carried by a *full ad* and cached
/// in remote ad repositories.
///
/// Membership tests never return false negatives; false positives occur with
/// probability governed by [`BloomParams`]. A search request matches an ad
/// when **all** query terms test positive (paper §III-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    params: BloomParams,
    words: Vec<u64>,
    ones: u32,
}

impl BloomFilter {
    /// An empty filter (what a free-rider would advertise — though free
    /// riders advertise nothing at all in ASAP).
    pub fn empty(params: BloomParams) -> Self {
        Self {
            words: vec![0; (params.bits as usize).div_ceil(64)],
            ones: 0,
            params,
        }
    }

    /// Build a filter from precomputed keyword hashes: the OR of their bits.
    /// A hash listed twice sets the same bits twice, so the result depends
    /// only on the set of hashes — what a counting filter's nonzero cells
    /// mark after the same insertions.
    pub fn from_hashes<'a>(
        params: BloomParams,
        hashes: impl IntoIterator<Item = &'a KeyHash>,
    ) -> Self {
        let mut f = Self::empty(params);
        for h in hashes {
            f.insert_hash(h);
        }
        f
    }

    /// Build a filter directly from a keyword set.
    pub fn from_keys<'a>(params: BloomParams, keys: impl IntoIterator<Item = &'a str>) -> Self {
        let mut f = Self::empty(params);
        for k in keys {
            f.insert_hash(&KeyHash::of(k));
        }
        f
    }

    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.ones
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// Fraction of bits set — the filter's load factor.
    pub fn fill_ratio(&self) -> f64 {
        f64::from(self.ones) / f64::from(self.params.bits)
    }

    #[inline]
    fn insert_hash(&mut self, h: &KeyHash) {
        for bit in h.bits(self.params.bits, self.params.hashes) {
            self.set_bit(bit);
        }
    }

    #[inline]
    pub(crate) fn set_bit(&mut self, bit: u32) {
        let (w, mask) = (bit as usize / 64, 1u64 << (bit % 64));
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.ones += 1;
        }
    }

    #[inline]
    pub(crate) fn clear_bit(&mut self, bit: u32) {
        let (w, mask) = (bit as usize / 64, 1u64 << (bit % 64));
        if self.words[w] & mask != 0 {
            self.words[w] &= !mask;
            self.ones -= 1;
        }
    }

    #[inline]
    pub fn get_bit(&self, bit: u32) -> bool {
        self.words[bit as usize / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Membership test for one keyword.
    #[inline]
    pub fn contains(&self, key: &str) -> bool {
        self.contains_hash(&KeyHash::of(key))
    }

    #[inline]
    pub fn contains_hash(&self, h: &KeyHash) -> bool {
        h.bits(self.params.bits, self.params.hashes)
            .all(|b| self.get_bit(b))
    }

    /// True when **every** term tests positive — the ad-match predicate used
    /// by the ASAP search loop.
    pub fn contains_all<'a>(&self, keys: impl IntoIterator<Item = &'a str>) -> bool {
        keys.into_iter().all(|k| self.contains(k))
    }

    /// Raw 64-bit words backing the bit vector (checkpointing).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a filter from [`BloomFilter::words`] output. The set-bit count
    /// is recomputed; returns `None` when the word count doesn't match
    /// `params.bits` or a bit beyond `params.bits` is set (corrupt input).
    pub fn from_words(params: BloomParams, words: Vec<u64>) -> Option<Self> {
        if words.len() != (params.bits as usize).div_ceil(64) {
            return None;
        }
        let tail_bits = params.bits as usize % 64;
        if tail_bits != 0 {
            let last = *words.last()?;
            if last >> tail_bits != 0 {
                return None;
            }
        }
        let ones = count_ones_of(&words);
        Some(Self {
            params,
            words,
            ones,
        })
    }

    /// Positions of all set bits, ascending.
    pub fn one_positions(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.ones as usize);
        for (wi, &w) in self.words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let tz = w.trailing_zeros();
                out.push(wi as u32 * 64 + tz);
                w &= w - 1;
            }
        }
        out
    }

    /// Word-parallel multi-term membership test: equivalent to testing
    /// [`BloomFilter::contains_hash`] for every hash the plan was built
    /// from, but each probed word is fetched once and compared against a
    /// merged mask — up to 64 bit-probes collapse into one `u64` compare.
    /// Build the plan once per query and reuse it across every candidate
    /// filter (the ad-repository scan is the hot path this serves).
    ///
    /// Falls back to `false`-free behavior only for filters with the plan's
    /// parameters; with different parameters the probe positions would be
    /// wrong, so the caller must check [`ProbePlan::params`] first (the
    /// debug assert below catches mismatches in tests).
    #[inline]
    pub fn contains_plan(&self, plan: &ProbePlan) -> bool {
        debug_assert_eq!(self.params, plan.params, "plan built for other params");
        plan.probes
            .iter()
            .all(|&(w, mask)| self.words[w as usize] & mask == mask)
    }
}

/// The set bits of `words`, counted word-parallel. Each word's bits are
/// summed into its bytes (at most 8 a byte), the byte counts of up to 31
/// words are added lane by lane (at most 248 a byte), and each such block
/// takes one horizontal add. The x86-64 baseline has no popcount
/// instruction, and `count_ones` per word pays that horizontal add on
/// every word.
fn count_ones_of(words: &[u64]) -> u32 {
    const PAIRS: u64 = 0x5555_5555_5555_5555;
    const NIBBLES: u64 = 0x3333_3333_3333_3333;
    const BYTES: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    const HALVES: u64 = 0x00ff_00ff_00ff_00ff;
    let mut ones = 0;
    for block in words.chunks(31) {
        let mut bytes = 0u64;
        for &w in block {
            let x = w - ((w >> 1) & PAIRS);
            let x = (x & NIBBLES) + ((x >> 2) & NIBBLES);
            bytes += (x + (x >> 4)) & BYTES;
        }
        // Four 16-bit lanes of at most 496 each; the multiply sums them
        // into the top lane.
        let lanes = (bytes & HALVES) + ((bytes >> 8) & HALVES);
        ones += (lanes.wrapping_mul(0x0001_0001_0001_0001) >> 48) as u32;
    }
    ones
}

/// O(1) and consistent with `Eq`: the set-bit count and eight evenly spaced
/// words, not all 181 of a paper-sized filter. An ad cache hashes a filter
/// on every slot lookup and equality makes the final decision, so a
/// cheaper, coarser key is the better trade.
impl std::hash::Hash for BloomFilter {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u32(self.ones);
        let n = self.words.len();
        for i in 0..8 {
            if let Some(&w) = self.words.get(i * n / 8) {
                state.write_u64(w);
            }
        }
    }
}

/// Precomputed probe set for a fixed term list under fixed [`BloomParams`]:
/// every `(word, bit)` position the terms hash to, merged into one required
/// mask per distinct word and sorted ascending by word index (cache-friendly
/// forward scan). Probe positions depend only on the hashes and the
/// parameters — never on a particular filter — so one plan serves an entire
/// repository scan.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    params: BloomParams,
    /// `(word index, required mask)`, strictly ascending by word index.
    probes: Vec<(u32, u64)>,
}

impl ProbePlan {
    /// Build the merged probe set for `hashes` (conjunctive: a filter
    /// matches when **all** hashes test positive, the ad-match predicate).
    pub fn new(params: BloomParams, hashes: &[KeyHash]) -> Self {
        let mut probes: Vec<(u32, u64)> = Vec::with_capacity(hashes.len() * params.hashes as usize);
        for h in hashes {
            for bit in h.bits(params.bits, params.hashes) {
                probes.push((bit / 64, 1u64 << (bit % 64)));
            }
        }
        probes.sort_unstable_by_key(|&(w, _)| w);
        probes.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 |= a.1;
                true
            } else {
                false
            }
        });
        Self { params, probes }
    }

    /// The parameters the probe positions were derived for.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of distinct words the plan probes (≤ total bit-probes; the
    /// compression the word-parallel path buys).
    pub fn words_probed(&self) -> usize {
        self.probes.len()
    }
}

/// Counting Bloom filter: the paper's model of a peer's own content filter,
/// under which document removals can clear bits (§III-B: "a collection of
/// 2-tuples `(i, x)`, which means that the iᵗʰ bit is set for `x` times";
/// only the positions travel over the network). No peer keeps one — its
/// nonzero cells are exactly the bits of [`BloomFilter::from_hashes`] over
/// the peer's holdings — so it serves as the reference model the rebuilt
/// filters are tested against.
#[derive(Debug, Clone)]
pub struct CountingBloom {
    params: BloomParams,
    counts: Vec<u16>,
    /// Copy-on-write flat view: [`CountingBloom::snapshot_rc`] hands out the
    /// `Rc` for free, and the *next* mutation after a handout clones the bit
    /// vector exactly once (`Rc::make_mut`). Stable content ⇒ repeated ad
    /// emissions share one allocation.
    snapshot: Rc<BloomFilter>,
    /// Updates lost to saturated cells: increments absorbed by a cell
    /// already at `u16::MAX`, plus decrements pinned on such a cell. Once a
    /// cell saturates its true count is unknowable, so it stays at `MAX`
    /// forever — a permanent possible-false-positive, never a false
    /// negative. Diagnostic only.
    saturation_events: u64,
}

impl CountingBloom {
    pub fn new(params: BloomParams) -> Self {
        Self {
            counts: vec![0; params.bits as usize],
            snapshot: Rc::new(BloomFilter::empty(params)),
            params,
            saturation_events: 0,
        }
    }

    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Insert one keyword occurrence.
    pub fn insert(&mut self, key: &str) {
        self.insert_hash(&KeyHash::of(key));
    }

    /// Insert by precomputed hash (hot path for interned keyword tables).
    pub fn insert_hash(&mut self, h: &KeyHash) {
        for bit in h.bits(self.params.bits, self.params.hashes) {
            let c = &mut self.counts[bit as usize];
            if *c == u16::MAX {
                // Increment absorbed: the cell is saturated and stays there.
                self.saturation_events += 1;
                continue;
            }
            *c += 1;
            if *c == 1 {
                Rc::make_mut(&mut self.snapshot).set_bit(bit);
            }
        }
    }

    /// Remove one previously-inserted occurrence. Returns `false` (and leaves
    /// the filter untouched) if the key was never inserted — removing an
    /// absent key would corrupt other keys' bits.
    pub fn remove(&mut self, key: &str) -> bool {
        self.remove_hash(&KeyHash::of(key))
    }

    /// Remove by precomputed hash; see [`CountingBloom::remove`]. Two passes
    /// over the (deterministic) bit sequence instead of materializing it.
    ///
    /// Saturated cells (`u16::MAX`) are **pinned**: a saturated cell has
    /// absorbed at least one lost increment, so its true count is unknown
    /// and decrementing it could reach zero while keys still map there —
    /// clearing the bit and producing false negatives for *other* keys.
    /// Pinning trades that corruption for a permanent possible false
    /// positive on the saturated positions, which Bloom semantics allow.
    pub fn remove_hash(&mut self, h: &KeyHash) -> bool {
        if h.bits(self.params.bits, self.params.hashes)
            .any(|b| self.counts[b as usize] == 0)
        {
            return false;
        }
        for bit in h.bits(self.params.bits, self.params.hashes) {
            let c = &mut self.counts[bit as usize];
            if *c == u16::MAX {
                // Decrement pinned on a saturated cell.
                self.saturation_events += 1;
                continue;
            }
            *c -= 1;
            if *c == 0 {
                Rc::make_mut(&mut self.snapshot).clear_bit(bit);
            }
        }
        true
    }

    /// Membership test against the current state.
    pub fn contains(&self, key: &str) -> bool {
        self.snapshot.contains(key)
    }

    /// The flat snapshot to embed in a full ad, as an owned filter (clones
    /// the bit vector; prefer [`CountingBloom::snapshot_rc`] on hot paths).
    pub fn snapshot(&self) -> BloomFilter {
        (*self.snapshot).clone()
    }

    /// The flat snapshot as a shared handle — O(1), no bit-vector copy. The
    /// handle stays valid forever; the filter's next mutation diverges from
    /// it via copy-on-write rather than changing it in place.
    pub fn snapshot_rc(&self) -> Rc<BloomFilter> {
        Rc::clone(&self.snapshot)
    }

    /// Borrow the live snapshot without cloning.
    pub fn as_filter(&self) -> &BloomFilter {
        &self.snapshot
    }

    /// Raw per-bit occurrence counts.
    pub fn counts(&self) -> &[u16] {
        &self.counts
    }

    /// Updates lost to saturated cells so far (see the field docs). Zero in
    /// any healthy filter — the paper-default parameters would need a single
    /// bit position hit 65,535 times.
    pub fn saturation_events(&self) -> u64 {
        self.saturation_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BloomParams {
        BloomParams::for_capacity(200, 8)
    }

    /// The word-parallel count is `count_ones` summed, on random words,
    /// all-ones words, words masked to a filter's tail, and every length
    /// around a 31-word block.
    #[test]
    fn word_parallel_count_is_the_sum_of_count_ones() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sum = |words: &[u64]| words.iter().map(|w| w.count_ones()).sum::<u32>();
        for len in [0, 1, 2, 30, 31, 32, 62, 63, 93, 181, 200] {
            let random: Vec<u64> = (0..len).map(|_| next()).collect();
            let sparse: Vec<u64> = (0..len).map(|_| next() & next() & next()).collect();
            let full = vec![u64::MAX; len];
            for words in [random, sparse, full] {
                assert_eq!(count_ones_of(&words), sum(&words), "{len} words");
                let mut tail = words;
                if let Some(last) = tail.last_mut() {
                    *last &= (1 << 22) - 1;
                }
                assert_eq!(count_ones_of(&tail), sum(&tail), "{len} words, tail");
            }
        }
        let p = params();
        assert!(BloomFilter::from_words(p, Vec::new()).is_none(), "no words");
        assert_ne!(p.bits % 64, 0, "a geometry with a tail");
        let words = vec![u64::MAX; (p.bits as usize).div_ceil(64)];
        assert!(
            BloomFilter::from_words(p, words).is_none(),
            "bits past the end"
        );
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<String> = (0..150).map(|i| format!("kw{i}")).collect();
        let f = BloomFilter::from_keys(params(), keys.iter().map(String::as_str));
        for k in &keys {
            assert!(f.contains(k), "inserted key {k} must test positive");
        }
    }

    #[test]
    fn contains_all_semantics() {
        let f = BloomFilter::from_keys(params(), ["alpha", "beta", "gamma"]);
        assert!(f.contains_all(["alpha", "beta"]));
        assert!(f.contains_all(Vec::<&str>::new()));
        // Overwhelmingly unlikely to be a false positive at this load.
        assert!(!f.contains_all(["alpha", "definitely-not-present-zzz"]));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::empty(params());
        assert!(f.is_empty());
        assert!(!f.contains("anything"));
        assert_eq!(f.fill_ratio(), 0.0);
    }

    /// The analytic oracle `(1−e^{−kn/m})^k` at the paper's parameters
    /// (m = 11,542, k = 8) filled to their design load n = 1,000: the
    /// measured false-positive rate must be within ±20 % of it. Measured:
    /// 3,822 ppm against 3,905 (the benchmark's `bloom_false_positive_rate`
    /// check, same keys and probes).
    #[test]
    fn fp_rate_near_prediction() {
        let p = BloomParams::paper_default();
        let keys: Vec<String> = (0..1_000).map(|i| format!("keyword-{i}")).collect();
        let f = BloomFilter::from_keys(p, keys.iter().map(String::as_str));
        let trials = 400_000;
        let fps = (0..trials)
            .filter(|i| f.contains(&format!("absent-{i}")))
            .count();
        let rate = fps as f64 / trials as f64;
        let predicted = p.false_positive_rate(1_000);
        assert!(
            (rate / predicted - 1.0).abs() <= 0.20,
            "measured {rate}, predicted {predicted}"
        );
    }

    #[test]
    fn one_positions_roundtrip() {
        let f = BloomFilter::from_keys(params(), ["x", "y", "z"]);
        let pos = f.one_positions();
        assert_eq!(pos.len() as u32, f.count_ones());
        let mut g = BloomFilter::empty(params());
        for p in pos {
            g.set_bit(p);
        }
        assert_eq!(f, g);
    }

    #[test]
    fn counting_remove_restores_exact_state() {
        let mut c = CountingBloom::new(params());
        c.insert("stay");
        let before = c.snapshot();
        c.insert("gone");
        assert!(c.contains("gone"));
        assert!(c.remove("gone"));
        assert_eq!(c.snapshot(), before, "remove must restore the bit vector");
        assert!(c.contains("stay"));
    }

    #[test]
    fn counting_shared_bits_survive_removal() {
        // Two occurrences of the same keyword: removing one keeps membership.
        let mut c = CountingBloom::new(params());
        c.insert("dup");
        c.insert("dup");
        assert!(c.remove("dup"));
        assert!(c.contains("dup"));
        assert!(c.remove("dup"));
        assert!(!c.contains("dup"));
    }

    #[test]
    fn counting_remove_absent_is_noop() {
        let mut c = CountingBloom::new(params());
        c.insert("real");
        let snap = c.snapshot();
        assert!(!c.remove("never-inserted"));
        assert_eq!(c.snapshot(), snap);
    }

    #[test]
    fn snapshot_equals_rebuild() {
        let mut c = CountingBloom::new(params());
        let keys: Vec<String> = (0..80).map(|i| format!("k{i}")).collect();
        for k in &keys {
            c.insert(k);
        }
        let rebuilt = BloomFilter::from_keys(params(), keys.iter().map(String::as_str));
        assert_eq!(c.snapshot(), rebuilt);
    }

    #[test]
    fn from_hashes_equals_the_counting_filters_nonzero_cells() {
        let keys: Vec<String> = (0..60).map(|i| format!("k{}", i % 40)).collect();
        let hashes: Vec<KeyHash> = keys.iter().map(|k| KeyHash::of(k)).collect();
        let mut c = CountingBloom::new(params());
        for h in &hashes {
            c.insert_hash(h);
        }
        // Twenty keys occur twice; one removal each leaves them held.
        for h in &hashes[40..] {
            assert!(c.remove_hash(h));
        }
        let rebuilt = BloomFilter::from_hashes(params(), &hashes[..40]);
        assert_eq!(&rebuilt, c.as_filter());
        assert_eq!(
            rebuilt,
            BloomFilter::from_keys(params(), keys[..40].iter().map(String::as_str))
        );
        assert!(BloomFilter::from_hashes(params(), &[]).is_empty());
    }

    #[test]
    fn snapshot_rc_is_stable_under_copy_on_write() {
        let mut c = CountingBloom::new(params());
        c.insert("first");
        let held = c.snapshot_rc();
        let held_ones = held.count_ones();
        // Repeated handouts without intervening mutation share the allocation.
        assert!(Rc::ptr_eq(&held, &c.snapshot_rc()));
        // A mutation diverges the live filter without touching the handle.
        c.insert("second");
        assert_eq!(held.count_ones(), held_ones, "handed-out snapshot frozen");
        assert!(c.as_filter().count_ones() > held_ones);
        assert!(!Rc::ptr_eq(&held, &c.snapshot_rc()));
        assert_eq!(c.snapshot(), *c.snapshot_rc());
    }

    #[test]
    fn probe_plan_matches_per_hash_conjunction() {
        let p = params();
        let present: Vec<String> = (0..60).map(|i| format!("in{i}")).collect();
        let f = BloomFilter::from_keys(p, present.iter().map(String::as_str));
        // Equivalence over many term sets, mixing present and absent keys —
        // including false-positive territory on a loaded filter.
        for trial in 0..200 {
            let terms: Vec<String> = (0..1 + trial % 4)
                .map(|j| {
                    if (trial + j) % 3 == 0 {
                        format!("in{}", (trial * 7 + j) % 60)
                    } else {
                        format!("out{}", trial * 11 + j)
                    }
                })
                .collect();
            let hashes: Vec<KeyHash> = terms.iter().map(|t| KeyHash::of(t)).collect();
            let plan = ProbePlan::new(p, &hashes);
            let per_hash = hashes.iter().all(|h| f.contains_hash(h));
            assert_eq!(
                f.contains_plan(&plan),
                per_hash,
                "plan diverged from per-hash scan for {terms:?}"
            );
        }
    }

    #[test]
    fn probe_plan_merges_words_and_is_empty_safe() {
        let p = params();
        let hashes: Vec<KeyHash> = (0..4).map(|i| KeyHash::of(&format!("t{i}"))).collect();
        let plan = ProbePlan::new(p, &hashes);
        assert_eq!(plan.params(), p);
        assert!(plan.words_probed() <= 4 * p.hashes as usize);
        assert!(plan.words_probed() > 0);
        // Empty plan (zero terms) matches everything, like `all` on empty.
        let empty = ProbePlan::new(p, &[]);
        assert!(BloomFilter::empty(p).contains_plan(&empty));
    }

    #[test]
    fn saturated_cell_pins_on_delete_and_counts_events() {
        // One-hash filter makes the shared-cell scenario deterministic.
        let p = BloomParams {
            bits: 64,
            hashes: 1,
        };
        let mut c = CountingBloom::new(p);
        let key = "hot";
        for _ in 0..u32::from(u16::MAX) + 10 {
            c.insert(key);
        }
        assert_eq!(c.saturation_events(), 10, "10 increments absorbed");
        let bit = KeyHash::of(key)
            .bits(p.bits, p.hashes)
            .next()
            .map_or(0, |b| b as usize);
        assert_eq!(c.counts()[bit], u16::MAX);
        for i in 0..u32::from(u16::MAX) + 10 {
            assert!(c.remove(key), "remove #{i} failed");
        }
        assert_eq!(c.counts()[bit], u16::MAX, "cell must stay pinned");
        assert!(c.contains(key), "pinned cell keeps the bit set");
        assert_eq!(
            c.saturation_events(),
            10 + u64::from(u16::MAX) + 10,
            "every pinned decrement is counted"
        );
    }

    #[test]
    fn set_clear_bit_bookkeeping() {
        let mut f = BloomFilter::empty(params());
        f.set_bit(3);
        f.set_bit(3);
        assert_eq!(f.count_ones(), 1);
        f.clear_bit(3);
        f.clear_bit(3);
        assert_eq!(f.count_ones(), 0);
        assert!(f.is_empty());
    }
}
