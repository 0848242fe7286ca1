//! The static content model: documents, initial holdings, interests.
//!
//! Generation recipe (validated against the paper's published marginals in
//! tests):
//!
//! 1. Class popularity is Zipf-skewed over the 14 classes (Fig. 2/3 shape).
//! 2. Each peer is a free rider with probability [`FREE_RIDER_FRACTION`];
//!    sharers draw 1–3 interest classes (primary from the Zipf, extras
//!    uniform) — the paper's *interest clustering* assumption. Free riders
//!    get 1–3 random interests ("assigned randomly").
//! 3. Each sharer places `1 + Geometric` documents. A placement is a
//!    *replica* of an existing document from the peer's interest classes
//!    with probability [`REPLICA_PROB`] (chosen from the class placement pool,
//!    i.e. preferentially by current copy count), otherwise a fresh document
//!    whose keywords come from its class vocabulary (Zipf-weighted ranks).
//!    `REPLICA_PROB = 0.22` reproduces the eDonkey trace statistics the
//!    paper cites: ≈ 1.28 copies per document, ≈ 89 % singletons.

use crate::config::WorkloadConfig;
use crate::ids::{ClassId, DocId, InterestSet, KeywordId};
use crate::vocab::Vocabulary;
use crate::zipf::{geometric, Zipf};
use asap_overlay::PeerId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::mem::size_of;

/// Number of semantic classes (paper: 14).
pub const CLASSES: usize = 14;
const _: () = assert!(
    CLASSES >= 1 && CLASSES <= 16,
    "classes must fit the InterestSet bitmask"
);
/// Zipf exponent for class popularity (shapes Fig. 2/3's skew).
pub const CLASS_ZIPF_S: f64 = 0.95;
/// Fraction of peers sharing nothing (free riders). Saroiu et al.'s
/// measurements motivate ~¼.
pub const FREE_RIDER_FRACTION: f64 = 0.25;
/// Mean shared documents per sharing peer (eDonkey: 923k files / 37k peers
/// ≈ 25).
pub const MEAN_DOCS_PER_SHARER: f64 = 25.0;
/// Probability a placed document replicates an existing one rather than
/// being new. 0.22 yields the paper's ≈ 1.28 copies/doc with ≈ 89 %
/// singletons (validated in tests).
pub const REPLICA_PROB: f64 = 0.22;
/// Keywords per document, inclusive range.
pub const KEYWORDS_PER_DOC: (usize, usize) = (3, 8);

/// One document: its semantic class and sorted, distinct keyword set, as a
/// view into the catalogue's arenas.
#[derive(Debug, Clone, Copy)]
pub struct Document<'a> {
    pub class: ClassId,
    pub keywords: &'a [KeywordId],
}

impl Document<'_> {
    /// The paper's match predicate: the document matches a request iff it
    /// contains **all** query terms.
    pub fn matches(&self, terms: &[KeywordId]) -> bool {
        terms.iter().all(|t| self.keywords.binary_search(t).is_ok())
    }
}

/// The universal content set `D_all` plus per-peer initial holdings and
/// interests.
///
/// The catalogue is three flat vectors rather than one heap block per
/// document: document `d` has class `classes[d]` and keywords
/// `keywords[starts[d]..starts[d + 1]]`. The initial holdings are one more
/// such pair: peer `p` shares `held[held_starts[p]..held_starts[p + 1]]`.
#[derive(Debug)]
pub struct ContentModel {
    pub vocab: Vocabulary,
    classes: Vec<ClassId>,
    /// `num_docs + 1` offsets into `keywords`.
    starts: Vec<u32>,
    keywords: Vec<KeywordId>,
    /// `num_peers + 1` offsets into `held`.
    held_starts: Vec<u32>,
    /// Every peer's initial shared documents, each peer's sorted; free
    /// riders' runs are empty.
    held: Vec<DocId>,
    /// `I(p)` for every peer.
    pub interests: Vec<InterestSet>,
    pub num_classes: usize,
}

impl ContentModel {
    pub fn num_peers(&self) -> usize {
        self.held_starts.len() - 1
    }

    pub fn num_docs(&self) -> usize {
        self.classes.len()
    }

    #[inline]
    pub fn doc(&self, id: DocId) -> Document<'_> {
        let d = id.index();
        let (start, end) = (self.starts[d] as usize, self.starts[d + 1] as usize);
        Document {
            class: self.classes[d],
            keywords: &self.keywords[start..end],
        }
    }

    /// The documents `p` shares at the start, ascending.
    #[inline]
    pub fn initial_holdings(&self, p: PeerId) -> &[DocId] {
        let i = p.index();
        &self.held[self.held_starts[i] as usize..self.held_starts[i + 1] as usize]
    }

    /// Every peer's initial holdings, in peer order.
    fn all_initial_holdings(&self) -> impl Iterator<Item = &[DocId]> + '_ {
        self.held_starts
            .windows(2)
            .map(|w| &self.held[w[0] as usize..w[1] as usize])
    }

    /// A peer that initially shares nothing.
    pub fn is_free_rider(&self, p: PeerId) -> bool {
        self.initial_holdings(p).is_empty()
    }

    /// Fig. 2: for each class, the number of peers whose shared content
    /// includes at least one document of that class.
    pub fn class_node_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for holdings in self.all_initial_holdings() {
            let classes: InterestSet = holdings.iter().map(|&d| self.doc(d).class).collect();
            for c in classes.iter() {
                counts[c.index()] += 1;
            }
        }
        counts
    }

    /// Fig. 3: for each class, the number of peers holding that interest.
    pub fn interest_node_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &i in &self.interests {
            for c in i.iter() {
                counts[c.index()] += 1;
            }
        }
        counts
    }

    /// `(mean copies per document, fraction of single-copy documents)` over
    /// the initial placement — the paper reports ≈ 1.28 and 89 %.
    pub fn copy_stats(&self) -> (f64, f64) {
        let mut copies = vec![0usize; self.num_docs()];
        for &d in &self.held {
            copies[d.index()] += 1;
        }
        let placed: Vec<usize> = copies.into_iter().filter(|&c| c > 0).collect();
        if placed.is_empty() {
            return (0.0, 0.0);
        }
        let total: usize = placed.iter().sum();
        let singles = placed.iter().filter(|&&c| c == 1).count();
        (
            total as f64 / placed.len() as f64,
            singles as f64 / placed.len() as f64,
        )
    }

    /// Heap bytes the model keeps: the vocabulary's words, the catalogue,
    /// the holdings arena and the interests, each at its capacity.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        self.vocab.heap_bytes()
            + bytes(&self.classes)
            + bytes(&self.starts)
            + bytes(&self.keywords)
            + bytes(&self.held_starts)
            + bytes(&self.held)
            + bytes(&self.interests)
    }
}

/// Generate the content model.
pub fn generate_model(config: &WorkloadConfig, rng: &mut SmallRng) -> ContentModel {
    let class_pop = Zipf::new(CLASSES, CLASS_ZIPF_S);
    let word_rank = Zipf::new(config.vocab_per_class, 1.0);
    let vocab = Vocabulary::for_classes(CLASSES, config.vocab_per_class);

    // Interests.
    let mut interests = Vec::with_capacity(config.peers);
    let mut free_rider = Vec::with_capacity(config.peers);
    for _ in 0..config.peers {
        let is_fr = rng.gen_bool(FREE_RIDER_FRACTION);
        free_rider.push(is_fr);
        let mut set = InterestSet::EMPTY;
        if is_fr {
            // "The interests of free-riding nodes are assigned randomly."
            let n = rng.gen_range(1..=3);
            while set.len() < n {
                set.insert(ClassId(rng.gen_range(0..CLASSES as u8)));
            }
        } else {
            set.insert(ClassId(class_pop.sample(rng) as u8));
            if rng.gen_bool(0.5) {
                set.insert(ClassId(rng.gen_range(0..CLASSES as u8)));
            }
            if rng.gen_bool(0.15) {
                set.insert(ClassId(rng.gen_range(0..CLASSES as u8)));
            }
        }
        interests.push(set);
    }

    // Documents and placements. Every fresh document draws its eventual
    // copy count up front — 89 % stay singletons, the rest follow a
    // geometric tail with conditional mean ≈ 3.55, so the marginal mean is
    // 0.89·1 + 0.11·3.55 ≈ 1.28 (the eDonkey statistics the paper cites).
    // Replica placements then fill the open quotas of their class.
    let mut classes: Vec<ClassId> = Vec::new();
    let mut starts: Vec<u32> = vec![0];
    let mut keywords: Vec<KeywordId> = Vec::new();
    // Per class: documents with unfilled copy quota (doc, copies remaining).
    let mut open_pool: Vec<Vec<(DocId, u32)>> = vec![Vec::new(); CLASSES];
    let mut held_starts: Vec<u32> = Vec::with_capacity(config.peers + 1);
    let mut held: Vec<DocId> = Vec::new();
    // One peer's documents while they are placed, reused across peers.
    let mut mine: Vec<DocId> = Vec::new();

    for p in 0..config.peers {
        held_starts.push(held.len() as u32);
        if free_rider[p] {
            continue;
        }
        let my_interests: Vec<ClassId> = interests[p].iter().collect();
        let n_docs = 1 + geometric(MEAN_DOCS_PER_SHARER - 1.0, rng);
        for _ in 0..n_docs {
            let class = my_interests[rng.gen_range(0..my_interests.len())];
            let pool = &mut open_pool[class.index()];
            let doc_id = if rng.gen_bool(REPLICA_PROB) && !pool.is_empty() {
                // Replica: fill a random open quota of this class.
                let slot = rng.gen_range(0..pool.len());
                let (id, _) = pool[slot];
                if mine.contains(&id) {
                    continue; // a peer holds at most one copy
                }
                pool[slot].1 -= 1;
                if pool[slot].1 == 0 {
                    pool.swap_remove(slot);
                }
                id
            } else {
                let id = DocId(classes.len() as u32);
                classes.push(class);
                make_document(config, class, &word_rank, rng, &mut keywords);
                starts.push(keywords.len() as u32);
                let extra_copies = sample_extra_copies(rng);
                if extra_copies > 0 {
                    pool.push((id, extra_copies));
                }
                id
            };
            mine.push(doc_id);
        }
        mine.sort_unstable();
        held.append(&mut mine);
    }
    held_starts.push(held.len() as u32);
    // The arenas grew by doubling; the model keeps them for the whole run.
    classes.shrink_to_fit();
    starts.shrink_to_fit();
    keywords.shrink_to_fit();
    held.shrink_to_fit();

    ContentModel {
        vocab,
        classes,
        starts,
        keywords,
        held_starts,
        held,
        interests,
        num_classes: CLASSES,
    }
}

/// Copies beyond the first a fresh document will eventually receive:
/// 0 with probability 0.89; otherwise `1 + Geometric(mean 1.55)`, i.e. total
/// copies `2 + G` with conditional mean 3.55. Marginal mean: 1 + 0.11·2.55 ≈
/// 1.28.
fn sample_extra_copies(rng: &mut SmallRng) -> u32 {
    if rng.gen_bool(0.89) {
        0
    } else {
        1 + geometric(1.55, rng) as u32
    }
}

/// Sample the keywords of a fresh document of `class` onto the end of the
/// keyword arena: 3–8 distinct keywords, Zipf-weighted ranks within the
/// class vocabulary, sorted.
fn make_document(
    config: &WorkloadConfig,
    class: ClassId,
    word_rank: &Zipf,
    rng: &mut SmallRng,
    arena: &mut Vec<KeywordId>,
) {
    let (lo, hi) = KEYWORDS_PER_DOC;
    let n = rng.gen_range(lo..=hi).min(config.vocab_per_class);
    let start = arena.len();
    let mut guard = 0;
    while arena.len() - start < n && guard < n * 50 {
        guard += 1;
        let rank = word_rank.sample(rng);
        // Below `CLASSES × vocab_per_class`, which `validate` keeps within
        // the keyword space.
        let kw = KeywordId((class.index() * config.vocab_per_class + rank) as u16);
        if !arena[start..].contains(&kw) {
            arena.push(kw);
        }
    }
    arena[start..].sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn model(peers: usize, seed: u64) -> ContentModel {
        let cfg = WorkloadConfig::reduced(peers, 100, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        generate_model(&cfg, &mut rng)
    }

    #[test]
    fn document_match_predicate() {
        let d = Document {
            class: ClassId(0),
            keywords: &[KeywordId(2), KeywordId(5), KeywordId(9)],
        };
        assert!(d.matches(&[KeywordId(5)]));
        assert!(d.matches(&[KeywordId(2), KeywordId(9)]));
        assert!(!d.matches(&[KeywordId(2), KeywordId(3)]));
        assert!(d.matches(&[]));
    }

    #[test]
    fn copy_stats_match_edonkey_marginals() {
        let m = model(4_000, 1);
        let (mean, singles) = m.copy_stats();
        assert!(
            (mean - 1.28).abs() < 0.12,
            "mean copies {mean}, paper reports 1.28"
        );
        assert!(
            (singles - 0.89).abs() < 0.05,
            "singleton fraction {singles}, paper reports 0.89"
        );
    }

    #[test]
    fn free_rider_fraction_respected() {
        let m = model(3_000, 2);
        let frs = (0..3_000)
            .filter(|&p| m.is_free_rider(PeerId(p as u32)))
            .count();
        let frac = frs as f64 / 3_000.0;
        assert!((frac - 0.25).abs() < 0.05, "free riders {frac}");
    }

    #[test]
    fn sharer_interests_cover_their_content() {
        let m = model(1_000, 3);
        for p in 0..1_000u32 {
            for &d in m.initial_holdings(PeerId(p)) {
                assert!(
                    m.interests[p as usize].contains(m.doc(d).class),
                    "peer {p} shares a document outside its interests"
                );
            }
        }
    }

    #[test]
    fn every_peer_has_interests() {
        let m = model(1_000, 4);
        assert!(m.interests.iter().all(|i| !i.is_empty()));
    }

    #[test]
    fn class_distribution_is_skewed() {
        let m = model(4_000, 5);
        let counts = m.class_node_counts();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > min.max(1) * 2,
            "Fig 2 shape: classes must be visibly skewed ({counts:?})"
        );
    }

    #[test]
    fn interest_counts_at_least_content_counts() {
        // Every sharer's content classes are among its interests, so Fig 3
        // counts dominate Fig 2 counts (free riders only add interests).
        let m = model(2_000, 6);
        let content = m.class_node_counts();
        let interest = m.interest_node_counts();
        for (c, (&cc, &ic)) in content.iter().zip(&interest).enumerate() {
            assert!(ic >= cc, "class {c}: interests {ic} < content {cc}");
        }
    }

    #[test]
    fn keywords_sorted_distinct_and_in_class_vocab() {
        let cfg = WorkloadConfig::reduced(500, 100, 7);
        let mut rng = SmallRng::seed_from_u64(7);
        let m = generate_model(&cfg, &mut rng);
        assert_eq!(m.starts.len(), m.num_docs() + 1);
        assert_eq!(*m.starts.last().unwrap() as usize, m.keywords.len());
        for d in (0..m.num_docs() as u32).map(|d| m.doc(DocId(d))) {
            assert!(!d.keywords.is_empty() && d.keywords.len() <= KEYWORDS_PER_DOC.1);
            assert!(d.keywords.windows(2).all(|w| w[0] < w[1]));
            let base = d.class.index() * cfg.vocab_per_class;
            for kw in d.keywords {
                let i = kw.index();
                assert!(i >= base && i < base + cfg.vocab_per_class);
            }
        }
    }

    #[test]
    fn holdings_sorted_and_deduplicated() {
        let m = model(1_000, 8);
        assert_eq!(m.all_initial_holdings().count(), 1_000);
        for h in m.all_initial_holdings() {
            assert!(h.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
