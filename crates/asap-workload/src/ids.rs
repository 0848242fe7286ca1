//! Dense identifiers for classes, keywords and documents, and the
//! interest-set bitmask.

/// One of the (paper: 14) semantic content classes — also the topic universe
/// `U` for ads and interests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u8);

impl ClassId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned keyword (index into the [`crate::Vocabulary`]). Sixteen bits:
/// 14 classes of at most a few thousand words each need no more, and the
/// catalogue stores one per keyword of every document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeywordId(pub u16);

impl KeywordId {
    /// How many distinct keyword ids there are: the largest vocabulary a
    /// workload may have.
    pub const SPACE: usize = 1 << 16;

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A document in the universal content set `D_all`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

impl DocId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of semantic classes as a bitmask (≤ 16 classes). Used both for a
/// peer's interests `I(p)` and an ad's topics `T(a)`; "node q is interested
/// in ad a if there is nonempty intersection between T(a) and I(q)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InterestSet(pub u16);

impl InterestSet {
    pub const EMPTY: InterestSet = InterestSet(0);

    pub fn singleton(class: ClassId) -> Self {
        Self(1 << class.0)
    }

    pub fn insert(&mut self, class: ClassId) {
        self.0 |= 1 << class.0;
    }

    pub fn remove(&mut self, class: ClassId) {
        self.0 &= !(1 << class.0);
    }

    #[inline]
    pub fn contains(self, class: ClassId) -> bool {
        self.0 & (1 << class.0) != 0
    }

    /// The interest-overlap predicate from the paper.
    #[inline]
    pub fn intersects(self, other: InterestSet) -> bool {
        self.0 & other.0 != 0
    }

    pub fn union(self, other: InterestSet) -> Self {
        Self(self.0 | other.0)
    }

    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn iter(self) -> impl Iterator<Item = ClassId> {
        (0..16u8)
            .filter(move |&c| self.0 & (1 << c) != 0)
            .map(ClassId)
    }
}

impl FromIterator<ClassId> for InterestSet {
    fn from_iter<T: IntoIterator<Item = ClassId>>(iter: T) -> Self {
        let mut s = Self::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = InterestSet::EMPTY;
        assert!(s.is_empty());
        s.insert(ClassId(3));
        s.insert(ClassId(13));
        assert!(s.contains(ClassId(3)));
        assert!(s.contains(ClassId(13)));
        assert!(!s.contains(ClassId(4)));
        assert_eq!(s.len(), 2);
        s.remove(ClassId(3));
        assert!(!s.contains(ClassId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn intersects_matches_paper_predicate() {
        let a: InterestSet = [ClassId(0), ClassId(5)].into_iter().collect();
        let b: InterestSet = [ClassId(5), ClassId(9)].into_iter().collect();
        let c = InterestSet::singleton(ClassId(1));
        assert!(a.intersects(b));
        assert!(!a.intersects(c));
        assert!(!InterestSet::EMPTY.intersects(a));
    }

    #[test]
    fn iter_yields_sorted_members() {
        let s: InterestSet = [ClassId(7), ClassId(2), ClassId(11)].into_iter().collect();
        let v: Vec<u8> = s.iter().map(|c| c.0).collect();
        assert_eq!(v, vec![2, 7, 11]);
    }

    #[test]
    fn union_combines() {
        let a = InterestSet::singleton(ClassId(1));
        let b = InterestSet::singleton(ClassId(2));
        let u = a.union(b);
        assert!(u.contains(ClassId(1)) && u.contains(ClassId(2)));
    }
}
