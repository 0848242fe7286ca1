//! The interned keyword vocabulary.
//!
//! Keywords are the unit ASAP hashes into Bloom filters; the simulator works
//! with dense [`KeywordId`]s and resolves strings only when hashing.

use crate::ids::{ClassId, KeywordId};

/// Keyword table: id ↔ string. Built once by the content generator.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    words: Vec<String>,
}

impl Vocabulary {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a new keyword, returning its id. Panics past
    /// [`KeywordId::SPACE`] words.
    pub fn intern(&mut self, word: String) -> KeywordId {
        let id = u16::try_from(self.words.len())
            .map(KeywordId)
            .expect("vocabulary exceeds the 16-bit keyword space");
        self.words.push(word);
        id
    }

    /// Build a class vocabulary of `per_class` words per class. Word strings
    /// are deterministic (`c<class>.kw<rank>`), so filters built from them
    /// are reproducible across runs.
    pub fn for_classes(classes: usize, per_class: usize) -> Self {
        let mut v = Self {
            words: Vec::with_capacity(classes * per_class),
        };
        for c in 0..classes {
            for r in 0..per_class {
                v.intern(format!("c{c}.kw{r}"));
            }
        }
        v
    }

    /// Id of rank `rank` within class `class`, assuming `for_classes` layout.
    pub fn class_word(&self, class: ClassId, per_class: usize, rank: usize) -> KeywordId {
        let id = class.index() * per_class + rank;
        debug_assert!(id < self.words.len());
        KeywordId(id as u16)
    }

    #[inline]
    pub fn word(&self, id: KeywordId) -> &str {
        &self.words[id.index()]
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Heap bytes the table keeps: one `String` header per slot and each
    /// word's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<String>()
            + self.words.iter().map(String::capacity).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_resolve() {
        let mut v = Vocabulary::new();
        let a = v.intern("alpha".into());
        let b = v.intern("beta".into());
        assert_eq!(v.word(a), "alpha");
        assert_eq!(v.word(b), "beta");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn class_layout() {
        let v = Vocabulary::for_classes(3, 10);
        assert_eq!(v.len(), 30);
        let id = v.class_word(ClassId(2), 10, 4);
        assert_eq!(v.word(id), "c2.kw4");
    }

    #[test]
    fn words_are_distinct() {
        let v = Vocabulary::for_classes(14, 100);
        let set: std::collections::BTreeSet<&str> =
            (0..v.len()).map(|i| v.word(KeywordId(i as u16))).collect();
        assert_eq!(set.len(), v.len());
    }
}
