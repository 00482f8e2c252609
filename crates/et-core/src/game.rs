//! Game primitives: examples and labels.

/// A clean/dirty label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// The annotator considers the tuple clean.
    Clean,
    /// The annotator considers the tuple erroneous.
    Dirty,
}

impl Label {
    /// `true` when dirty.
    pub fn is_dirty(self) -> bool {
        matches!(self, Label::Dirty)
    }

    /// From a dirty flag.
    pub fn from_dirty(dirty: bool) -> Self {
        if dirty {
            Label::Dirty
        } else {
            Label::Clean
        }
    }
}

/// An example presented to the trainer: a pair of tuples (FD violations are
/// defined over pairs; §C.1 modifies all sampling methods to select pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairExample {
    /// Lower row id.
    pub a: usize,
    /// Higher row id.
    pub b: usize,
}

impl PairExample {
    /// Builds a normalized pair (`a < b`).
    ///
    /// # Panics
    /// Panics when `a == b`.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "a pair needs two distinct tuples");
        Self {
            a: a.min(b),
            b: a.max(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_conversions() {
        assert!(Label::Dirty.is_dirty());
        assert!(!Label::Clean.is_dirty());
        assert_eq!(Label::from_dirty(true), Label::Dirty);
        assert_eq!(Label::from_dirty(false), Label::Clean);
    }

    #[test]
    fn pair_normalizes() {
        let p = PairExample::new(7, 3);
        assert_eq!((p.a, p.b), (3, 7));
        assert_eq!(p, PairExample::new(3, 7));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_pair_rejected() {
        let _ = PairExample::new(4, 4);
    }
}
