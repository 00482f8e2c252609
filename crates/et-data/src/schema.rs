//! Relation schemas: ordered attribute names with id-based access.

#![expect(
    clippy::indexing_slicing,
    reason = "attribute ids handed out by Schema are indexes into the attrs vec it owns"
)]

use std::fmt;

/// Index of an attribute within a [`Schema`].
///
/// `u16` keeps FD representations compact; the paper's widest dataset
/// (Hospital) has 19 attributes, far below the limit.
pub type AttrId = u16;

/// An ordered list of attribute names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attrs: Vec<String>,
}

impl Schema {
    /// Creates a schema from attribute names.
    ///
    /// # Panics
    /// Panics if names are empty or duplicated — FD semantics over ambiguous
    /// attribute names would be meaningless.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let attrs: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(!attrs.is_empty(), "schema needs at least one attribute");
        for (i, a) in attrs.iter().enumerate() {
            assert!(
                !attrs[..i].contains(a),
                "duplicate attribute name `{a}` in schema"
            );
        }
        Self { attrs }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the schema has no attributes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The name of attribute `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn name(&self, id: AttrId) -> &str {
        &self.attrs[id as usize]
    }

    /// Looks up an attribute id by name.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    pub fn id_of(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a == name)
            .map(|i| i as AttrId)
    }

    /// Iterates over `(id, name)` pairs.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, s)| (i as AttrId, s.as_str()))
    }

    /// All attribute names in order.
    pub fn names(&self) -> &[String] {
        &self.attrs
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.attrs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_roundtrip() {
        let s = Schema::new(["Player", "Team", "City"]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(1), "Team");
        assert_eq!(s.id_of("City"), Some(2));
        assert_eq!(s.id_of("Nope"), None);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let s = Schema::new(["a", "b"]);
        let v: Vec<(AttrId, &str)> = s.iter().collect();
        assert_eq!(v, vec![(0, "a"), (1, "b")]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let _ = Schema::new(["x", "x"]);
    }

    #[test]
    fn display_formats_names() {
        let s = Schema::new(["a", "b"]);
        assert_eq!(s.to_string(), "(a, b)");
    }
}
