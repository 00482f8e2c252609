//! Column-major, dictionary-encoded tables.
//!
//! FD evaluation only ever asks "are these two cells equal?", so cells are
//! interned per column and compared as `u32` symbols. This keeps the
//! pair-heavy computations (g1, violation indexing, error injection) cheap
//! and allocation-free on the hot path, per the workspace performance notes.

#![expect(
    clippy::indexing_slicing,
    reason = "column ids are validated against the schema width when a Table/TableBuilder is created; sym/text document their # Panics contract"
)]

use std::collections::HashMap;
use std::fmt;

use crate::schema::{AttrId, Schema};

/// One dictionary-encoded column.
#[derive(Debug, Clone, Default, PartialEq)]
struct Column {
    /// Symbol id -> original text.
    dict: Vec<String>,
    /// Original text -> symbol id.
    lookup: HashMap<String, u32>,
    /// One symbol per row.
    data: Vec<u32>,
}

impl Column {
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&s) = self.lookup.get(text) {
            return s;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "interned symbol ids and group ids are u32 by design; a dict or a group list outgrowing u32 would exhaust memory long before the cast truncates"
        )]
        let s = self.dict.len() as u32;
        self.dict.push(text.to_owned());
        self.lookup.insert(text.to_owned(), s);
        s
    }
}

/// An immutable-schema relational table with mutable cells.
///
/// Two tables are equal when they have the same schema, dictionaries (in
/// symbol order) and symbols: the same encoding, not merely the same
/// texts.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    cols: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Starts building a table for `schema`.
    pub fn builder(schema: Schema) -> TableBuilder {
        let ncols = schema.len();
        TableBuilder {
            table: Table {
                schema,
                cols: vec![Column::default(); ncols],
                nrows: 0,
            },
        }
    }

    /// Builds a table from already interned columns: per attribute, the
    /// dictionary (symbol `s` reads `dict[s]`) and one symbol per row.
    ///
    /// # Panics
    /// Panics when the column count differs from the schema's arity, the
    /// columns differ in length, a symbol is outside its dictionary, or a
    /// dictionary repeats a text.
    pub fn from_columns(schema: Schema, columns: Vec<(Vec<String>, Vec<u32>)>) -> Table {
        assert_eq!(
            columns.len(),
            schema.len(),
            "column count {} != schema arity {}",
            columns.len(),
            schema.len()
        );
        let nrows = columns.first().map_or(0, |(_, data)| data.len());
        let cols = columns
            .into_iter()
            .map(|(dict, data)| {
                assert_eq!(data.len(), nrows, "columns differ in length");
                let lookup: HashMap<String, u32> = (0u32..)
                    .zip(&dict)
                    .map(|(s, text)| (text.clone(), s))
                    .collect();
                assert_eq!(lookup.len(), dict.len(), "dictionary repeats a text");
                assert!(
                    data.iter().all(|&s| (s as usize) < dict.len()),
                    "symbol outside its dictionary"
                );
                Column { dict, lookup, data }
            })
            .collect();
        Table {
            schema,
            cols,
            nrows,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols.len()
    }

    /// The interned symbol at (`row`, `attr`). Symbols are only comparable
    /// within the same column.
    #[inline]
    pub fn sym(&self, row: usize, attr: AttrId) -> u32 {
        self.cols[attr as usize].data[row]
    }

    /// Column `attr`'s symbols, one per row: `syms(attr)[row] ==
    /// sym(row, attr)`. Walks over many rows of one column read this slice
    /// instead of resolving the column per cell.
    pub fn syms(&self, attr: AttrId) -> &[u32] {
        &self.cols[attr as usize].data
    }

    /// The original text at (`row`, `attr`).
    pub fn text(&self, row: usize, attr: AttrId) -> &str {
        let col = &self.cols[attr as usize];
        &col.dict[col.data[row] as usize]
    }

    /// Overwrites a cell with new text, interning as needed.
    pub fn set_text(&mut self, row: usize, attr: AttrId, text: &str) {
        let col = &mut self.cols[attr as usize];
        let s = col.intern(text);
        col.data[row] = s;
    }

    /// Number of distinct values currently interned in `attr`'s dictionary.
    ///
    /// This is an upper bound on the number of distinct values *in use*
    /// (cells may have been overwritten away from a symbol).
    pub fn dict_len(&self, attr: AttrId) -> usize {
        self.cols[attr as usize].dict.len()
    }

    /// Number of distinct values actually present in column `attr`.
    pub fn cardinality(&self, attr: AttrId) -> usize {
        let col = &self.cols[attr as usize];
        let mut seen = vec![false; col.dict.len()];
        let mut n = 0;
        for &s in &col.data {
            if !seen[s as usize] {
                seen[s as usize] = true;
                n += 1;
            }
        }
        n
    }

    /// True when rows `a` and `b` agree on every attribute in `attrs`.
    #[inline]
    pub fn rows_agree_on(&self, a: usize, b: usize, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|&at| self.sym(a, at) == self.sym(b, at))
    }

    /// The row as owned strings (diagnostics, CSV export).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
    )]
    pub fn row_texts(&self, row: usize) -> Vec<String> {
        (0..self.ncols())
            .map(|c| self.text(row, c as AttrId).to_owned())
            .collect()
    }

    /// The row's cell texts joined by `sep` — equal to
    /// `row_texts(row).join(sep)`, built in one exactly-sized `String`
    /// straight from the dictionaries (how a served presentation renders
    /// each tuple).
    pub fn joined_row(&self, row: usize, sep: &str) -> String {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
        )]
        let cells = || (0..self.ncols()).map(|c| self.text(row, c as AttrId));
        let len = cells().map(str::len).sum::<usize>() + sep.len() * self.ncols().saturating_sub(1);
        let mut text = String::with_capacity(len);
        for (i, cell) in cells().enumerate() {
            if i > 0 {
                text.push_str(sep);
            }
            text.push_str(cell);
        }
        text
    }

    /// A new table containing only `rows` (in the given order), re-interned.
    pub fn subset(&self, rows: &[usize]) -> Table {
        let mut b = Table::builder(self.schema.clone());
        for &r in rows {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
            )]
            let row: Vec<&str> = (0..self.ncols())
                .map(|c| self.text(r, c as AttrId))
                .collect();
            b.push_row(&row);
        }
        b.finish()
    }

    /// Partitions the rows by their projection onto `attrs`: rows share a
    /// group exactly when they agree on every attribute of `attrs`.
    ///
    /// Contract, relied on by callers that walk or draw from groups
    /// (error injection picks groups and rows by index):
    /// * group ids are dense in `0..n_groups` and numbered in order of
    ///   first occurrence: group `g`'s first row precedes group `g + 1`'s;
    /// * each group lists its rows in ascending order;
    /// * an empty `attrs` puts every row in one group.
    ///
    /// No hashing: one attribute maps symbols to ids through a
    /// `dict_len`-sized array; every further attribute splits each group by
    /// its rows' symbols through a dense per-symbol slot, reset after the
    /// group, and one pass in row order renumbers the splits by first row.
    pub fn group_by(&self, attrs: &[AttrId]) -> GroupedRows {
        let (row_group, sizes) = self.group_ids(attrs);
        let mut groups: Vec<Vec<u32>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (row, &g) in (0u32..).zip(&row_group) {
            groups[g as usize].push(row);
        }
        GroupedRows { row_group, groups }
    }

    /// [`Table::group_by`]'s group id of every row, with every group's
    /// size.
    fn group_ids(&self, attrs: &[AttrId]) -> (Vec<u32>, Vec<usize>) {
        let n = self.nrows;
        let Some((&first, rest)) = attrs.split_first() else {
            return (vec![0; n], if n == 0 { Vec::new() } else { vec![n] });
        };
        let mut ids = self.syms(first).to_vec();
        let mut sizes = renumber_by_first_row(&mut ids, self.dict_len(first));
        let mut order = vec![0u32; n];
        let mut bounds: Vec<usize> = Vec::new();
        for &attr in rest {
            // Every group's rows, ascending, back to back: a counting sort
            // of the rows by group id.
            bounds.clear();
            bounds.push(0);
            let mut end = 0;
            for &size in &sizes {
                end += size;
                bounds.push(end);
            }
            let mut cursor = bounds[..sizes.len()].to_vec();
            for (row, &g) in (0u32..).zip(&ids) {
                order[cursor[g as usize]] = row;
                cursor[g as usize] += 1;
            }
            // Split each group by `attr`, numbering its splits after the
            // previous group's.
            let syms = self.syms(attr);
            let mut slot = vec![UNSET; self.dict_len(attr)];
            let mut n_splits = 0u32;
            for w in bounds.windows(2) {
                let members = &order[w[0]..w[1]];
                for &row in members {
                    let s = &mut slot[syms[row as usize] as usize];
                    if *s == UNSET {
                        *s = n_splits;
                        n_splits += 1;
                    }
                    ids[row as usize] = *s;
                }
                for &row in members {
                    slot[syms[row as usize] as usize] = UNSET;
                }
            }
            sizes = renumber_by_first_row(&mut ids, n_splits as usize);
        }
        (ids, sizes)
    }
}

/// Renumbers `ids`, each below `n_ids`, densely in order of first
/// occurrence, and returns every new id's count.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a new id is handed out once per distinct u32 input id, so sizes.len() stays below 2^32"
)]
fn renumber_by_first_row(ids: &mut [u32], n_ids: usize) -> Vec<usize> {
    let mut renumber = vec![UNSET; n_ids];
    let mut sizes = Vec::new();
    for id in ids {
        let g = &mut renumber[*id as usize];
        if *g == UNSET {
            *g = sizes.len() as u32;
            sizes.push(0);
        }
        *id = *g;
        sizes[*g as usize] += 1;
    }
    sizes
}

/// An unassigned slot in [`Table::group_by`]'s dense id tables; never a
/// group id, since a table has fewer than `u32::MAX` rows.
const UNSET: u32 = u32::MAX;

/// Result of [`Table::group_by`]: a partition of rows by projected key.
#[derive(Debug, Clone)]
pub struct GroupedRows {
    /// For every row, the id of its group.
    pub row_group: Vec<u32>,
    /// For every group id, the member rows.
    pub groups: Vec<Vec<u32>>,
}

impl GroupedRows {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when there are no groups (empty table).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Incremental row-wise construction of a [`Table`].
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Appends a row of cell texts.
    ///
    /// # Panics
    /// Panics when the row arity does not match the schema.
    pub fn push_row<S: AsRef<str>>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.table.ncols(),
            "row arity {} != schema arity {}",
            cells.len(),
            self.table.ncols()
        );
        for (c, cell) in cells.iter().enumerate() {
            let sym = self.table.cols[c].intern(cell.as_ref());
            self.table.cols[c].data.push(sym);
        }
        self.table.nrows += 1;
    }

    /// Finalises the table.
    pub fn finish(self) -> Table {
        self.table
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        let limit = 20.min(self.nrows);
        for row in 0..limit {
            writeln!(f, "{}", self.row_texts(row).join(" | "))?;
        }
        if self.nrows > limit {
            writeln!(f, "... ({} rows total)", self.nrows)?;
        }
        Ok(())
    }
}

/// Builds the paper's Table 1 sample instance (Player/Team/City/Role/Apps).
///
/// Used across the workspace by doc examples and tests that check the g1
/// semantics of the paper's Example 1.
pub fn paper_table1() -> Table {
    let schema = Schema::new(["Player", "Team", "City", "Role", "Apps"]);
    let mut b = Table::builder(schema);
    b.push_row(&["Carter", "Lakers", "L.A.", "C", "4"]);
    b.push_row(&["Jordan", "Lakers", "Chicago", "PF", "4"]);
    b.push_row(&["Smith", "Bulls", "Chicago", "PF", "4"]);
    b.push_row(&["Black", "Bulls", "Chicago", "C", "3"]);
    b.push_row(&["Miller", "Clippers", "L.A.", "PG", "3"]);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_and_read_back() {
        let t = paper_table1();
        assert_eq!(t.nrows(), 5);
        assert_eq!(t.ncols(), 5);
        assert_eq!(t.text(0, 1), "Lakers");
        assert_eq!(t.text(4, 2), "L.A.");
        // t1 and t2 share a Team symbol but not a City symbol.
        assert_eq!(t.sym(0, 1), t.sym(1, 1));
        assert_ne!(t.sym(0, 2), t.sym(1, 2));
    }

    #[test]
    fn joined_row_matches_joined_texts() {
        let t = paper_table1();
        for r in 0..t.nrows() {
            assert_eq!(t.joined_row(r, " | "), t.row_texts(r).join(" | "));
            assert_eq!(t.joined_row(r, ""), t.row_texts(r).concat());
        }
    }

    #[test]
    fn set_text_changes_equality() {
        let mut t = paper_table1();
        assert!(!t.rows_agree_on(0, 1, &[2]));
        t.set_text(0, 2, "Chicago");
        assert!(t.rows_agree_on(0, 1, &[2]));
    }

    #[test]
    fn cardinality_counts_live_values() {
        let mut t = paper_table1();
        assert_eq!(t.cardinality(1), 3); // Lakers, Bulls, Clippers
        t.set_text(4, 1, "Lakers"); // Clippers no longer used
        assert_eq!(t.cardinality(1), 2);
        assert_eq!(t.dict_len(1), 3); // dictionary keeps the dead entry
    }

    #[test]
    fn group_by_partitions_rows() {
        let t = paper_table1();
        let g = t.group_by(&[1]); // by Team
        assert_eq!(g.len(), 3);
        assert_eq!(g.row_group[0], g.row_group[1]); // both Lakers
        assert_ne!(g.row_group[0], g.row_group[2]);
        let lakers = &g.groups[g.row_group[0] as usize];
        assert_eq!(lakers.as_slice(), &[0, 1]);
    }

    #[test]
    fn group_by_multi_attr() {
        let t = paper_table1();
        let g = t.group_by(&[2, 3]); // City, Role
                                     // (Chicago, PF) groups rows 1 and 2 together.
        assert_eq!(g.row_group[1], g.row_group[2]);
        assert_ne!(g.row_group[0], g.row_group[1]);
    }

    #[test]
    fn group_by_sees_edited_and_dead_symbols() {
        let mut t = paper_table1();
        t.set_text(4, 1, "Lakers"); // Clippers falls out of use
        t.set_text(0, 1, "Knicks"); // a fresh symbol
        assert!(t.dict_len(1) > t.cardinality(1));
        let g = t.group_by(&[1, 3]); // Team, Role
        assert_eq!(g.row_group, vec![0, 1, 2, 3, 4]);
        let g = t.group_by(&[1]);
        assert_eq!(g.groups, vec![vec![0], vec![1, 4], vec![2, 3]]);
        assert_eq!(g.row_group, group_by_hashed(&t, &[1]).row_group);
    }

    #[test]
    fn group_by_no_attrs_is_one_group() {
        let t = paper_table1();
        assert_eq!(t.group_by(&[]).groups, vec![vec![0, 1, 2, 3, 4]]);
        let empty = Table::builder(Schema::new(["a"])).finish();
        assert!(empty.group_by(&[]).is_empty());
        assert!(empty.group_by(&[0]).is_empty());
    }

    /// `group_by` as it stood before its dense ids: a SipHash map from
    /// each row's projected key to the id of the group it opened.
    fn group_by_hashed(t: &Table, attrs: &[AttrId]) -> GroupedRows {
        let mut key_ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut row_group = Vec::with_capacity(t.nrows());
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for row in 0..t.nrows() {
            let key: Vec<u32> = attrs.iter().map(|&a| t.sym(row, a)).collect();
            let gid = *key_ids.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() as u32 - 1
            });
            groups[gid as usize].push(row as u32);
            row_group.push(gid);
        }
        GroupedRows { row_group, groups }
    }

    proptest! {
        /// Dense grouping equals the hash-keyed oracle — group ids in
        /// first-occurrence order, rows ascending — over keys of one to
        /// three attributes, on tables edited through `set_text` with
        /// fresh symbols and symbols overwritten out of use.
        #[test]
        fn group_by_equals_hash_keyed_oracle(
            rows in proptest::collection::vec((0u8..5, 0u8..3, 0u8..4, 0u8..2), 0..40),
            edits in proptest::collection::vec((0usize..40, 0u16..4, 0u8..8), 0..16),
            keys in proptest::collection::vec(proptest::collection::vec(0u16..4, 1..4), 1..5),
        ) {
            let mut b = Table::builder(Schema::new(["a", "b", "c", "d"]));
            for (a, bb, c, d) in &rows {
                b.push_row(&[format!("v{a}"), format!("v{bb}"), format!("v{c}"), format!("v{d}")]);
            }
            let mut t = b.finish();
            for &(row, attr, v) in &edits {
                if t.nrows() > 0 {
                    t.set_text(row % t.nrows(), attr, &format!("v{v}"));
                }
            }
            for attrs in &keys {
                let dense = t.group_by(attrs);
                let oracle = group_by_hashed(&t, attrs);
                prop_assert_eq!(&dense.row_group, &oracle.row_group);
                prop_assert_eq!(&dense.groups, &oracle.groups);
            }
        }
    }

    #[test]
    fn subset_preserves_texts() {
        let t = paper_table1();
        let s = t.subset(&[4, 0]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.text(0, 0), "Miller");
        assert_eq!(s.text(1, 0), "Carter");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut b = Table::builder(Schema::new(["a", "b"]));
        b.push_row(&["only-one"]);
    }
}
