//! Column-major, dictionary-encoded tables.
//!
//! FD evaluation only ever asks "are these two cells equal?", so cells are
//! interned per column and compared as `u32` symbols. This keeps the
//! pair-heavy computations (g1, violation indexing, error injection) cheap
//! and allocation-free on the hot path, per the workspace performance notes.
//!
//! A column keeps its dictionary as one text buffer: every distinct text
//! back to back in symbol order, plus one `u32` end offset per symbol, so
//! symbol `s` reads `text[ends[s - 1]..ends[s]]`. A finished table holds
//! no text → symbol map. Only code that builds or edits many cells needs
//! one, and it keeps its own (an `Interner`): [`TableBuilder`] while rows
//! arrive, and [`crate::inject_errors`] for the columns it scrambles,
//! dropped when it returns. [`Table::set_text`] finds a text by scanning
//! the column's dictionary.

#![expect(
    clippy::indexing_slicing,
    reason = "column ids are validated against the schema width when a Table/TableBuilder is created; sym/text document their # Panics contract; a symbol is < ends.len() (checked by from_columns, handed out by push_entry), and its offsets are char boundaries of text because each entry was pushed whole"
)]

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::schema::{AttrId, Schema};

/// One dictionary-encoded column.
#[derive(Debug, Clone, Default, PartialEq)]
struct Column {
    /// Every dictionary text, back to back in symbol order.
    text: String,
    /// `ends[s]` is where symbol `s`'s text ends in `text`; it starts
    /// where symbol `s - 1`'s ends, symbol 0's at 0.
    ends: Vec<u32>,
    /// One symbol per row.
    data: Vec<u32>,
}

impl Column {
    /// Symbol `s`'s text.
    fn entry(&self, s: usize) -> &str {
        let start = s.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.text[start..self.ends[s] as usize]
    }

    /// Every dictionary text, in symbol order.
    fn entries(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|s| self.entry(s))
    }

    /// Appends `text` to the dictionary and returns its new symbol.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "interned symbol ids and group ids are u32 by design, and so are the offsets into one column's dictionary text; a dict or its text outgrowing u32 would exhaust memory long before the cast truncates"
    )]
    fn push_entry(&mut self, text: &str) -> u32 {
        let s = self.ends.len() as u32;
        self.text.push_str(text);
        self.ends.push(self.text.len() as u32);
        s
    }

    /// `text`'s symbol, found by scanning the dictionary, or a new one.
    fn find_or_push(&mut self, text: &str) -> u32 {
        let found = (0u32..).zip(self.entries()).find(|&(_, t)| t == text);
        match found {
            Some((s, _)) => s,
            None => self.push_entry(text),
        }
    }
}

/// Text → symbol maps for the columns of one table being built or
/// edited, so that interning a cell is a lookup and not a scan of the
/// column's dictionary. A column's map is built from its dictionary the
/// first time that column is interned into; [`Interner::finish`] drops
/// them all and trims the dictionaries they grew.
#[derive(Debug, Default)]
pub(crate) struct Interner {
    maps: Vec<Option<HashMap<Box<str>, u32>>>,
}

impl Interner {
    /// `text`'s symbol in column `attr` of `table`, appended to the
    /// column's dictionary when the column does not hold it yet.
    pub(crate) fn intern(&mut self, table: &mut Table, attr: AttrId, text: &str) -> u32 {
        let attr = attr as usize;
        let col = &mut table.cols[attr];
        if self.maps.len() <= attr {
            self.maps.resize_with(attr + 1, || None);
        }
        let map = self.maps[attr].get_or_insert_with(|| {
            (0u32..)
                .zip(col.entries())
                .map(|(s, t)| (t.into(), s))
                .collect()
        });
        if let Some(&s) = map.get(text) {
            return s;
        }
        let s = col.push_entry(text);
        map.insert(text.into(), s);
        s
    }

    /// Drops the maps, trimming the spare capacity of every dictionary
    /// that was interned into.
    pub(crate) fn finish(self, table: &mut Table) {
        for (col, map) in table.cols.iter_mut().zip(&self.maps) {
            if map.is_some() {
                col.text.shrink_to_fit();
                col.ends.shrink_to_fit();
            }
        }
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
            interner: Interner::default(),
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
                let distinct: HashSet<&str> = dict.iter().map(String::as_str).collect();
                assert_eq!(distinct.len(), dict.len(), "dictionary repeats a text");
                assert!(
                    data.iter().all(|&s| (s as usize) < dict.len()),
                    "symbol outside its dictionary"
                );
                let mut col = Column {
                    text: String::with_capacity(dict.iter().map(String::len).sum()),
                    ends: Vec::with_capacity(dict.len()),
                    data,
                };
                for text in &dict {
                    col.push_entry(text);
                }
                col
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
        col.entry(col.data[row] as usize)
    }

    /// Overwrites a cell with new text, interning as needed.
    ///
    /// The table keeps no text → symbol map, so this scans the column's
    /// dictionary. The injector, which edits many cells of tables whose
    /// dictionaries can hold tens of thousands of texts, interns through
    /// its own map and writes symbols instead (see
    /// [`crate::inject_errors`]).
    pub fn set_text(&mut self, row: usize, attr: AttrId, text: &str) {
        let s = self.intern_by_scan(attr, text);
        self.set_sym(row, attr, s);
    }

    /// `text`'s symbol in column `attr`, found by scanning its
    /// dictionary, or appended to it when new.
    pub(crate) fn intern_by_scan(&mut self, attr: AttrId, text: &str) -> u32 {
        self.cols[attr as usize].find_or_push(text)
    }

    /// Overwrites cell (`row`, `attr`) with symbol `sym` of its column.
    pub(crate) fn set_sym(&mut self, row: usize, attr: AttrId, sym: u32) {
        let col = &mut self.cols[attr as usize];
        debug_assert!(
            (sym as usize) < col.ends.len(),
            "symbol outside its dictionary"
        );
        col.data[row] = sym;
    }

    /// Number of distinct values currently interned in `attr`'s dictionary.
    ///
    /// This is an upper bound on the number of distinct values *in use*
    /// (cells may have been overwritten away from a symbol).
    pub fn dict_len(&self, attr: AttrId) -> usize {
        self.cols[attr as usize].ends.len()
    }

    /// Number of distinct values actually present in column `attr`.
    pub fn cardinality(&self, attr: AttrId) -> usize {
        let col = &self.cols[attr as usize];
        let mut seen = vec![false; col.ends.len()];
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
    interner: Interner,
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
        #[expect(
            clippy::cast_possible_truncation,
            reason = "attribute positions fit AttrId (u16): schemas stay far narrower, and the FD stack's u64 AttrSet caps them at 64"
        )]
        for (c, cell) in cells.iter().enumerate() {
            let sym = self
                .interner
                .intern(&mut self.table, c as AttrId, cell.as_ref());
            self.table.cols[c].data.push(sym);
        }
        self.table.nrows += 1;
    }

    /// Finalises the table, dropping the builder's text → symbol maps.
    pub fn finish(mut self) -> Table {
        self.interner.finish(&mut self.table);
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

    /// A column as it was kept before the text buffer: owned dictionary
    /// texts and a text → symbol map.
    #[derive(Debug, Clone, PartialEq)]
    struct ModelColumn {
        dict: Vec<String>,
        lookup: HashMap<String, u32>,
        data: Vec<u32>,
    }

    impl ModelColumn {
        fn new(dict: Vec<String>, data: Vec<u32>) -> Self {
            let lookup = (0u32..).zip(&dict).map(|(s, t)| (t.clone(), s)).collect();
            Self { dict, lookup, data }
        }

        fn intern(&mut self, text: &str) -> u32 {
            if let Some(&s) = self.lookup.get(text) {
                return s;
            }
            let s = self.dict.len() as u32;
            self.dict.push(text.to_owned());
            self.lookup.insert(text.to_owned(), s);
            s
        }
    }

    /// Every reader of `t` agrees with the model columns `m`, and `t`
    /// equals its clone and the table `from_columns` builds from `m`.
    fn check_against_model(t: &Table, m: &[ModelColumn]) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.ncols(), m.len());
        for (c, col) in (0u16..).zip(m) {
            prop_assert_eq!(t.nrows(), col.data.len());
            prop_assert_eq!(t.dict_len(c), col.dict.len());
            prop_assert_eq!(t.syms(c), col.data.as_slice());
            let live: std::collections::HashSet<u32> = col.data.iter().copied().collect();
            prop_assert_eq!(t.cardinality(c), live.len());
            for (row, &s) in col.data.iter().enumerate() {
                prop_assert_eq!(t.sym(row, c), s);
                prop_assert_eq!(t.text(row, c), col.dict[s as usize].as_str());
            }
        }
        for row in 0..t.nrows() {
            let texts: Vec<String> = m
                .iter()
                .map(|col| col.dict[col.data[row] as usize].clone())
                .collect();
            prop_assert_eq!(t.joined_row(row, " | "), texts.join(" | "));
            prop_assert_eq!(t.row_texts(row), texts);
        }
        prop_assert_eq!(&t.clone(), t);
        let columns = m
            .iter()
            .map(|col| (col.dict.clone(), col.data.clone()))
            .collect();
        prop_assert_eq!(&Table::from_columns(t.schema().clone(), columns), t);
        Ok(())
    }

    proptest! {
        /// The text buffer reads as the old owned-dictionary-plus-map
        /// column did: on tables built through the builder or through
        /// `from_columns` (with unused and reordered dictionary texts),
        /// then edited by `set_text` with texts the column holds, fresh
        /// texts, and overwrites that leave a symbol dead. After every
        /// step each reader matches the model, and two tables compare
        /// equal exactly when their models do.
        #[test]
        fn table_matches_owned_dictionary_model(
            rows in proptest::collection::vec(proptest::collection::vec(0u8..5, 3), 0..30),
            via_columns in any::<bool>(),
            rotate in 0usize..7,
            reverse in any::<bool>(),
            edits in proptest::collection::vec((0usize..30, 0u16..3, 0u8..9), 0..24),
        ) {
            let schema = Schema::new(["a", "b", "c"]);
            // The dictionary of a `from_columns` table: all seven texts,
            // so some are never used, in a rotated and maybe reversed order.
            let mut order: Vec<u8> = (0u8..7).collect();
            order.rotate_left(rotate);
            if reverse {
                order.reverse();
            }
            let (mut t, mut m) = if via_columns {
                let dict: Vec<String> = order.iter().map(|v| format!("v{v}")).collect();
                let model: Vec<ModelColumn> = (0..3)
                    .map(|c| {
                        let data = rows
                            .iter()
                            .map(|row| order.iter().position(|&v| v == row[c]).unwrap() as u32)
                            .collect();
                        ModelColumn::new(dict.clone(), data)
                    })
                    .collect();
                let columns = model.iter().map(|col| (col.dict.clone(), col.data.clone())).collect();
                (Table::from_columns(schema, columns), model)
            } else {
                let mut model = vec![ModelColumn::new(Vec::new(), Vec::new()); 3];
                let mut b = Table::builder(schema);
                for row in &rows {
                    let cells: Vec<String> = row.iter().map(|v| format!("v{v}")).collect();
                    for (col, cell) in model.iter_mut().zip(&cells) {
                        let s = col.intern(cell);
                        col.data.push(s);
                    }
                    b.push_row(&cells);
                }
                (b.finish(), model)
            };
            check_against_model(&t, &m)?;
            for &(row, attr, v) in &edits {
                if t.nrows() == 0 {
                    break;
                }
                let row = row % t.nrows();
                let (before_t, before_m) = (t.clone(), m.clone());
                let text = format!("v{v}");
                t.set_text(row, attr, &text);
                let col = &mut m[attr as usize];
                col.data[row] = col.intern(&text);
                check_against_model(&t, &m)?;
                prop_assert_eq!(t == before_t, m == before_m);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dictionary repeats a text")]
    fn from_columns_rejects_a_repeated_text() {
        let dict = vec!["x".to_owned(), "y".to_owned(), "x".to_owned()];
        let _ = Table::from_columns(Schema::new(["a"]), vec![(dict, vec![0, 1])]);
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
