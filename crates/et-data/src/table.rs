//! Column-major, dictionary-encoded tables.
//!
//! FD evaluation only ever asks "are these two cells equal?", so cells are
//! interned per column and compared as `u32` symbols. This keeps the
//! pair-heavy computations (g1, violation indexing, error injection) cheap
//! and allocation-free on the hot path, per the workspace performance notes.

use std::collections::HashMap;
use std::fmt;

use crate::schema::{AttrId, Schema};

/// One dictionary-encoded column.
#[derive(Debug, Clone, Default)]
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
        let s = self.dict.len() as u32;
        self.dict.push(text.to_owned());
        self.lookup.insert(text.to_owned(), s);
        s
    }
}

/// An immutable-schema relational table with mutable cells.
#[derive(Debug, Clone)]
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
            let row: Vec<&str> = (0..self.ncols())
                .map(|c| self.text(r, c as AttrId))
                .collect();
            b.push_row(&row);
        }
        b.finish()
    }

    /// Returns, for every row, the *group key* obtained by projecting the row
    /// onto `attrs`; rows with equal keys agree on `attrs`.
    ///
    /// Group ids are dense in `0..n_groups`.
    pub fn group_by(&self, attrs: &[AttrId]) -> GroupedRows {
        let mut key_ids: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut row_group = Vec::with_capacity(self.nrows);
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut key = Vec::with_capacity(attrs.len());
        for row in 0..self.nrows {
            key.clear();
            key.extend(attrs.iter().map(|&a| self.sym(row, a)));
            // Look up before inserting so only a new key is cloned.
            let gid = match key_ids.get(&key) {
                Some(&gid) => gid,
                None => {
                    let gid = groups.len() as u32;
                    key_ids.insert(key.clone(), gid);
                    groups.push(Vec::new());
                    gid
                }
            };
            groups[gid as usize].push(row as u32);
            row_group.push(gid);
        }
        GroupedRows { row_group, groups }
    }
}

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
