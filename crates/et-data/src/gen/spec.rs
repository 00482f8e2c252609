//! Generic FD-respecting dataset generator.

#![expect(
    clippy::indexing_slicing,
    reason = "the generator indexes its own attrs/vals tables built a few lines above; derived-attribute sources are validated by DatasetSpec before generation"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schema::Schema;
use crate::table::Table;
use crate::FdSpec;

/// How an attribute's values are produced.
#[derive(Debug, Clone)]
pub enum AttrKind {
    /// Sampled independently per row from `cardinality` values.
    ///
    /// `skew` ∈ [0, ∞) biases sampling toward low value indices
    /// (`skew = 0.0` is uniform); skewed base attributes produce the large
    /// left-hand-side groups that approximate-FD learning feeds on.
    Base {
        /// Number of distinct values in the attribute's domain.
        cardinality: usize,
        /// Skew exponent; the value index is `floor(card * u^(1+skew))`.
        skew: f64,
    },
    /// A deterministic function of the attributes at indices `from`,
    /// mapped into `cardinality` distinct values. Generates data on which
    /// the FD `from -> this` holds exactly.
    Derived {
        /// Indices of the determining attributes (may themselves be derived).
        from: Vec<usize>,
        /// Number of distinct output values.
        cardinality: usize,
    },
    /// Like [`AttrKind::Derived`], but each row deviates from the
    /// deterministic value with probability `noise` (sampled uniformly from
    /// the domain instead). The FD `from -> this` holds *approximately* on
    /// clean data — the shape of the user study's plausible-but-wrong
    /// alternative FDs.
    NoisyDerived {
        /// Indices of the determining attributes.
        from: Vec<usize>,
        /// Number of distinct output values.
        cardinality: usize,
        /// Per-row deviation probability.
        noise: f64,
    },
}

impl AttrKind {
    /// Number of distinct values the attribute can take: every value
    /// index lies below it.
    fn cardinality(&self) -> usize {
        match self {
            AttrKind::Base { cardinality, .. }
            | AttrKind::Derived { cardinality, .. }
            | AttrKind::NoisyDerived { cardinality, .. } => *cardinality,
        }
    }
}

/// One attribute of a [`DatasetSpec`].
#[derive(Debug, Clone)]
pub struct AttrGen {
    /// Attribute name.
    pub name: String,
    /// Value model.
    pub kind: AttrKind,
}

impl AttrGen {
    /// A base (independently sampled) attribute.
    ///
    /// # Panics
    /// Panics when `cardinality` is zero.
    pub fn base(name: &str, cardinality: usize, skew: f64) -> Self {
        assert!(cardinality > 0, "cardinality must be positive");
        Self {
            name: name.to_owned(),
            kind: AttrKind::Base { cardinality, skew },
        }
    }

    /// A derived attribute: `from -> name` holds exactly on generated data.
    ///
    /// # Panics
    /// Panics when `cardinality` is zero or `from` is empty.
    pub fn derived(name: &str, from: Vec<usize>, cardinality: usize) -> Self {
        assert!(cardinality > 0, "cardinality must be positive");
        assert!(!from.is_empty(), "derived attribute needs determinants");
        Self {
            name: name.to_owned(),
            kind: AttrKind::Derived { from, cardinality },
        }
    }

    /// A noisily derived attribute: `from -> name` holds with roughly
    /// `1 - noise` per-row fidelity on generated data.
    ///
    /// # Panics
    /// Panics when `cardinality` is zero or `from` is empty.
    pub fn noisy_derived(name: &str, from: Vec<usize>, cardinality: usize, noise: f64) -> Self {
        assert!(cardinality > 0, "cardinality must be positive");
        assert!(!from.is_empty(), "derived attribute needs determinants");
        assert!((0.0..=1.0).contains(&noise), "noise must be a probability");
        Self {
            name: name.to_owned(),
            kind: AttrKind::NoisyDerived {
                from,
                cardinality,
                noise,
            },
        }
    }
}

/// A complete recipe for generating a clean dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (used in reports).
    pub name: String,
    /// Attribute recipes; schema order.
    pub attrs: Vec<AttrGen>,
}

/// A generated clean table together with the FDs that hold on it by
/// construction.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// Dataset name.
    pub name: String,
    /// The generated (clean) table.
    pub table: Table,
    /// FDs that hold exactly on `table` by construction, one per derived
    /// attribute.
    pub exact_fds: Vec<FdSpec>,
}

impl DatasetSpec {
    /// The exact FDs this spec guarantees (one per noiselessly derived
    /// attribute).
    pub fn exact_fds(&self) -> Vec<FdSpec> {
        self.attrs
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match &a.kind {
                AttrKind::Derived { from, .. } => Some(FdSpec::new(from.clone(), i)),
                AttrKind::Base { .. } | AttrKind::NoisyDerived { .. } => None,
            })
            .collect()
    }

    /// Generates `rows` rows deterministically from `seed`.
    ///
    /// A cell with value index `v` of attribute `name` reads `name_v`.
    /// Each column is interned by value: a dense value → symbol table hands
    /// out symbols in first-occurrence order, so a cell's text is
    /// formatted once per distinct value and the table equals the one
    /// built by pushing every row's texts (pinned by test).
    ///
    /// # Panics
    /// Panics if derived attributes form a cycle or reference out-of-range
    /// indices.
    pub fn generate(&self, rows: usize, seed: u64) -> GeneratedDataset {
        let vals = self.values(rows, seed);
        let schema = Schema::new(self.attrs.iter().map(|a| a.name.clone()));
        #[expect(
            clippy::cast_possible_truncation,
            reason = "dict gains one entry per distinct u32 value index, so its length fits u32"
        )]
        let columns = self
            .attrs
            .iter()
            .zip(&vals)
            .map(|(attr, values)| {
                let mut sym_of = vec![u32::MAX; attr.kind.cardinality()];
                let mut dict: Vec<String> = Vec::new();
                let mut syms = Vec::with_capacity(values.len());
                for &v in values {
                    let s = &mut sym_of[v as usize];
                    if *s == u32::MAX {
                        *s = dict.len() as u32;
                        dict.push(format!("{}_{v}", attr.name));
                    }
                    syms.push(*s);
                }
                (dict, syms)
            })
            .collect();
        GeneratedDataset {
            name: self.name.clone(),
            table: Table::from_columns(schema, columns),
            exact_fds: self.exact_fds(),
        }
    }

    /// The value index of every cell, per attribute per row: `rows` rows
    /// drawn deterministically from `seed`, determinants before the
    /// attributes they derive.
    fn values(&self, rows: usize, seed: u64) -> Vec<Vec<u32>> {
        let order = self.topo_order();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut vals: Vec<Vec<u32>> = vec![Vec::with_capacity(rows); self.attrs.len()];
        for row in 0..rows {
            for &a in &order {
                #[expect(
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss,
                    reason = "a value index lies in [0, cardinality): the float draw is non-negative and clamped by .min(cardinality - 1), and dataset cardinalities stay far below u32::MAX"
                )]
                let v = match &self.attrs[a].kind {
                    AttrKind::Base { cardinality, skew } => {
                        let u: f64 = rng.gen::<f64>();
                        let idx = (*cardinality as f64 * u.powf(1.0 + *skew)) as usize;
                        idx.min(cardinality - 1) as u32
                    }
                    AttrKind::Derived { from, cardinality } => {
                        derive_value(seed, a, from, cardinality, &vals, row)
                    }
                    AttrKind::NoisyDerived {
                        from,
                        cardinality,
                        noise,
                    } => {
                        if rng.gen::<f64>() < *noise {
                            rng.gen_range(0..*cardinality) as u32
                        } else {
                            derive_value(seed, a, from, cardinality, &vals, row)
                        }
                    }
                };
                vals[a].push(v);
            }
        }
        vals
    }

    /// Topologically orders attributes so determinants are generated before
    /// the attributes they derive.
    fn topo_order(&self) -> Vec<usize> {
        let n = self.attrs.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
        let mut order = Vec::with_capacity(n);
        fn visit(a: usize, attrs: &[AttrGen], state: &mut [u8], order: &mut Vec<usize>) {
            assert!(
                a < attrs.len(),
                "derived attribute references index {a} out of range"
            );
            assert!(
                state[a] != 1,
                "cycle among derived attributes involving `{}`",
                attrs[a].name
            );
            if state[a] == 2 {
                return;
            }
            state[a] = 1;
            let from = match &attrs[a].kind {
                AttrKind::Derived { from, .. } | AttrKind::NoisyDerived { from, .. } => Some(from),
                AttrKind::Base { .. } => None,
            };
            if let Some(from) = from {
                for &f in from {
                    assert!(
                        f != a,
                        "attribute `{}` cannot derive from itself",
                        attrs[a].name
                    );
                    visit(f, attrs, state, order);
                }
            }
            state[a] = 2;
            order.push(a);
        }
        for a in 0..n {
            visit(a, &self.attrs, &mut state, &mut order);
        }
        order
    }
}

/// The deterministic value of a derived attribute: a hash of the
/// determinant values, folded into the output domain.
#[expect(
    clippy::cast_possible_truncation,
    reason = "h % cardinality lies below the cardinality, which dataset specs keep far below u32::MAX"
)]
fn derive_value(
    seed: u64,
    attr: usize,
    from: &[usize],
    cardinality: &usize,
    vals: &[Vec<u32>],
    row: usize,
) -> u32 {
    let mut h = seed ^ (attr as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
    for &f in from {
        h = splitmix64(h ^ u64::from(vals[f][row]) ^ ((f as u64) << 32));
    }
    (h % *cardinality as u64) as u32
}

/// SplitMix64 mixing step — a tiny, high-quality deterministic hash used to
/// derive dependent attribute values.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> DatasetSpec {
        DatasetSpec {
            name: "toy".into(),
            attrs: vec![
                AttrGen::base("zip", 10, 0.5),
                AttrGen::derived("city", vec![0], 6),
                AttrGen::derived("state", vec![0], 4),
                AttrGen::base("salary", 20, 0.0),
                AttrGen::derived("bracket", vec![2, 3], 5),
            ],
        }
    }

    fn fd_holds(t: &Table, fd: &FdSpec) -> bool {
        let lhs: Vec<u16> = fd.lhs.iter().map(|&a| a as u16).collect();
        let g = t.group_by(&lhs);
        g.groups.iter().all(|rows| {
            let first = t.sym(rows[0] as usize, fd.rhs as u16);
            rows.iter()
                .all(|&r| t.sym(r as usize, fd.rhs as u16) == first)
        })
    }

    /// The row-wise build `generate` replaced: every cell's text formatted
    /// and interned through [`Table::builder`].
    fn build_by_rows(spec: &DatasetSpec, rows: usize, seed: u64) -> Table {
        let vals = spec.values(rows, seed);
        let mut b = Table::builder(Schema::new(spec.attrs.iter().map(|a| a.name.clone())));
        for row in 0..rows {
            let cells: Vec<String> = spec
                .attrs
                .iter()
                .zip(&vals)
                .map(|(attr, v)| format!("{}_{}", attr.name, v[row]))
                .collect();
            b.push_row(&cells);
        }
        b.finish()
    }

    #[test]
    fn value_interning_equals_row_build() {
        // Equality covers the schema, every dictionary in symbol order, the
        // text -> symbol lookups and every cell's symbol.
        for name in crate::gen::DatasetName::ALL {
            for (rows, seed) in [(0, 1), (1, 2), (60, 3), (1000, 1001)] {
                let spec = name.spec(rows);
                let built = spec.generate(rows, seed).table;
                assert_eq!(built, build_by_rows(&spec, rows, seed), "{name:?} {rows}");
            }
        }
        let toy = toy_spec();
        assert_eq!(toy.generate(300, 5).table, build_by_rows(&toy, 300, 5));
    }

    #[test]
    fn derived_fds_hold_exactly() {
        let ds = toy_spec().generate(400, 7);
        assert_eq!(ds.exact_fds.len(), 3);
        for fd in &ds.exact_fds {
            assert!(fd_holds(&ds.table, fd), "{fd:?} should hold");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = toy_spec().generate(100, 42);
        let b = toy_spec().generate(100, 42);
        for r in 0..100 {
            assert_eq!(a.table.row_texts(r), b.table.row_texts(r));
        }
        let c = toy_spec().generate(100, 43);
        let differs = (0..100).any(|r| a.table.row_texts(r) != c.table.row_texts(r));
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn skew_produces_groups() {
        let ds = toy_spec().generate(300, 1);
        // zip has cardinality 10 over 300 rows: every value reused.
        let g = ds.table.group_by(&[0]);
        assert!(g.groups.iter().any(|grp| grp.len() >= 20));
    }

    #[test]
    fn cardinality_respected() {
        let ds = toy_spec().generate(500, 3);
        assert!(ds.table.cardinality(0) <= 10);
        assert!(ds.table.cardinality(1) <= 6);
        assert!(ds.table.cardinality(4) <= 5);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_spec_rejected() {
        let spec = DatasetSpec {
            name: "bad".into(),
            attrs: vec![
                AttrGen::derived("a", vec![1], 3),
                AttrGen::derived("b", vec![0], 3),
            ],
        };
        let _ = spec.generate(10, 0);
    }

    #[test]
    fn forward_references_allowed() {
        // `city` (index 0) derives from `zip` (index 1) declared later.
        let spec = DatasetSpec {
            name: "fwd".into(),
            attrs: vec![
                AttrGen::derived("city", vec![1], 5),
                AttrGen::base("zip", 8, 0.0),
            ],
        };
        let ds = spec.generate(200, 9);
        assert!(fd_holds(&ds.table, &ds.exact_fds[0]));
    }
}
