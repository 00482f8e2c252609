//! Benchmark harness crate.
//!
//! * `src/bin/repro.rs` — the reproduction driver: regenerates every table
//!   and figure of the paper from the [`et_experiments`] registry
//!   (`repro --list`, `repro --exp fig1`, `repro --all`), writing reports to
//!   stdout and CSV artifacts to `results/`.
//! * `benches/substrate.rs` — criterion micro-benchmarks of the substrate
//!   hot paths (g1, violation indexing, belief updates, error injection,
//!   FD discovery).
//! * `benches/strategies.rs` — per-strategy selection cost over growing
//!   candidate pools.
//! * `benches/figures.rs` — end-to-end session cost for each figure's
//!   configuration (one bench per paper artifact family).
//! * `src/bin/bench_json.rs`, `src/bin/bench_serve.rs` — the JSON
//!   baseline recorders (`BENCH_substrate.json`, `BENCH_serve.json`); they
//!   share the [`cli`] module.
//! * [`digest`] — the FNV-1a 64 content hash behind `repro --digest`,
//!   which `scripts/ci.sh` compares against the checked-in
//!   `REPRO_DIGEST.txt`.

#![warn(missing_docs)]

/// Shared fixture sizes so benches stay comparable.
pub mod fixtures {
    use std::sync::Arc;

    use et_data::gen::DatasetName;
    use et_data::{inject_errors, InjectConfig, Table};
    use et_fd::{Fd, HypothesisSpace};

    /// A dirty dataset plus its capped hypothesis space, as the experiments
    /// use it.
    pub struct Fixture {
        /// The dirty table.
        pub table: Table,
        /// Ground-truth dirty rows.
        pub dirty_rows: Vec<bool>,
        /// The capped hypothesis space (paper: 38 FDs).
        pub space: Arc<HypothesisSpace>,
    }

    /// Builds the standard benchmark fixture.
    pub fn fixture(dataset: DatasetName, rows: usize, degree: f64, seed: u64) -> Fixture {
        let mut ds = dataset.generate(rows, seed);
        let specs = ds.exact_fds.clone();
        let inj = inject_errors(
            &mut ds.table,
            &specs,
            &[],
            &InjectConfig::with_degree(degree, seed ^ 0xBE),
        );
        let pinned: Vec<Fd> = specs.iter().map(Fd::from_spec).collect();
        let space = Arc::new(HypothesisSpace::capped(
            &ds.table,
            3,
            38,
            (rows as u64 / 12).max(5),
            &pinned,
        ));
        Fixture {
            table: ds.table,
            dirty_rows: inj.dirty_rows,
            space,
        }
    }
}

/// The command line and output plumbing shared by the JSON baseline
/// recorders: `--quick`, `--out PATH` and repeatable `--gate NAME:MIN`
/// floors on derived values.
pub mod cli {
    use et_serve::Json;

    /// Parsed recorder options.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Cli {
        /// Run the CI smoke profile instead of the full one.
        pub quick: bool,
        /// Where to write the JSON document.
        pub out: String,
        /// `(derived name, minimum)` floors enforced after emission.
        pub gates: Vec<(String, f64)>,
    }

    /// Parses `args` (program name excluded). Returns `Ok(None)` for
    /// `--help` / `-h`.
    ///
    /// # Errors
    /// A missing or malformed flag value, or an unknown argument.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_out: &str,
    ) -> Result<Option<Cli>, String> {
        let mut cli = Cli {
            quick: false,
            out: default_out.to_string(),
            gates: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--out" => cli.out = args.next().ok_or("--out needs a path")?,
                "--gate" => {
                    let spec = args.next().ok_or("--gate needs NAME:MIN")?;
                    let (name, min) = spec
                        .split_once(':')
                        .ok_or_else(|| format!("--gate `{spec}` is not NAME:MIN"))?;
                    let min: f64 = min
                        .parse()
                        .map_err(|e| format!("--gate `{spec}`: bad minimum: {e}"))?;
                    cli.gates.push((name.to_string(), min));
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Some(cli))
    }

    /// Parses the process arguments for the recorder `bin`: `--help`
    /// prints the usage line and exits 0, a bad argument exits 2.
    pub fn from_env(bin: &str, default_out: &str) -> Cli {
        match parse(std::env::args().skip(1), default_out) {
            Ok(Some(cli)) => cli,
            Ok(None) => {
                println!("usage: {bin} [--quick] [--out PATH] [--gate NAME:MIN]...");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Writes `doc` plus a trailing newline to `path`, exiting 1 when the
    /// file cannot be written.
    pub fn write_or_exit(path: &str, doc: &Json) {
        let mut text = doc.encode();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    /// Checks every gate against the derived values, reporting one line
    /// per gate. A gate passes when its value is at or above the minimum;
    /// a name with no derived value fails. Returns whether all passed.
    pub fn gates_pass(gates: &[(String, f64)], derived: &[(&str, f64)]) -> bool {
        let mut all = true;
        for (name, min) in gates {
            match derived.iter().find(|(n, _)| n == name) {
                Some((_, v)) if v >= min => eprintln!("  gate {name}: {v:.3} >= {min:.3} ok"),
                Some((_, v)) => {
                    eprintln!("  gate {name}: {v:.3} < {min:.3} FAILED");
                    all = false;
                }
                None => {
                    eprintln!("  gate {name}: no such derived value FAILED");
                    all = false;
                }
            }
        }
        all
    }
}

/// The content hash behind `repro --digest`: FNV-1a 64, std-only, and
/// the rule for which report lines vary from run to run.
pub mod digest {
    /// A streaming FNV-1a 64-bit hash.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Fnv1a(u64);

    impl Default for Fnv1a {
        fn default() -> Self {
            Fnv1a(0xcbf2_9ce4_8422_2325)
        }
    }

    impl Fnv1a {
        /// Folds `bytes` into the hash.
        pub fn update(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        /// The hash of everything folded in so far.
        pub fn finish(self) -> u64 {
            self.0
        }
    }

    /// FNV-1a 64 of `bytes`.
    pub fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.update(bytes);
        h.finish()
    }

    /// Whether a `repro` stdout line is left out of the report digest:
    /// the `[ID finished in T]` timing lines differ run to run, and the
    /// `wrote PATH` lines name the caller's `--out` directory (each CSV
    /// has its own digest).
    pub fn is_volatile_line(line: &str) -> bool {
        (line.starts_with('[') && line.contains(" finished in ")) || line.starts_with("wrote ")
    }
}

#[cfg(test)]
mod tests {
    use super::cli::{gates_pass, parse, Cli};
    use super::fixtures::fixture;
    use et_data::gen::DatasetName;

    #[test]
    fn fnv1a64_matches_published_vectors() {
        use super::digest::fnv1a64;
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn volatile_lines_are_timing_and_output_paths() {
        use super::digest::is_volatile_line;
        assert!(is_volatile_line("[fig1 finished in 1.2s]"));
        assert!(is_volatile_line("wrote results/fig1.csv"));
        assert!(!is_volatile_line("# fig1 — MAE over iterations (Fig. 1)"));
        assert!(!is_volatile_line("[0.1, 0.2]"));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn gate(name: &str, min: f64) -> Vec<(String, f64)> {
        vec![(name.to_string(), min)]
    }

    #[test]
    fn gate_at_or_above_minimum_passes() {
        let derived = [("speedup", 1.5)];
        assert!(gates_pass(&gate("speedup", 1.5), &derived));
        assert!(gates_pass(&gate("speedup", 1.0), &derived));
    }

    #[test]
    fn gate_below_minimum_fails() {
        assert!(!gates_pass(&gate("speedup", 1.5), &[("speedup", 1.499)]));
        // One failing gate fails the whole check.
        let gates = vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)];
        assert!(!gates_pass(&gates, &[("a", 1.0), ("b", 1.0)]));
    }

    #[test]
    fn gate_on_missing_derived_value_fails() {
        assert!(!gates_pass(&gate("absent", 0.0), &[("speedup", 9.0)]));
        assert!(gates_pass(&[], &[]));
    }

    #[test]
    fn parses_flags_and_defaults() {
        let cli = parse(args(&[]), "B.json").unwrap().unwrap();
        assert_eq!(
            cli,
            Cli {
                quick: false,
                out: "B.json".to_string(),
                gates: Vec::new(),
            }
        );
        let cli = parse(
            args(&[
                "--quick", "--out", "x.json", "--gate", "a:0.5", "--gate", "b:2",
            ]),
            "B.json",
        )
        .unwrap()
        .unwrap();
        assert!(cli.quick);
        assert_eq!(cli.out, "x.json");
        assert_eq!(
            cli.gates,
            vec![("a".to_string(), 0.5), ("b".to_string(), 2.0)]
        );
        assert_eq!(parse(args(&["--help"]), "B.json"), Ok(None));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--out"][..],
            &["--gate"],
            &["--gate", "nocolon"],
            &["--gate", "a:notanumber"],
            &["--bogus"],
        ] {
            assert!(parse(args(bad), "B.json").is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fixture_builds() {
        let f = fixture(DatasetName::Omdb, 120, 0.1, 1);
        assert_eq!(f.table.nrows(), 120);
        assert_eq!(f.dirty_rows.len(), 120);
        assert!(f.space.len() <= 38);
    }
}
