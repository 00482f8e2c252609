//! Reproduction driver: regenerates the paper's tables and figures.
//!
//! ```text
//! repro --list               # show every registered experiment
//! repro --exp fig1           # regenerate one artifact
//! repro --all                # regenerate everything
//! repro --all --quick        # smoke-test sizes
//! repro --exp fig4 --runs 10 --rows 300 --iters 30
//! repro ... --out results/   # also write CSV artifacts (default: results/)
//! repro --all --digest       # write nothing; print FNV-1a 64 digests
//! ```
//!
//! `--digest` prints one `HASH  NAME` line per CSV artifact, then
//! `HASH  stdout` for the report: everything the same run prints without
//! `--digest`, less the `[ID finished in T]` timing lines and the
//! `wrote PATH` lines. `scripts/ci.sh` compares `repro --all --digest`
//! against the checked-in `REPRO_DIGEST.txt`.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use et_bench::digest::{fnv1a64, Fnv1a};
use et_experiments::{all_experiments, experiment_by_id, Experiment, RunOptions};

struct Cli {
    exp: Vec<String>,
    all: bool,
    list: bool,
    quick: bool,
    digest: bool,
    runs: Option<usize>,
    rows: Option<usize>,
    iterations: Option<usize>,
    out_dir: PathBuf,
}

impl Cli {
    /// Resolves the run options: `--quick` sets the base profile, explicit
    /// size flags override it regardless of argument order.
    fn options(&self) -> RunOptions {
        let mut opts = if self.quick {
            RunOptions::quick()
        } else {
            RunOptions::default()
        };
        if let Some(r) = self.runs {
            opts.runs = r;
        }
        if let Some(r) = self.rows {
            opts.rows = r;
        }
        if let Some(i) = self.iterations {
            opts.iterations = i;
        }
        opts
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        exp: Vec::new(),
        all: false,
        list: false,
        quick: false,
        digest: false,
        runs: None,
        rows: None,
        iterations: None,
        out_dir: PathBuf::from("results"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => cli.list = true,
            "--all" => cli.all = true,
            "--quick" => cli.quick = true,
            "--digest" => cli.digest = true,
            "--exp" => {
                let id = args.next().ok_or("--exp needs an experiment id")?;
                cli.exp.push(id);
            }
            "--runs" => {
                cli.runs = Some(
                    args.next()
                        .ok_or("--runs needs a number")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?,
                );
            }
            "--rows" => {
                cli.rows = Some(
                    args.next()
                        .ok_or("--rows needs a number")?
                        .parse()
                        .map_err(|e| format!("--rows: {e}"))?,
                );
            }
            "--iters" => {
                cli.iterations = Some(
                    args.next()
                        .ok_or("--iters needs a number")?
                        .parse()
                        .map_err(|e| format!("--iters: {e}"))?,
                );
            }
            "--out" => {
                cli.out_dir = PathBuf::from(args.next().ok_or("--out needs a directory")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--list] [--all] [--exp ID]... [--quick] \
                     [--runs N] [--rows N] [--iters N] [--out DIR] [--digest]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if cli.list || (!cli.all && cli.exp.is_empty()) {
        println!("{:<24} {:<12} title", "id", "paper");
        for e in all_experiments() {
            println!("{:<24} {:<12} {}", e.id, e.paper_ref, e.title);
        }
        if !cli.list {
            println!("\nrun with --exp <id> or --all");
        }
        return;
    }

    let experiments: Vec<Experiment> = if cli.all {
        all_experiments()
    } else {
        cli.exp
            .iter()
            .map(|id| {
                experiment_by_id(id).unwrap_or_else(|| {
                    eprintln!("error: unknown experiment `{id}` (see --list)");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let opts = cli.options();
    // Under --digest the report is hashed instead of printed.
    let mut report = cli.digest.then(Fnv1a::default);
    let mut emit = |text: &str| match &mut report {
        Some(h) => {
            h.update(text.as_bytes());
            h.update(b"\n");
        }
        None => println!("{text}"),
    };
    let mut csv_digests: Vec<(String, u64)> = Vec::new();
    for e in experiments {
        let started = Instant::now();
        emit("\n################################################################");
        emit(&format!("# {} — {} ({})", e.id, e.title, e.paper_ref));
        emit(&format!("# expectation: {}", e.expectation));
        emit("################################################################");
        let out = (e.run)(&opts);
        emit(&out.text);
        if cli.digest {
            csv_digests.extend(
                out.csv
                    .iter()
                    .map(|(name, content)| (name.clone(), fnv1a64(content.as_bytes()))),
            );
            continue;
        }
        if !out.csv.is_empty() {
            if let Err(err) = std::fs::create_dir_all(&cli.out_dir) {
                eprintln!("warning: cannot create {:?}: {err}", cli.out_dir);
            } else {
                for (name, content) in &out.csv {
                    let path = cli.out_dir.join(name);
                    match std::fs::File::create(&path)
                        .and_then(|mut f| f.write_all(content.as_bytes()))
                    {
                        Ok(()) => println!("wrote {}", path.display()),
                        Err(err) => eprintln!("warning: {}: {err}", path.display()),
                    }
                }
            }
        }
        println!("[{} finished in {:.1?}]", e.id, started.elapsed());
    }
    if let Some(h) = report {
        for (name, hash) in &csv_digests {
            println!("{hash:016x}  {name}");
        }
        println!("{:016x}  stdout", h.finish());
    }
}
