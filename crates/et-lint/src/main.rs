//! CLI for the workspace lint engine. See the library crate docs for the
//! rule catalogue; `cargo lint` is the aliased entry point.

use std::path::PathBuf;

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut cost_report = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list-rules" => {
                et_lint::list_rules(&mut std::io::stdout());
                return 0;
            }
            "--json" => {
                json = true;
            }
            "--cost-report" => {
                cost_report = true;
            }
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("et-lint: --explain needs a rule id (L5..L14)");
                    return 2;
                };
                let Some(rule) = et_lint::rules::Rule::from_id(&id) else {
                    eprintln!("et-lint: unknown rule `{id}` (try --list-rules)");
                    return 2;
                };
                println!("{} — {}\n\n{}", rule.id(), rule.describe(), rule.explain());
                return 0;
            }
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("et-lint: --root needs a directory argument");
                    return 2;
                };
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "et-lint — workspace lint engine (rules L5, L6, L8, L10-L14)\n\n\
                     Scans the library sources (`src/` of the root and of \
                     each crate under crates/). The retired rules L1-L4, L7 \
                     and L9 are clippy lints now (DESIGN.md §7.1).\n\n\
                     USAGE: et-lint [--root <workspace-dir>] [--json] \
                     [--cost-report] [--list-rules] [--explain <RULE>]\n\n\
                     --list-rules      one-line summary of every rule\n\
                     --explain L<N>    full rationale and the vetted-exception \
                     format for one rule\n\
                     --json            machine-readable report on stdout \
                     (schema in DESIGN.md §12)\n\
                     --cost-report     hot-path cost summary (HOTPATH.json \
                     schema, DESIGN.md §14) on stdout\n\n\
                     Exit codes: 0 clean, 1 violations or stale allowlist \
                     entries, 2 configuration error (a --root that is not a \
                     directory included).\n\
                     Allowlist: et-lint.toml at the workspace root."
                );
                return 0;
            }
            other => {
                eprintln!("et-lint: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }

    // Default to the workspace root: two levels above this crate's manifest
    // when invoked via `cargo run -p et-lint`, the current directory
    // otherwise.
    let root = root
        .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(|d| PathBuf::from(d).join("../..")))
        .unwrap_or_else(|| PathBuf::from("."));

    match et_lint::run(&root) {
        Ok(report) => {
            let allow = root.join("et-lint.toml");
            if cost_report {
                et_lint::json_out::render_hotpath(&report, &mut std::io::stdout());
                i32::from(!report.is_clean())
            } else if json {
                et_lint::json_out::render_json(&report, &allow, &mut std::io::stdout())
            } else {
                et_lint::render(&report, &allow, &mut std::io::stdout())
            }
        }
        Err(e) => {
            eprintln!("et-lint: {e}");
            2
        }
    }
}
