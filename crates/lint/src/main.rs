//! `spotweb-lint` CLI: analyze the workspace, print diagnostics,
//! optionally write the byte-stable `lint_report.json`.
//!
//! ```text
//! spotweb-lint [--root DIR] [--json FILE] [--list-allows] [--rules] [--quiet]
//! spotweb-lint --bless-check [--root DIR] [--base-manifest FILE] [CHANGED_PATH...]
//! ```
//!
//! Exit codes: `0` clean, `1` unsuppressed findings, `2` usage or I/O
//! error. `--list-allows` prints every allow pragma with its reason —
//! the full suppression surface — and exits by the same rule, so a
//! pragma audit cannot mask a failing tree.
//!
//! `--bless-check` is the CI gate for golden governance: it runs only
//! the manifest-consistency checks, plus — given `--base-manifest`
//! (the merge base's `MANIFEST.json`) and the list of changed paths
//! from the PR diff — the epoch-bump check that fails any diff
//! touching a golden fixture without blessing it.

use std::path::PathBuf;
use std::process::ExitCode;

use spotweb_lint::manifest::{self, Manifest};
use spotweb_lint::rules::RULES;
use spotweb_lint::{find_workspace_root, lint_workspace, LintConfig};

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    list_allows: bool,
    rules: bool,
    quiet: bool,
    bless_check: bool,
    base_manifest: Option<PathBuf>,
    changed: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        root: None,
        json: None,
        list_allows: false,
        rules: false,
        quiet: false,
        bless_check: false,
        base_manifest: None,
        changed: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => out.root = Some(PathBuf::from(args.next().ok_or("--root needs a dir")?)),
            "--json" => out.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?)),
            "--list-allows" => out.list_allows = true,
            "--rules" => out.rules = true,
            "--quiet" => out.quiet = true,
            "--bless-check" => out.bless_check = true,
            "--base-manifest" => {
                out.base_manifest = Some(PathBuf::from(
                    args.next().ok_or("--base-manifest needs a path")?,
                ))
            }
            "--help" | "-h" => {
                return Err(
                    "usage: spotweb-lint [--root DIR] [--json FILE] [--list-allows] [--rules] [--quiet]\n\
                     \x20      spotweb-lint --bless-check [--root DIR] [--base-manifest FILE] [CHANGED_PATH...]"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            path => out.changed.push(path.to_string()),
        }
    }
    if !out.changed.is_empty() && !out.bless_check {
        return Err("positional paths are only valid with --bless-check".to_string());
    }
    if out.base_manifest.is_some() && !out.bless_check {
        return Err("--base-manifest is only valid with --bless-check".to_string());
    }
    Ok(out)
}

/// Run the `--bless-check` gate. Uses the manifest module's path
/// constants throughout so no golden-directory literal appears here
/// (the analyzer's own `golden-write-outside-bless` rule scans this
/// crate too).
fn run_bless_check(root: &std::path::Path, args: &Args) -> ExitCode {
    let input = match manifest::load_input(root) {
        Ok(Some(input)) => input,
        Ok(None) => {
            eprintln!(
                "spotweb-lint: {} has no {} directory",
                root.display(),
                manifest::GOLDEN_DIR
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("spotweb-lint: reading {}: {e}", manifest::GOLDEN_DIR);
            return ExitCode::from(2);
        }
    };
    let mut findings = manifest::check_input(&input);

    if let Some(base_path) = &args.base_manifest {
        let base_text = match std::fs::read_to_string(base_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("spotweb-lint: reading {}: {e}", base_path.display());
                return ExitCode::from(2);
            }
        };
        let base = match Manifest::parse(&base_text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("spotweb-lint: base manifest: {e}");
                return ExitCode::from(2);
            }
        };
        let current = input
            .manifest_text
            .as_deref()
            .and_then(|t| Manifest::parse(t).ok())
            .unwrap_or_default();
        // Changed paths come in repo-relative from the CI diff; keep
        // only top-level golden fixtures, manifest excluded.
        let prefix = format!("{}/", manifest::GOLDEN_DIR);
        let changed: Vec<String> = args
            .changed
            .iter()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|n| *n != manifest::MANIFEST_NAME && !n.contains('/'))
            .map(str::to_string)
            .collect();
        findings.append(&mut manifest::check_epoch_bumps(&current, &base, &changed));
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for f in &findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!("spotweb-lint: bless-check, {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.rules {
        for r in RULES {
            println!(
                "{:<32} {}{}",
                r.id,
                r.summary,
                if r.allowlistable {
                    ""
                } else {
                    " [not allowlistable]"
                }
            );
        }
        return ExitCode::SUCCESS;
    }

    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("spotweb-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    if args.bless_check {
        return run_bless_check(&root, &args);
    }

    let report = match lint_workspace(&root, &LintConfig::spotweb()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spotweb-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.json {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("spotweb-lint: creating {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("spotweb-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.list_allows {
        print!("{}", report.render_allows());
    } else if !args.quiet {
        print!("{}", report.render_human());
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
