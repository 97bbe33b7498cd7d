//! `figures bless` — audited regeneration of golden fixtures.
//!
//! Every byte-stable golden under the workspace's golden directory is
//! tracked by `MANIFEST.json` (see [`crate::manifest`]): per fixture an
//! epoch, the FNV-1a 64 digest of its bytes, the producing command,
//! and the full old→new digest history. A fixture rewritten any other
//! way is a `git diff` whose digest no longer matches the manifest.
//!
//! The flow:
//!
//! 1. `figures bless --init` bootstraps the manifest, importing every
//!    on-disk fixture at epoch 1 with `old = "-"`.
//! 2. `figures bless <fixture...>` refuses to run while any *other*
//!    fixture disagrees with the manifest (a dirty tree means an
//!    unaudited edit happened), regenerates the named fixtures
//!    in-process with the same entry points the tests use, bumps each
//!    epoch, and appends the old→new digest pair to the history.
//! 3. `figures bless --check` ([`run_check`]; a CI step, and in-process
//!    `tests/bless.rs`) fails any tree or diff whose fixtures changed
//!    without this ceremony.

use std::path::{Path, PathBuf};

use spotweb_telemetry::json::fnv1a64_hex;

use crate::manifest::{self, FixtureEntry, HistoryEntry, Manifest};
use crate::sweep::{build_grid, run_grid};
use crate::tournament::{build_tournament_grid, leaderboard, render_leaderboard_json};
use crate::{cell, cli, profile, telem};

/// Seeds the runner-equivalence golden is recorded at (mirrors
/// `tests/golden.rs`).
pub const GOLDEN_SEEDS: [u64; 3] = [1234, 7, 99];

/// One registered golden fixture: its file name, the CLI command that
/// regenerates it (recorded in the manifest for humans), and the
/// in-process generator bless runs (byte-identical to the command's
/// stdout — `tests/bless.rs` pins that fidelity).
pub struct FixtureSpec {
    /// File name inside the golden directory.
    pub name: &'static str,
    /// Human-facing producing command recorded in the manifest.
    pub command: &'static str,
    /// In-process generator returning the fixture's full contents.
    pub generate: fn(&Path) -> Result<String, String>,
}

fn gen_trace(_root: &Path) -> Result<String, String> {
    Ok(telem::run_trace("revocation-storm", crate::DEFAULT_SEED)?
        .sink
        .export_jsonl())
}

fn gen_runner_equivalence(_root: &Path) -> Result<String, String> {
    let mut out = String::new();
    for seed in GOLDEN_SEEDS {
        let grid = build_grid(None, seed)?;
        for summary in run_grid(1, grid) {
            out.push_str(&summary.to_json());
            out.push('\n');
        }
    }
    Ok(out)
}

fn gen_tournament(_root: &Path) -> Result<String, String> {
    let summaries = run_grid(4, build_tournament_grid(None, None)?);
    Ok(render_leaderboard_json(
        &leaderboard(&summaries),
        cell::SCENARIOS,
    ))
}

fn gen_profile_spans(_root: &Path) -> Result<String, String> {
    profile::runner_spans_golden_json("revocation_storm", crate::DEFAULT_SEED)
}

/// A golden that is the stdout of `figures <line>`.
fn figure(line: &str) -> Result<String, String> {
    let args = cli::parse_args(line.split(' ').map(str::to_string))?;
    cli::figure_output(&args).unwrap_or_else(|| Err(format!("`figures {line}` prints no figure")))
}

/// The registry of every tracked golden, in regeneration order.
pub fn default_specs() -> Vec<FixtureSpec> {
    vec![
        FixtureSpec {
            name: "chaos_reports.json",
            command: "cargo run --release -p spotweb-bench --bin figures -- chaos > tests/golden/chaos_reports.json",
            generate: |_| figure("chaos"),
        },
        FixtureSpec {
            name: "fig4a.json",
            command: "cargo run --release -p spotweb-bench --bin figures -- fig4a --seed 1234 > tests/golden/fig4a.json",
            generate: |_| figure("fig4a --seed 1234"),
        },
        FixtureSpec {
            name: "fig6a.json",
            command: "cargo run --release -p spotweb-bench --bin figures -- fig6a --seed 1234 --intervals 24 > tests/golden/fig6a.json",
            generate: |_| figure("fig6a --seed 1234 --intervals 24"),
        },
        FixtureSpec {
            name: "fig6b.json",
            command: "cargo run --release -p spotweb-bench --bin figures -- fig6b --seed 1234 --intervals 24 > tests/golden/fig6b.json",
            generate: |_| figure("fig6b --seed 1234 --intervals 24"),
        },
        FixtureSpec {
            name: "profile_spans.json",
            command: "cargo run --release -p spotweb-bench --bin figures -- bless profile_spans.json",
            generate: gen_profile_spans,
        },
        FixtureSpec {
            name: "runner_equivalence.jsonl",
            command: "for s in 1234 7 99; do figures sweep --seed $s --jobs 1; done > tests/golden/runner_equivalence.jsonl",
            generate: gen_runner_equivalence,
        },
        FixtureSpec {
            name: "scorecard.md",
            command: "cargo run --release -p spotweb-bench --bin figures -- scorecard --jobs 2 > tests/golden/scorecard.md",
            generate: |_| figure("scorecard --jobs 2"),
        },
        FixtureSpec {
            name: "tournament_leaderboard.json",
            command: "cargo run --release -p spotweb-bench --bin figures -- tournament --jobs 4 --out tests/golden/",
            generate: gen_tournament,
        },
        FixtureSpec {
            name: "trace_revocation_storm.jsonl",
            command: "cargo run --release -p spotweb-bench --bin figures -- trace --scenario revocation_storm --seed 1234 > tests/golden/trace_revocation_storm.jsonl",
            generate: gen_trace,
        },
    ]
}

fn golden_dir(root: &Path) -> PathBuf {
    root.join(manifest::GOLDEN_DIR)
}

/// On-disk golden bytes, keyed by fixture name.
type GoldenFiles = Vec<(String, Vec<u8>)>;

fn load_manifest(root: &Path) -> Result<(Manifest, GoldenFiles), String> {
    match manifest::load_input(root).map_err(|e| format!("reading golden directory: {e}"))? {
        Some(input) => {
            let m = match &input.manifest_text {
                Some(text) => Manifest::parse(text)?,
                None => Manifest::default(),
            };
            Ok((m, input.files))
        }
        None => Ok((Manifest::default(), Vec::new())),
    }
}

fn persist(root: &Path, m: &Manifest) -> Result<(), String> {
    cli::write(&golden_dir(root), manifest::MANIFEST_NAME, &m.render()).map(drop)
}

/// Import every untracked on-disk fixture into the manifest at epoch 1
/// (`old = "-"`). Idempotent: tracked fixtures are left alone.
fn init_manifest(
    root: &Path,
    specs: &[FixtureSpec],
    m: &mut Manifest,
    files: &[(String, Vec<u8>)],
    log: &mut String,
) -> Result<(), String> {
    use std::fmt::Write as _;
    for (name, bytes) in files {
        if m.entry(name).is_some() {
            continue;
        }
        let digest = fnv1a64_hex(bytes);
        let command = specs
            .iter()
            .find(|s| s.name == name)
            .map_or("(imported; no registered generator)", |s| s.command);
        m.upsert(FixtureEntry {
            name: name.clone(),
            epoch: 1,
            digest: digest.clone(),
            command: command.to_string(),
            history: vec![HistoryEntry {
                epoch: 1,
                old: "-".to_string(),
                new: digest.clone(),
                note: "initial import".to_string(),
            }],
        });
        let _ = writeln!(log, "imported {name}: epoch 1, digest {digest}");
    }
    persist(root, m)
}

/// Run the bless flow: `init` bootstraps/extends the manifest from
/// on-disk bytes, then every fixture named in `names` is regenerated
/// in registry order with its epoch bumped and `note` recorded.
/// Refuses to touch a dirty tree (any unnamed fixture inconsistent
/// with the manifest). Returns a human log of what happened.
pub fn run_bless(
    root: &Path,
    specs: &[FixtureSpec],
    names: &[String],
    init: bool,
    note: &str,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut log = String::new();
    let (mut m, files) = load_manifest(root)?;

    if init {
        init_manifest(root, specs, &mut m, &files, &mut log)?;
    }

    if names.is_empty() {
        if !init {
            return Err(
                "bless needs --init and/or fixture names (see the manifest for the registry)"
                    .to_string(),
            );
        }
        return Ok(log);
    }

    for name in names {
        if !specs.iter().any(|s| s.name == name) {
            let known: Vec<&str> = specs.iter().map(|s| s.name).collect();
            return Err(format!(
                "no registered generator for fixture {name:?}; known: {known:?}"
            ));
        }
    }

    // Dirty-tree refusal: every fixture we are NOT about to regenerate
    // must agree with the manifest, otherwise an unaudited edit would
    // be silently legitimized by the upcoming manifest write.
    let mut others = m.clone();
    others.fixtures.retain(|f| !names.contains(&f.name));
    let dirty = manifest::check_input(&manifest::ManifestInput {
        manifest_text: Some(others.render()),
        files: files
            .iter()
            .filter(|(n, _)| !names.contains(n))
            .cloned()
            .collect(),
    });
    if !dirty.is_empty() {
        return Err(format!(
            "refusing to bless over a dirty manifest; resolve these first (or bless them too):\n{}",
            dirty.join("\n")
        ));
    }

    for spec in specs {
        if !names.iter().any(|n| n == spec.name) {
            continue;
        }
        let content = (spec.generate)(root)?;
        let new_digest = fnv1a64_hex(content.as_bytes());
        let (old_epoch, old_digest) = m
            .entry(spec.name)
            .map_or((0, "-".to_string()), |e| (e.epoch, e.digest.clone()));
        // A no-op only when the manifest digest AND the on-disk bytes
        // already match the regenerated content — a tampered file whose
        // regeneration restores the recorded digest still needs the
        // write (healing), just not an epoch bump.
        let disk_matches = files
            .iter()
            .any(|(n, bytes)| n == spec.name && bytes == content.as_bytes());
        if old_epoch > 0 && old_digest == new_digest {
            if !disk_matches {
                cli::write(&golden_dir(root), spec.name, &content)?;
                let _ = writeln!(
                    log,
                    "healed {}: restored digest {new_digest} at epoch {old_epoch} (no bump)",
                    spec.name
                );
                continue;
            }
            let _ = writeln!(
                log,
                "unchanged {}: digest {new_digest} at epoch {old_epoch} (no bump)",
                spec.name
            );
            continue;
        }
        cli::write(&golden_dir(root), spec.name, &content)?;
        let epoch = old_epoch + 1;
        let mut history = m
            .entry(spec.name)
            .map_or_else(Vec::new, |e| e.history.clone());
        history.push(HistoryEntry {
            epoch,
            old: old_digest.clone(),
            new: new_digest.clone(),
            note: note.to_string(),
        });
        m.upsert(FixtureEntry {
            name: spec.name.to_string(),
            epoch,
            digest: new_digest.clone(),
            command: spec.command.to_string(),
            history,
        });
        // Persist after every fixture so a later generator that fails
        // leaves the manifest consistent with what is on disk.
        persist(root, &m)?;
        let _ = writeln!(
            log,
            "blessed {}: epoch {old_epoch} -> {epoch}, digest {old_digest} -> {new_digest}",
            spec.name
        );
    }
    Ok(log)
}

/// Run the `figures bless --check` gate: the manifest-consistency
/// checks over `root`'s golden directory, plus — given the merge
/// base's manifest and the golden paths a diff touched — the
/// epoch-bump check that fails a fixture changed without a bless.
/// `changed` takes fixture names or repo-relative golden paths as
/// `git diff --name-only` prints them; the manifest itself and nested
/// paths are skipped. `Err` carries one finding per line.
pub fn run_check(
    root: &Path,
    base_manifest: Option<&Path>,
    changed: &[String],
) -> Result<String, String> {
    let input = manifest::load_input(root)
        .map_err(|e| format!("reading {}: {e}", manifest::GOLDEN_DIR))?
        .ok_or_else(|| {
            format!(
                "{} has no {} directory",
                root.display(),
                manifest::GOLDEN_DIR
            )
        })?;
    let mut findings = manifest::check_input(&input);
    if let Some(base_path) = base_manifest {
        let base_text = std::fs::read_to_string(base_path)
            .map_err(|e| format!("reading {}: {e}", base_path.display()))?;
        let base = Manifest::parse(&base_text).map_err(|e| format!("base manifest: {e}"))?;
        let current = input
            .manifest_text
            .as_deref()
            .and_then(|t| Manifest::parse(t).ok())
            .unwrap_or_default();
        let prefix = format!("{}/", manifest::GOLDEN_DIR);
        let changed: Vec<String> = changed
            .iter()
            .map(|p| p.strip_prefix(&prefix).unwrap_or(p))
            .filter(|n| *n != manifest::MANIFEST_NAME && !n.contains('/'))
            .map(str::to_string)
            .collect();
        findings.append(&mut manifest::check_epoch_bumps(&current, &base, &changed));
    }
    if findings.is_empty() {
        Ok(format!(
            "bless --check: {} fixture(s) consistent with {}\n",
            input.files.len(),
            manifest::MANIFEST_NAME
        ))
    } else {
        findings.sort();
        Err(findings.join("\n"))
    }
}
