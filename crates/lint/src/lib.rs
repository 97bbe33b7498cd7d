//! `spotweb-lint`: workspace determinism & robustness analyzer.
//!
//! Every headline result of this reproduction — the Fig. 5a market
//! churn, the chaos reports, the `--jobs 1 ≡ --jobs N` sweep equality
//! — rests on invariants that used to be enforced only by convention:
//! seeded randomness, byte-stable rendering, wall-clock quarantine.
//! One stray `Instant::now()` or `HashMap` iteration inside a renderer
//! silently breaks same-seed replayability, the property the paper's
//! evaluation methodology depends on for apples-to-apples policy
//! comparison. This crate turns those conventions into named,
//! allowlistable rules checked on every build.
//!
//! Design constraints:
//!
//! * **Token-level.** The build environment has no registry access,
//!   so the analyzer hand-rolls a small Rust lexer ([`lexer`]) —
//!   strings, raw strings, and nested comments handled correctly —
//!   instead of pulling in `syn`. Every rule is a scan over one file's
//!   token stream; none need a syntax tree or a second file.
//! * **Byte-stable output.** The JSON report sorts every section and
//!   uses a fixed field order, so it can be golden-tested like every
//!   other artifact in the workspace ([`report`]).
//! * **Unit-testable engine.** Rules run over in-memory
//!   [`files::SourceFile`]s; the filesystem only appears at the edge
//!   ([`files::scan_workspace`]).
//!
//! The rule catalog lives in [`rules::RULES`]; the workspace's
//! quarantine and renderer registries in [`config::LintConfig::spotweb`].
//! Suppressions use an in-source pragma that the tool counts and
//! reports (see [`rules`]); run the binary with `--list-allows` to
//! audit the full suppression surface. The golden fixture manifest
//! ([`manifest`]) is checked for consistency on every run.
//!
//! There is no call graph: a function can only reach the wall clock or
//! OS entropy through *some* token naming it, that token is a per-file
//! finding wherever it sits (every crate, test code included for
//! RNGs), and so a tree with no per-file findings has no tainted call
//! chain either (DESIGN.md, "Why there is no call graph").
//!
//! ```
//! use spotweb_lint::{files::SourceFile, config::LintConfig, rules::lint_files};
//!
//! let file = SourceFile::from_source(
//!     "crates/core/src/lib.rs",
//!     "fn f() { let t = std::time::Instant::now(); }".to_string(),
//! );
//! let report = lint_files(&LintConfig::spotweb(), &[file]);
//! // `core::lib` is not a registered quarantine module, so the
//! // Instant is a finding at the token itself.
//! let rules: Vec<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
//! assert_eq!(rules, ["wall-clock-quarantine"]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod files;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;

use std::path::Path;

pub use config::LintConfig;
pub use report::Report;

/// Scan `.rs` files under `root` and lint them with `cfg`, including
/// the golden-manifest consistency checks when `root` has a
/// `tests/golden/` directory. The workspace's own configuration is
/// [`LintConfig::spotweb`].
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> std::io::Result<Report> {
    let files = files::scan_workspace(root)?;
    let manifest_input = manifest::load_input(root)?;
    Ok(rules::lint_files_with_manifest(
        cfg,
        &files,
        manifest_input.as_ref(),
    ))
}

/// Walk upward from `start` to the nearest directory whose
/// `Cargo.toml` declares a `[workspace]` — the root the binary and
/// `figures lint` analyze by default.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
