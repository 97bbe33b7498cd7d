//! The rule engine: the per-file invariant rules, the allow-pragma
//! grammar, and the driver that applies both to a file set.
//!
//! Every rule is named and allowlistable. A violation is suppressed
//! only by an in-source pragma on the same line (or, for a pragma on
//! its own line, the next code line):
//!
//! ```text
//! // spotweb-lint: allow(wall-clock-quarantine) -- solver wall-time, BENCH-only
//! ```
//!
//! The `-- reason` is mandatory: a bare allow is itself a violation
//! (`allow-missing-reason`), as is naming a rule the analyzer does not
//! know (`unknown-rule`) or a pragma it cannot parse
//! (`malformed-pragma`). Meta-findings are not suppressible.

use crate::config::LintConfig;
use crate::files::{module_matches, SourceFile, Target};
use crate::lexer::TokenKind;
use crate::manifest::{self, ManifestInput};
use crate::report::{AllowRecord, Finding, Report, Suppressed};

/// Rule catalog entry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule identifier used in pragmas and reports.
    pub id: &'static str,
    /// One-line summary for `--rules` and the docs.
    pub summary: &'static str,
    /// Whether the rule can be named in an allow pragma (meta rules
    /// about pragmas themselves cannot).
    pub allowlistable: bool,
}

/// Catalog of every rule the analyzer knows, checkable and meta.
pub const RULES: [RuleInfo; 12] = [
    RuleInfo {
        id: "wall-clock-quarantine",
        summary: "Instant/SystemTime only in registered quarantine modules (timings reach only output declared machine-dependent, never byte-stable output)",
        allowlistable: true,
    },
    RuleInfo {
        id: "ordered-serialization",
        summary: "no HashMap/HashSet in renderer modules; use BTreeMap/BTreeSet or explicit sorts for byte-stable iteration",
        allowlistable: true,
    },
    RuleInfo {
        id: "seeded-rng-only",
        summary: "no thread_rng/from_entropy/OsRng/getrandom/RandomState; every RNG derives from the run seed. In shard-parallel modules stateful sequential RNGs (ChaCha8Rng) are banned even when seeded — draws depend on order; use the sim::rng counter streams",
        allowlistable: true,
    },
    RuleInfo {
        id: "no-float-display-in-renderers",
        summary: "no {:e}/{:E}, precision, or {:?} format specs in renderer modules; floats go through telemetry::json::json_f64",
        allowlistable: true,
    },
    RuleInfo {
        id: "no-unwrap-in-lib",
        summary: "library code propagates errors; .unwrap() only in #[cfg(test)] (use expect with an invariant, or ?)",
        allowlistable: true,
    },
    RuleInfo {
        id: "telemetry-name-constants",
        summary: "metric names come from telemetry::names constants, not inline string literals; hot-path modules use interned Counter/Histogram handles instead of string-keyed count/observe",
        allowlistable: true,
    },
    RuleInfo {
        id: "golden-write-outside-bless",
        summary: "only registered bless modules and test code may name a golden-directory path in a string literal; fixtures regenerate through `figures bless`",
        allowlistable: true,
    },
    RuleInfo {
        id: "manifest-consistency",
        summary: "every golden fixture's on-disk digest must match its MANIFEST.json entry (epoch, digest, old→new history); mismatches name the bless command",
        allowlistable: false,
    },
    RuleInfo {
        id: "stale-allow",
        summary: "allow pragma no longer suppresses any finding — delete it so the suppression surface cannot rot",
        allowlistable: false,
    },
    RuleInfo {
        id: "allow-missing-reason",
        summary: "every allow pragma must carry `-- <reason>`",
        allowlistable: false,
    },
    RuleInfo {
        id: "unknown-rule",
        summary: "allow pragma names a rule the analyzer does not know",
        allowlistable: false,
    },
    RuleInfo {
        id: "malformed-pragma",
        summary: "comment mentions spotweb-lint: but does not parse as allow(rule, …) -- reason",
        allowlistable: false,
    },
];

fn is_allowlistable(rule: &str) -> bool {
    RULES.iter().any(|r| r.id == rule && r.allowlistable)
}

/// Marker that introduces a pragma inside any comment.
const PRAGMA_MARKER: &str = "spotweb-lint:";

/// Parsed pragma: named rules plus the (possibly missing) reason.
#[derive(Debug, PartialEq, Eq)]
pub struct Pragma {
    /// Rules the pragma allows.
    pub rules: Vec<String>,
    /// Reason text after `--`, if present and non-empty.
    pub reason: Option<String>,
}

/// Parse a comment's text. `None`: not a pragma at all. `Some(Err)`:
/// mentions the marker but does not parse (`malformed-pragma`).
pub fn parse_pragma(comment: &str) -> Option<Result<Pragma, String>> {
    let idx = comment.find(PRAGMA_MARKER)?;
    let rest = comment[idx + PRAGMA_MARKER.len()..]
        .trim()
        .trim_end_matches("*/")
        .trim_end();
    let Some(args) = rest.strip_prefix("allow") else {
        return Some(Err(format!(
            "expected `allow(<rule>, …)` after `{PRAGMA_MARKER}`"
        )));
    };
    let args = args.trim_start();
    let Some(args) = args.strip_prefix('(') else {
        return Some(Err("expected `(` after `allow`".to_string()));
    };
    let Some(close) = args.find(')') else {
        return Some(Err("unclosed `(` in allow pragma".to_string()));
    };
    let mut rules = Vec::new();
    for part in args[..close].split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Some(Err("empty rule name in allow pragma".to_string()));
        }
        rules.push(part.to_string());
    }
    let tail = args[close + 1..].trim();
    let reason = match tail.strip_prefix("--") {
        Some(r) => {
            let r = r.trim();
            if r.is_empty() {
                None
            } else {
                Some(r.to_string())
            }
        }
        None if tail.is_empty() => None,
        None => {
            return Some(Err(format!(
                "unexpected trailing text after allow(…): `{tail}` (reasons start with `--`)"
            )))
        }
    };
    Some(Ok(Pragma { rules, reason }))
}

/// The line a pragma at token `i` suppresses: its own line when code
/// precedes it on that line, otherwise the next code line.
fn pragma_target_line(file: &SourceFile, i: usize) -> u32 {
    let tok = file.tokens[i];
    let code_before = file.tokens[..i]
        .iter()
        .any(|t| !t.kind.is_comment() && t.line == tok.line);
    if code_before {
        return tok.line;
    }
    file.tokens[i + 1..]
        .iter()
        .find(|t| !t.kind.is_comment())
        .map_or(tok.line, |t| t.line)
}

// ---------------------------------------------------------------------------
// Checkable rules. Each pushes raw findings; the driver applies allows.
// ---------------------------------------------------------------------------

const WALL_CLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "UNIX_EPOCH"];
const HASH_IDENTS: [&str; 2] = ["HashMap", "HashSet"];
const RNG_IDENTS: [&str; 5] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];
/// Seeded but *stateful sequential* generators: fine in serial code,
/// banned in `LintConfig::shard_parallel` modules where draws must be
/// a pure function of (seed, stream, counter) so shard count cannot
/// change the byte output (ISSUE 10).
const STATEFUL_RNG_IDENTS: [&str; 1] = ["ChaCha8Rng"];
const TELEMETRY_METHODS: [&str; 8] = [
    "count",
    "counter",
    "counter_add",
    "gauge",
    "gauge_set",
    "observe",
    "histogram",
    "time",
];
const FMT_MACROS: [&str; 8] = [
    "format",
    "format_args",
    "write",
    "writeln",
    "print",
    "println",
    "eprint",
    "eprintln",
];

fn rule_wall_clock(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !matches!(file.target, Target::Lib | Target::Bin) {
        return;
    }
    if cfg
        .wall_clock_quarantine
        .iter()
        .any(|q| module_matches(&file.module_path, q))
    {
        return;
    }
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind == TokenKind::Ident && WALL_CLOCK_IDENTS.contains(&file.text(i)) {
            out.push(Finding {
                rule: "wall-clock-quarantine".to_string(),
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` outside the wall-clock quarantine (module `{}` is not registered); \
                     wall time breaks same-seed replay — derive timing from the sim clock, or \
                     register the module if its timings only reach output declared \
                     machine-dependent",
                    file.text(i),
                    file.module_path
                ),
            });
        }
    }
}

fn rule_ordered_serialization(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !matches!(file.target, Target::Lib | Target::Bin) {
        return;
    }
    if !cfg
        .renderers
        .iter()
        .any(|r| module_matches(&file.module_path, r))
    {
        return;
    }
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind == TokenKind::Ident && !file.in_test[i] && HASH_IDENTS.contains(&file.text(i)) {
            out.push(Finding {
                rule: "ordered-serialization".to_string(),
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` in renderer module `{}`: hash iteration order is seeded per-process \
                     and would leak into byte-stable output; use BTreeMap/BTreeSet or sort \
                     explicitly",
                    file.text(i),
                    file.module_path
                ),
            });
        }
    }
}

fn rule_seeded_rng(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if file.target == Target::Other {
        return;
    }
    let shard_parallel = cfg
        .shard_parallel
        .iter()
        .any(|m| module_matches(&file.module_path, m));
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if RNG_IDENTS.contains(&file.text(i)) {
            out.push(Finding {
                rule: "seeded-rng-only".to_string(),
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` draws OS entropy; every RNG must be seeded from the run seed \
                     (SeedableRng::seed_from_u64 or a derived stream) so runs replay",
                    file.text(i)
                ),
            });
        } else if shard_parallel && !file.in_test[i] && STATEFUL_RNG_IDENTS.contains(&file.text(i))
        {
            out.push(Finding {
                rule: "seeded-rng-only".to_string(),
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{}` is a stateful sequential RNG in shard-parallel module `{}`: its \
                     draws depend on draw order, so shard count would change the bytes; \
                     use the counter streams in `sim::rng` (sample/CounterStream), the \
                     only sanctioned generator on this path",
                    file.text(i),
                    file.module_path
                ),
            });
        }
    }
}

fn rule_no_unwrap(file: &SourceFile, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    if file.target != Target::Lib {
        return;
    }
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind == TokenKind::Ident && !file.in_test[i] && file.text(i) == "unwrap" {
            let dotted = file.prev_code(i).is_some_and(|p| file.text(p) == ".");
            if dotted {
                out.push(Finding {
                    rule: "no-unwrap-in-lib".to_string(),
                    file: file.path.clone(),
                    line: t.line,
                    message: "`.unwrap()` in library code: propagate with `?`, or use \
                              `.expect(\"<invariant>\")` to document why failure is impossible"
                        .to_string(),
                });
            }
        }
    }
}

fn rule_telemetry_names(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !matches!(file.target, Target::Lib | Target::Bin) {
        return;
    }
    if file.crate_name == cfg.telemetry_crate {
        return;
    }
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind != TokenKind::Ident
            || file.in_test[i]
            || !TELEMETRY_METHODS.contains(&file.text(i))
        {
            continue;
        }
        let dotted = file.prev_code(i).is_some_and(|p| file.text(p) == ".");
        if !dotted {
            continue;
        }
        let Some(open) = file.next_code(i).filter(|&j| file.text(j) == "(") else {
            continue;
        };
        if let Some(arg) = file.next_code(open) {
            if file.tokens[arg].kind.is_string() {
                out.push(Finding {
                    rule: "telemetry-name-constants".to_string(),
                    file: file.path.clone(),
                    line: file.tokens[arg].line,
                    message: format!(
                        "inline metric name {} passed to `.{}(…)`; add a constant to \
                         telemetry::names so producers and consumers cannot fork the series",
                        file.text(arg),
                        file.text(i)
                    ),
                });
                continue;
            }
        }
        // Hot-path extension: inside registered per-request modules,
        // even a `names::` constant is too slow — a string-keyed
        // `.count(name, δ)` / `.observe(name, v)` pays a map probe per
        // request. Those modules resolve a handle once instead.
        // String-keyed sink calls are exactly the two-or-more-argument
        // forms; one-argument `handle.observe(v)` and zero-argument
        // iterator `.count()` never have a top-level comma.
        if !matches!(file.text(i), "count" | "observe") {
            continue;
        }
        if !cfg
            .hot_paths
            .iter()
            .any(|m| module_matches(&file.module_path, m))
        {
            continue;
        }
        if call_has_multiple_args(file, open) {
            out.push(Finding {
                rule: "telemetry-name-constants".to_string(),
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "string-keyed `.{}(…)` in hot-path module `{}`: resolve a \
                     CounterHandle/HistogramHandle once (sink.counter_handle / \
                     sink.histogram_handle) and use it in the per-request loop",
                    file.text(i),
                    file.module_path
                ),
            });
        }
    }
    rule_span_names(file, cfg, out);
}

/// Span-name extension of `telemetry-name-constants`: in registered
/// crates, profiling spans (`prof::scope!(…)`, `prof_scope!(…)`,
/// `ScopeGuard::enter(…)`) must be named through `telemetry::names`
/// `SPAN_*` constants. The span tree is golden-locked, so an inline
/// literal lets a producer and the golden fork silently — the same
/// failure mode as an inline metric name.
fn rule_span_names(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.span_crates.contains(&file.crate_name) {
        return;
    }
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind != TokenKind::Ident || file.in_test[i] {
            continue;
        }
        let (call, open) = match file.text(i) {
            // `prof::scope!("…")` or `crate-level prof_scope!("…")`.
            name @ ("scope" | "prof_scope") => {
                let open = file
                    .next_code(i)
                    .filter(|&j| file.text(j) == "!")
                    .and_then(|j| file.next_code(j))
                    .filter(|&j| file.text(j) == "(");
                (format!("{name}!"), open)
            }
            // `ScopeGuard::enter("…")` — `::` lexes as two `:` tokens.
            "enter" => {
                let qualified = file
                    .prev_code(i)
                    .filter(|&p| file.text(p) == ":")
                    .and_then(|p| file.prev_code(p))
                    .filter(|&p| file.text(p) == ":")
                    .and_then(|p| file.prev_code(p))
                    .is_some_and(|p| file.text(p) == "ScopeGuard");
                let open = if qualified {
                    file.next_code(i).filter(|&j| file.text(j) == "(")
                } else {
                    None
                };
                ("ScopeGuard::enter".to_string(), open)
            }
            _ => continue,
        };
        let Some(open) = open else {
            continue;
        };
        if let Some(arg) = file.next_code(open) {
            if file.tokens[arg].kind.is_string() {
                out.push(Finding {
                    rule: "telemetry-name-constants".to_string(),
                    file: file.path.clone(),
                    line: file.tokens[arg].line,
                    message: format!(
                        "inline span name {} passed to `{}(…)`; use a SPAN_* constant \
                         from telemetry::names so the golden-locked span tree cannot \
                         fork from its producers",
                        file.text(arg),
                        call
                    ),
                });
            }
        }
    }
}

/// `true` when the call whose `(` is at token `open` has a comma at
/// paren depth 1 — i.e. two or more top-level arguments.
fn call_has_multiple_args(file: &SourceFile, open: usize) -> bool {
    let mut depth = 0i32;
    let mut j = open;
    loop {
        match file.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            "," if depth == 1 => return true,
            _ => {}
        }
        match file.next_code(j) {
            Some(n) => j = n,
            None => return false,
        }
    }
}

fn rule_float_display(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !matches!(file.target, Target::Lib | Target::Bin) {
        return;
    }
    if !cfg
        .renderers
        .iter()
        .any(|r| module_matches(&file.module_path, r))
    {
        return;
    }
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind != TokenKind::Ident || file.in_test[i] || !FMT_MACROS.contains(&file.text(i)) {
            continue;
        }
        let Some(bang) = file.next_code(i).filter(|&j| file.text(j) == "!") else {
            continue;
        };
        let Some(open) = file
            .next_code(bang)
            .filter(|&j| matches!(file.text(j), "(" | "[" | "{"))
        else {
            continue;
        };
        // First string literal inside the macro call is the format
        // string (skipping e.g. the `write!(out, …)` destination).
        let mut depth = 0i32;
        let mut j = open;
        let fmt = loop {
            match file.text(j) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break None;
                    }
                }
                _ => {}
            }
            if file.tokens[j].kind.is_string() {
                break Some(j);
            }
            match file.next_code(j) {
                Some(n) => j = n,
                None => break None,
            }
        };
        let Some(fmt) = fmt else { continue };
        for spec in bad_format_specs(file.text(fmt)) {
            out.push(Finding {
                rule: "no-float-display-in-renderers".to_string(),
                file: file.path.clone(),
                line: file.tokens[fmt].line,
                message: format!(
                    "format spec `{{{spec}}}` in renderer module `{}`: scientific/precision/debug \
                     formatting is not the canonical float rendering; route floats through \
                     telemetry::json::json_f64 (shortest round-trip, stable `.0` suffix)",
                    file.module_path
                ),
            });
        }
    }
}

/// Extract `{…}` placeholders whose format spec bypasses canonical
/// float rendering: scientific (`e`/`E`), precision (`.N`), or debug
/// (`?`). Width/fill/align/radix specs on integers are fine.
fn bad_format_specs(literal: &str) -> Vec<String> {
    let mut out = Vec::new();
    let chars: Vec<char> = literal.chars().collect();
    let mut k = 0usize;
    while k < chars.len() {
        if chars[k] == '{' {
            if chars.get(k + 1) == Some(&'{') {
                k += 2;
                continue;
            }
            let mut close = k + 1;
            while close < chars.len() && chars[close] != '}' && chars[close] != '{' {
                close += 1;
            }
            if chars.get(close) == Some(&'}') {
                let piece: String = chars[k + 1..close].iter().collect();
                if let Some((_, spec)) = piece.split_once(':') {
                    let bad = spec.ends_with('e')
                        || spec.ends_with('E')
                        || spec.ends_with('?')
                        || spec.contains('.');
                    if bad {
                        out.push(piece);
                    }
                }
                k = close + 1;
                continue;
            }
        } else if chars[k] == '}' && chars.get(k + 1) == Some(&'}') {
            k += 2;
            continue;
        }
        k += 1;
    }
    out
}

/// `golden-write-outside-bless`: a string literal naming the golden
/// directory in non-test `Lib|Bin` code must live in a registered
/// bless module. Everything else regenerates fixtures through
/// `figures bless`, which records the epoch bump; code that has no
/// golden path to hand cannot rewrite a fixture behind its back.
fn rule_golden_path(file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !matches!(file.target, Target::Lib | Target::Bin) {
        return;
    }
    if cfg
        .golden_writers
        .iter()
        .any(|w| module_matches(&file.module_path, w))
    {
        return;
    }
    for i in file.code_indices() {
        let t = file.tokens[i];
        if t.kind.is_string() && !file.in_test[i] && file.text(i).contains(manifest::GOLDEN_DIR) {
            out.push(Finding {
                rule: "golden-write-outside-bless".to_string(),
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "golden-directory path {} in module `{}`; only registered bless modules \
                     may name fixture paths — route regeneration through `figures bless` so \
                     the epoch bump and old→new digests are recorded in the manifest",
                    file.text(i),
                    file.module_path
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Collect one file's allow pragmas, pushing meta-findings
/// (`malformed-pragma`, `unknown-rule`, `allow-missing-reason`) as
/// they surface.
fn collect_pragmas(file: &SourceFile, findings: &mut Vec<Finding>) -> Vec<AllowRecord> {
    let mut allows: Vec<AllowRecord> = Vec::new();
    for (i, tok) in file.tokens.iter().enumerate() {
        if !tok.kind.is_comment() {
            continue;
        }
        // Doc comments never carry live pragmas — they quote
        // pragma syntax when documenting it (this crate included).
        let text = file.text(i);
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|d| text.starts_with(d))
        {
            continue;
        }
        match parse_pragma(text) {
            None => {}
            Some(Err(msg)) => findings.push(Finding {
                rule: "malformed-pragma".to_string(),
                file: file.path.clone(),
                line: tok.line,
                message: msg,
            }),
            Some(Ok(pragma)) => {
                for r in &pragma.rules {
                    if !is_allowlistable(r) {
                        findings.push(Finding {
                            rule: "unknown-rule".to_string(),
                            file: file.path.clone(),
                            line: tok.line,
                            message: format!(
                                "allow pragma names unknown rule `{r}` (see --rules for \
                                 the catalog)"
                            ),
                        });
                    }
                }
                if pragma.reason.is_none() {
                    findings.push(Finding {
                        rule: "allow-missing-reason".to_string(),
                        file: file.path.clone(),
                        line: tok.line,
                        message: "allow pragma without `-- <reason>`: every suppression \
                                  must say why it is safe"
                            .to_string(),
                    });
                }
                allows.push(AllowRecord {
                    file: file.path.clone(),
                    line: tok.line,
                    target_line: pragma_target_line(file, i),
                    rules: pragma.rules,
                    reason: pragma.reason.unwrap_or_default(),
                    used: false,
                });
            }
        }
    }
    allows
}

/// Run every rule over `files` (no manifest input), apply allow
/// pragmas, and return the canonicalized report.
pub fn lint_files(cfg: &LintConfig, files: &[SourceFile]) -> Report {
    lint_files_with_manifest(cfg, files, None)
}

/// Run every per-file rule and (when `manifest` is given) the
/// golden-manifest consistency checks, apply allow pragmas, and return
/// the canonicalized report.
pub fn lint_files_with_manifest(
    cfg: &LintConfig,
    files: &[SourceFile],
    manifest: Option<&ManifestInput>,
) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    for file in files {
        let mut allows = collect_pragmas(file, &mut report.findings);

        let mut raw: Vec<Finding> = Vec::new();
        rule_wall_clock(file, cfg, &mut raw);
        rule_ordered_serialization(file, cfg, &mut raw);
        rule_seeded_rng(file, cfg, &mut raw);
        rule_no_unwrap(file, cfg, &mut raw);
        rule_telemetry_names(file, cfg, &mut raw);
        rule_float_display(file, cfg, &mut raw);
        rule_golden_path(file, cfg, &mut raw);

        // Apply allows line-by-line.
        for f in raw {
            let hit = allows
                .iter_mut()
                .find(|a| a.target_line == f.line && a.rules.contains(&f.rule));
            match hit {
                Some(a) => {
                    a.used = true;
                    report.suppressed.push(Suppressed {
                        rule: f.rule,
                        file: f.file,
                        line: f.line,
                        reason: a.reason.clone(),
                    });
                }
                None => report.findings.push(f),
            }
        }

        // Stale allows: a pragma that suppressed nothing is drift and
        // must go.
        for a in allows.iter().filter(|a| !a.used) {
            report.findings.push(Finding {
                rule: "stale-allow".to_string(),
                file: a.file.clone(),
                line: a.line,
                message: format!(
                    "allow({}) suppresses nothing — the violation it silenced is gone; \
                     delete the pragma so the suppression surface tracks reality",
                    a.rules.join(", ")
                ),
            });
        }
        report.allows.append(&mut allows);
    }

    // Golden-manifest consistency (hard findings, never allowlistable).
    if let Some(input) = manifest {
        report.findings.append(&mut manifest::check_input(input));
    }

    report.canonicalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::SourceFile;

    fn cfg() -> LintConfig {
        LintConfig {
            wall_clock_quarantine: vec!["app::quarantined".to_string()],
            renderers: vec!["app::render".to_string()],
            telemetry_crate: "telemetry".to_string(),
            hot_paths: vec!["app::hot".to_string()],
            span_crates: vec!["app".to_string()],
            golden_writers: vec!["app::blessed".to_string()],
            shard_parallel: vec!["app::arrivals".to_string()],
        }
    }

    fn lint_one(path: &str, src: &str) -> Report {
        let f = SourceFile::from_source(path, src.to_string());
        lint_files(&cfg(), &[f])
    }

    fn rules_of(r: &Report) -> Vec<&str> {
        r.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn wall_clock_flagged_outside_quarantine() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(
            rules_of(&r),
            ["wall-clock-quarantine", "wall-clock-quarantine"]
        );
        assert_eq!(r.findings[0].line, 1);
        assert_eq!(r.findings[1].line, 2);
    }

    #[test]
    fn wall_clock_ok_in_quarantined_module() {
        let r = lint_one(
            "crates/app/src/quarantined.rs",
            "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn wall_clock_in_string_or_comment_is_fine() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "// Instant is quarantined\nconst S: &str = \"Instant::now\";\n",
        );
        assert!(r.is_clean());
    }

    #[test]
    fn hash_collections_flagged_only_in_renderers() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {}\n";
        let r = lint_one("crates/app/src/render.rs", src);
        assert_eq!(
            rules_of(&r),
            ["ordered-serialization", "ordered-serialization"]
        );
        let r = lint_one("crates/app/src/other.rs", src);
        assert!(r.is_clean(), "non-renderer modules may use HashMap");
    }

    #[test]
    fn hash_collections_ok_in_renderer_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        let r = lint_one("crates/app/src/render.rs", src);
        assert!(r.is_clean());
    }

    #[test]
    fn entropy_rngs_flagged_everywhere_even_tests() {
        let r = lint_one(
            "crates/app/tests/integration.rs",
            "fn f() { let mut rng = rand::thread_rng(); }\n",
        );
        assert_eq!(rules_of(&r), ["seeded-rng-only"]);
        let r = lint_one(
            "crates/app/src/lib.rs",
            "use std::collections::hash_map::RandomState;\n",
        );
        assert_eq!(rules_of(&r), ["seeded-rng-only"]);
    }

    #[test]
    fn stateful_rng_flagged_only_in_shard_parallel_modules() {
        // Seeded, so the entropy rule stays quiet — but in a
        // shard-parallel module the *statefulness* is the violation.
        let src = "use rand_chacha::ChaCha8Rng;\n\
                   fn f(seed: u64) { let _ = ChaCha8Rng::seed_from_u64(seed); }\n";
        let r = lint_one("crates/app/src/arrivals.rs", src);
        assert_eq!(rules_of(&r), ["seeded-rng-only", "seeded-rng-only"]);
        assert!(
            r.findings[0].message.contains("stateful sequential RNG")
                && r.findings[0].message.contains("sim::rng"),
            "{}",
            r.findings[0].message
        );
        // Outside the registry a seeded ChaCha8Rng replays fine.
        let r = lint_one("crates/app/src/lib.rs", src);
        assert!(r.is_clean(), "{:?}", r.findings);
        // Test code in shard-parallel modules may use it (e.g. as a
        // reference generator in property tests).
        let test_src = "#[cfg(test)]\nmod tests {\n    use rand_chacha::ChaCha8Rng;\n}\n";
        let r = lint_one("crates/app/src/arrivals.rs", test_src);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn stateful_rng_is_suppressible_with_a_reason() {
        let src = "use rand_chacha::ChaCha8Rng;\n\
                   // spotweb-lint: allow(seeded-rng-only) -- serial-only helper, never sharded\n\
                   fn f(seed: u64) { let _ = ChaCha8Rng::seed_from_u64(seed); }\n";
        let r = lint_one("crates/app/src/arrivals.rs", src);
        // Line 1's `use` still fires; the pragma covers line 3.
        assert_eq!(rules_of(&r), ["seeded-rng-only"]);
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn unwrap_flagged_in_lib_not_tests_or_bins() {
        let src = "fn f() { g().unwrap(); }\n#[cfg(test)]\nmod t { fn h() { g().unwrap(); } }\n";
        let r = lint_one("crates/app/src/lib.rs", src);
        assert_eq!(rules_of(&r), ["no-unwrap-in-lib"]);
        assert_eq!(r.findings[0].line, 1);
        let r = lint_one("crates/app/src/bin/tool.rs", src);
        assert!(r.is_clean(), "bins may unwrap");
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "fn f() { g().unwrap_or(0); h().unwrap_or_default(); }\n",
        );
        assert!(r.is_clean());
    }

    #[test]
    fn inline_metric_names_flagged() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "fn f(s: &Sink) { s.count(\"my_total\", 1); s.observe(\"lat\", 0.5); }\n",
        );
        assert_eq!(
            rules_of(&r),
            ["telemetry-name-constants", "telemetry-name-constants"]
        );
    }

    #[test]
    fn constant_metric_names_and_float_observe_are_fine() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "fn f(s: &Sink) { s.count(names::SERVED, 1); p.observe(0.5); }\n",
        );
        assert!(r.is_clean());
    }

    #[test]
    fn string_keyed_telemetry_flagged_in_hot_path_modules() {
        // Even a names:: constant is a map probe per request — hot-path
        // modules must go through interned handles.
        let r = lint_one(
            "crates/app/src/hot.rs",
            "fn f(s: &Sink) { s.count(names::SERVED, 1); s.observe(names::LAT, 0.5); }\n",
        );
        assert_eq!(
            rules_of(&r),
            ["telemetry-name-constants", "telemetry-name-constants"]
        );
        assert!(r.findings[0].message.contains("CounterHandle"));
    }

    #[test]
    fn handle_calls_and_iterator_count_are_fine_in_hot_paths() {
        let r = lint_one(
            "crates/app/src/hot.rs",
            "fn f(h: &CounterHandle, g: &HistogramHandle, v: &[u32]) {\n\
             \x20   h.inc(); g.observe(0.5); let n = v.iter().count();\n\
             \x20   let m = v.iter().filter(|x| f(**x, 0)).count();\n}\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn string_keyed_telemetry_fine_outside_hot_paths() {
        let r = lint_one(
            "crates/app/src/cold.rs",
            "fn f(s: &Sink) { s.count(names::SERVED, 1); s.observe(names::LAT, 0.5); }\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn telemetry_crate_itself_is_exempt() {
        let r = lint_one(
            "crates/telemetry/src/metrics.rs",
            "fn f(&mut self) { self.count(\"x\", 1); }\n",
        );
        assert!(r.is_clean());
    }

    #[test]
    fn inline_span_names_flagged_in_span_crates() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "fn f() { prof::scope!(\"app.work\"); \
             let _g = prof::ScopeGuard::enter(\"app.other\"); }\n",
        );
        assert_eq!(
            rules_of(&r),
            ["telemetry-name-constants", "telemetry-name-constants"]
        );
        assert!(r.findings[0].message.contains("inline span name"));
    }

    #[test]
    fn constant_span_names_and_other_crates_are_fine() {
        // names:: constants pass in a span crate…
        let r = lint_one(
            "crates/app/src/lib.rs",
            "fn f() { prof::scope!(names::SPAN_LB_ROUTE); }\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
        // …and a crate outside the registry may use literals (e.g.
        // bench phase labels).
        let r = lint_one(
            "crates/other/src/lib.rs",
            "fn f() { prof::scope!(\"bench.phase\"); }\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn float_specs_flagged_in_renderers() {
        let r = lint_one(
            "crates/app/src/render.rs",
            "fn f(x: f64) -> String { format!(\"{x:e} {:.2} {:?}\", x, x) }\n",
        );
        assert_eq!(r.findings.len(), 3);
        assert!(rules_of(&r)
            .iter()
            .all(|r| *r == "no-float-display-in-renderers"));
    }

    #[test]
    fn plain_and_width_specs_are_fine() {
        let r = lint_one(
            "crates/app/src/render.rs",
            "fn f(x: u32) -> String { format!(\"{x} {:>8} {{literal}}\", x) }\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn write_macro_skips_destination_arg() {
        let r = lint_one(
            "crates/app/src/render.rs",
            "fn f(o: &mut String, x: f64) { write!(o, \"{:.3}\", x); }\n",
        );
        assert_eq!(rules_of(&r), ["no-float-display-in-renderers"]);
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "use std::time::Instant; // spotweb-lint: allow(wall-clock-quarantine) -- timing only\n",
        );
        assert!(r.is_clean());
        assert_eq!(r.suppressed.len(), 1);
        assert_eq!(r.suppressed[0].reason, "timing only");
        assert!(r.allows[0].used);
    }

    #[test]
    fn allow_on_preceding_line_suppresses_next_code_line() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "// spotweb-lint: allow(wall-clock-quarantine) -- timing only\nuse std::time::Instant;\n",
        );
        assert!(r.is_clean());
        assert_eq!(r.suppressed.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_a_violation_but_still_suppresses() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "// spotweb-lint: allow(wall-clock-quarantine)\nuse std::time::Instant;\n",
        );
        assert_eq!(rules_of(&r), ["allow-missing-reason"]);
        assert_eq!(r.suppressed.len(), 1, "the wall-clock hit is suppressed");
    }

    #[test]
    fn allow_with_dashes_but_empty_reason_is_a_violation() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "// spotweb-lint: allow(wall-clock-quarantine) --\nuse std::time::Instant;\n",
        );
        assert!(rules_of(&r).contains(&"allow-missing-reason"));
    }

    #[test]
    fn unknown_rule_and_malformed_pragmas_are_violations() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "// spotweb-lint: allow(no-such-rule) -- why\n// spotweb-lint: disable everything\n",
        );
        let mut rules = rules_of(&r);
        rules.sort_unstable();
        // The unknown-rule allow also suppresses nothing → stale-allow.
        assert_eq!(rules, ["malformed-pragma", "stale-allow", "unknown-rule"]);
    }

    #[test]
    fn allow_does_not_leak_to_other_lines_or_rules() {
        let r = lint_one(
            "crates/app/src/lib.rs",
            "// spotweb-lint: allow(no-unwrap-in-lib) -- wrong rule\nuse std::time::Instant;\n",
        );
        // The mismatched pragma is itself flagged as stale.
        assert_eq!(rules_of(&r), ["stale-allow", "wall-clock-quarantine"]);
        assert!(!r.allows[0].used);
    }

    #[test]
    fn multi_rule_allow() {
        let r = lint_one(
            "crates/app/src/render.rs",
            "// spotweb-lint: allow(ordered-serialization, seeded-rng-only) -- fixture\nuse std::collections::{HashMap, hash_map::RandomState};\n",
        );
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.suppressed.len(), 2);
    }

    #[test]
    fn block_comment_pragma_parses() {
        let p = parse_pragma("/* spotweb-lint: allow(no-unwrap-in-lib) -- safe here */");
        assert_eq!(
            p,
            Some(Ok(Pragma {
                rules: vec!["no-unwrap-in-lib".to_string()],
                reason: Some("safe here".to_string())
            }))
        );
    }

    #[test]
    fn report_counts_files() {
        let a = SourceFile::from_source("crates/app/src/a.rs", "fn a() {}\n".to_string());
        let b = SourceFile::from_source("crates/app/src/b.rs", "fn b() {}\n".to_string());
        let r = lint_files(&cfg(), &[a, b]);
        assert_eq!(r.files_scanned, 2);
        assert!(r.is_clean());
    }

    #[test]
    fn golden_path_literal_flagged_outside_registered_writers() {
        let dir = manifest::GOLDEN_DIR;
        let src = format!(
            "pub fn dump(b: &[u8]) {{ save(\"{dir}/x.json\", b); }}\n\
             #[cfg(test)]\nmod t {{ const P: &str = \"{dir}/y.json\"; }}\n"
        );
        let r = lint_one("crates/app/src/export.rs", &src);
        assert_eq!(rules_of(&r), ["golden-write-outside-bless"]);
        assert_eq!(r.findings[0].line, 1);
        assert!(r.findings[0].message.contains("x.json"));

        // A registered bless module, and integration tests, may name
        // the directory.
        let r = lint_one("crates/app/src/blessed.rs", &src);
        assert!(r.is_clean(), "{:?}", r.findings);
        let r = lint_one("crates/app/tests/golden.rs", &src);
        assert!(r.is_clean(), "{:?}", r.findings);
    }

    #[test]
    fn manifest_input_threads_through_the_driver() {
        let input = ManifestInput {
            manifest_text: None,
            files: vec![("a.json".to_string(), b"x".to_vec())],
        };
        let f = SourceFile::from_source("crates/app/src/lib.rs", "fn f() {}\n".to_string());
        let r = lint_files_with_manifest(&cfg(), &[f], Some(&input));
        assert_eq!(rules_of(&r), ["manifest-consistency"]);
    }
}
