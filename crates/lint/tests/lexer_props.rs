//! Lexer span soundness, property-tested.
//!
//! Everything downstream — pragma matching and every rule — indexes
//! the source through token spans, so the spans must tile the file:
//! strictly increasing, non-overlapping, on char
//! boundaries, with nothing between tokens but whitespace or the
//! stripped `r#` raw-identifier prefix. Re-emitting the spans plus
//! their gaps must reproduce the source byte-for-byte.
//!
//! The property runs over (a) sources assembled from a fragment table
//! that leans into the lexer's hard cases (raw strings with hashes,
//! nested block comments, byte strings, lifetimes, exponent literals)
//! and (b) every real source file in this crate. Deterministic
//! regression cases pin the raw-string and nested-comment handling the
//! rules depend on: code after a raw string is still scanned, code
//! inside a nested comment is not.

use proptest::prelude::*;
use spotweb_lint::files::SourceFile;
use spotweb_lint::lexer::{lex, Token};
use spotweb_lint::rules::lint_files;
use spotweb_lint::LintConfig;

/// Check every span invariant and return the re-emitted source.
fn reemit(src: &str, tokens: &[Token]) -> Result<String, String> {
    let mut out = String::new();
    let mut prev_end = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        if t.start < prev_end {
            return Err(format!("token {i} overlaps its predecessor"));
        }
        if t.end < t.start || t.end > src.len() {
            return Err(format!("token {i} span out of bounds"));
        }
        if !src.is_char_boundary(t.start) || !src.is_char_boundary(t.end) {
            return Err(format!("token {i} span not on char boundaries"));
        }
        let gap = &src[prev_end..t.start];
        if !gap
            .chars()
            .all(|c| c.is_whitespace() || c == 'r' || c == '#')
        {
            return Err(format!("non-whitespace gap {gap:?} before token {i}"));
        }
        let expected_line = 1 + src[..t.start].bytes().filter(|&b| b == b'\n').count() as u32;
        if t.line != expected_line {
            return Err(format!(
                "token {i} line {} but span starts on line {expected_line}",
                t.line
            ));
        }
        out.push_str(gap);
        out.push_str(&src[t.start..t.end]);
        prev_end = t.end;
    }
    let tail = &src[prev_end..];
    if !tail.chars().all(char::is_whitespace) {
        return Err(format!("non-whitespace tail {tail:?}"));
    }
    out.push_str(tail);
    Ok(out)
}

fn assert_round_trips(src: &str) {
    let tokens = lex(src);
    match reemit(src, &tokens) {
        Ok(re) => assert_eq!(re, src, "re-emitted spans diverge for {src:?}"),
        Err(e) => panic!("{e} in {src:?}"),
    }
}

/// Fragment table: concatenations of these exercise every token kind
/// and the boundary cases between them.
const FRAGMENTS: &[&str] = &[
    "fn f() { g(); }\n",
    "let x = 0x_ff + 1e-3 - 2E+5f64;\n",
    "let s = \"line one\\n\\\"quoted\\\"\";\n",
    "let r = r\"no escapes \\ here\";\n",
    "let rh = r##\"nested \"# quote\"##;\n",
    "let b = b\"bytes\\x00\";\n",
    "let br = br#\"raw bytes\"#;\n",
    "let c = 'x'; let nl = '\\n';\n",
    "let lt: &'static str = \"s\";\n",
    "// line comment with \"quote\" and /* opener\n",
    "/* block /* nested */ still comment */\n",
    "/** doc /* nested */ comment */\n",
    "let r#fn = 1; let r#type = r#fn;\n",
    "for i in 0..n { total += v[i].max(1.0); }\n",
    "mod m { pub fn inner() {} }\n",
    "#[cfg(test)]\nmod tests { use super::*; }\n",
    "λ_unicode_ident! (\"≤ fmt {x:.3}\");\n",
    "let unterminated = \"eof",
    "/* unterminated comment",
    "r#\"unterminated raw",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_fragment_sources_round_trip(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..24)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let tokens = lex(&src);
        let re = reemit(&src, &tokens).map_err(|e| {
            proptest::TestCaseError::Fail(format!("{e} in {src:?}"))
        })?;
        prop_assert_eq!(re, src);
    }
}

#[test]
fn every_workspace_source_round_trips() {
    // The real tree is the richest corpus there is; the linter lexes
    // it on every run, so its spans must tile every file exactly.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let files = spotweb_lint::files::scan_workspace(&root).expect("scan");
    assert!(files.len() > 100, "expected the full workspace corpus");
    for f in &files {
        let re = reemit(&f.src, &f.tokens).unwrap_or_else(|e| panic!("{}: {e}", f.path));
        assert_eq!(re, f.src, "{}: re-emitted spans diverge", f.path);
    }
}

/// Lines of the `wall-clock-quarantine` findings in `src`, linted as an
/// unquarantined library file.
fn wall_clock_lines(src: &str) -> Vec<u32> {
    let file = SourceFile::from_source("crates/core/src/lib.rs", src.to_string());
    lint_files(&LintConfig::spotweb(), &[file])
        .findings
        .iter()
        .filter(|f| f.rule == "wall-clock-quarantine")
        .map(|f| f.line)
        .collect()
}

#[test]
fn raw_strings_with_hashes_do_not_swallow_code() {
    // Regression: a raw string containing `"#` must end at the right
    // delimiter, or everything after it would lex as string content
    // and vanish from every rule's view.
    let src = "fn a() { b(r##\"x \"# y\"##); }\nfn b(s: &str) { Instant::now(); }\n";
    assert_round_trips(src);
    assert_eq!(wall_clock_lines(src), [2], "code after the raw string");
}

#[test]
fn nested_block_comments_do_not_hide_or_invent_code() {
    // Regression: `/* outer /* inner */ still comment */` — a naive
    // lexer ends the comment at the first `*/` and then "sees" code
    // that is actually commented out.
    let src = "fn live() { /* Instant::now(); /* nested */ SystemTime::now(); */ }\n\
               fn real() { Instant::now(); }\n";
    assert_round_trips(src);
    assert_eq!(wall_clock_lines(src), [2], "only the live token fires");
}
