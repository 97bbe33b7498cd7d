//! The documents against the code they describe: every `figures`
//! invocation written in README.md, EXPERIMENTS.md, DESIGN.md and the
//! verify skill must parse, and EXPERIMENTS.md's scorecard must be the
//! committed `figures scorecard` output byte for byte.

use std::path::Path;

use spotweb_bench::cli::parse_args;

const DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
];

const SCORECARD_BEGIN: &str = "<!-- scorecard:begin -->\n";
const SCORECARD_END: &str = "<!-- scorecard:end -->";

fn read(doc: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc))
        .unwrap_or_else(|e| panic!("read {doc}: {e}"))
}

/// The code in `text`: every line of a fenced block (a trailing `\`
/// joins the next line) and every inline code span elsewhere.
fn code_snippets(text: &str) -> Vec<String> {
    let mut snippets = Vec::new();
    let mut fenced = false;
    let mut pending = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            pending.push_str(line.trim_end_matches('\\'));
            pending.push(' ');
            if !line.ends_with('\\') {
                snippets.push(std::mem::take(&mut pending));
            }
        } else {
            snippets.extend(line.split('`').skip(1).step_by(2).map(str::to_string));
        }
    }
    snippets
}

/// The argument lists after each `figures` (or `figures --`) in
/// `snippet`, placeholders made concrete: `[…]` optional groups are
/// unwrapped, `a|b` alternatives take `a`, a `<cmd>` command becomes
/// `fig3`, and an upper-case or `$`-variable value becomes `1`.
fn invocations(snippet: &str) -> Vec<Vec<String>> {
    let words: Vec<&str> = snippet.split_whitespace().collect();
    let mut found = Vec::new();
    for (i, word) in words.iter().enumerate() {
        if *word != "figures" && !word.ends_with("/figures") {
            continue;
        }
        let mut args = Vec::new();
        for raw in words[i + 1..].iter().skip_while(|w| **w == "--") {
            let command_placeholder = args.is_empty() && raw.starts_with('<') && raw.ends_with('>');
            if !command_placeholder
                && (raw.starts_with(['|', '>', '<', ';', '&', '#', ')']) || raw.starts_with("2>"))
            {
                break;
            }
            let w = raw.trim_matches(['[', ']', ';']);
            let w = w.split('|').next().unwrap_or(w);
            let value_placeholder =
                w.starts_with('$') || (!w.is_empty() && w.chars().all(|c| c.is_ascii_uppercase()));
            args.push(match w {
                _ if command_placeholder => "fig3".to_string(),
                _ if value_placeholder => "1".to_string(),
                _ => w.to_string(),
            });
            if raw.ends_with(';') {
                break;
            }
        }
        if !args.is_empty() {
            found.push(args);
        }
    }
    found
}

#[test]
fn every_figures_invocation_in_the_docs_parses() {
    let mut checked = 0;
    let mut failures = Vec::new();
    for doc in DOCS {
        for snippet in code_snippets(&read(doc)) {
            for args in invocations(&snippet) {
                checked += 1;
                if let Err(e) = parse_args(args.clone()) {
                    failures.push(format!("{doc}: `figures {}`: {e}", args.join(" ")));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(checked >= 20, "only {checked} invocations found");
}

#[test]
fn the_invocation_scanner_rejects_retired_commands_and_flags() {
    let doc = "Run `figures all` or\n```sh\nfigures fig4a --summary  # headline\n```\n";
    let parsed: Vec<_> = code_snippets(doc)
        .iter()
        .flat_map(|s| invocations(s))
        .map(parse_args)
        .collect();
    assert_eq!(parsed.len(), 2);
    assert!(parsed.iter().all(Result::is_err));
    let ok = "`cargo run --release --bin figures -- soak [--hours N] > out` and `figures <fig> --jobs J`";
    for args in code_snippets(ok).iter().flat_map(|s| invocations(s)) {
        parse_args(args.clone()).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    }
}

#[test]
fn zero_intervals_is_a_parse_error_like_zero_hours_and_jobs() {
    for line in [
        "fig5 --intervals 0",
        "fig7a --intervals 0",
        "soak --hours 0",
        "sweep --jobs 0",
    ] {
        let err = parse_args(line.split(' ').map(str::to_string)).expect_err(line);
        assert!(err.contains("at least 1"), "{line}: {err}");
    }
    let one = parse_args(["fig5", "--intervals", "1"].map(str::to_string));
    assert_eq!(one.expect("one interval").intervals, 1);
}

#[test]
fn experiments_embeds_the_scorecard_golden_verbatim() {
    let experiments = read("EXPERIMENTS.md");
    let golden = read("tests/golden/scorecard.md");
    let begin = experiments
        .find(SCORECARD_BEGIN)
        .expect("EXPERIMENTS.md has a scorecard block")
        + SCORECARD_BEGIN.len();
    let end = begin
        + experiments[begin..]
            .find(SCORECARD_END)
            .expect("the scorecard block ends");
    assert!(
        experiments[begin..end] == golden,
        "EXPERIMENTS.md's scorecard differs from tests/golden/scorecard.md; paste the golden in"
    );
}
