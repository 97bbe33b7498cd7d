//! The documents against the code they describe: every `figures`
//! invocation in README.md, EXPERIMENTS.md, DESIGN.md and the verify
//! skill parses; EXPERIMENTS.md embeds the scorecard golden verbatim;
//! DESIGN.md's keep-list names real `pub` items, among them every one
//! no library code reaches and every config field only one value
//! reaches; and every cited section exists.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use spotweb_bench::cli::parse_args;

const DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
];

const SCORECARD: [&str; 2] = ["<!-- scorecard:begin -->\n", "<!-- scorecard:end -->"];
const KEEP_LIST: [&str; 2] = ["<!-- keep-list:begin -->\n", "<!-- keep-list:end -->"];
/// Where, besides [`DOCS`], a DESIGN.md or EXPERIMENTS.md section may be cited.
const CITING: &str = "clippy.toml .github crates src tests examples vendor benchmark";

fn read(doc: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(doc))
        .unwrap_or_else(|e| panic!("read {doc}: {e}"))
}

/// The text of `doc` between its `[begin, end]` markers.
fn between(doc: &str, [begin, end]: [&str; 2]) -> String {
    let text = read(doc);
    let (_, after) = text
        .split_once(begin)
        .unwrap_or_else(|| panic!("{doc}: no {begin}"));
    let (inside, _) = after
        .split_once(end)
        .unwrap_or_else(|| panic!("{doc}: no {end}"));
    inside.to_string()
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
    assert!(
        between("EXPERIMENTS.md", SCORECARD) == read("tests/golden/scorecard.md"),
        "EXPERIMENTS.md's scorecard differs from tests/golden/scorecard.md; paste the golden in"
    );
}

/// `path` if its name ends in one of `exts`, or each such file under it.
fn files(path: &Path, exts: &[&str]) -> Vec<PathBuf> {
    let wanted = exts.iter().any(|e| path.to_string_lossy().ends_with(e));
    match std::fs::read_dir(path) {
        _ if path.ends_with("target") => Vec::new(),
        Ok(dir) => dir.flat_map(|e| files(&e.unwrap().path(), exts)).collect(),
        Err(_) => wanted.then(|| path.to_path_buf()).into_iter().collect(),
    }
}

/// The code of `crates/*/src`, `src/` and `vendor/*/src`, file by file:
/// comments, `pub use` lines and `#[cfg(test)]` items dropped.
fn library_code() -> Vec<(PathBuf, String)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let sources = ["src", "crates", "vendor"].map(|d| files(&Path::new(root).join(d), &[".rs"]));
    let mut code = Vec::new();
    for file in sources.into_iter().flatten() {
        if !file.to_string_lossy()[root.len()..].contains("/src/") {
            continue;
        }
        let (mut kept, mut skip) = (String::new(), None);
        for line in read(&file.to_string_lossy()).lines() {
            let t = line.split("//").next().unwrap_or_default().trim();
            if let Some(depth) = &mut skip {
                *depth += t.matches('{').count() as i64 - t.matches('}').count() as i64;
                if *depth <= 0 && (t.contains('}') || t.ends_with(';')) {
                    skip = None;
                }
            } else if t.starts_with("#[cfg(test)]") {
                skip = Some(0);
            } else if !t.starts_with("pub use ") {
                kept.extend([t, "\n"]);
            }
        }
        code.push((file, kept));
    }
    code
}

/// The `pub` items and fields `code` declares, as `(kind, name)`.
fn pub_items(code: &str) -> Vec<(&str, &str)> {
    let mut items = Vec::new();
    for rest in code.lines().filter_map(|l| l.trim().strip_prefix("pub ")) {
        let mut words = rest.split(|c: char| !c.is_alphanumeric() && !"_:".contains(c));
        let first = words.next().unwrap_or_default();
        if let Some(field) = first.strip_suffix(':').filter(|f| !f.contains(':')) {
            items.push(("field", field));
        } else if ["fn", "struct", "enum", "trait", "type", "const", "mod"].contains(&first) {
            let name = words.next().unwrap_or_default().trim_end_matches(':');
            items.extend((!name.is_empty()).then_some((first, name)));
        }
    }
    items
}

/// The last `::` segment of every backticked path in DESIGN.md's
/// keep-list, `a::{b, c}` expanded to `b` and `c`: an item name or a
/// `Type.field`.
fn keep_list() -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for path in code_snippets(&between("DESIGN.md", KEEP_LIST)) {
        let tail = path.rsplit_once("::{").map_or(path.as_str(), |(_, t)| t);
        for name in tail.trim_end_matches('}').split(", ") {
            names.insert(name.rsplit("::").next().unwrap_or(name).to_string());
        }
    }
    names
}

#[test]
fn the_keep_list_names_pub_items_and_every_one_no_library_code_names() {
    let code = library_code();
    let defined: BTreeSet<_> = code.iter().flat_map(|(_, c)| pub_items(c)).collect();
    let fields: BTreeSet<_> = code.iter().flat_map(|(_, c)| pub_fields(c)).collect();
    let mut kept = BTreeSet::new();
    for entry in keep_list() {
        let exists = match entry.split_once('.') {
            Some((ty, field)) => fields.contains(&(ty, field)),
            None => defined.iter().any(|(_, d)| *d == entry),
        };
        assert!(
            exists,
            "DESIGN.md's keep-list names `{entry}`, no pub item or field of that type"
        );
        kept.insert(entry.rsplit('.').next().unwrap_or_default().to_string());
    }
    assert!(kept.len() >= 20, "only {} keep-list names", kept.len());
    // Word counts over the library, less one per `pub` definition.
    let mut mentions = BTreeMap::<&str, i64>::new();
    for (_, c) in &code {
        for word in c.split(|ch: char| !ch.is_alphanumeric() && ch != '_') {
            *mentions.entry(word).or_default() += 1;
        }
        for (kind, name) in pub_items(c) {
            *mentions.entry(name).or_default() -= i64::from(kind != "field" && kind != "mod");
        }
    }
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench");
    let mut unreached = Vec::new();
    for (file, c) in code.iter().filter(|(f, _)| !f.starts_with(&bench)) {
        for (kind, name) in pub_items(c) {
            if kind != "field" && kind != "mod" && mentions[name] <= 0 && !kept.contains(name) {
                unreached.push(format!("{}: pub {kind} {name}", file.display()));
            }
        }
    }
    let advice = "no library code names these: delete each, or add it to DESIGN.md's keep-list";
    assert_eq!(unreached, [""; 0], "{advice}");
}

/// The trees whose values count for the option rule: the bench
/// harness, the benchmark fixtures, the examples and the integration
/// tests (`tests/`, `crates/*/tests/`), comments dropped.
fn caller_code() -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let trees = ["crates", "benchmark/fixtures", "examples", "tests"];
    let mut code = Vec::new();
    for file in trees.iter().flat_map(|t| files(&root.join(t), &[".rs"])) {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        if rel.starts_with("crates/")
            && !rel.starts_with("crates/bench/")
            && !rel.contains("/tests/")
        {
            continue;
        }
        let text = read(&rel);
        let lines = text.lines().map(|l| l.split(" //").next().unwrap_or(l));
        code.push(
            lines
                .filter(|l| !l.trim_start().starts_with("//"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
    code
}

/// `(struct, field)` for every `pub` field of a `pub struct { … }` in `code`.
fn pub_fields(code: &str) -> Vec<(&str, &str)> {
    let (mut fields, mut owner) = (Vec::new(), None);
    for line in code.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("pub struct ") {
            let name = rest
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next();
            owner = name.filter(|_| rest.ends_with('{'));
        } else if line.starts_with('}') {
            owner = None;
        } else if let (Some(ty), Some(rest)) = (owner, line.strip_prefix("pub ")) {
            fields.extend(rest.split_once(':').map(|(field, _)| (ty, field)));
        }
    }
    fields
}

/// The `field: value` entries of every `ty { … }` literal in `code`; a
/// shorthand `field` is its own (non-literal) value.
fn literals<'a>(code: &'a str, ty: &str) -> Vec<(&'a str, &'a str)> {
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_alphanumeric() || c == '_');
    let mut entries = Vec::new();
    for (at, _) in code.match_indices(&format!("{ty} {{")) {
        let before = code[..at].trim_end();
        let word = before
            .rsplit(|c: char| !c.is_alphanumeric() && c != '_')
            .next();
        if !code[..at].ends_with(|c: char| !c.is_alphanumeric() && c != '_')
            || before.ends_with("->")
            || word.is_some_and(|w| ["struct", "impl", "for"].contains(&w))
        {
            continue;
        }
        let body = &code[at + ty.len() + 2..];
        let (mut depth, mut start) = (0, 0);
        let (mut quoted, mut escaped) = (false, false);
        for (i, c) in body.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if quoted => escaped = true,
                '"' => quoted = !quoted,
                _ if quoted => {}
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' if depth > 0 => depth -= 1,
                ',' | '}' => {
                    let entry = body[start..i].trim();
                    let (field, value) = entry.split_once(':').unwrap_or((entry, entry));
                    if ident(field.trim()) && !value.starts_with(':') {
                        entries.push((field.trim(), value.trim()));
                    }
                    start = i + 1;
                    if c == '}' {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    entries
}

/// `value` normalized if it is a literal: a number (sign, `_` and type
/// suffix ignored), `true`, `false`, `None` or a string.
fn literal(value: &str) -> Option<String> {
    let number = value.replace('_', "");
    let suffix = ["f64", "f32", "usize", "u64", "u32", "u8", "i64", "i32"];
    let number = suffix
        .iter()
        .fold(number.as_str(), |n, s| n.strip_suffix(s).unwrap_or(n));
    match number.parse::<f64>() {
        Ok(x) => Some(x.to_string()),
        _ if ["true", "false", "None"].contains(&value) => Some(value.to_string()),
        _ if value.starts_with('"') && value.ends_with('"') => Some(value.to_string()),
        _ => None,
    }
}

/// `Type.field` for every `pub` field of a `pub struct` with a
/// hand-written `impl Default` in `library` that fewer than two values
/// reach, counting the `Default`, every literal of the type in
/// `library` and in `callers`; a non-literal value counts as varied,
/// except where library code forwards a same-named field (`x.field`).
fn one_valued_fields(library: &[String], callers: &[String]) -> Vec<String> {
    let mut found = Vec::new();
    for code in library {
        for rest in code.split("impl Default for ").skip(1) {
            let ty = rest
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or_default();
            let mut values = BTreeMap::<&str, BTreeSet<Option<String>>>::new();
            for (from_library, text) in library
                .iter()
                .map(|c| (true, c))
                .chain(callers.iter().map(|c| (false, c)))
            {
                for (field, value) in literals(text, ty) {
                    let forwarded = value.strip_suffix(field).is_some_and(|path| {
                        path.ends_with('.')
                            && path
                                .chars()
                                .all(|c| c.is_alphanumeric() || "_.".contains(c))
                    });
                    if !(from_library && forwarded) {
                        values.entry(field).or_default().insert(literal(value));
                    }
                }
            }
            for (_, field) in pub_fields(code)
                .into_iter()
                .filter(|(owner, _)| *owner == ty)
            {
                if values
                    .get(field)
                    .is_none_or(|v| v.len() < 2 && !v.contains(&None))
                {
                    found.push(format!("{ty}.{field}"));
                }
            }
        }
    }
    found
}

#[test]
fn every_config_field_takes_two_values_or_is_kept() {
    let vendor = Path::new(env!("CARGO_MANIFEST_DIR")).join("vendor");
    let library: Vec<_> = library_code()
        .into_iter()
        .filter(|(file, _)| !file.starts_with(&vendor))
        .map(|(_, code)| code)
        .collect();
    let kept = keep_list();
    let mut one_valued = one_valued_fields(&library, &caller_code());
    one_valued.retain(|field| !kept.contains(field));
    let advice = "every caller passes one value: make each a private const beside its reader, \
                  or add it to DESIGN.md's keep-list";
    assert_eq!(one_valued, [""; 0], "{advice}");
}

#[test]
fn the_field_scanner_reports_one_valued_fields_only() {
    let library = "pub struct Knob {\npub fixed: f64,\npub varied: f64,\npub computed: u64,\n\
                   pub forwarded: f64,\npub(crate) hidden: f64,\n}\nimpl Default for Knob {\n\
                   fn default() -> Self {\nKnob { fixed: 1.0, varied: 2.0, computed: 3, \
                   forwarded: 4.0, hidden: 5.0 }\n}\n}\nfn copy(o: &Dial) -> Knob {\n\
                   Knob { forwarded: o.forwarded, ..Default::default() }\n}\n";
    let callers = [
        "let a = Knob { varied: 2_f64, fixed: 1.0, ..Default::default() };",
        "fn knob() -> Knob {\nKnob { varied: 5.0, computed: seed(), ..Default::default() }\n}",
    ];
    let found = one_valued_fields(&[library.to_string()], &callers.map(str::to_string));
    assert_eq!(found, ["Knob.fixed", "Knob.forwarded"]);
}

#[test]
fn every_cited_section_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let exts = [".rs", ".md", ".yml", ".toml"];
    let citing = DOCS.into_iter().chain(CITING.split(' '));
    let citing: Vec<_> = citing.flat_map(|p| files(&root.join(p), &exts)).collect();
    let (mut checked, mut broken) = (0, Vec::new());
    for doc in ["DESIGN.md", "EXPERIMENTS.md"] {
        // `"title`: a heading, whole or cut at " — " or " (", or an A/B
        // ledger row's title; `#anchor`: a heading's GitHub anchor.
        let mut known = BTreeSet::new();
        for line in read(doc).lines() {
            let h = line.trim_start_matches('#').trim();
            if line.starts_with('#') {
                let anchor = h.to_lowercase().replace(' ', "-");
                let anchor =
                    anchor.replace(|c: char| !c.is_alphanumeric() && !"_-".contains(c), "");
                let cut = |sep| format!("\"{}", h.split(sep).next().unwrap_or(h));
                known.extend([format!("#{anchor}"), cut("\n"), cut(" — "), cut(" (")]);
            } else if let Some((row, _)) = line.split_once(" — A/B") {
                known.insert(format!("\"{}", row.trim_start_matches("| ")));
            }
        }
        for file in &citing {
            // Comment markers dropped and lines joined: a quote may wrap.
            let mut text = String::new();
            for line in read(&file.to_string_lossy()).lines() {
                text.extend([line.trim_start_matches([' ', '/', '!', '#']), " "]);
            }
            for (form, end, sigil) in [("#", ')', '#'), (" \"", '"', '"'), ("'s \"", '"', '"')] {
                for cited in text.split(&format!("{doc}{form}")).skip(1) {
                    let key = format!("{sigil}{}", cited.split(end).next().unwrap_or_default());
                    checked += 1;
                    if !known.contains(&key) {
                        broken.push(format!("{}: {doc} {key}", file.display()));
                    }
                }
            }
        }
    }
    assert_eq!(broken, [""; 0], "cited sections that do not exist");
    assert!(checked >= 20, "only {checked} citations found");
}
