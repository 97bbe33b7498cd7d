//! The golden fixture manifest: `tests/golden/MANIFEST.json`.
//!
//! Every byte-stable golden fixture is tracked by a manifest entry
//! carrying its **epoch** (bumped on every deliberate regeneration),
//! the FNV-1a 64 digest of its current bytes, the command that
//! produces it, and the full old→new digest history. Regeneration is
//! an audited event: `figures bless <fixture…>` (see [`crate::bless`])
//! rewrites the fixture, bumps the epoch, and appends to the history;
//! a golden whose on-disk digest disagrees with its manifest entry
//! fails [`check_input`] — `figures bless --check`, and in-process
//! `tests/bless.rs`. A finding is one line of text that starts with
//! the path it is about.
//!
//! The writer is hand-laid-out so the document is byte-stable
//! (`parse` ∘ `render` is the identity on rendered manifests); the
//! reader is the workspace's `serde_json` shim.

use std::io;
use std::path::Path;

use serde_json::Value;
use spotweb_telemetry::json::{fnv1a64_hex, json_string};

/// Manifest schema identifier (first line of the document).
pub const SCHEMA: &str = "spotweb-golden-manifest/1";

/// Golden directory, relative to the workspace root.
pub const GOLDEN_DIR: &str = "tests/golden";

/// Manifest file name inside [`GOLDEN_DIR`].
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// The command that records a deliberate golden change.
pub const BLESS_CMD: &str = "cargo run --release -p spotweb-bench --bin figures -- bless";

/// One recorded regeneration of a fixture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Epoch this regeneration established.
    pub epoch: u64,
    /// Digest before the regeneration (`-` for the initial import).
    pub old: String,
    /// Digest after the regeneration.
    pub new: String,
    /// Why the fixture changed.
    pub note: String,
}

/// One tracked golden fixture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixtureEntry {
    /// File name inside `tests/golden/`.
    pub name: String,
    /// Current epoch (1 = initial import).
    pub epoch: u64,
    /// FNV-1a 64 digest of the fixture's current bytes.
    pub digest: String,
    /// Command that regenerates the fixture.
    pub command: String,
    /// Every recorded old→new transition, oldest first.
    pub history: Vec<HistoryEntry>,
}

/// The parsed manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Tracked fixtures, sorted by name.
    pub fixtures: Vec<FixtureEntry>,
}

impl Manifest {
    /// Entry for `name`, if tracked.
    pub fn entry(&self, name: &str) -> Option<&FixtureEntry> {
        self.fixtures.iter().find(|f| f.name == name)
    }

    /// Insert or replace an entry, keeping the list sorted by name.
    pub fn upsert(&mut self, entry: FixtureEntry) {
        match self.fixtures.iter_mut().find(|f| f.name == entry.name) {
            Some(slot) => *slot = entry,
            None => self.fixtures.push(entry),
        }
        self.fixtures.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Render the byte-stable manifest document.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "  \"schema\": {},", json_string(SCHEMA));
        o.push_str("  \"fixtures\": [");
        for (k, f) in self.fixtures.iter().enumerate() {
            o.push_str(if k == 0 { "\n" } else { ",\n" });
            o.push_str("    {\n");
            let _ = writeln!(o, "      \"name\": {},", json_string(&f.name));
            let _ = writeln!(o, "      \"epoch\": {},", f.epoch);
            let _ = writeln!(o, "      \"digest\": {},", json_string(&f.digest));
            let _ = writeln!(o, "      \"command\": {},", json_string(&f.command));
            o.push_str("      \"history\": [");
            for (h, e) in f.history.iter().enumerate() {
                o.push_str(if h == 0 { "\n" } else { ",\n" });
                let _ = write!(
                    o,
                    "        {{\"epoch\": {}, \"old\": {}, \"new\": {}, \"note\": {}}}",
                    e.epoch,
                    json_string(&e.old),
                    json_string(&e.new),
                    json_string(&e.note)
                );
            }
            o.push_str(if f.history.is_empty() {
                "]\n"
            } else {
                "\n      ]\n"
            });
            o.push_str("    }");
        }
        o.push_str(if self.fixtures.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        o.push_str("}\n");
        o
    }

    /// Parse a manifest document, validating schema and shape.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let root = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let schema = root["schema"]
            .as_str()
            .ok_or("manifest is missing the \"schema\" string")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported manifest schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let fixtures = root["fixtures"]
            .as_array()
            .ok_or("manifest is missing the \"fixtures\" array")?;
        let mut out = Manifest::default();
        for (k, f) in fixtures.iter().enumerate() {
            let at = format!("fixtures[{k}]");
            let hist = f["history"]
                .as_array()
                .ok_or_else(|| format!("{at} is missing the \"history\" array"))?;
            let mut history = Vec::new();
            for (h, e) in hist.iter().enumerate() {
                let at = format!("{at}.history[{h}]");
                history.push(HistoryEntry {
                    epoch: u64_field(e, "epoch", &at)?,
                    old: str_field(e, "old", &at)?,
                    new: str_field(e, "new", &at)?,
                    note: str_field(e, "note", &at)?,
                });
            }
            out.fixtures.push(FixtureEntry {
                name: str_field(f, "name", &at)?,
                epoch: u64_field(f, "epoch", &at)?,
                digest: str_field(f, "digest", &at)?,
                command: str_field(f, "command", &at)?,
                history,
            });
        }
        out.fixtures.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }
}

fn str_field(obj: &Value, key: &str, at: &str) -> Result<String, String> {
    obj[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{at} is missing the {key:?} string"))
}

fn u64_field(obj: &Value, key: &str, at: &str) -> Result<u64, String> {
    obj[key]
        .as_u64()
        .ok_or_else(|| format!("{at} is missing the {key:?} integer"))
}

/// Everything [`check_input`] needs, detached from the filesystem so
/// the checks are unit-testable: the manifest text (or
/// `None` when fixtures exist but no manifest does) and the on-disk
/// fixture bytes, sorted by name.
#[derive(Debug, Clone)]
pub struct ManifestInput {
    /// Contents of `MANIFEST.json`, if present.
    pub manifest_text: Option<String>,
    /// `(file name, bytes)` for every file in the golden directory
    /// except the manifest itself, sorted by name.
    pub files: Vec<(String, Vec<u8>)>,
}

/// Load the [`ManifestInput`] for a workspace root, or `None` when the
/// root has no `tests/golden/` directory at all.
pub fn load_input(root: &Path) -> io::Result<Option<ManifestInput>> {
    let dir = root.join(GOLDEN_DIR);
    if !dir.is_dir() {
        return Ok(None);
    }
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        if !entry.path().is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == MANIFEST_NAME {
            continue;
        }
        files.push((name, std::fs::read(entry.path())?));
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    let manifest_text = match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
        Ok(text) => Some(text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    Ok(Some(ManifestInput {
        manifest_text,
        files,
    }))
}

/// Check an input for consistency: mismatched digests, files missing
/// on either side, a missing or malformed manifest, and internally
/// inconsistent histories are one finding each.
pub fn check_input(input: &ManifestInput) -> Vec<String> {
    let manifest_path = format!("{GOLDEN_DIR}/{MANIFEST_NAME}");
    let Some(text) = &input.manifest_text else {
        return vec![format!(
            "{manifest_path}: {} golden fixture(s) present but no manifest; bootstrap it with \
             `{BLESS_CMD} --init` so every future regeneration is an audited epoch bump",
            input.files.len()
        )];
    };
    let manifest = match Manifest::parse(text) {
        Ok(m) => m,
        Err(e) => return vec![format!("{manifest_path}: manifest does not parse: {e}")],
    };
    let mut out = Vec::new();
    for pair in manifest.fixtures.windows(2) {
        if pair[0].name == pair[1].name {
            out.push(format!(
                "{manifest_path}: duplicate manifest entry for {:?}",
                pair[0].name
            ));
        }
    }
    for entry in &manifest.fixtures {
        let file_path = format!("{GOLDEN_DIR}/{}", entry.name);
        let on_disk = input.files.iter().find(|(n, _)| *n == entry.name);
        match on_disk {
            None => out.push(format!(
                "{file_path}: manifest lists {} at epoch {} but the fixture is missing on \
                 disk; restore it, or retire it by deleting its {MANIFEST_NAME} entry in the \
                 same diff",
                entry.name, entry.epoch
            )),
            Some((_, bytes)) => {
                let disk = fnv1a64_hex(bytes);
                if disk != entry.digest {
                    out.push(format!(
                        "{file_path}: on-disk digest {disk} does not match manifest digest {} \
                         (epoch {}); the golden changed without a bless — run `{BLESS_CMD} {}` \
                         to regenerate it, bump the epoch, and record the old→new digest pair",
                        entry.digest, entry.epoch, entry.name
                    ));
                }
            }
        }
        // History must be present, strictly increasing, and end at the
        // entry's current state.
        let consistent = match entry.history.last() {
            None => false,
            Some(last) => {
                last.epoch == entry.epoch
                    && last.new == entry.digest
                    && entry
                        .history
                        .windows(2)
                        .all(|w| w[0].epoch < w[1].epoch && w[0].new == w[1].old)
            }
        };
        if !consistent {
            out.push(format!(
                "{file_path}: manifest history for {} is inconsistent: it must be a strictly \
                 increasing epoch chain whose digests link old→new and end at epoch {} / \
                 digest {}",
                entry.name, entry.epoch, entry.digest
            ));
        }
    }
    for (name, _) in &input.files {
        if manifest.entry(name).is_none() {
            out.push(format!(
                "{GOLDEN_DIR}/{name}: fixture {name} is on disk but not in the manifest; import \
                 it with `{BLESS_CMD} --init` (records the current bytes as epoch 1)"
            ));
        }
    }
    out
}

/// The CI diff check (`figures bless --check --base-manifest F`): every
/// fixture named in `changed` (golden files touched by a PR, manifest
/// excluded) that the manifest tracks must have an epoch strictly
/// greater than the merge base's — i.e. the change went through
/// `figures bless`. Fixtures absent from the base manifest are new
/// imports and pass. A changed fixture the manifest no longer tracks
/// is not this check's business: gone from disk too it is a
/// retirement, still on disk it is already a [`check_input`] finding.
pub fn check_epoch_bumps(current: &Manifest, base: &Manifest, changed: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for name in changed {
        let (Some(cur), Some(old)) = (current.entry(name), base.entry(name)) else {
            continue;
        };
        if cur.epoch <= old.epoch {
            out.push(format!(
                "{GOLDEN_DIR}/{name}: {name} changed in this diff but its manifest epoch did \
                 not bump (still {}, base had {}); regenerate through `{BLESS_CMD} {name}` so \
                 the old→new digest pair is recorded",
                cur.epoch, old.epoch
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            fixtures: vec![
                FixtureEntry {
                    name: "a.json".to_string(),
                    epoch: 2,
                    digest: fnv1a64_hex(b"v2\n"),
                    command: "figures a > tests/golden/a.json".to_string(),
                    history: vec![
                        HistoryEntry {
                            epoch: 1,
                            old: "-".to_string(),
                            new: fnv1a64_hex(b"v1\n"),
                            note: "initial import".to_string(),
                        },
                        HistoryEntry {
                            epoch: 2,
                            old: fnv1a64_hex(b"v1\n"),
                            new: fnv1a64_hex(b"v2\n"),
                            note: "deliberate change".to_string(),
                        },
                    ],
                },
                FixtureEntry {
                    name: "b.jsonl".to_string(),
                    epoch: 1,
                    digest: fnv1a64_hex(b"lines\n"),
                    command: "figures b > tests/golden/b.jsonl".to_string(),
                    history: vec![HistoryEntry {
                        epoch: 1,
                        old: "-".to_string(),
                        new: fnv1a64_hex(b"lines\n"),
                        note: "initial import".to_string(),
                    }],
                },
            ],
        }
    }

    fn input(m: &Manifest, files: &[(&str, &[u8])]) -> ManifestInput {
        ManifestInput {
            manifest_text: Some(m.render()),
            files: files
                .iter()
                .map(|(n, b)| (n.to_string(), b.to_vec()))
                .collect(),
        }
    }

    #[test]
    fn render_parse_round_trip_is_identity() {
        let m = sample();
        let text = m.render();
        let parsed = Manifest::parse(&text).expect("round trip parses");
        assert_eq!(parsed, m);
        assert_eq!(parsed.render(), text, "render ∘ parse is byte-identical");
    }

    #[test]
    fn consistent_input_is_clean() {
        let m = sample();
        let findings = check_input(&input(&m, &[("a.json", b"v2\n"), ("b.jsonl", b"lines\n")]));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn tampered_fixture_names_the_bless_command() {
        let m = sample();
        let findings = check_input(&input(
            &m,
            &[("a.json", b"hand-edited\n"), ("b.jsonl", b"lines\n")],
        ));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].starts_with("tests/golden/a.json: "));
        assert!(findings[0].contains("figures -- bless a.json"));
        assert!(findings[0].contains("without a bless"));
    }

    #[test]
    fn missing_and_untracked_files_are_findings() {
        let m = sample();
        let findings = check_input(&input(
            &m,
            &[("b.jsonl", b"lines\n"), ("stray.json", b"{}\n")],
        ));
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].starts_with("tests/golden/a.json: "));
        assert!(findings[0].contains("retire it"));
        assert!(findings[1].starts_with("tests/golden/stray.json: "));
    }

    #[test]
    fn absent_manifest_is_a_finding() {
        let findings = check_input(&ManifestInput {
            manifest_text: None,
            files: vec![("a.json".to_string(), b"x".to_vec())],
        });
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("--init"));
    }

    #[test]
    fn broken_history_chain_is_a_finding() {
        let mut m = sample();
        if let Some(entry) = m.fixtures.iter_mut().find(|f| f.name == "a.json") {
            entry.history[1].old = "0000000000000000".to_string();
        }
        let findings = check_input(&input(&m, &[("a.json", b"v2\n"), ("b.jsonl", b"lines\n")]));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("history"));
    }

    #[test]
    fn malformed_manifest_is_a_finding() {
        let findings = check_input(&ManifestInput {
            manifest_text: Some("{\"schema\": \"wrong/9\", \"fixtures\": []}".to_string()),
            files: vec![],
        });
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("does not parse"));
    }

    #[test]
    fn epoch_bump_check_flags_unbumped_changes() {
        let base = sample();
        // Same epochs as base: a changed fixture must fail.
        let findings = check_epoch_bumps(&base, &base, &["a.json".to_string()]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].contains("did not bump"));
        assert!(findings[0].contains("figures -- bless a.json"));

        // A blessed change (epoch 2 → 3) passes.
        let mut cur = base.clone();
        if let Some(entry) = cur.fixtures.iter_mut().find(|f| f.name == "a.json") {
            entry.epoch = 3;
        }
        assert!(check_epoch_bumps(&cur, &base, &["a.json".to_string()]).is_empty());

        // New fixture: absent from base but tracked now → ok.
        cur.upsert(FixtureEntry {
            name: "new.json".to_string(),
            epoch: 1,
            digest: fnv1a64_hex(b"new\n"),
            command: "figures new > tests/golden/new.json".to_string(),
            history: vec![HistoryEntry {
                epoch: 1,
                old: "-".to_string(),
                new: fnv1a64_hex(b"new\n"),
                note: "initial import".to_string(),
            }],
        });
        assert!(check_epoch_bumps(&cur, &base, &["new.json".to_string()]).is_empty());

        // Retired fixture: in the base, tracked nowhere now → ok (were
        // it still on disk, `check_input` would say so).
        cur.fixtures.retain(|f| f.name != "b.jsonl");
        assert!(check_epoch_bumps(&cur, &base, &["b.jsonl".to_string()]).is_empty());
    }
}
