//! Findings, suppressions, and the byte-stable JSON report.
//!
//! The report is itself a determinism artifact: two runs over the same
//! tree must render byte-identical JSON, so everything is sorted by
//! `(file, line, rule)` and the writer lays fields out in a fixed
//! order.

use std::fmt::Write as _;

use spotweb_telemetry::json::json_string;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`wall-clock-quarantine`, …).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

/// One `// spotweb-lint: allow(…) -- reason` pragma found in-source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowRecord {
    /// File containing the pragma.
    pub file: String,
    /// Line of the pragma comment itself.
    pub line: u32,
    /// Line of code the pragma suppresses (same line, or the next
    /// code line for a pragma on its own line).
    pub target_line: u32,
    /// Rules named in the pragma.
    pub rules: Vec<String>,
    /// The `-- reason` text; an empty reason is itself a violation.
    pub reason: String,
    /// Whether the pragma suppressed at least one finding this run.
    pub used: bool,
}

/// A finding that an allow pragma suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Rule that fired.
    pub rule: String,
    /// File of the suppressed finding.
    pub file: String,
    /// Line of the suppressed finding.
    pub line: u32,
    /// Reason carried by the suppressing pragma.
    pub reason: String,
}

/// Full analysis result over one file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files analyzed.
    pub files_scanned: usize,
    /// Unsuppressed violations — non-empty means a failing exit.
    pub findings: Vec<Finding>,
    /// Violations silenced by an allow pragma.
    pub suppressed: Vec<Suppressed>,
    /// Every allow pragma in the tree (the full suppression surface).
    pub allows: Vec<AllowRecord>,
}

impl Report {
    /// `true` when the tree is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Sort every section into canonical order; called by the engine
    /// before the report is handed out.
    pub fn canonicalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Render the byte-stable JSON report (`lint_report.json`).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str("  \"schema\": \"spotweb-lint/2\",\n");
        let _ = writeln!(o, "  \"files_scanned\": {},", self.files_scanned);
        o.push_str("  \"summary\": {\n");
        let _ = writeln!(o, "    \"findings\": {},", self.findings.len());
        let _ = writeln!(o, "    \"suppressed\": {},", self.suppressed.len());
        let _ = writeln!(o, "    \"allows\": {}", self.allows.len());
        o.push_str("  },\n");

        o.push_str("  \"findings\": [");
        for (k, f) in self.findings.iter().enumerate() {
            o.push_str(if k == 0 { "\n" } else { ",\n" });
            let _ = write!(
                o,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_string(&f.rule),
                json_string(&f.file),
                f.line,
                json_string(&f.message)
            );
        }
        o.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        o.push_str("  \"suppressed\": [");
        for (k, s) in self.suppressed.iter().enumerate() {
            o.push_str(if k == 0 { "\n" } else { ",\n" });
            let _ = write!(
                o,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_string(&s.rule),
                json_string(&s.file),
                s.line,
                json_string(&s.reason)
            );
        }
        o.push_str(if self.suppressed.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        o.push_str("  \"allows\": [");
        for (k, a) in self.allows.iter().enumerate() {
            o.push_str(if k == 0 { "\n" } else { ",\n" });
            let rules: Vec<String> = a.rules.iter().map(|r| json_string(r)).collect();
            let _ = write!(
                o,
                "    {{\"file\": {}, \"line\": {}, \"rules\": [{}], \"reason\": {}, \"used\": {}}}",
                json_string(&a.file),
                a.line,
                rules.join(", "),
                json_string(&a.reason),
                a.used
            );
        }
        o.push_str(if self.allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });

        o.push_str("}\n");
        o
    }

    /// Render human diagnostics: one `file:line: [rule] message` per
    /// finding plus a one-line summary.
    pub fn render_human(&self) -> String {
        let mut o = String::new();
        for f in &self.findings {
            let _ = writeln!(o, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            o,
            "spotweb-lint: {} file(s), {} finding(s), {} suppressed by {} allow pragma(s)",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len(),
            self.allows.len()
        );
        o
    }

    /// Render the suppression surface (`--list-allows`): every pragma
    /// with its location, rules, reason, and whether it was used.
    pub fn render_allows(&self) -> String {
        let mut o = String::new();
        for a in &self.allows {
            let _ = writeln!(
                o,
                "{}:{}: allow({}) -- {}{}",
                a.file,
                a.line,
                a.rules.join(", "),
                a.reason,
                if a.used { "" } else { " [unused]" }
            );
        }
        let _ = writeln!(o, "{} allow pragma(s)", self.allows.len());
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            files_scanned: 2,
            findings: vec![
                Finding {
                    rule: "b-rule".into(),
                    file: "b.rs".into(),
                    line: 3,
                    message: "second".into(),
                },
                Finding {
                    rule: "a-rule".into(),
                    file: "a.rs".into(),
                    line: 9,
                    message: "first \"quoted\"".into(),
                },
            ],
            suppressed: vec![],
            allows: vec![AllowRecord {
                file: "a.rs".into(),
                line: 1,
                target_line: 2,
                rules: vec!["a-rule".into()],
                reason: "why".into(),
                used: false,
            }],
        };
        r.canonicalize();
        r
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let r = sample();
        let j = r.to_json();
        assert!(j.find("a.rs").unwrap() < j.find("b.rs").unwrap());
        assert_eq!(j, sample().to_json(), "byte-stable across identical runs");
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let r = Report::default();
        let j = r.to_json();
        assert!(j.contains("\"findings\": []"));
        assert!(j.contains("\"allows\": []"));
        assert!(r.is_clean());
    }

    #[test]
    fn human_rendering_names_rule_and_location() {
        let r = sample();
        let h = r.render_human();
        assert!(h.contains("a.rs:9: [a-rule] first"));
        assert!(h.contains("2 finding(s)"));
        let allows = r.render_allows();
        assert!(allows.contains("a.rs:1: allow(a-rule) -- why [unused]"));
    }
}
