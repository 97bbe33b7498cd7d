//! Profile reports: per-thread span trees, the deterministic merged
//! tree, and the quarantined timed export.
//!
//! Two render surfaces, one per side of the quarantine boundary:
//!
//! * [`MergedNode::structure_json`] — names, nesting, call counts and
//!   lock-wait counts only. Deterministic for a deterministic run
//!   (same seed ⇒ byte-identical), so it is golden-lockable
//!   (`tests/golden/profile_spans.json`).
//! * [`MergedNode::timed_json`] — wall-clock seconds and lock-wait
//!   seconds on top. Quarantined: `benchmark/` writes it to
//!   `<workload>.traced.spans.json`, nothing byte-stable carries it.
//!
//! All JSON is rendered through [`crate::json`]: no float `Display`
//! shortcuts, and no hash-ordered collections (`clippy.toml` bans
//! them workspace-wide).

use crate::json::{json_f64, json_string};

/// One node of a per-thread span tree. Nodes live in the arena of
/// their [`SpanTree`]; `children` holds arena indices. Index 0 of
/// every tree is a synthetic root with an empty name that only ever
/// accumulates lock waits recorded outside any open span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (a `names::SPAN_*` constant in workspace crates).
    pub name: &'static str,
    /// Times this span was entered.
    pub count: u64,
    /// Mutex acquisitions timed under this span.
    pub lock_waits: u64,
    /// Total wall seconds spent inside this span (quarantined).
    pub total_secs: f64,
    /// Wall seconds spent waiting on mutex acquisitions (quarantined).
    pub lock_wait_secs: f64,
    /// Arena indices of child spans, in first-entry order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// A fresh zeroed node.
    pub fn new(name: &'static str) -> SpanNode {
        SpanNode {
            name,
            count: 0,
            lock_waits: 0,
            total_secs: 0.0,
            lock_wait_secs: 0.0,
            children: Vec::new(),
        }
    }
}

/// The span tree recorded by one thread during a session.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// Thread label (`main`, or whatever the thread passed to
    /// [`crate::prof::span::set_thread_label`], e.g. `worker-2`).
    pub label: String,
    /// Node arena; index 0 is the synthetic root.
    pub nodes: Vec<SpanNode>,
}

/// A name-merged span node: the union of every thread's tree (or a
/// single thread's), children sorted by name, counts and times summed.
/// Produced by [`Profile::merged`].
#[derive(Debug, Clone, PartialEq)]
pub struct MergedNode {
    /// Span name; the root of a merged tree has the empty name.
    pub name: String,
    /// Summed entry count across merged trees.
    pub count: u64,
    /// Summed lock-wait count.
    pub lock_waits: u64,
    /// Summed wall seconds (quarantined).
    pub total_secs: f64,
    /// Summed lock-wait seconds (quarantined).
    pub lock_wait_secs: f64,
    /// Children sorted by name (recursively).
    pub children: Vec<MergedNode>,
}

impl MergedNode {
    fn new(name: &str) -> MergedNode {
        MergedNode {
            name: name.to_string(),
            count: 0,
            lock_waits: 0,
            total_secs: 0.0,
            lock_wait_secs: 0.0,
            children: Vec::new(),
        }
    }

    fn absorb(&mut self, tree: &SpanTree, node: usize) {
        let n = &tree.nodes[node];
        self.count += n.count;
        self.lock_waits += n.lock_waits;
        self.total_secs += n.total_secs;
        self.lock_wait_secs += n.lock_wait_secs;
        for &c in &n.children {
            let name = tree.nodes[c].name;
            let child = match self.children.iter_mut().find(|m| m.name == name) {
                Some(existing) => existing,
                None => {
                    self.children.push(MergedNode::new(name));
                    self.children.last_mut().expect("pushed above")
                }
            };
            child.absorb(tree, c);
        }
    }

    fn sort_recursive(&mut self) {
        self.children.sort_by(|a, b| a.name.cmp(&b.name));
        for c in &mut self.children {
            c.sort_recursive();
        }
    }

    /// Wall seconds spent in this span but not in any child span.
    /// Clamped at zero (children measured on other threads can sum
    /// past a parent measured on one).
    pub fn self_secs(&self) -> f64 {
        let child_total: f64 = self.children.iter().map(|c| c.total_secs).sum();
        (self.total_secs - child_total).max(0.0)
    }

    /// Deterministic structure-only JSON: name, count, lock-wait
    /// count, children — no seconds. Byte-identical across
    /// runs of the same deterministic workload; golden-lockable.
    pub fn structure_json(&self) -> String {
        let children: Vec<String> = self.children.iter().map(|c| c.structure_json()).collect();
        format!(
            "{{\"name\":{},\"count\":{},\"lock_waits\":{},\"children\":[{}]}}",
            json_string(&self.name),
            self.count,
            self.lock_waits,
            children.join(",")
        )
    }

    /// Quarantined JSON with the full figures (total/self wall
    /// seconds, lock-wait seconds); never part of a golden.
    pub fn timed_json(&self) -> String {
        let children: Vec<String> = self.children.iter().map(|c| c.timed_json()).collect();
        format!(
            concat!(
                "{{\"name\":{},\"count\":{},\"total_secs\":{},\"self_secs\":{},",
                "\"lock_waits\":{},\"lock_wait_secs\":{},\"children\":[{}]}}"
            ),
            json_string(&self.name),
            self.count,
            json_f64(self.total_secs),
            json_f64(self.self_secs()),
            self.lock_waits,
            json_f64(self.lock_wait_secs),
            children.join(",")
        )
    }
}

/// The result of a finished profiling session: one [`SpanTree`] per
/// thread that recorded anything, sorted by thread label.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Per-thread trees (labels are stable; tie order between equal
    /// labels is not, so equal labels should be avoided by callers).
    pub threads: Vec<SpanTree>,
}

impl Profile {
    /// Union-merge every thread's tree by span name: counts and times
    /// summed, children sorted by name recursively. The merged
    /// *structure* is deterministic even when the per-thread split is
    /// not (e.g. work-stealing sweep workers).
    pub fn merged(&self) -> MergedNode {
        let mut root = MergedNode::new("");
        for tree in &self.threads {
            root.absorb(tree, 0);
        }
        root.sort_recursive();
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(label: &str) -> SpanTree {
        // root -> a(2, 1.0s) -> b(4, 0.25s); root lock_waits 1
        let mut nodes = vec![SpanNode::new("")];
        nodes[0].lock_waits = 1;
        nodes[0].lock_wait_secs = 0.001;
        let mut a = SpanNode::new("a");
        a.count = 2;
        a.total_secs = 1.0;
        a.children = vec![2];
        let mut b = SpanNode::new("b");
        b.count = 4;
        b.total_secs = 0.25;
        nodes[0].children = vec![1];
        nodes.push(a);
        nodes.push(b);
        SpanTree {
            label: label.to_string(),
            nodes,
        }
    }

    #[test]
    fn merge_sums_and_sorts() {
        let profile = Profile {
            threads: vec![tree("w1"), tree("w0")],
        };
        let merged = profile.merged();
        assert_eq!(merged.lock_waits, 2);
        assert_eq!(merged.children.len(), 1);
        let a = &merged.children[0];
        assert_eq!((a.name.as_str(), a.count), ("a", 4));
        assert_eq!(a.children[0].count, 8);
        assert!((a.self_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn structure_json_has_no_timing_fields() {
        let profile = Profile {
            threads: vec![tree("main")],
        };
        let s = profile.merged().structure_json();
        assert!(s.contains("\"name\":\"a\""));
        assert!(s.contains("\"count\":2"));
        assert!(!s.contains("secs"), "timing must be quarantined: {s}");
    }

    #[test]
    fn timed_json_is_canonical() {
        let profile = Profile {
            threads: vec![tree("main")],
        };
        let s = profile.merged().timed_json();
        assert!(s.starts_with("{\"name\":\"\",\"count\":0,"));
        assert!(s.contains("\"total_secs\":1.0"));
        assert!(s.contains("\"self_secs\":0.75"));
    }
}
