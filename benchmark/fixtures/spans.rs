//! Reading the merged span tree a traced run leaves in memory.

use spotweb_telemetry::prof::MergedNode;

/// Every span of one name, summed over wherever it sits in the tree.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    pub count: u64,
    pub total_secs: f64,
    pub self_secs: f64,
}

impl SpanTotal {
    /// Mean milliseconds per entry.
    pub fn ms_per_call(&self) -> f64 {
        self.total_secs * 1e3 / self.count as f64
    }
}

/// The first span called `name`, depth first; panics when the program
/// emitted none, because a per-layer metric would silently read zero.
pub fn find<'t>(tree: &'t MergedNode, name: &str) -> &'t MergedNode {
    fn walk<'t>(node: &'t MergedNode, name: &str) -> Option<&'t MergedNode> {
        if node.name == name {
            return Some(node);
        }
        node.children.iter().find_map(|child| walk(child, name))
    }
    walk(tree, name).unwrap_or_else(|| panic!("no span named {name} in the traced run"))
}

/// Sum of the spans called `name` at or below `tree`.
pub fn total(tree: &MergedNode, name: &str) -> SpanTotal {
    fn walk(node: &MergedNode, name: &str, acc: &mut SpanTotal) {
        if node.name == name {
            acc.count += node.count;
            acc.total_secs += node.total_secs;
            acc.self_secs += node.self_secs();
        }
        for child in &node.children {
            walk(child, name, acc);
        }
    }
    let mut acc = SpanTotal::default();
    walk(tree, name, &mut acc);
    assert!(acc.count > 0, "no span named {name} in the traced run");
    acc
}

/// Mutex acquisitions the program's lock timers saw at or below
/// `tree`, and the seconds they waited.
pub fn lock_waits(tree: &MergedNode) -> (u64, f64) {
    let mut acc = (tree.lock_waits, tree.lock_wait_secs);
    for child in &tree.children {
        let (waits, secs) = lock_waits(child);
        acc.0 += waits;
        acc.1 += secs;
    }
    acc
}
