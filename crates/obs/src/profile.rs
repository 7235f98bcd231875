//! Span-profile aggregation: folds a flat trace ([`crate::trace::Record`]
//! slices) into a self/total-time profile tree, with collapsed-stack
//! output compatible with standard flamegraph tooling.
//!
//! Aggregation is by *name path*: every span's chain of ancestor names
//! (root → span) identifies a tree node, and all spans sharing a path
//! merge into one node (call count + total time).  Self time is a node's
//! total minus its children's totals, so summing `self_ns` over any
//! subtree reproduces the subtree root's `total_ns`.

use std::collections::BTreeMap;

use crate::trace::Record;

/// One aggregated node of the profile tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// The span name shared by every call merged into this node.
    pub name: String,
    /// How many spans merged here.
    pub calls: u64,
    /// Sum of the merged spans' durations.
    pub total_ns: u64,
    /// `total_ns` minus the children's `total_ns` (saturating).
    pub self_ns: u64,
    /// Child nodes, in first-appearance order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    fn new(name: &str) -> Self {
        ProfileNode {
            name: name.to_string(),
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            children: Vec::new(),
        }
    }

    fn child_mut(&mut self, name: &str) -> &mut ProfileNode {
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(ProfileNode::new(name));
        let last = self.children.len() - 1;
        &mut self.children[last]
    }

    fn settle_self(&mut self) {
        let child_total: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.self_ns = self.total_ns.saturating_sub(child_total);
        for c in &mut self.children {
            c.settle_self();
        }
    }
}

/// A profile: a forest of aggregated span trees (one root per top-level
/// span name; worker threads and repeated runs merge by name path).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Root nodes in first-appearance order.
    pub roots: Vec<ProfileNode>,
}

/// Builds a profile from trace records.  Events are ignored; spans whose
/// parent is missing from `records` (e.g. the trace slice starts inside
/// an enclosing span) are treated as roots of their visible chain.
pub fn aggregate(records: &[Record]) -> Profile {
    // Parent resolution needs every span visible, not just earlier ones:
    // parents close (and are appended) *after* their children.
    let by_id: BTreeMap<u64, &Record> = records
        .iter()
        .filter(|r| r.is_span())
        .map(|r| (r.id, r))
        .collect();

    // Paths must land parents before children so merge order can't put a
    // child's total ahead of its parent's; insertion into the tree is
    // order-independent anyway, but first-appearance child ordering reads
    // best when walked in record (completion) order.
    let mut forest = ProfileNode::new("");
    for r in records.iter().filter(|r| r.is_span()) {
        // Name path from root to this span.  Span ids are assigned at
        // open time from a monotone counter, so a parent's id is always
        // smaller than its child's — chains terminate.
        let mut path = vec![r.name.as_str()];
        let mut cursor: &Record = r;
        while let Some(pid) = cursor.parent {
            match by_id.get(&pid) {
                Some(p) if p.id < cursor.id => {
                    path.push(p.name.as_str());
                    cursor = p;
                }
                _ => break,
            }
        }
        path.reverse();
        let mut node = &mut forest;
        for name in path {
            node = node.child_mut(name);
        }
        node.calls += 1;
        node.total_ns += r.duration_ns();
    }
    forest.settle_self();
    Profile {
        roots: forest.children,
    }
}

fn walk<'a>(
    node: &'a ProfileNode,
    stack: &mut Vec<&'a str>,
    out: &mut Vec<(String, &'a ProfileNode)>,
) {
    stack.push(&node.name);
    out.push((stack.join(";"), node));
    for c in &node.children {
        walk(c, stack, out);
    }
    stack.pop();
}

impl Profile {
    /// Every node paired with its `;`-joined name path, depth-first.
    pub fn flatten(&self) -> Vec<(String, &ProfileNode)> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        for r in &self.roots {
            walk(r, &mut stack, &mut out);
        }
        out
    }

    /// Collapsed-stack text (`root;child;leaf <self_ns>` per line), the
    /// input format of standard flamegraph renderers.  Zero-self nodes
    /// are omitted, so the line weights of any subtree sum exactly to
    /// the subtree root's `total_ns`.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, node) in self.flatten() {
            if node.self_ns > 0 {
                out.push_str(&path);
                out.push(' ');
                out.push_str(&node.self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Summed `total_ns` of every node named `name`, anywhere in the
    /// forest — matches per-phase totals computed straight from records.
    pub fn total_of(&self, name: &str) -> u64 {
        self.flatten()
            .iter()
            .filter(|(_, n)| n.name == name)
            .map(|(_, n)| n.total_ns)
            .sum()
    }

    /// Sum of all `self_ns` — equals the sum of root totals.
    pub fn self_total(&self) -> u64 {
        self.flatten().iter().map(|(_, n)| n.self_ns).sum()
    }

    /// An indented human-readable table (name, calls, total, self).
    pub fn render_table(&self) -> String {
        let rows = self.flatten();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>7} {:>14} {:>14}\n",
            "span", "calls", "total_ns", "self_ns"
        ));
        for (path, node) in rows {
            let depth = path.matches(';').count();
            let label = format!("{}{}", "  ".repeat(depth), node.name);
            out.push_str(&format!(
                "{:<44} {:>7} {:>14} {:>14}\n",
                label, node.calls, node.total_ns, node.self_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FieldValue, RecordKind};

    fn span_rec(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Record {
        Record {
            id,
            parent,
            name: name.to_string(),
            kind: RecordKind::Span {
                start_ns: start,
                end_ns: end,
            },
            thread: "t".to_string(),
            fields: Vec::<(String, FieldValue)>::new(),
        }
    }

    fn event_rec(id: u64, parent: Option<u64>, name: &str) -> Record {
        Record {
            id,
            parent,
            name: name.to_string(),
            kind: RecordKind::Event { at_ns: 0 },
            thread: "t".to_string(),
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // run(0..100) > phase_a(10..40), phase_b(50..90)
        let records = vec![
            span_rec(2, Some(1), "phase_a", 10, 40),
            span_rec(3, Some(1), "phase_b", 50, 90),
            span_rec(1, None, "run", 0, 100),
        ];
        let p = aggregate(&records);
        assert_eq!(p.roots.len(), 1);
        let run = &p.roots[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.total_ns, 100);
        assert_eq!(run.self_ns, 100 - 30 - 40);
        assert_eq!(run.children.len(), 2);
        assert_eq!(p.total_of("phase_a"), 30);
        assert_eq!(p.self_total(), 100, "Σ self == root total");
    }

    #[test]
    fn same_name_paths_merge_calls() {
        let records = vec![
            span_rec(2, Some(1), "chunk", 0, 10),
            span_rec(3, Some(1), "chunk", 10, 25),
            span_rec(1, None, "map", 0, 30),
            span_rec(5, Some(4), "chunk", 0, 5),
            span_rec(4, None, "map", 0, 6),
        ];
        let p = aggregate(&records);
        assert_eq!(p.roots.len(), 1, "both maps merge into one root");
        let map = &p.roots[0];
        assert_eq!(map.calls, 2);
        assert_eq!(map.total_ns, 36);
        let chunk = &map.children[0];
        assert_eq!(chunk.calls, 3);
        assert_eq!(chunk.total_ns, 30);
        assert_eq!(map.self_ns, 6);
    }

    #[test]
    fn events_and_missing_parents_are_tolerated() {
        let records = vec![
            event_rec(9, Some(1), "tick"),
            // Parent id 100 is not in the slice: treated as a root.
            span_rec(7, Some(100), "orphan", 0, 12),
            span_rec(1, None, "root", 0, 20),
        ];
        let p = aggregate(&records);
        let names: Vec<&str> = p.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["orphan", "root"]);
        assert_eq!(p.total_of("tick"), 0, "events don't aggregate");
        assert_eq!(p.self_total(), 32);
    }

    #[test]
    fn collapsed_lines_sum_to_root_totals() {
        let records = vec![
            span_rec(3, Some(2), "leaf", 0, 7),
            span_rec(2, Some(1), "mid", 0, 7), // zero self: all time in leaf
            span_rec(1, None, "top", 0, 50),
        ];
        let p = aggregate(&records);
        let collapsed = p.collapsed();
        let mut sum = 0u64;
        for line in collapsed.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("weight");
            assert!(path.starts_with("top"));
            sum += weight.parse::<u64>().expect("number");
        }
        assert_eq!(sum, 50, "Σ collapsed weights == root total: {collapsed}");
        assert!(collapsed.contains("top;mid;leaf 7"));
        assert!(
            !collapsed.contains("top;mid "),
            "zero-self node omitted: {collapsed}"
        );
    }

    #[test]
    fn real_trace_round_trips_through_aggregation() {
        let mark = crate::trace::checkpoint();
        {
            let _outer = crate::trace::span("prof.outer");
            {
                let _inner = crate::trace::span("prof.inner");
            }
            {
                let _inner = crate::trace::span("prof.inner");
            }
        }
        let records: Vec<Record> = crate::trace::take_since(mark)
            .into_iter()
            .filter(|r| r.name.starts_with("prof."))
            .collect();
        let p = aggregate(&records);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].name, "prof.outer");
        assert_eq!(p.roots[0].children[0].calls, 2);
        assert_eq!(
            p.roots[0].total_ns,
            p.self_total(),
            "self times sum back to the outer span"
        );
        assert!(p.collapsed().contains("prof.outer;prof.inner "));
    }
}
