//! Hierarchical wall-time spans for campaign self-profiling.
//!
//! The contention model: a worker owns a [`LocalSpans`] scratchpad per
//! task — entering and leaving spans touches only plain vectors and one
//! `Instant` read, no locks — and merges it into the shared
//! [`SpanProfiler`] once per completed task. Merging span trees
//! is associative and commutative (per-path sums), so the aggregate is
//! independent of worker scheduling.
//!
//! A span path is the `;`-joined chain of names from the root (e.g.
//! `campaign;gzip-like;sp0;trials;classify`) — the collapsed-stack
//! convention, so [`SpanTree::collapsed`] output feeds flamegraph tooling
//! unmodified. Wall-time recorded here is *summed across workers*: with N
//! threads the root can legitimately exceed campaign wall-clock by up to
//! N×. Coverage is therefore judged per level
//! ([`SpanTree::child_coverage_at_depth`]): the fraction of the time of the
//! spans at one tree depth that their child spans account for, which is
//! thread-count-sound.

use std::sync::Mutex;
use std::time::Instant;

use crate::event::Event;

/// One node of a span tree: a name, its accumulated wall time, and how
/// many times the span was entered.
#[derive(Debug, Clone)]
struct SpanNode {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    wall_ns: u64,
    calls: u64,
}

/// A forest of named spans with per-node wall time and call counts.
///
/// Structurally a tree of `(name, wall_ns, calls)` nodes; two trees are
/// equivalent when their [`SpanTree::flatten`] outputs agree (node storage
/// order is an implementation detail).
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
}

impl SpanTree {
    /// An empty tree (the merge identity).
    pub fn new() -> Self {
        SpanTree::default()
    }

    /// True when no span was ever entered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finds or creates the child of `parent` (or a root when `None`)
    /// named `name`, returning its index.
    fn child_of(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            wall_ns: 0,
            calls: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Adds wall time and calls to the child of `parent` named `name`.
    fn charge(&mut self, parent: Option<usize>, name: &str, wall_ns: u64, calls: u64) -> usize {
        let idx = self.child_of(parent, name);
        self.nodes[idx].wall_ns += wall_ns;
        self.nodes[idx].calls += calls;
        idx
    }

    /// Merges every span of `other` into `self`, aligning nodes by path.
    /// Associative and commutative: per-path wall times and call counts
    /// simply add.
    pub fn merge(&mut self, other: &SpanTree) {
        // Walk `other` in an order that visits parents before children so
        // the alignment map is always populated. Node indices satisfy this
        // by construction (a child is always created after its parent).
        let mut map = vec![usize::MAX; other.nodes.len()];
        for (i, node) in other.nodes.iter().enumerate() {
            let parent = node.parent.map(|p| map[p]);
            map[i] = self.charge(parent, &node.name, node.wall_ns, node.calls);
        }
    }

    fn path_of(&self, mut idx: usize) -> String {
        let mut names = vec![self.nodes[idx].name.as_str()];
        while let Some(p) = self.nodes[idx].parent {
            names.push(self.nodes[p].name.as_str());
            idx = p;
        }
        names.reverse();
        names.join(";")
    }

    /// Every span as `(path, wall_ns, calls)`, sorted by path — the
    /// canonical order-independent view of the tree.
    pub fn flatten(&self) -> Vec<(String, u64, u64)> {
        let mut out: Vec<_> = (0..self.nodes.len())
            .map(|i| (self.path_of(i), self.nodes[i].wall_ns, self.nodes[i].calls))
            .collect();
        out.sort();
        out
    }

    /// The tree as schema-v2 [`Event::Span`] records, sorted by path.
    pub fn events(&self) -> Vec<Event> {
        self.flatten()
            .into_iter()
            .map(|(path, wall_ns, calls)| Event::Span { path, wall_ns, calls })
            .collect()
    }

    /// Collapsed-stack lines (`path self_ns`), sorted by path, suitable
    /// for flamegraph tooling. Each line carries the span's *self* time
    /// (wall time not attributed to any child), so the stack totals do not
    /// double count; zero-self spans are omitted.
    pub fn collapsed(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for i in 0..self.nodes.len() {
            let child_ns: u64 = self.nodes[i].children.iter().map(|&c| self.nodes[c].wall_ns).sum();
            let self_ns = self.nodes[i].wall_ns.saturating_sub(child_ns);
            if self_ns > 0 {
                lines.push(format!("{} {}", self.path_of(i), self_ns));
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    fn depth_of(&self, mut idx: usize) -> usize {
        let mut d = 0;
        while let Some(p) = self.nodes[idx].parent {
            d += 1;
            idx = p;
        }
        d
    }

    /// Fraction of the wall time of the spans at tree depth `depth` (the
    /// root is depth 0) that have children which those children account
    /// for, or `None` if no span at that depth has children with recorded
    /// time. Leaf spans at the depth do not count against it: it asks
    /// whether every span that is broken down is broken down completely.
    /// Summing across the spans of one depth keeps the ratio meaningful
    /// under multi-threading: every worker's task time and its breakdown
    /// land at the same depths.
    pub fn child_coverage_at_depth(&self, depth: usize) -> Option<f64> {
        let mut total = 0u64;
        let mut covered = 0u64;
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.children.is_empty() && self.depth_of(i) == depth {
                total += node.wall_ns;
                covered += node.children.iter().map(|&c| self.nodes[c].wall_ns).sum::<u64>();
            }
        }
        (total > 0).then(|| covered as f64 / total as f64)
    }

    fn render_node(&self, idx: usize, scale: u64, out: &mut String) {
        let node = &self.nodes[idx];
        let depth = self.depth_of(idx);
        let pct = node.wall_ns as f64 * 100.0 / scale.max(1) as f64;
        let label = format!("{}{}", "  ".repeat(depth + 1), node.name);
        out.push_str(&format!(
            "{label:<28} {:>14} ns {pct:>6.1}%  x{}\n",
            node.wall_ns, node.calls
        ));
        let mut kids = node.children.clone();
        kids.sort_by(|&a, &b| {
            self.nodes[b].wall_ns.cmp(&self.nodes[a].wall_ns).then(self.nodes[a]
                .name
                .cmp(&self.nodes[b].name))
        });
        for k in kids {
            self.render_node(k, scale, out);
        }
    }

    /// Renders the tree as an indented table (largest child first), with
    /// percentages relative to the root total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("  (no spans recorded)\n");
            return out;
        }
        let scale: u64 = self.roots.iter().map(|&r| self.nodes[r].wall_ns).sum();
        let mut roots = self.roots.clone();
        roots.sort_by_key(|&r| std::cmp::Reverse(self.nodes[r].wall_ns));
        for r in roots {
            self.render_node(r, scale, &mut out);
        }
        out
    }
}

/// Per-worker span scratchpad: an explicit enter/exit stack over a private
/// [`SpanTree`]. No synchronization anywhere.
#[derive(Debug, Default)]
pub struct LocalSpans {
    tree: SpanTree,
    stack: Vec<(usize, Instant)>,
}

impl LocalSpans {
    /// A fresh scratchpad with no open spans.
    pub fn new() -> Self {
        LocalSpans::default()
    }

    /// Opens a span named `name` nested under the currently open span
    /// (or at the root).
    pub fn enter(&mut self, name: &str) {
        let parent = self.stack.last().map(|&(idx, _)| idx);
        let idx = self.tree.child_of(parent, name);
        self.stack.push((idx, Instant::now()));
    }

    /// Closes the innermost open span, charging its elapsed wall time.
    pub fn exit(&mut self) {
        let (idx, t0) = self.stack.pop().expect("exit without matching enter");
        self.tree.nodes[idx].wall_ns += t0.elapsed().as_nanos() as u64;
        self.tree.nodes[idx].calls += 1;
    }

    /// Charges externally measured time to a child of the currently open
    /// span, without opening it. Used to attribute durations the engine
    /// already measures internally (e.g. a core's classify-time counter)
    /// to the span hierarchy.
    pub fn record(&mut self, name: &str, wall_ns: u64, calls: u64) {
        let parent = self.stack.last().map(|&(idx, _)| idx);
        self.tree.charge(parent, name, wall_ns, calls);
    }

    /// The accumulated tree. Must only be read with all spans closed.
    pub fn tree(&self) -> &SpanTree {
        assert!(self.stack.is_empty(), "spans still open");
        &self.tree
    }
}

/// Shared span aggregate: workers [`SpanProfiler::absorb`] their
/// [`LocalSpans`] once per task (one short lock).
#[derive(Debug, Default)]
pub struct SpanProfiler {
    total: Mutex<SpanTree>,
}

impl SpanProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        SpanProfiler::default()
    }

    /// Merges a completed scratchpad into the aggregate.
    pub fn absorb(&self, local: &LocalSpans) {
        let tree = local.tree();
        let mut total = self.total.lock().unwrap_or_else(|e| e.into_inner());
        total.merge(tree);
    }

    /// A snapshot of the merged tree.
    pub fn snapshot(&self) -> SpanTree {
        self.total.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(paths: &[(&str, u64, u64)]) -> SpanTree {
        // Builds a tree from (path, wall_ns, calls) rows.
        let mut t = SpanTree::new();
        for &(path, wall_ns, calls) in paths {
            let mut parent = None;
            let parts: Vec<&str> = path.split(';').collect();
            for (i, name) in parts.iter().enumerate() {
                if i + 1 == parts.len() {
                    parent = Some(t.charge(parent, name, wall_ns, calls));
                } else {
                    parent = Some(t.child_of(parent, name));
                }
            }
            let _ = parent;
        }
        t
    }

    /// Decodes fuzzed words into `(path, wall_ns, calls)` charges over a
    /// small fixed path alphabet and builds the resulting tree. Shared
    /// ops always map to the same tree, so rebuilding from a concatenated
    /// op stream is the ground truth for merge.
    fn ops_tree(ops: &[u64]) -> SpanTree {
        const PATHS: [&str; 8] = [
            "campaign",
            "campaign;gzip",
            "campaign;gzip;trials",
            "campaign;gzip;trials;classify",
            "campaign;gzip;warmup",
            "campaign;twolf",
            "campaign;twolf;trials",
            "campaign;twolf;trials;advance",
        ];
        let rows: Vec<(&str, u64, u64)> =
            ops.iter().map(|&v| (PATHS[(v % 8) as usize], (v >> 3) % 1000, (v >> 13) % 4)).collect();
        tree(&rows)
    }

    tfsim_check::prop_check! {
        /// Span-tree merge is a commutative monoid with the empty tree as
        /// identity, and merging two trees equals building one tree from
        /// the concatenated charge stream.
        fn span_merge_is_a_commutative_monoid(
            xs in tfsim_check::prop::vecs(tfsim_check::prop::any_u64(), 0..24),
            ys in tfsim_check::prop::vecs(tfsim_check::prop::any_u64(), 0..24),
            zs in tfsim_check::prop::vecs(tfsim_check::prop::any_u64(), 0..24),
        ) {
            use tfsim_check::prop_assert_eq;
            let (a, b, c) = (ops_tree(&xs), ops_tree(&ys), ops_tree(&zs));

            let mut a_e = a.clone();
            a_e.merge(&SpanTree::new());
            prop_assert_eq!(a_e.flatten(), a.flatten(), "empty must be a right identity");
            let mut e_a = SpanTree::new();
            e_a.merge(&a);
            prop_assert_eq!(e_a.flatten(), a.flatten(), "empty must be a left identity");

            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.flatten(), ba.flatten(), "merge must commute");

            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(ab_c.flatten(), a_bc.flatten(), "merge must associate");

            let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
            prop_assert_eq!(
                ab_c.flatten(),
                ops_tree(&all).flatten(),
                "merge must equal the concatenated charge stream"
            );
        }
    }

    #[test]
    fn enter_exit_builds_nested_paths() {
        let mut l = LocalSpans::new();
        l.enter("campaign");
        l.enter("bench");
        l.enter("warmup");
        l.exit();
        l.enter("warmup"); // same span again: one node, two calls
        l.exit();
        l.record("classify", 123, 7);
        l.exit();
        l.exit();
        let flat = l.tree().flatten();
        let paths: Vec<&str> = flat.iter().map(|(p, _, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["campaign", "campaign;bench", "campaign;bench;classify", "campaign;bench;warmup"]);
        let warmup = flat.iter().find(|(p, _, _)| p.ends_with("warmup")).unwrap();
        assert_eq!(warmup.2, 2);
        let classify = flat.iter().find(|(p, _, _)| p.ends_with("classify")).unwrap();
        assert_eq!((classify.1, classify.2), (123, 7));
    }

    #[test]
    #[should_panic(expected = "spans still open")]
    fn open_spans_cannot_be_read() {
        let mut l = LocalSpans::new();
        l.enter("campaign");
        let _ = l.tree();
    }

    #[test]
    fn merge_sums_matching_paths_and_keeps_disjoint_ones() {
        let mut a = tree(&[("c;x", 10, 1), ("c;y", 5, 2)]);
        let b = tree(&[("c;x", 30, 3), ("c;z", 7, 1)]);
        a.merge(&b);
        assert_eq!(
            a.flatten(),
            vec![
                ("c".to_string(), 0, 0),
                ("c;x".to_string(), 40, 4),
                ("c;y".to_string(), 5, 2),
                ("c;z".to_string(), 7, 1),
            ]
        );
    }

    #[test]
    fn collapsed_emits_self_time_only() {
        let t = tree(&[("c", 100, 1), ("c;x", 60, 2), ("c;x;k", 60, 4), ("c;y", 40, 1)]);
        // c self = 100-60-40 = 0 (omitted); c;x self = 0 (omitted).
        assert_eq!(t.collapsed(), "c;x;k 60\nc;y 40\n");
        assert_eq!(SpanTree::new().collapsed(), "");
    }

    #[test]
    fn child_coverage_skips_leaves() {
        let t = tree(&[("c", 100, 1), ("c;x", 90, 1), ("c;y", 8, 1), ("c;x;k", 45, 1)]);
        assert!((t.child_coverage_at_depth(0).unwrap() - 0.98).abs() < 1e-9);
        // `c;y` has no children, so only `c;x` is judged.
        assert!((t.child_coverage_at_depth(1).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(t.child_coverage_at_depth(2), None);
        assert_eq!(SpanTree::new().child_coverage_at_depth(0), None);
    }

    #[test]
    fn events_are_sorted_by_path() {
        let t = tree(&[("c;y", 1, 1), ("c;x", 2, 1)]);
        let evs = t.events();
        match (&evs[1], &evs[2]) {
            (
                Event::Span { path: p1, wall_ns: 2, calls: 1 },
                Event::Span { path: p2, wall_ns: 1, calls: 1 },
            ) => {
                assert_eq!(p1, "c;x");
                assert_eq!(p2, "c;y");
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn profiler_absorbs_locals() {
        let prof = SpanProfiler::new();
        let mut a = LocalSpans::new();
        a.enter("c");
        a.record("x", 5, 1);
        a.exit();
        let mut b = LocalSpans::new();
        b.enter("c");
        b.record("x", 7, 2);
        b.exit();
        prof.absorb(&a);
        prof.absorb(&b);
        let flat = prof.snapshot().flatten();
        let x = flat.iter().find(|(p, _, _)| p == "c;x").unwrap();
        assert_eq!((x.1, x.2), (12, 3));
        let rendered = prof.snapshot().render();
        assert!(rendered.contains("c"), "{rendered}");
        assert!(rendered.contains("x2"), "{rendered}"); // calls column
    }

    #[test]
    fn render_handles_empty() {
        assert!(SpanTree::new().render().contains("no spans"));
    }
}
