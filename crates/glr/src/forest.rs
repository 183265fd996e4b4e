//! Shared parse forests.
//!
//! The parallel parser may find several derivations for (parts of) the
//! input when the grammar is ambiguous. Instead of materialising every
//! parse tree, derivations are packed into a *shared forest*: one node per
//! `(non-terminal, start, end)` span, carrying every rule application that
//! derives that span. This is the "improved sharing of parse trees" the
//! paper mentions it adopted after a suggestion of B. Lang.
//!
//! ## Arena layout
//!
//! The forest is a set of flat pools — nodes, packed derivations and
//! derivation children each live in one `Vec`, and a node's derivations
//! form an insertion-ordered linked list through the derivation pool.
//! Nothing is allocated per node or per derivation, so a forest that is
//! [`Forest::clear`]ed and rebuilt (the serving layer's reusable parse
//! contexts do exactly this) performs **zero heap allocations** once its
//! pools have warmed up to the workload's size.
//!
//! The span index only ever needs the spans the GSS driver is currently
//! interning: the driver derives every node at the position its span ends,
//! so it forgets each position's spans as it moves on, which keeps the
//! index at frontier width instead of document size. For incremental
//! re-parses the pools can be rewound to a checkpoint and later spliced
//! back (see `crate::rewind`).

use std::collections::HashMap;

use ipg_grammar::{Grammar, RuleId, SymbolId};
use ipg_lr::ParseTree;

use crate::fxhash::FxHashMap;
use crate::rewind::RewindVec;

/// Identifier of a non-terminal node in a [`Forest`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index of the node inside its forest.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A child of a derivation: either an input token or another forest node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ForestRef {
    /// A terminal leaf (token) at the given input position.
    Leaf {
        /// Terminal symbol.
        symbol: SymbolId,
        /// 0-based token index.
        position: usize,
    },
    /// A shared non-terminal node.
    Node(NodeId),
}

/// A borrowed view of one way of deriving a forest node: a rule plus its
/// children, read straight out of the forest's flat pools.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Derivation<'f> {
    /// The rule that was reduced.
    pub rule: RuleId,
    /// Children, left to right; length equals the rule's right-hand side.
    pub children: &'f [ForestRef],
}

/// Sentinel for "no derivation" in the pooled derivation lists.
const NO_DERIVATION: u32 = u32::MAX;

/// One packed derivation in the pool: a rule, a slice of the shared
/// children pool, and the next derivation of the same node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DerivationSlot {
    rule: RuleId,
    children_start: u32,
    children_len: u32,
    /// Next derivation of the same node (`NO_DERIVATION` terminates).
    next: u32,
}

/// A non-terminal node: a `(symbol, start, end)` span with one or more
/// packed derivations (stored in the forest's derivation pool).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForestNode {
    /// The non-terminal this node derives.
    pub symbol: SymbolId,
    /// Start token index (inclusive).
    pub start: usize,
    /// End token index (exclusive).
    pub end: usize,
    /// Head of this node's derivation list in the pool.
    first_derivation: u32,
    /// Tail of the list (derivations keep insertion order).
    last_derivation: u32,
}

/// A shared packed parse forest.
#[derive(Clone, Debug, Default)]
pub struct Forest {
    nodes: RewindVec<ForestNode>,
    /// Packed derivations of all nodes (per-node linked lists).
    derivations: RewindVec<DerivationSlot>,
    /// Children of all derivations, in one flat pool.
    children: RewindVec<ForestRef>,
    /// Span interning map; on the parse hot path, hence the fast hasher.
    /// The GSS driver keeps only the current position's spans in it.
    index: FxHashMap<(SymbolId, usize, usize), NodeId>,
    roots: Vec<NodeId>,
}

impl Forest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the forest while keeping the capacity of all its pools —
    /// the reusable-parse-context reset. A cleared forest rebuilt to the
    /// same shape allocates nothing.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.derivations.clear();
        self.children.clear();
        self.index.clear();
        self.roots.clear();
    }

    /// Finds or creates the node for `(symbol, start, end)`.
    pub fn node_for(&mut self, symbol: SymbolId, start: usize, end: usize) -> NodeId {
        if let Some(&id) = self.index.get(&(symbol, start, end)) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(ForestNode {
            symbol,
            start,
            end,
            first_derivation: NO_DERIVATION,
            last_derivation: NO_DERIVATION,
        });
        self.index.insert((symbol, start, end), id);
        id
    }

    /// Adds a derivation to a node, packing duplicates away. The children
    /// are copied into the forest's flat pool, so the caller can reuse its
    /// scratch buffer.
    pub fn add_derivation(&mut self, node: NodeId, rule: RuleId, children: &[ForestRef]) {
        // Duplicate check: walk the node's (almost always tiny) list.
        let mut d = self.nodes[node.index()].first_derivation;
        while d != NO_DERIVATION {
            let slot = self.derivations[d as usize];
            if slot.rule == rule && self.children_of(slot) == children {
                return;
            }
            d = slot.next;
        }
        let children_start = self.children.len() as u32;
        self.children.extend_from_slice(children);
        let new = self.derivations.len() as u32;
        self.derivations.push(DerivationSlot {
            rule,
            children_start,
            children_len: children.len() as u32,
            next: NO_DERIVATION,
        });
        let entry = &mut self.nodes[node.index()];
        if entry.first_derivation == NO_DERIVATION {
            entry.first_derivation = new;
        } else {
            self.derivations[entry.last_derivation as usize].next = new;
        }
        entry.last_derivation = new;
    }

    #[inline]
    fn children_of(&self, slot: DerivationSlot) -> &[ForestRef] {
        let start = slot.children_start as usize;
        &self.children[start..start + slot.children_len as usize]
    }

    /// Marks a node as a root (a derivation of the whole sentence).
    pub fn add_root(&mut self, node: NodeId) {
        if !self.roots.contains(&node) {
            self.roots.push(node);
        }
    }

    /// The root nodes (derivations of the full input). Empty if the input
    /// was rejected.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Returns a node.
    pub fn node(&self, id: NodeId) -> &ForestNode {
        &self.nodes[id.index()]
    }

    /// Iterates over the packed derivations of a node, in insertion order.
    pub fn derivations(&self, id: NodeId) -> Derivations<'_> {
        Derivations {
            forest: self,
            next: self.nodes[id.index()].first_derivation,
        }
    }

    /// Number of non-terminal nodes in the forest.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of packed derivations.
    pub fn num_derivations(&self) -> usize {
        self.derivations.len()
    }

    /// Total number of derivation children across all packed derivations
    /// (the length of the flat children pool — a watermark for
    /// checkpoint/rollback, alongside [`Forest::num_nodes`] and
    /// [`Forest::num_derivations`]).
    pub fn num_children(&self) -> usize {
        self.children.len()
    }

    /// Approximate resident size of the forest arena in bytes: the three
    /// flat pools (nodes, derivation slots, child refs) at their current
    /// lengths. O(1) — cheap enough for an amortized budget check — and
    /// deliberately ignores `Vec` over-capacity and the span index, so it
    /// tracks *parse-driven growth* rather than allocator round-up.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<ForestNode>()
            + self.derivations.len() * std::mem::size_of::<DerivationSlot>()
            + self.children.len() * std::mem::size_of::<ForestRef>()
    }

    /// Whether two forests hold the same pools and roots: the same nodes,
    /// packed derivations and children at the same indices.
    #[cfg(test)]
    pub(crate) fn same_pools(&self, other: &Forest) -> bool {
        self.nodes[..] == other.nodes[..]
            && self.derivations[..] == other.derivations[..]
            && self.children[..] == other.children[..]
            && self.roots == other.roots
    }

    /// Un-interns the spans of nodes `first..`: later [`Forest::node_for`]
    /// calls create fresh nodes for them. The GSS driver calls this as it
    /// leaves a position, with the node count it had on entering it.
    pub(crate) fn forget_spans_from(&mut self, first: usize) {
        for node in &self.nodes[first..] {
            self.index.remove(&(node.symbol, node.start, node.end));
        }
    }

    /// Rolls the forest back to a GSS checkpoint's watermark: `nodes` nodes,
    /// `derivations` derivation slots and `children` child entries, and no
    /// roots (a finished parse records them again). The pools are rewound,
    /// not truncated: [`Forest::splice`] can bring the recorded suffix back
    /// and [`Forest::seal`] drops whatever of it a re-run did not reach.
    /// With `log_spans` the spans the re-run overwrites are logged
    /// ([`Forest::recorded_span`]).
    ///
    /// Sound only for watermarks taken at a GSS checkpoint: the driver
    /// creates every derivation at the token position its node *ends* at,
    /// so all data beyond a per-position watermark belongs to dropped
    /// nodes — retained nodes never reference dropped slots — and the span
    /// index is empty there.
    pub(crate) fn rewind(&mut self, nodes: usize, derivations: usize, children: usize, log_spans: bool) {
        debug_assert!(self.index.is_empty(), "spans are forgotten at every position");
        self.nodes.rewind(nodes, log_spans.then_some(nodes));
        self.derivations.rewind(derivations, None);
        self.children.rewind(children, None);
        self.roots.clear();
    }

    /// The `(symbol, start, end)` span node `id` had in the run recorded
    /// before the last span-logging [`Forest::rewind`].
    pub(crate) fn recorded_span(&self, id: NodeId) -> Option<(SymbolId, usize, usize)> {
        self.nodes
            .recorded(id.index())
            .map(|node| (node.symbol, node.start, node.end))
    }

    /// Ends a rewound re-run that converged: the recorded pools beyond the
    /// re-run's watermarks become live again (roots are the caller's).
    pub(crate) fn splice(&mut self) {
        self.nodes.splice();
        self.derivations.splice();
        self.children.splice();
    }

    /// Ends a re-run: drops whatever recorded suffix it did not reach.
    pub(crate) fn seal(&mut self) {
        self.nodes.seal();
        self.derivations.seal();
        self.children.seal();
    }

    /// `true` if any node has more than one derivation (the sentence or a
    /// part of it is ambiguous).
    pub fn is_ambiguous(&self) -> bool {
        self.roots.len() > 1
            || self
                .nodes
                .iter()
                .any(|n| n.first_derivation != NO_DERIVATION && n.first_derivation != n.last_derivation)
    }

    /// Counts the number of distinct parse trees of the whole sentence,
    /// saturating at `limit` (ambiguity can be exponential). Cyclic
    /// derivations (possible with cyclic grammars) also saturate.
    pub fn tree_count(&self, limit: usize) -> usize {
        let mut memo: HashMap<NodeId, usize> = HashMap::new();
        let mut in_progress = vec![false; self.nodes.len()];
        let mut total = 0usize;
        for &root in &self.roots {
            total = total.saturating_add(self.count_node(root, limit, &mut memo, &mut in_progress));
            if total >= limit {
                return limit;
            }
        }
        total.min(limit)
    }

    fn count_node(
        &self,
        id: NodeId,
        limit: usize,
        memo: &mut HashMap<NodeId, usize>,
        in_progress: &mut [bool],
    ) -> usize {
        if let Some(&c) = memo.get(&id) {
            return c;
        }
        if in_progress[id.index()] {
            // Cycle: infinitely many trees; saturate.
            return limit;
        }
        in_progress[id.index()] = true;
        let mut count = 0usize;
        for derivation in self.derivations(id) {
            let mut per_derivation = 1usize;
            for child in derivation.children {
                if let ForestRef::Node(n) = child {
                    per_derivation = per_derivation
                        .saturating_mul(self.count_node(*n, limit, memo, in_progress));
                    if per_derivation >= limit {
                        per_derivation = limit;
                        break;
                    }
                }
            }
            count = count.saturating_add(per_derivation);
            if count >= limit {
                count = limit;
                break;
            }
        }
        in_progress[id.index()] = false;
        memo.insert(id, count);
        count
    }

    /// Extracts one parse tree (the first derivation everywhere). Returns
    /// `None` if the forest has no root.
    pub fn first_tree(&self) -> Option<ParseTree> {
        let &root = self.roots.first()?;
        Some(self.build_tree(root, &mut 0))
    }

    fn build_tree(&self, id: NodeId, depth_guard: &mut usize) -> ParseTree {
        *depth_guard += 1;
        let derivation = self
            .derivations(id)
            .next()
            .expect("forest nodes reachable from a root always have a derivation");
        ParseTree::Node {
            rule: derivation.rule,
            children: derivation
                .children
                .iter()
                .map(|c| match c {
                    ForestRef::Leaf { symbol, position } => ParseTree::Leaf {
                        symbol: *symbol,
                        position: *position,
                    },
                    ForestRef::Node(n) => self.build_tree(*n, depth_guard),
                })
                .collect(),
        }
    }

    /// Enumerates up to `limit` complete parse trees of the sentence.
    pub fn trees(&self, limit: usize) -> Vec<ParseTree> {
        let mut out = Vec::new();
        for &root in &self.roots {
            self.enumerate(root, limit, &mut out, &mut Vec::new());
            if out.len() >= limit {
                break;
            }
        }
        out.truncate(limit);
        out
    }

    fn enumerate(
        &self,
        id: NodeId,
        limit: usize,
        out: &mut Vec<ParseTree>,
        visiting: &mut Vec<NodeId>,
    ) {
        let trees = self.trees_of_node(id, limit, visiting);
        out.extend(trees);
    }

    fn trees_of_node(&self, id: NodeId, limit: usize, visiting: &mut Vec<NodeId>) -> Vec<ParseTree> {
        if visiting.contains(&id) {
            // Break cycles: a cyclic derivation contributes no finite tree.
            return Vec::new();
        }
        visiting.push(id);
        let mut results = Vec::new();
        'derivations: for derivation in self.derivations(id) {
            // Cartesian product of children alternatives, bounded by limit.
            let mut partials: Vec<Vec<ParseTree>> = vec![Vec::new()];
            for child in derivation.children {
                let child_trees = match child {
                    ForestRef::Leaf { symbol, position } => vec![ParseTree::Leaf {
                        symbol: *symbol,
                        position: *position,
                    }],
                    ForestRef::Node(n) => self.trees_of_node(*n, limit, visiting),
                };
                if child_trees.is_empty() && matches!(child, ForestRef::Node(_)) {
                    continue 'derivations;
                }
                let mut next = Vec::new();
                for prefix in &partials {
                    for t in &child_trees {
                        let mut p = prefix.clone();
                        p.push(t.clone());
                        next.push(p);
                        if next.len() >= limit {
                            break;
                        }
                    }
                    if next.len() >= limit {
                        break;
                    }
                }
                partials = next;
            }
            for children in partials {
                results.push(ParseTree::Node {
                    rule: derivation.rule,
                    children,
                });
                if results.len() >= limit {
                    break;
                }
            }
            if results.len() >= limit {
                break;
            }
        }
        visiting.pop();
        results
    }

    /// Renders a summary of the forest (node count, root count, ambiguity).
    pub fn summary(&self, grammar: &Grammar) -> String {
        format!(
            "forest: {} nodes, {} derivations, {} root(s), ambiguous: {}, root symbol(s): {}",
            self.num_nodes(),
            self.num_derivations(),
            self.roots.len(),
            self.is_ambiguous(),
            self.roots
                .iter()
                .map(|&r| grammar.name(self.node(r).symbol).to_owned())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// Iterator over the packed derivations of one forest node.
#[derive(Clone, Debug)]
pub struct Derivations<'f> {
    forest: &'f Forest,
    next: u32,
}

impl<'f> Iterator for Derivations<'f> {
    type Item = Derivation<'f>;

    fn next(&mut self) -> Option<Derivation<'f>> {
        if self.next == NO_DERIVATION {
            return None;
        }
        let slot = self.forest.derivations[self.next as usize];
        self.next = slot.next;
        Some(Derivation {
            rule: slot.rule,
            children: self.forest.children_of(slot),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_grammar::fixtures;

    use ipg_grammar::Grammar;

    /// Builds by hand the forest for `true or false` (unambiguous).
    fn simple_forest() -> (Grammar, Forest) {
        let g = fixtures::booleans();
        let b = g.symbol("B").unwrap();
        let t = g.symbol("true").unwrap();
        let f = g.symbol("false").unwrap();
        let or = g.symbol("or").unwrap();
        let r_true = g.find_rule(b, &[t]).unwrap();
        let r_false = g.find_rule(b, &[f]).unwrap();
        let r_or = g.find_rule(b, &[b, or, b]).unwrap();

        let mut forest = Forest::new();
        let n_true = forest.node_for(b, 0, 1);
        forest.add_derivation(n_true, r_true, &[ForestRef::Leaf { symbol: t, position: 0 }]);
        let n_false = forest.node_for(b, 2, 3);
        forest.add_derivation(n_false, r_false, &[ForestRef::Leaf { symbol: f, position: 2 }]);
        let n_root = forest.node_for(b, 0, 3);
        forest.add_derivation(
            n_root,
            r_or,
            &[
                ForestRef::Node(n_true),
                ForestRef::Leaf { symbol: or, position: 1 },
                ForestRef::Node(n_false),
            ],
        );
        forest.add_root(n_root);
        (g, forest)
    }

    #[test]
    fn node_sharing_by_span() {
        let (g, mut forest) = simple_forest();
        let b = g.symbol("B").unwrap();
        let again = forest.node_for(b, 0, 1);
        assert_eq!(forest.num_nodes(), 3);
        assert_eq!(forest.node(again).start, 0);
    }

    #[test]
    fn unambiguous_forest_counts_one_tree() {
        let (_, forest) = simple_forest();
        assert!(!forest.is_ambiguous());
        assert_eq!(forest.tree_count(100), 1);
        assert_eq!(forest.trees(10).len(), 1);
    }

    #[test]
    fn first_tree_matches_expected_shape() {
        let (g, forest) = simple_forest();
        let tree = forest.first_tree().unwrap();
        assert_eq!(tree.to_sexpr(&g), "(B (B true) or (B false))");
        assert_eq!(tree.leaf_count(), 3);
    }

    #[test]
    fn duplicate_derivations_are_packed() {
        let (g, mut forest) = simple_forest();
        let b = g.symbol("B").unwrap();
        let t = g.symbol("true").unwrap();
        let r_true = g.find_rule(b, &[t]).unwrap();
        let n = forest.node_for(b, 0, 1);
        let before = forest.num_derivations();
        forest.add_derivation(n, r_true, &[ForestRef::Leaf { symbol: t, position: 0 }]);
        assert_eq!(forest.num_derivations(), before);
    }

    #[test]
    fn ambiguity_is_detected_and_counted() {
        // Two derivations of the root span -> 2 trees.
        let (g, mut forest) = simple_forest();
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        let r_and = g.find_rule(b, &[b, and, b]).unwrap();
        let n_true = forest.node_for(b, 0, 1);
        let n_false = forest.node_for(b, 2, 3);
        let root = forest.node_for(b, 0, 3);
        forest.add_derivation(
            root,
            r_and,
            &[
                ForestRef::Node(n_true),
                ForestRef::Leaf { symbol: and, position: 1 },
                ForestRef::Node(n_false),
            ],
        );
        assert!(forest.is_ambiguous());
        assert_eq!(forest.tree_count(100), 2);
        assert_eq!(forest.trees(100).len(), 2);
        assert_eq!(forest.trees(1).len(), 1, "enumeration respects the limit");
        let summary = forest.summary(&g);
        assert!(summary.contains("ambiguous: true"));
    }

    #[test]
    fn derivations_iterate_in_insertion_order() {
        let (g, mut forest) = simple_forest();
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        let t = g.symbol("true").unwrap();
        let r_and = g.find_rule(b, &[b, and, b]).unwrap();
        let r_true = g.find_rule(b, &[t]).unwrap();
        let root = forest.roots()[0];
        let n_true = forest.node_for(b, 0, 1);
        forest.add_derivation(
            root,
            r_and,
            &[
                ForestRef::Node(n_true),
                ForestRef::Leaf { symbol: and, position: 1 },
                ForestRef::Node(n_true),
            ],
        );
        let rules: Vec<_> = forest.derivations(root).map(|d| d.rule).collect();
        // The `or` derivation was added first and stays first (first_tree
        // depends on this order being stable).
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[1], r_and);
        assert_ne!(rules[0], rules[1]);
        assert_eq!(forest.derivations(n_true).next().unwrap().rule, r_true);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_content() {
        let (g, mut forest) = simple_forest();
        assert!(forest.num_nodes() > 0);
        forest.clear();
        assert_eq!(forest.num_nodes(), 0);
        assert_eq!(forest.num_derivations(), 0);
        assert!(forest.roots().is_empty());
        assert!(forest.first_tree().is_none());
        // The span index was cleared too: re-interning starts fresh.
        let b = g.symbol("B").unwrap();
        let n = forest.node_for(b, 0, 1);
        assert_eq!(n.index(), 0);
    }

    #[test]
    fn empty_forest_has_no_trees() {
        let forest = Forest::new();
        assert!(forest.first_tree().is_none());
        assert_eq!(forest.tree_count(10), 0);
        assert!(forest.trees(10).is_empty());
        assert!(!forest.is_ambiguous());
    }
}
