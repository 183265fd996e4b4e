//! A Tomita-style parser over a *graph-structured stack* (GSS).
//!
//! The paper's `PAR-PARSE` (see [`crate::pool`]) copies whole parsers; this
//! module is the optimised formulation Tomita/Rekers actually use for real
//! workloads: parse stacks of all parallel parsers are merged into a graph,
//! reductions are applied path-wise, and every reduction records its
//! derivation in a shared [`Forest`]. The observable language is the same;
//! the ablation benchmark compares the two.
//!
//! ## Hot-loop engineering
//!
//! Every piece of per-parse scratch lives in a reusable [`ParseCtx`]: GSS
//! node and edge pools, the double-buffered dense frontiers, the edge
//! de-duplication set, pending-reduction and path buffers, the ACTION cell
//! and the forest arena. A driver run resets the context (O(live entries),
//! no frees) and rebuilds into the warm pools, so a request served through
//! a recycled context performs **zero heap allocations** once the pools
//! have grown to the workload's size. The one-shot [`GssParser::parse`] /
//! [`GssParser::recognize`] conveniences allocate a fresh context per call;
//! serving layers hold onto contexts and use [`GssParser::run`].
//!
//! ## One entry point
//!
//! [`GssParser::run`] takes a [`GssRun`] descriptor: the terminals to read,
//! whether to build a forest, an optional [`ParseHistory`] to record into
//! or resume from, and a [`ParseBudget`] that every run has
//! ([`ParseBudget::UNLIMITED`] unless set). Its constructors admit only
//! the runs that exist: [`GssRun::parse`] and [`GssRun::recognize`] of any
//! [`TokenSource`], and [`GssRun::record`] and [`GssRun::resume`] of an
//! in-memory token sequence, both with a forest. [`GssParser::parse_into`]
//! is the unbudgeted slice parse the tests and benches use as an oracle.
//!
//! ## Streaming input
//!
//! The driver pulls terminals from a [`TokenSource`] instead of indexing a
//! slice: an in-memory sentence ([`SliceTokens`]) and a scanner lexing raw
//! text drive the same loop, which is how the serving layer fuses
//! tokenization into the parse without materialising a token vector per
//! request.
//!
//! ## Incremental re-parse
//!
//! [`GssRun::record`] additionally records a [`ParseHistory`]:
//! one checkpoint per token position, taken at the top of the driver
//! loop, holding the pool watermarks (GSS nodes/edges, forest
//! nodes/derivations/children) plus a snapshot of the current frontier
//! (each node's state and edge-list head). Two lookup tables stay at
//! frontier width: edges only ever leave current nodes and forest spans
//! are only ever interned at the position they end, so the driver forgets
//! each position's edge keys and spans as it moves on. A rollback
//! therefore has nothing to un-see — it only moves watermarks.
//!
//! When the token sequence is edited, [`GssRun::resume`] takes the edit's
//! [`TokenEdit`] extent and re-parses in four steps:
//!
//! 1. **Rewind.** Roll the context back to the checkpoint at the leftmost
//!    damaged position: move every pool's write cursor back to the
//!    checkpoint's watermark (keeping the recorded suffix beyond it), cut
//!    the damage frontier's edge lists back to their recorded heads and
//!    rebuild the dense frontier in its recorded insertion order. The
//!    rolled-back state is *exactly* the state a cold parse of the edited
//!    sequence reaches at that position. The re-run overwrites recorded
//!    slots one by one; when it ends without converging, the recorded
//!    suffix it did not reach is dropped. An edit that changes the token
//!    count stops here: it replays the ordinary loop to the end.
//! 2. **Log.** An edit that keeps the token count also has the GSS node,
//!    GSS edge and forest-node pools log each recorded value they
//!    overwrite, so the log costs O(re-run).
//! 3. **Converge.** At each loop top past the edit, where the remaining
//!    tokens equal the recorded run's, the run has converged when every
//!    pool sits at the recorded checkpoint's watermark, the frontier
//!    `(state, node, edge head)` entries match, and every GSS node and edge
//!    reachable from the frontier that the re-run wrote equals its logged
//!    recorded value (as do the forest spans their labels name). That is
//!    all the rest of the run can read, so it would rewrite the recorded
//!    suffix slot for slot (Wagner & Graham's state matching, TOPLAS 1998).
//!    Nodes below the frontier no longer change, so the walk memoizes a
//!    verdict per node and each check costs only what is new.
//! 4. **Splice.** On convergence the frontier nodes get their recorded
//!    edge heads back, every pool its recorded length, the forest its
//!    recorded roots, and the run returns the recorded verdict.
//!
//! Either way the resumed parse is bit-identical to a cold parse of the
//! edited sequence: same forest node ids, same packed derivations, same
//! roots, same history. Everything left of the damage — and, on
//! convergence, everything right of it — is reused, not rebuilt.

use ipg_grammar::{Grammar, RuleId, SymbolId};
use ipg_lr::{ActionCell, ParserTables, StateId};

use crate::budget::{BudgetGuard, ExhaustReason, ParseBudget};
use crate::forest::{Forest, ForestRef, NodeId};
use crate::fxhash::FxHashSet;
use crate::rewind::RewindVec;
use crate::source::{SliceTokens, TokenSource};

/// Statistics about one GSS parse, used by tests and the ablation bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GssStats {
    /// Number of GSS nodes created.
    pub nodes: usize,
    /// Number of GSS edges created.
    pub edges: usize,
    /// Number of reductions performed (paths reduced).
    pub reductions: usize,
    /// Number of shift actions performed.
    pub shifts: usize,
}

/// The result of a GSS parse: acceptance flag, shared forest and stats.
#[derive(Clone, Debug)]
pub struct GssParseResult {
    /// Whether the input is a sentence of the language.
    pub accepted: bool,
    /// The shared parse forest; `roots()` is empty iff the input was
    /// rejected.
    pub forest: Forest,
    /// Work counters.
    pub stats: GssStats,
    /// The grammar version of the table handle the parse ran against
    /// ([`ParserTables::grammar_version`]). Serving layers that keep
    /// several grammar epochs alive concurrently use this tag to match a
    /// result to the exact table state that produced it.
    pub grammar_version: u64,
}

/// The borrowed-forest result of a context-driven parse: everything
/// [`GssParseResult`] carries except the forest, which stays in the
/// [`ParseCtx`] (read it with [`ParseCtx::forest`]) so that recycled
/// contexts keep their arena capacity across requests.
///
/// A run under a limited budget ([`GssRun::budget`]) may stop
/// cooperatively mid-parse, reporting the limit that tripped
/// ([`ParseOutcome::exhausted`]); the context then holds a *partial*
/// GSS/forest and must be reset (or quarantined) before reuse.
#[derive(Clone, Copy, Debug)]
pub struct ParseOutcome {
    accepted: bool,
    exhausted: Option<ExhaustReason>,
    stats: GssStats,
    grammar_version: u64,
}

impl ParseOutcome {
    /// Whether the input was accepted. An exhausted parse reached no
    /// verdict and reports `false`.
    pub fn accepted(&self) -> bool {
        self.accepted
    }

    /// Work counters (up to the cutoff, for an exhausted parse).
    pub fn stats(&self) -> GssStats {
        self.stats
    }

    /// The grammar version of the table handle the parse ran against.
    pub fn grammar_version(&self) -> u64 {
        self.grammar_version
    }

    /// The first budget limit that cut the parse off before it reached a
    /// verdict, if any.
    pub fn exhausted(&self) -> Option<ExhaustReason> {
        self.exhausted
    }

    /// Packages the outcome with an owned forest as a [`GssParseResult`]
    /// (callers clone or take the context's forest). An exhausted outcome
    /// packages as a rejection — serving layers surface exhaustion as an
    /// error before ever reaching this.
    pub fn into_result(self, forest: Forest) -> GssParseResult {
        GssParseResult {
            accepted: self.accepted(),
            forest,
            stats: self.stats(),
            grammar_version: self.grammar_version(),
        }
    }
}

/// Sentinel for "no edge" in the pooled edge lists.
const NO_EDGE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GssNode {
    state: StateId,
    level: usize,
    /// Head of this node's edge list in the shared pool.
    first_edge: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GssEdge {
    target: u32,
    /// Next edge of the same source node (`NO_EDGE` terminates).
    next: u32,
    /// The forest slice the edge spans.
    label: ForestRef,
}

/// A pending reduction: reduce `rule` from `node`, optionally restricted to
/// paths whose first edge is `via` (used when a new edge is added to an
/// already-processed node, Farshi's correction to Tomita's algorithm).
#[derive(Clone, Copy, Debug)]
struct PendingReduction {
    node: u32,
    rule: RuleId,
    via: Option<(u32, ForestRef)>,
}

/// A reusable dense `state -> GSS node` map for one input position. Lookup
/// is an array load; clearing walks only the entries actually inserted.
#[derive(Debug, Default)]
struct Frontier {
    /// `state index -> node + 1` (0 = absent).
    slots: Vec<u32>,
    /// Insertion-ordered `(state, node)` pairs for iteration and clearing.
    entries: Vec<(StateId, u32)>,
}

impl Frontier {
    #[inline]
    fn get(&self, state: StateId) -> Option<u32> {
        match self.slots.get(state.index()) {
            Some(&v) if v != 0 => Some(v - 1),
            _ => None,
        }
    }

    #[inline]
    fn insert(&mut self, state: StateId, node: u32) {
        let i = state.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, 0);
        }
        debug_assert_eq!(self.slots[i], 0, "frontier holds one node per state");
        self.slots[i] = node + 1;
        self.entries.push((state, node));
    }

    fn clear(&mut self) {
        for &(state, _) in &self.entries {
            self.slots[state.index()] = 0;
        }
        self.entries.clear();
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Packs a [`ForestRef`] into a hashable/dedupable key.
#[inline]
fn label_key(label: ForestRef) -> u64 {
    match label {
        ForestRef::Leaf { symbol, position } => {
            (1 << 63) | ((symbol.index() as u64) << 32) | position as u64
        }
        ForestRef::Node(node) => node.index() as u64,
    }
}

/// One per-token snapshot of the driver's state, taken at the top of the
/// loop (before the token at that position is read): all pools are
/// append-only between checkpoints, so a watermark per pool plus the
/// frontier's edge-list heads is enough to roll back exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Checkpoint {
    nodes: u32,
    edges: u32,
    forest_nodes: u32,
    forest_derivations: u32,
    forest_children: u32,
    /// Slice of [`ParseHistory::frontier`] holding this position's
    /// frontier snapshot.
    frontier_start: u32,
    frontier_len: u32,
}

/// The recorded checkpoints of one [`GssRun::record`] run, enabling
/// [`GssRun::resume`] to re-parse an edited token
/// sequence from the leftmost damaged position instead of from scratch.
///
/// A history is only meaningful together with the [`ParseCtx`] it was
/// recorded into and the tables it was recorded against; resuming with a
/// mismatched context or table state is a logic error (serving layers
/// guard this with their epoch tags and fall back to a full parse).
#[derive(Clone, Debug, Default)]
pub struct ParseHistory {
    /// One checkpoint per position up to and including the last one the
    /// run reached: the token count when it parsed to the end-marker, or
    /// the position where every parallel parser died.
    checkpoints: RewindVec<Checkpoint>,
    /// Flat pool of frontier snapshots: `(state, node, saved edge-list
    /// head)` in the frontier's insertion order, which the rollback
    /// replays so the resumed run visits nodes in the same order a cold
    /// parse would.
    frontier: RewindVec<(StateId, u32, u32)>,
    /// The verdict of the recorded run.
    accepted: bool,
}

impl ParseHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the history while keeping pool capacity.
    pub fn clear(&mut self) {
        self.checkpoints.clear();
        self.frontier.clear();
        self.accepted = false;
    }

    /// The furthest token position this history can resume from: the
    /// position of the last recorded checkpoint (see [`GssRun::resume`],
    /// which clamps the damage position to this).
    pub fn end_pos(&self) -> usize {
        self.checkpoints.len().saturating_sub(1)
    }

    /// Records the checkpoint for token position `pos` (loop top: pending
    /// reductions empty, frontier = `entries`).
    fn record(&mut self, pos: usize, nodes: &[GssNode], edges_len: usize, forest: &Forest, entries: &[(StateId, u32)]) {
        debug_assert_eq!(self.checkpoints.len(), pos, "one checkpoint per position");
        let frontier_start = self.frontier.len() as u32;
        for &(state, node) in entries {
            self.frontier.push((state, node, nodes[node as usize].first_edge));
        }
        self.checkpoints.push(Checkpoint {
            nodes: nodes.len() as u32,
            edges: edges_len as u32,
            forest_nodes: forest.num_nodes() as u32,
            forest_derivations: forest.num_derivations() as u32,
            forest_children: forest.num_children() as u32,
            frontier_start,
            frontier_len: entries.len() as u32,
        });
    }
}

/// The token extent of one edit: `old_len` tokens at `start` were
/// replaced by `new_len` tokens, and everything after them is unchanged.
/// [`GssRun::resume`] re-runs from `start`; when the edit keeps
/// the token count it also watches for convergence past `start + new_len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TokenEdit {
    /// Leftmost damaged token position (tokens before it are unchanged).
    pub start: usize,
    /// Tokens of the previous sequence the edit replaced.
    pub old_len: usize,
    /// Tokens the edit put in their place.
    pub new_len: usize,
}

impl TokenEdit {
    fn keeps_length(&self) -> bool {
        self.old_len == self.new_len
    }
}

/// Memo of the convergence walk, per GSS node the re-run may have touched.
const UNKNOWN: u8 = 0;
const MATCHES: u8 = 1;
const DIFFERS: u8 = 2;
const VISITING: u8 = 3;

/// The bookkeeping of a same-length resume: where the pools were rewound
/// to, what the recorded run ended with, and what the convergence walk has
/// already established.
#[derive(Debug, Default)]
struct Splice {
    active: bool,
    /// Where the last resume converged, if it did.
    converged_at: Option<usize>,
    /// Loop-top positions from here on are past the edit: their tokens,
    /// and all later ones, equal the recorded run's.
    check_from: usize,
    /// First GSS node the re-run may modify (the damage frontier's first).
    nodes_base: u32,
    /// First GSS edge the re-run writes.
    edges_base: u32,
    /// First forest node the re-run writes.
    forest_base: u32,
    /// The recorded run's roots, restored on convergence.
    roots: Vec<NodeId>,
    /// Per node `nodes_base + i` below the frontier: whether it, its
    /// edges and everything reachable from it equal the recorded run.
    /// Such nodes no longer change, so a verdict holds for the whole run.
    verdicts: Vec<u8>,
    /// Walk stack: `(node, next edge to compare)`.
    stack: Vec<(u32, u32)>,
}

impl Splice {
    /// Whether the run, at the top of the loop for `pos`, is in exactly the
    /// state the recorded run was in there: every pool at the recorded
    /// watermark, the same frontier, and every GSS node and edge reachable
    /// from it (plus the forest spans their labels name) equal to the
    /// recorded values. Everything later in the run reads only that state
    /// and the (unchanged) remaining tokens, so it would rewrite the
    /// recorded suffix slot for slot.
    fn converged(
        &mut self,
        pos: usize,
        nodes: &RewindVec<GssNode>,
        edges: &RewindVec<GssEdge>,
        forest: &Forest,
        history: &ParseHistory,
        frontier: &[(StateId, u32)],
    ) -> bool {
        if pos < self.check_from {
            return false;
        }
        let Some(old) = history.checkpoints.recorded(pos) else {
            return false;
        };
        if old.nodes as usize != nodes.len()
            || old.edges as usize != edges.len()
            || old.forest_nodes as usize != forest.num_nodes()
            || old.forest_derivations as usize != forest.num_derivations()
            || old.forest_children as usize != forest.num_children()
            || old.frontier_start as usize != history.frontier.len()
            || old.frontier_len as usize != frontier.len()
        {
            return false;
        }
        for (i, &(state, node)) in frontier.iter().enumerate() {
            let head = nodes[node as usize].first_edge;
            if history.frontier.recorded(old.frontier_start as usize + i) != Some((state, node, head)) {
                return false;
            }
        }
        frontier
            .iter()
            .all(|&(_, node)| self.reachable_matches(node, nodes, edges, forest))
    }

    /// Walks everything reachable from frontier node `root` that the re-run
    /// wrote, comparing it with the recorded values. Edges left of
    /// `edges_base` and nodes left of `nodes_base` are recorded-run data
    /// the re-run never touched, so the walk stops there.
    fn reachable_matches(
        &mut self,
        root: u32,
        nodes: &RewindVec<GssNode>,
        edges: &RewindVec<GssEdge>,
        forest: &Forest,
    ) -> bool {
        debug_assert!(self.stack.is_empty());
        self.stack.push((root, nodes[root as usize].first_edge));
        while let Some(top) = self.stack.last_mut() {
            let (node, e) = *top;
            if e == NO_EDGE || e < self.edges_base {
                self.stack.pop();
                // The root is current: it still gains edges, so only the
                // nodes below it get a lasting verdict.
                if !self.stack.is_empty() {
                    self.verdicts[(node - self.nodes_base) as usize] = MATCHES;
                }
                continue;
            }
            let edge = edges[e as usize];
            top.1 = edge.next;
            let span_matches = match edge.label {
                ForestRef::Node(id) if id.index() >= self.forest_base as usize => {
                    let node = forest.node(id);
                    forest.recorded_span(id) == Some((node.symbol, node.start, node.end))
                }
                _ => true,
            };
            if edges.recorded(e as usize) != Some(edge) || !span_matches {
                return self.differs();
            }
            let target = edge.target;
            if target < self.nodes_base {
                continue;
            }
            let slot = (target - self.nodes_base) as usize;
            if slot >= self.verdicts.len() {
                self.verdicts.resize(nodes.len() - self.nodes_base as usize, UNKNOWN);
            }
            match self.verdicts[slot] {
                MATCHES => continue,
                // A cycle (cyclic grammars only) is conservatively a
                // mismatch: the run then simply replays to the end.
                DIFFERS | VISITING => return self.differs(),
                _ => {}
            }
            let current = nodes[target as usize];
            if nodes.recorded(target as usize) != Some(current) {
                self.verdicts[slot] = DIFFERS;
                return self.differs();
            }
            self.verdicts[slot] = VISITING;
            self.stack.push((target, current.first_edge));
        }
        true
    }

    /// Fails the walk: every node on the stack below the root reaches the
    /// mismatch, for good.
    fn differs(&mut self) -> bool {
        for &(node, _) in &self.stack[1..] {
            self.verdicts[(node - self.nodes_base) as usize] = DIFFERS;
        }
        self.stack.clear();
        false
    }
}

/// All per-parse scratch of the GSS driver, reusable across parses.
///
/// A context is plain owned memory — it is not tied to a grammar, a table
/// or a server, so one context can serve parses against different grammar
/// versions back to back (the driver resets it at the start of every run).
/// Serving layers keep one per worker and recycle it request after
/// request; everything inside keeps its capacity across
/// [`ParseCtx::reset`], which is what makes the warm request path
/// allocation-free.
#[derive(Debug, Default)]
pub struct ParseCtx {
    nodes: RewindVec<GssNode>,
    edges: RewindVec<GssEdge>,
    /// Edge de-duplication for the current position: `(from, to, label)`.
    /// Edges only ever leave current nodes, so the driver forgets each
    /// position's keys as it moves on.
    seen_edges: FxHashSet<(u32, u32, u64)>,
    /// Double-buffered frontiers for the current/next input position.
    cur: Frontier,
    nxt: Frontier,
    pending: Vec<PendingReduction>,
    /// Flat scratch for reduction-path enumeration.
    path_ends: Vec<u32>,
    path_labels: Vec<ForestRef>,
    dfs_labels: Vec<ForestRef>,
    /// Scratch for one derivation's (reversed) children.
    children: Vec<ForestRef>,
    /// Reusable ACTION cell: the tables fill it in place, so steady-state
    /// queries against a warm (or shared, concurrently served) table do
    /// not allocate.
    actions: ActionCell,
    /// Nodes in which an accept action was seen; their root edges are
    /// collected at the very end, after all reductions have added edges.
    accepting: Vec<u32>,
    /// The forest arena derivations are recorded into.
    forest: Forest,
    /// State of a same-length resume in progress.
    splice: Splice,
}

impl ParseCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all parse scratch while keeping every pool's capacity. The
    /// driver calls this at the start of every fresh run; it is idempotent.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.edges.clear();
        self.seen_edges.clear();
        self.cur.clear();
        self.nxt.clear();
        self.pending.clear();
        self.path_ends.clear();
        self.path_labels.clear();
        self.dfs_labels.clear();
        self.children.clear();
        self.actions.clear();
        self.accepting.clear();
        self.forest.clear();
        self.splice.active = false;
        self.splice.converged_at = None;
    }

    /// The forest of the most recent parse run in this context (empty
    /// after a recognition-only run or a reset).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Where the most recent run, a [`GssRun::resume`], converged with the
    /// recorded run and kept the recorded suffix; `None` when it replayed
    /// to the end or was not a resume.
    pub fn converged_at(&self) -> Option<usize> {
        self.splice.converged_at
    }

    /// Moves the forest out of the context, leaving an empty one behind.
    /// The one-shot parse conveniences use this to build an owned
    /// [`GssParseResult`]; recycled contexts should prefer cloning via
    /// [`ParseCtx::forest`] so the arena keeps its capacity.
    pub fn take_forest(&mut self) -> Forest {
        std::mem::take(&mut self.forest)
    }

    /// Rolls this context back to the state `history` recorded at token
    /// position `pos`, so that it is bit-identical to a cold parse of the
    /// same token prefix paused at the top of the loop for `pos`.
    ///
    /// Every pool (and the history) is rewound to the checkpoint, keeping
    /// the recorded suffix beyond it; whatever suffix the re-run does not
    /// reach is dropped when it ends. A same-length `edit` additionally
    /// logs the overwritten values and arms the convergence check.
    fn restore(&mut self, history: &mut ParseHistory, pos: usize, edit: TokenEdit) {
        let cp = history.checkpoints[pos];
        let fr_start = cp.frontier_start as usize;
        let fr_end = fr_start + cp.frontier_len as usize;
        debug_assert!(self.seen_edges.is_empty(), "keys are forgotten at every position");
        let same_length = edit.keeps_length();
        // The damage frontier was the last thing the shifter created before
        // the checkpoint; its nodes are the only older ones the re-run
        // modifies (by adding this position's edges to them).
        let touched_from = cp.nodes - cp.frontier_len;
        self.nodes
            .rewind(cp.nodes as usize, same_length.then_some(touched_from as usize));
        self.edges
            .rewind(cp.edges as usize, same_length.then_some(cp.edges as usize));
        let splice = &mut self.splice;
        splice.active = same_length;
        splice.converged_at = None;
        splice.check_from = edit.start + edit.new_len;
        splice.nodes_base = touched_from;
        splice.edges_base = cp.edges;
        splice.forest_base = cp.forest_nodes;
        splice.roots.clear();
        splice.roots.extend_from_slice(self.forest.roots());
        splice.verdicts.clear();
        self.forest.rewind(
            cp.forest_nodes as usize,
            cp.forest_derivations as usize,
            cp.forest_children as usize,
            same_length,
        );

        // Rebuild the dense frontier for `pos` in recorded insertion order,
        // with each node's edge list cut back to its recorded head;
        // everything else at loop top is empty.
        self.cur.clear();
        self.nxt.clear();
        self.pending.clear();
        self.accepting.clear();
        for &(state, node, head) in &history.frontier[fr_start..fr_end] {
            debug_assert!(node >= touched_from);
            self.nodes[node as usize].first_edge = head;
            self.cur.insert(state, node);
        }

        // The resumed run re-records the checkpoints from `pos` on
        // (identically for `pos` itself).
        history.checkpoints.rewind(pos, None);
        history.frontier.rewind(fr_start, None);
    }
}

// Contexts hop between pool slots and worker threads.
#[allow(dead_code)]
fn _assert_ctx_is_send() {
    fn is_send<T: Send>() {}
    is_send::<ParseCtx>();
}

/// One run of the GSS driver, for [`GssParser::run`]: the terminals to
/// read, whether to build a forest, the history to record into or resume
/// from, and a [`ParseBudget`] ([`ParseBudget::UNLIMITED`] unless
/// [`GssRun::budget`] sets one). The constructors admit only the runs
/// that exist: recording and resuming build a forest and read an
/// in-memory token sequence.
#[derive(Debug)]
pub struct GssRun<'a, S> {
    source: S,
    mode: RunMode<'a>,
    budget: ParseBudget,
}

#[derive(Debug)]
enum RunMode<'a> {
    Recognize,
    Parse,
    Record(&'a mut ParseHistory),
    /// Roll back to the checkpoint at `from`, then re-run.
    Resume(&'a mut ParseHistory, TokenEdit, usize),
}

impl<'a, S: TokenSource> GssRun<'a, S> {
    fn new(source: S, mode: RunMode<'a>) -> Self {
        let budget = ParseBudget::UNLIMITED;
        GssRun { source, mode, budget }
    }

    /// Parses `source`, building the shared forest in the context's arena.
    pub fn parse(source: S) -> Self {
        Self::new(source, RunMode::Parse)
    }

    /// Recognises `source`: the same graph-structured stack, but no forest
    /// nodes or packed derivations.
    pub fn recognize(source: S) -> Self {
        Self::new(source, RunMode::Recognize)
    }

    /// Runs under `budget`: the driver checks it every
    /// [`crate::budget::BUDGET_CHECK_STRIDE`] work units and stops
    /// ([`ParseOutcome::exhausted`]) when a limit trips, leaving a partial
    /// GSS, forest and history behind. Callers must reset or discard them.
    pub fn budget(self, budget: ParseBudget) -> Self {
        GssRun { budget, ..self }
    }
}

impl<'a> GssRun<'a, SliceTokens<'a>> {
    /// Parses `tokens` while recording a per-token [`ParseHistory`]
    /// (cleared first) into `history`, for a later [`GssRun::resume`].
    pub fn record(tokens: &'a [SymbolId], history: &'a mut ParseHistory) -> Self {
        Self::new(SliceTokens::new(tokens), RunMode::Record(history))
    }

    /// Re-parses the edited sequence `tokens` from the recorded checkpoint
    /// at `edit.start` (clamped to the history's reach and the new length).
    /// When the edit keeps the token count, the run stops at the first
    /// position past the edit where its state provably equals the recorded
    /// run's (see the module docs) and keeps the recorded suffix
    /// ([`ParseCtx::converged_at`]); other edits replay to the end. The
    /// outcome's [`GssStats`] count only the re-run portion.
    ///
    /// Requirements: the context and `history` hold the previous recorded
    /// or resumed run against the same table state, and `edit` describes
    /// how `tokens` differs from its sequence. The result is then
    /// bit-identical to a cold [`GssRun::record`] of `tokens`, ready for
    /// the next resume.
    pub fn resume(tokens: &'a [SymbolId], history: &'a mut ParseHistory, edit: TokenEdit) -> Self {
        let from = edit.start.min(history.end_pos()).min(tokens.len());
        Self::new(SliceTokens::new(&tokens[from..]), RunMode::Resume(history, edit, from))
    }
}

/// The graph-structured-stack parser.
#[derive(Debug)]
pub struct GssParser<'g> {
    grammar: &'g Grammar,
}

impl<'g> GssParser<'g> {
    /// Creates a parser for `grammar`.
    pub fn new(grammar: &'g Grammar) -> Self {
        GssParser { grammar }
    }

    /// Recognises `tokens` without building the parse forest (reductions
    /// still traverse the same graph-structured stack, but no forest nodes
    /// or packed derivations are allocated). Allocates a fresh context;
    /// see [`GssRun::recognize`] for the recycled form.
    pub fn recognize(&self, tables: &dyn ParserTables, tokens: &[SymbolId]) -> bool {
        let Ok(outcome) = self.run(&mut ParseCtx::new(), tables, GssRun::recognize(SliceTokens::new(tokens)));
        outcome.accepted()
    }

    /// Parses `tokens`, producing the shared forest of all derivations.
    /// Allocates a fresh context; see [`GssParser::parse_into`] for the
    /// recycled form.
    pub fn parse(&self, tables: &dyn ParserTables, tokens: &[SymbolId]) -> GssParseResult {
        let mut ctx = ParseCtx::new();
        let outcome = self.parse_into(&mut ctx, tables, tokens);
        outcome.into_result(ctx.take_forest())
    }

    /// Parses `tokens` in a reusable context. The forest lands in the
    /// context's arena ([`ParseCtx::forest`]); nothing is allocated when
    /// the context's pools are already large enough.
    pub fn parse_into(
        &self,
        ctx: &mut ParseCtx,
        tables: &dyn ParserTables,
        tokens: &[SymbolId],
    ) -> ParseOutcome {
        let Ok(outcome) = self.run(ctx, tables, GssRun::parse(SliceTokens::new(tokens)));
        outcome
    }

    /// Runs the driver loop as `run` describes, in a reusable context that
    /// a fresh run resets and a resume rolls back. The budget is consulted
    /// through an amortized [`BudgetGuard`] — one work unit per token and
    /// per reduction path (shifts are counted in bulk) — so the unlimited
    /// warm path pays a counter bump and a never-taken branch. A source
    /// error (e.g. a scan error in fused tokenization) aborts the run; the
    /// source is only polled as far as the parse advances, so an error
    /// beyond the point where every parallel parser died is *not* observed
    /// — the run reports a plain rejection.
    pub fn run<S: TokenSource>(
        &self,
        ctx: &mut ParseCtx,
        tables: &dyn ParserTables,
        run: GssRun<'_, S>,
    ) -> Result<ParseOutcome, S::Error> {
        let GssRun { mut source, mode, budget } = run;
        let build_forest = !matches!(mode, RunMode::Recognize);
        let (mut record, resume_at) = match mode {
            RunMode::Recognize | RunMode::Parse => (None, None),
            RunMode::Record(history) => {
                history.clear();
                (Some(history), None)
            }
            RunMode::Resume(history, edit, from) => {
                ctx.restore(history, from, edit);
                (Some(history), Some(from))
            }
        };
        if resume_at.is_none() {
            ctx.reset();
        }
        let finish = |accepted, exhausted, stats| ParseOutcome {
            accepted,
            exhausted,
            stats,
            grammar_version: tables.grammar_version(),
        };
        let eof = self.grammar.eof_symbol();
        let mut stats = GssStats::default();
        let mut accepted = false;
        let mut guard = BudgetGuard::new(budget);
        let ParseCtx {
            nodes,
            edges,
            seen_edges,
            cur,
            nxt,
            pending,
            path_ends,
            path_labels,
            dfs_labels,
            children,
            actions,
            accepting,
            forest,
            splice,
        } = ctx;

        if resume_at.is_none() {
            let start_node = push_node(nodes, &mut stats, tables.start_state(), 0);
            cur.insert(tables.start_state(), start_node);
        }
        // The start node is always node 0 (the first ever pushed), also
        // across resumed runs (a rollback never drops it).
        let start_node = 0u32;
        debug_assert!(!nodes.is_empty() && !cur.is_empty());

        let mut pos = resume_at.unwrap_or(0);
        loop {
            // Watermarks of this position's edges and forest spans, which
            // are forgotten when the loop moves on.
            let (edges_mark, spans_mark) = (edges.len(), forest.num_nodes());
            if let Some(history) = record.as_deref_mut() {
                if splice.active && splice.converged(pos, nodes, edges, forest, history, &cur.entries) {
                    // The recorded run went on to add this position's
                    // edges to the frontier nodes; keep its suffix.
                    for &(_, node) in &cur.entries {
                        let recorded = nodes.recorded(node as usize).expect("frontier node is logged");
                        nodes[node as usize].first_edge = recorded.first_edge;
                    }
                    nodes.splice();
                    edges.splice();
                    forest.splice();
                    for &root in &splice.roots {
                        forest.add_root(root);
                    }
                    history.checkpoints.splice();
                    history.frontier.splice();
                    splice.active = false;
                    splice.converged_at = Some(pos);
                    return Ok(finish(history.accepted, None, stats));
                }
                history.record(pos, nodes, edges.len(), forest, &cur.entries);
            }
            crate::fault::point("mid-gss");
            let symbol = match source.next_token()? {
                Some(symbol) => symbol,
                None => eof,
            };
            debug_assert!(self.grammar.is_terminal(symbol));
            if let Some(reason) = guard.step(
                || gss_bytes(nodes, edges),
                || forest.approx_bytes(),
            ) {
                return Ok(finish(false, Some(reason), stats));
            }

            // --- Reducer -------------------------------------------------
            debug_assert!(pending.is_empty());
            for i in 0..cur.entries.len() {
                let (state, node) = cur.entries[i];
                tables.actions_into(state, symbol, actions);
                for &rule in &actions.reductions {
                    pending.push(PendingReduction {
                        node,
                        rule,
                        via: None,
                    });
                }
                if actions.accept && symbol == eof {
                    accepted = true;
                    accepting.push(node);
                }
            }

            while let Some(reduction) = pending.pop() {
                let rule = self.grammar.rule(reduction.rule);
                let arity = rule.rhs.len();
                if arity == 0 && reduction.via.is_some() {
                    // Epsilon reductions do not traverse edges; they were
                    // already handled when the node was created.
                    continue;
                }
                path_ends.clear();
                path_labels.clear();
                find_paths(
                    nodes,
                    edges,
                    reduction.node,
                    arity,
                    reduction.via,
                    dfs_labels,
                    path_ends,
                    path_labels,
                );
                for path in 0..path_ends.len() {
                    stats.reductions += 1;
                    if let Some(reason) = guard.step(
                        || gss_bytes(nodes, edges),
                        || forest.approx_bytes(),
                    ) {
                        return Ok(finish(false, Some(reason), stats));
                    }
                    let target = path_ends[path];
                    let labels = &path_labels[path * arity..(path + 1) * arity];
                    let start_level = nodes[target as usize].level;
                    let Some(goto_state) = tables.goto(nodes[target as usize].state, rule.lhs)
                    else {
                        continue;
                    };
                    let label = if build_forest {
                        // Labels run from the reducing node outwards, i.e.
                        // rightmost child first; reverse them for the rule.
                        children.clear();
                        children.extend(labels.iter().rev().copied());
                        crate::fault::point("forest-grow");
                        let forest_node = forest.node_for(rule.lhs, start_level, pos);
                        forest.add_derivation(forest_node, reduction.rule, children);
                        ForestRef::Node(forest_node)
                    } else {
                        // Recognition only: a cheap placeholder label that
                        // still distinguishes edges by the non-terminal and
                        // span they cover (needed for edge de-duplication).
                        ForestRef::Leaf {
                            symbol: rule.lhs,
                            position: start_level,
                        }
                    };

                    if let Some(existing) = cur.get(goto_state) {
                        if add_edge(
                            nodes,
                            edges,
                            seen_edges,
                            &mut stats,
                            existing,
                            target,
                            label,
                        ) {
                            // Re-run the reductions of the existing node,
                            // restricted to paths through the new edge.
                            tables.actions_into(goto_state, symbol, actions);
                            for &rule in &actions.reductions {
                                pending.push(PendingReduction {
                                    node: existing,
                                    rule,
                                    via: Some((target, label)),
                                });
                            }
                        }
                    } else {
                        let new_node = push_node(nodes, &mut stats, goto_state, pos);
                        add_edge(
                            nodes,
                            edges,
                            seen_edges,
                            &mut stats,
                            new_node,
                            target,
                            label,
                        );
                        cur.insert(goto_state, new_node);
                        tables.actions_into(goto_state, symbol, actions);
                        for &rule in &actions.reductions {
                            pending.push(PendingReduction {
                                node: new_node,
                                rule,
                                via: None,
                            });
                        }
                        if actions.accept && symbol == eof {
                            accepted = true;
                            accepting.push(new_node);
                        }
                    }
                }
            }

            // On the end-marker there is nothing to shift; acceptance has
            // been decided above.
            if symbol == eof {
                forget_position(seen_edges, nodes, edges, &cur.entries, edges_mark, forest, spans_mark);
                break;
            }

            // --- Shifter -------------------------------------------------
            let shifts_before = stats.shifts as u64;
            let leaf = ForestRef::Leaf {
                symbol,
                position: pos,
            };
            for i in 0..cur.entries.len() {
                let (state, node) = cur.entries[i];
                tables.actions_into(state, symbol, actions);
                if let Some(next_state) = actions.shift {
                    stats.shifts += 1;
                    let target_node = match nxt.get(next_state) {
                        Some(existing) => existing,
                        None => {
                            let created =
                                push_node(nodes, &mut stats, next_state, pos + 1);
                            nxt.insert(next_state, created);
                            created
                        }
                    };
                    // Each current node shifts at most once, so a shift
                    // edge is never a duplicate (and its terminal label
                    // never equals a reduction's).
                    push_edge(nodes, edges, &mut stats, target_node, node, leaf);
                }
            }
            guard.add(stats.shifts as u64 - shifts_before);
            forget_position(seen_edges, nodes, edges, &cur.entries, edges_mark, forest, spans_mark);
            if nxt.is_empty() {
                // Every parallel parser died: the input is rejected. (The
                // accept flag can only have been set on the end-marker.)
                break;
            }
            std::mem::swap(cur, nxt);
            nxt.clear();
            pos += 1;
        }

        if build_forest {
            for &node in accepting.iter() {
                record_roots(nodes, edges, node, start_node, forest);
            }
        }
        // A re-run that got here did not converge: whatever recorded
        // suffix it did not overwrite is stale.
        nodes.seal();
        edges.seal();
        forest.seal();
        splice.active = false;
        if let Some(history) = record {
            history.checkpoints.seal();
            history.frontier.seal();
            history.accepted = accepted;
        }

        Ok(finish(accepted, None, stats))
    }
}

/// Resident bytes of the GSS node and edge pools, for budget byte caps.
#[inline]
fn gss_bytes(nodes: &[GssNode], edges: &[GssEdge]) -> usize {
    std::mem::size_of_val(nodes) + std::mem::size_of_val(edges)
}

fn push_node(
    nodes: &mut RewindVec<GssNode>,
    stats: &mut GssStats,
    state: StateId,
    level: usize,
) -> u32 {
    nodes.push(GssNode {
        state,
        level,
        first_edge: NO_EDGE,
    });
    stats.nodes += 1;
    (nodes.len() - 1) as u32
}

/// Adds the edge `from -> to` with `label` unless an identical edge exists.
/// Returns whether the edge was new.
fn add_edge(
    nodes: &mut [GssNode],
    edges: &mut RewindVec<GssEdge>,
    seen: &mut FxHashSet<(u32, u32, u64)>,
    stats: &mut GssStats,
    from: u32,
    to: u32,
    label: ForestRef,
) -> bool {
    if !seen.insert((from, to, label_key(label))) {
        return false;
    }
    push_edge(nodes, edges, stats, from, to, label);
    true
}

fn push_edge(
    nodes: &mut [GssNode],
    edges: &mut RewindVec<GssEdge>,
    stats: &mut GssStats,
    from: u32,
    to: u32,
    label: ForestRef,
) {
    let node = &mut nodes[from as usize];
    edges.push(GssEdge {
        target: to,
        next: node.first_edge,
        label,
    });
    node.first_edge = (edges.len() - 1) as u32;
    stats.edges += 1;
}

/// Leaves a position: forgets the de-duplication keys of the edges its
/// reducer added (all on current nodes, at or above `edges_mark`, at the
/// head of each chain) and the forest spans it interned (nodes from
/// `spans_mark` on). Both tables then hold nothing, so they stay at
/// frontier width and a rollback has nothing to un-see.
#[allow(clippy::too_many_arguments)]
fn forget_position(
    seen: &mut FxHashSet<(u32, u32, u64)>,
    nodes: &[GssNode],
    edges: &[GssEdge],
    frontier: &[(StateId, u32)],
    edges_mark: usize,
    forest: &mut Forest,
    spans_mark: usize,
) {
    if !seen.is_empty() {
        for &(_, node) in frontier {
            let mut e = nodes[node as usize].first_edge;
            while e != NO_EDGE && e as usize >= edges_mark {
                let edge = edges[e as usize];
                seen.remove(&(node, edge.target, label_key(edge.label)));
                e = edge.next;
            }
        }
        debug_assert!(seen.is_empty());
    }
    forest.forget_spans_from(spans_mark);
}

/// When an accepting state is reached, every edge from it back to the start
/// node spans the whole input and carries a root of the forest.
fn record_roots(
    nodes: &[GssNode],
    edges: &[GssEdge],
    accepting: u32,
    start_node: u32,
    forest: &mut Forest,
) {
    let mut e = nodes[accepting as usize].first_edge;
    while e != NO_EDGE {
        let edge = edges[e as usize];
        if edge.target == start_node {
            if let ForestRef::Node(f) = edge.label {
                forest.add_root(f);
            }
        }
        e = edge.next;
    }
}

/// Enumerates all paths of exactly `arity` edges starting at `from`,
/// optionally forced to use `via` as the first edge. Results land in the
/// reusable flat buffers: `ends[i]` is the far end of path `i`, and
/// `out_labels[i*arity..(i+1)*arity]` its edge labels from the reducing
/// node outwards (rightmost child first).
#[allow(clippy::too_many_arguments)]
fn find_paths(
    nodes: &[GssNode],
    edges: &[GssEdge],
    from: u32,
    arity: usize,
    via: Option<(u32, ForestRef)>,
    dfs_labels: &mut Vec<ForestRef>,
    ends: &mut Vec<u32>,
    out_labels: &mut Vec<ForestRef>,
) {
    if arity == 0 {
        ends.push(from);
        return;
    }
    dfs_labels.clear();
    dfs_labels.resize(
        arity,
        ForestRef::Leaf {
            symbol: ipg_grammar::SymbolId::from_index(0),
            position: 0,
        },
    );
    match via {
        Some((target, label)) => {
            dfs_labels[0] = label;
            dfs(nodes, edges, target, 1, arity, dfs_labels, ends, out_labels);
        }
        None => dfs(nodes, edges, from, 0, arity, dfs_labels, ends, out_labels),
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    nodes: &[GssNode],
    edges: &[GssEdge],
    node: u32,
    depth: usize,
    arity: usize,
    labels: &mut Vec<ForestRef>,
    ends: &mut Vec<u32>,
    out_labels: &mut Vec<ForestRef>,
) {
    if depth == arity {
        ends.push(node);
        out_labels.extend_from_slice(labels);
        return;
    }
    let mut e = nodes[node as usize].first_edge;
    while e != NO_EDGE {
        let edge = edges[e as usize];
        labels[depth] = edge.label;
        dfs(
            nodes,
            edges,
            edge.target,
            depth + 1,
            arity,
            labels,
            ends,
            out_labels,
        );
        e = edge.next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_grammar::fixtures;
    use ipg_lr::{tokenize_names, Lr0Automaton, ParseTable};

    fn lr0_table(g: &Grammar) -> ParseTable {
        ParseTable::lr0(&Lr0Automaton::build(g), g)
    }

    #[test]
    fn accepts_and_rejects_boolean_sentences() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        for (sentence, expected) in [
            ("true", true),
            ("true or false", true),
            ("true and false or true", true),
            ("", false),
            ("or true", false),
            ("true true", false),
        ] {
            let tokens = tokenize_names(&g, sentence).unwrap();
            assert_eq!(
                parser.recognize(&table, &tokens),
                expected,
                "sentence `{sentence}`"
            );
        }
    }

    #[test]
    fn unambiguous_sentence_yields_single_tree() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "true or false").unwrap();
        let result = parser.parse(&table, &tokens);
        assert!(result.accepted);
        assert_eq!(result.forest.tree_count(100), 1);
        let tree = result.forest.first_tree().unwrap();
        assert_eq!(tree.to_sexpr(&g), "(B (B true) or (B false))");
    }

    #[test]
    fn ambiguous_sentence_packs_multiple_trees() {
        // `true or true or true` has exactly 2 parses (left- or
        // right-nested `or`).
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "true or true or true").unwrap();
        let result = parser.parse(&table, &tokens);
        assert!(result.accepted);
        assert!(result.forest.is_ambiguous());
        assert_eq!(result.forest.tree_count(100), 2);
        let trees = result.forest.trees(10);
        assert_eq!(trees.len(), 2);
        for t in &trees {
            assert_eq!(t.leaf_count(), 5);
        }
    }

    #[test]
    fn ambiguity_grows_with_catalan_numbers() {
        // n operators => Catalan(n) parses: 1, 2, 5, 14 ...
        let g = fixtures::ambiguous_expressions();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        for (ops, expected) in [(1usize, 1usize), (2, 2), (3, 5), (4, 14)] {
            let mut sentence = String::from("id");
            for _ in 0..ops {
                sentence.push_str(" + id");
            }
            let tokens = tokenize_names(&g, &sentence).unwrap();
            let result = parser.parse(&table, &tokens);
            assert!(result.accepted);
            assert_eq!(
                result.forest.tree_count(1000),
                expected,
                "number of parses of `{sentence}`"
            );
        }
    }

    #[test]
    fn palindrome_grammar_with_epsilon_rules() {
        let g = fixtures::palindromes();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        for (sentence, expected) in [
            ("", true),
            ("a", true),
            ("a b a", true),
            ("a b b a", true),
            ("a b", false),
        ] {
            let tokens = tokenize_names(&g, sentence).unwrap();
            assert_eq!(
                parser.recognize(&table, &tokens),
                expected,
                "sentence `{sentence}`"
            );
        }
    }

    #[test]
    fn gss_and_pool_agree() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let gss = GssParser::new(&g);
        let pool = crate::pool::PoolGlrParser::new(&g);
        for sentence in [
            "true",
            "true or false and true or true",
            "true and and",
            "false or",
            "true or true and true or false",
        ] {
            let tokens = tokenize_names(&g, sentence).unwrap();
            assert_eq!(
                gss.recognize(&table, &tokens),
                pool.recognize(&table, &tokens).unwrap(),
                "sentence `{sentence}`"
            );
        }
    }

    #[test]
    fn forest_fringe_matches_input() {
        let g = fixtures::ambiguous_expressions();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "id + id * id").unwrap();
        let result = parser.parse(&table, &tokens);
        for tree in result.forest.trees(100) {
            assert_eq!(tree.fringe(), tokens);
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "true or true or true").unwrap();
        let result = parser.parse(&table, &tokens);
        assert!(result.stats.nodes > 0);
        assert!(result.stats.edges >= result.stats.nodes - 1);
        assert!(result.stats.shifts >= tokens.len());
        assert!(result.stats.reductions > 0);
    }

    #[test]
    fn rejected_input_produces_empty_forest() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "true or").unwrap();
        let result = parser.parse(&table, &tokens);
        assert!(!result.accepted);
        assert!(result.forest.roots().is_empty());
        assert!(result.forest.first_tree().is_none());
    }

    #[test]
    fn recycled_context_reproduces_fresh_context_results() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let mut ctx = ParseCtx::new();
        for sentence in [
            "true or true or true",
            "true and",
            "",
            "false",
            "true or false and true",
            "or",
            "true or true or true", // repeat: warm pools, same digest
        ] {
            let tokens = tokenize_names(&g, sentence).unwrap();
            let outcome = parser.parse_into(&mut ctx, &table, &tokens);
            let fresh = parser.parse(&table, &tokens);
            assert_eq!(outcome.accepted(), fresh.accepted, "`{sentence}`");
            assert_eq!(
                ctx.forest().tree_count(100),
                fresh.forest.tree_count(100),
                "`{sentence}`"
            );
            assert_eq!(
                ctx.forest().first_tree().map(|t| t.to_sexpr(&g)),
                fresh.forest.first_tree().map(|t| t.to_sexpr(&g)),
                "`{sentence}`"
            );
        }
    }

    /// Digest of a parse for exact-equality comparison: acceptance, roots,
    /// tree count and the first tree's shape.
    fn digest(g: &Grammar, accepted: bool, forest: &Forest) -> (bool, usize, usize, Option<String>) {
        (
            accepted,
            forest.roots().len(),
            forest.tree_count(64),
            forest.first_tree().map(|t| t.to_sexpr(g)),
        )
    }

    /// The edit turning `base` into `edited`, with its damage taken to start
    /// at `start` (at most their common prefix) and to end where their
    /// longest common suffix that still fits begins.
    fn edit_from(base: &[SymbolId], edited: &[SymbolId], start: usize) -> TokenEdit {
        let suffix = base
            .iter()
            .rev()
            .zip(edited.iter().rev())
            .take_while(|(a, b)| a == b)
            .count()
            .min(base.len().min(edited.len()) - start);
        TokenEdit {
            start,
            old_len: base.len() - start - suffix,
            new_len: edited.len() - start - suffix,
        }
    }

    /// A recorded run of `tokens` (unbudgeted unless `budget` says).
    fn record(parser: &GssParser<'_>, ctx: &mut ParseCtx, table: &ParseTable, tokens: &[SymbolId], history: &mut ParseHistory, budget: ParseBudget) -> ParseOutcome {
        let Ok(outcome) = parser.run(ctx, table, GssRun::record(tokens, history).budget(budget));
        outcome
    }

    /// A resumed run of the edited `tokens`.
    fn resume(parser: &GssParser<'_>, ctx: &mut ParseCtx, table: &ParseTable, tokens: &[SymbolId], history: &mut ParseHistory, edit: TokenEdit, budget: ParseBudget) -> ParseOutcome {
        let Ok(outcome) = parser.run(ctx, table, GssRun::resume(tokens, history, edit).budget(budget));
        outcome
    }

    /// Asserts that a context/history pair holds exactly the pools of
    /// another, entry for entry.
    fn assert_same_pools(ctx: &ParseCtx, history: &ParseHistory, cold: &ParseCtx, cold_history: &ParseHistory, what: &str) {
        assert_eq!(ctx.nodes[..], cold.nodes[..], "{what}: GSS nodes");
        assert_eq!(ctx.edges[..], cold.edges[..], "{what}: GSS edges");
        assert!(ctx.forest.same_pools(&cold.forest), "{what}: forest pools");
        assert_eq!(history.checkpoints[..], cold_history.checkpoints[..], "{what}: checkpoints");
        assert_eq!(history.frontier[..], cold_history.frontier[..], "{what}: frontier snapshots");
        assert_eq!(history.accepted, cold_history.accepted, "{what}: verdict");
        assert!(ctx.seen_edges.is_empty(), "{what}: edge keys are per position");
    }

    /// For every prefix-damage position, edit `base` into `edited` via a
    /// resumed parse and check it matches a cold parse of `edited` exactly
    /// — same digest and the same pools entry for entry. Returns how many
    /// of the resumes converged before the end.
    fn check_resume(g: &Grammar, base: &str, edited: &str) -> usize {
        let table = lr0_table(g);
        let parser = GssParser::new(g);
        let base_tokens = tokenize_names(g, base).unwrap();
        let edited_tokens = tokenize_names(g, edited).unwrap();
        let common = base_tokens
            .iter()
            .zip(&edited_tokens)
            .take_while(|(a, b)| a == b)
            .count();
        let mut cold_ctx = ParseCtx::new();
        let mut cold_history = ParseHistory::new();
        let cold = record(&parser, &mut cold_ctx, &table, &edited_tokens, &mut cold_history, ParseBudget::UNLIMITED);
        let want = digest(g, cold.accepted(), cold_ctx.forest());
        let mut converged = 0;
        for damage in 0..=common {
            let edit = edit_from(&base_tokens, &edited_tokens, damage);
            let mut ctx = ParseCtx::new();
            let mut history = ParseHistory::new();
            record(&parser, &mut ctx, &table, &base_tokens, &mut history, ParseBudget::UNLIMITED);
            let resumed = resume(&parser, &mut ctx, &table, &edited_tokens, &mut history, edit, ParseBudget::UNLIMITED);
            let what = format!("`{base}` -> `{edited}` resumed at damage {damage}");
            assert_eq!(digest(g, resumed.accepted(), ctx.forest()), want, "{what}");
            assert_same_pools(&ctx, &history, &cold_ctx, &cold_history, &what);
            converged += usize::from(ctx.converged_at().is_some());
            // The rolled-forward history must itself support further
            // resumes: replay the same edit once more at the same damage
            // (a same-length edit then converges with what it recorded).
            let again_edit = edit_from(&edited_tokens, &edited_tokens, damage);
            let again = resume(&parser, &mut ctx, &table, &edited_tokens, &mut history, again_edit, ParseBudget::UNLIMITED);
            assert_eq!(digest(g, again.accepted(), ctx.forest()), want, "second resume");
            assert_same_pools(&ctx, &history, &cold_ctx, &cold_history, "second resume");
        }
        converged
    }

    /// A same-token-count substitution: resumes from every damage position
    /// match the cold parse pool for pool, and the resume from the actual
    /// damage converges before the end.
    fn check_converging_substitution(g: &Grammar, base: &str, edited: &str) {
        assert_eq!(base.split_whitespace().count(), edited.split_whitespace().count());
        assert!(check_resume(g, base, edited) > 0, "`{base}` -> `{edited}` never converged");
        // Edit back and forth in one context: every resume starts from a
        // spliced state and must still match its cold parse.
        let table = lr0_table(g);
        let parser = GssParser::new(g);
        let (a, b) = (tokenize_names(g, base).unwrap(), tokenize_names(g, edited).unwrap());
        let start = a.iter().zip(&b).take_while(|(x, y)| x == y).count();
        let mut ctx = ParseCtx::new();
        let mut history = ParseHistory::new();
        record(&parser, &mut ctx, &table, &a, &mut history, ParseBudget::UNLIMITED);
        for round in 0..4 {
            let (from, to) = if round % 2 == 0 { (&a, &b) } else { (&b, &a) };
            resume(&parser, &mut ctx, &table, to, &mut history, edit_from(from, to, start), ParseBudget::UNLIMITED);
            assert!(ctx.converged_at().is_some(), "round {round} converged");
            let mut cold_ctx = ParseCtx::new();
            let mut cold_history = ParseHistory::new();
            record(&parser, &mut cold_ctx, &table, to, &mut cold_history, ParseBudget::UNLIMITED);
            assert_same_pools(&ctx, &history, &cold_ctx, &cold_history, &format!("round {round}"));
        }
    }

    #[test]
    fn resumed_parse_matches_cold_parse() {
        let g = fixtures::booleans();
        for (base, edited) in [
            ("true or false", "true or true"),
            ("true or false", "true or false and true"),
            ("true and false or true", "true and true"),
            ("true", "true or true or true"),
            ("true or true or true", "true"),
            ("true or", "true or false"),
            ("true or false", "true true"),
            ("", "true"),
            ("true", ""),
        ] {
            check_resume(&g, base, edited);
        }
    }

    #[test]
    fn resumed_parse_matches_cold_parse_ambiguous() {
        let g = fixtures::ambiguous_expressions();
        for (base, edited) in [
            ("id + id * id", "id + id + id"),
            ("id + id", "id + id * id + id"),
            ("id + id * id + id", "id + id * id"),
            ("id +", "id + id"),
        ] {
            check_resume(&g, base, edited);
        }
    }

    #[test]
    fn resumed_parse_matches_cold_parse_epsilon_rules() {
        let g = fixtures::palindromes();
        for (base, edited) in [
            ("a b a", "a b b a"),
            ("a b b a", "a b a"),
            ("", "a"),
            ("a", "a b"),
            ("a b", "a b a"),
        ] {
            check_resume(&g, base, edited);
        }
    }

    #[test]
    fn resume_after_append_to_accepted_input() {
        // Damage position == old token count: the whole old parse is
        // retained and only the appended tokens run.
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let base = tokenize_names(&g, "true or false").unwrap();
        let edited = tokenize_names(&g, "true or false and true").unwrap();
        let mut ctx = ParseCtx::new();
        let mut history = ParseHistory::new();
        record(&parser, &mut ctx, &table, &base, &mut history, ParseBudget::UNLIMITED);
        assert_eq!(history.end_pos(), base.len());
        let retained = history.checkpoints[base.len()].nodes as usize;
        let resumed = resume(&parser, &mut ctx, &table, &edited, &mut history, edit_from(&base, &edited, base.len()), ParseBudget::UNLIMITED);
        assert!(resumed.accepted());
        let cold = parser.parse(&table, &edited);
        // The re-run started at the old end: it built only the nodes the
        // cold parse has beyond the checkpoint there.
        assert_eq!(resumed.stats().nodes, cold.stats.nodes - retained);
        assert_eq!(
            ctx.forest().first_tree().map(|t| t.to_sexpr(&g)),
            cold.forest.first_tree().map(|t| t.to_sexpr(&g))
        );
    }

    #[test]
    fn substitution_converges_booleans() {
        let g = fixtures::booleans();
        check_converging_substitution(&g, "true or false and true or true", "true or true and true or true");
        check_converging_substitution(&g, "false and true", "true and true");
        check_converging_substitution(&g, "true or false or true", "true or true or true");
    }

    #[test]
    fn substitution_converges_ambiguous_expressions() {
        let g = fixtures::ambiguous_expressions();
        check_converging_substitution(&g, "( id + id ) * id", "( id * id ) * id");
        check_converging_substitution(&g, "id * ( id + id ) + id", "id * ( id * id ) + id");
        // An ambiguous chain keeps its operators on the stack until the
        // end (the right-nested parses reduce last), so this one replays
        // to the end — and must still match the cold parse.
        check_resume(&g, "id + id * id + id", "id * id * id + id");
    }

    #[test]
    fn substitution_converges_epsilon_rules() {
        // Every prefix of a palindrome may still be its first half, so a
        // substituted token stays on the stack until the end: a real
        // substitution replays to the end...
        let g = fixtures::palindromes();
        check_resume(&g, "a b a a b a", "a a a a a a");
        check_resume(&g, "b a a b", "b b b b");
        // ...while retyping a token with itself converges one token later,
        // through the epsilon reductions at every position.
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "a b b a b b a").unwrap();
        let mut cold_ctx = ParseCtx::new();
        let mut cold_history = ParseHistory::new();
        record(&parser, &mut cold_ctx, &table, &tokens, &mut cold_history, ParseBudget::UNLIMITED);
        let mut ctx = ParseCtx::new();
        let mut history = ParseHistory::new();
        record(&parser, &mut ctx, &table, &tokens, &mut history, ParseBudget::UNLIMITED);
        for start in 0..tokens.len() {
            let edit = TokenEdit { start, old_len: 1, new_len: 1 };
            let resumed = resume(&parser, &mut ctx, &table, &tokens, &mut history, edit, ParseBudget::UNLIMITED);
            assert_eq!(ctx.converged_at(), Some(start + 1), "retype at {start}");
            assert_eq!(resumed.accepted(), cold_history.accepted);
            assert_same_pools(&ctx, &history, &cold_ctx, &cold_history, &format!("retype at {start}"));
        }
    }

    #[test]
    fn stream_parse_agrees_with_slice_parse() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let mut ctx = ParseCtx::new();
        for sentence in ["true or false", "true true", ""] {
            let tokens = tokenize_names(&g, sentence).unwrap();
            let Ok(outcome) = parser.run(&mut ctx, &table, GssRun::parse(SliceTokens::new(&tokens)));
            assert_eq!(
                outcome.accepted(),
                parser.recognize(&table, &tokens),
                "`{sentence}`"
            );
        }
    }

    #[test]
    fn tiny_fuel_budget_exhausts_mid_parse() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let mut ctx = ParseCtx::new();
        let sentence = "true or false and true or true and false or true";
        let tokens = tokenize_names(&g, sentence).unwrap();
        let budget = ParseBudget::default().with_fuel(1);
        let Ok(outcome) = parser.run(&mut ctx, &table, GssRun::parse(SliceTokens::new(&tokens)).budget(budget));
        assert_eq!(outcome.exhausted(), Some(ExhaustReason::Fuel));
        assert!(!outcome.accepted());
        // A reset context parses fine afterwards (partial state is benign
        // once reset).
        let again = parser.parse_into(&mut ctx, &table, &tokens);
        assert!(again.accepted());
        assert!(again.exhausted().is_none());
    }

    #[test]
    fn tiny_gss_byte_cap_exhausts() {
        let g = fixtures::booleans();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let mut ctx = ParseCtx::new();
        let sentence = "true or false and true or true and false or true";
        let tokens = tokenize_names(&g, sentence).unwrap();
        let budget = ParseBudget::default().with_max_gss_bytes(1);
        let Ok(outcome) = parser.run(&mut ctx, &table, GssRun::parse(SliceTokens::new(&tokens)).budget(budget));
        assert_eq!(outcome.exhausted(), Some(ExhaustReason::GssBytes));
    }

    #[test]
    fn generous_budget_is_outcome_identical_to_unbudgeted() {
        let g = fixtures::ambiguous_expressions();
        let table = lr0_table(&g);
        let parser = GssParser::new(&g);
        let mut ctx = ParseCtx::new();
        let tokens = tokenize_names(&g, "id + id * id + id").unwrap();
        let generous = ParseBudget::default()
            .with_fuel(10_000_000)
            .with_max_gss_bytes(64 << 20)
            .with_max_forest_bytes(64 << 20);
        let Ok(budgeted) = parser.run(&mut ctx, &table, GssRun::parse(SliceTokens::new(&tokens)).budget(generous));
        let budgeted_digest = digest(&g, budgeted.accepted(), ctx.forest());
        assert!(budgeted.exhausted().is_none());
        let plain = parser.parse_into(&mut ctx, &table, &tokens);
        assert_eq!(budgeted_digest, digest(&g, plain.accepted(), ctx.forest()));
        assert_eq!(budgeted.stats(), plain.stats());

        // A recorded run followed by a converging resume, under each
        // budget: the same digest, stats and convergence point.
        let base = tokenize_names(&g, "( id + id ) * id + id").unwrap();
        let edited = tokenize_names(&g, "( id * id ) * id + id").unwrap();
        let edit = edit_from(&base, &edited, 2);
        let runs = [generous, ParseBudget::UNLIMITED].map(|budget| {
            let mut ctx = ParseCtx::new();
            let mut history = ParseHistory::new();
            let recorded = record(&parser, &mut ctx, &table, &base, &mut history, budget);
            let recorded = (digest(&g, recorded.accepted(), ctx.forest()), recorded.stats());
            let resumed = resume(&parser, &mut ctx, &table, &edited, &mut history, edit, budget);
            assert!(resumed.exhausted().is_none());
            let resumed = (digest(&g, resumed.accepted(), ctx.forest()), resumed.stats());
            (recorded, resumed, ctx.converged_at())
        });
        assert!(runs[0].2.is_some(), "the substitution converges");
        assert_eq!(runs[0], runs[1]);
    }

    use ipg_grammar::Grammar;
}
