//! The lazy `ACTION` / `GOTO` functions of §5.1, packaged as an
//! implementation of `ipg_lr::ParserTables` so that the deterministic and
//! parallel parsers can be driven directly by the (partially generated)
//! item-set graph.
//!
//! `LazyTables` is the **read side** of the shared-table split: it borrows
//! the grammar and the graph immutably, so any number of handles (one per
//! parser thread) can serve queries against one graph at the same time.
//! When a query hits a state that is not materialised yet, the handle
//! funnels into the graph's serialized writer
//! ([`ItemSetGraph::ensure_state`]) — the explicit expansion entry point —
//! and then re-reads.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::Arc;

use ipg_grammar::{Grammar, SymbolId};
use ipg_lr::{ActionCell, ParserTables, StateId, TableExpansion};

use crate::graph::{ItemSetGraph, PublishedState, TableSnapshot};

/// Error returned by [`LazyTables::new`] when the item-set graph does not
/// correspond to the grammar it is asked to serve.
///
/// A graph goes stale when the grammar is modified behind its back instead
/// of through [`ItemSetGraph::add_rule`] / [`ItemSetGraph::remove_rule`].
/// In a server that shares one graph among many parsers this must be a
/// hard error on the construction path, not a debug-only assertion: a
/// stale graph would silently answer for the wrong language in release
/// builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaleGraphError {
    /// The version of the grammar the tables were asked to serve.
    pub grammar_version: u64,
    /// The grammar version the graph was last synchronised with.
    pub graph_version: u64,
}

impl fmt::Display for StaleGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the item-set graph is out of sync with the grammar (grammar v{}, graph v{}); \
             use ItemSetGraph::add_rule/remove_rule for modifications",
            self.grammar_version, self.graph_version
        )
    }
}

impl std::error::Error for StaleGraphError {}

/// A borrow of the grammar plus the item-set graph that behaves like a
/// parse table. Constructing one is free; the table contents materialise
/// on demand as the parser asks for actions.
///
/// Handles are cheap and per-parser: each one carries its own query
/// counters (flushed into the graph-wide statistics when the handle is
/// dropped), so a multi-threaded server can aggregate per-thread
/// [`crate::GenStats`] without contending on shared counters per query.
///
/// ```
/// use ipg_grammar::fixtures;
/// use ipg_lr::{LrParser, tokenize_names};
/// use ipg::{ItemSetGraph, LazyTables};
///
/// let grammar = fixtures::arithmetic();
/// let graph = ItemSetGraph::new(&grammar);
/// let parser = LrParser::new(&grammar);
/// let tokens = tokenize_names(&grammar, "id + num").unwrap();
/// // No table generation phase: parsing starts immediately.
/// let tables = LazyTables::new(&grammar, &graph).unwrap();
/// assert!(parser.recognize(&tables, &tokens).unwrap());
/// assert!(graph.size().complete > 0); // parts of the table now exist
/// ```
#[derive(Debug)]
pub struct LazyTables<'a> {
    grammar: &'a Grammar,
    graph: &'a ItemSetGraph,
    eof: SymbolId,
    /// The pinned table snapshot (see `TableSnapshot` in the graph
    /// module): a steady-state query is one `Acquire` load of the state's
    /// write-once cell in this `Arc`-shared directory — no locks. The
    /// snapshot is chunked like the node store, so successor epochs share
    /// the chunks of untouched states; a pinned handle holds whole chunks
    /// alive, never copies them. A miss funnels into the graph's
    /// serialized writer, which usually sets the cell in a chunk this pin
    /// already holds; the pin is refreshed only when the cell landed in a
    /// chunk appended or copied after it was taken. Pinning is sound
    /// because `MODIFY`/GC take `&mut` on the graph and therefore cannot
    /// run while this (shared) borrow exists — the epoch serving layer
    /// preserves exactly this: modifications fork the graph (structurally
    /// shared, copy-on-write) and run on the private fork, never on a
    /// graph that handles are borrowing.
    snapshot: RefCell<Arc<TableSnapshot>>,
    action_calls: Cell<usize>,
    goto_calls: Cell<usize>,
}

impl<'a> LazyTables<'a> {
    /// Wraps the grammar and graph. The graph must have been created for
    /// (an earlier version of) the same grammar and kept in sync through
    /// [`ItemSetGraph::add_rule`] / [`ItemSetGraph::remove_rule`];
    /// otherwise a [`StaleGraphError`] is returned — in release builds
    /// too, since a stale shared graph must not silently serve the wrong
    /// language.
    pub fn new(grammar: &'a Grammar, graph: &'a ItemSetGraph) -> Result<Self, StaleGraphError> {
        let graph_version = graph.grammar_version();
        if grammar.version() != graph_version {
            return Err(StaleGraphError {
                grammar_version: grammar.version(),
                graph_version,
            });
        }
        Ok(LazyTables {
            grammar,
            graph,
            eof: grammar.eof_symbol(),
            snapshot: RefCell::new(graph.published_snapshot()),
            action_calls: Cell::new(0),
            goto_calls: Cell::new(0),
        })
    }

    /// The grammar the tables are generated from.
    pub fn grammar(&self) -> &Grammar {
        self.grammar
    }

    /// Read-only access to the underlying graph.
    pub fn graph(&self) -> &ItemSetGraph {
        self.graph
    }

    /// The `(ACTION, GOTO)` query counts served through this handle so
    /// far. Per-handle — i.e. per parser/thread — and flushed into
    /// [`ItemSetGraph::stats`] when the handle is dropped.
    pub fn query_counts(&self) -> (usize, usize) {
        (self.action_calls.get(), self.goto_calls.get())
    }
}

impl Drop for LazyTables<'_> {
    fn drop(&mut self) {
        self.graph
            .record_queries(self.action_calls.get(), self.goto_calls.get());
    }
}

#[inline]
fn fill_cell(out: &mut ActionCell, entry: &PublishedState, symbol: SymbolId, eof: SymbolId) {
    out.reductions.clear();
    out.reductions.extend_from_slice(&entry.reductions);
    out.shift = entry.row.target(symbol);
    out.accept = entry.accepting && symbol == eof;
}

impl LazyTables<'_> {
    /// The miss path shared by `ACTION` and `GOTO`: runs the graph writer
    /// (`publish`) until `state`'s cell is published, then reads it with
    /// `read`. The pin is refreshed only when it does not show the cell.
    /// Returns `None` when `publish` reports a stale or non-complete state.
    fn read_after_miss<R>(
        &self,
        state: StateId,
        publish: impl Fn() -> bool,
        mut read: impl FnMut(&PublishedState) -> R,
    ) -> Option<R> {
        loop {
            if !publish() {
                return None;
            }
            if self.snapshot.borrow().get(state).is_none() {
                *self.snapshot.borrow_mut() = self.graph.published_snapshot();
            }
            if let Some(entry) = self.snapshot.borrow().get(state) {
                return Some(read(entry));
            }
        }
    }
}

impl ParserTables for LazyTables<'_> {
    fn start_state(&self) -> StateId {
        self.graph.start_state()
    }

    /// The lazy `ACTION` of §5.1: "when state is an initial set of items it
    /// must be expanded first", then the actions are read off the node.
    ///
    /// Steady-state path (published cell in the pinned snapshot): one
    /// `Acquire` load of the cell, then array reads and zero heap
    /// allocations — the shift target comes from the dense row and the
    /// (almost always tiny) reduce set is copied into the caller's
    /// reusable cell. No lock is taken. Only a miss takes the serialized
    /// writer ([`ItemSetGraph::ensure_state`]).
    fn actions_into(&self, state: StateId, symbol: SymbolId, out: &mut ActionCell) {
        self.action_calls.set(self.action_calls.get() + 1);
        if let Some(entry) = self.snapshot.borrow().get(state) {
            fill_cell(out, entry, symbol, self.eof);
            return;
        }
        let publish = || self.graph.ensure_state_checked(self.grammar, state);
        if self
            .read_after_miss(state, publish, |entry| fill_cell(out, entry, symbol, self.eof))
            .is_none()
        {
            // A stale id (out of range, or reclaimed by GC) reads as a
            // syntax-error cell instead of crashing the shared graph.
            out.clear();
        }
    }

    /// The `GOTO` of §4. Appendix A proves that `GOTO` is only ever called
    /// with complete item sets, so no expansion is performed — in debug
    /// *and* release builds alike. The debug assertion checks the
    /// invariant; a violating call reads as an error entry (`None`) instead
    /// of silently expanding the set. Only an empty cell takes the writer
    /// (to publish it).
    fn goto(&self, state: StateId, symbol: SymbolId) -> Option<StateId> {
        self.goto_calls.set(self.goto_calls.get() + 1);
        if let Some(entry) = self.snapshot.borrow().get(state) {
            return entry.row.target(symbol);
        }
        let publish = || self.graph.prepare_goto(self.grammar, state);
        self.read_after_miss(state, publish, |entry| entry.row.target(symbol))
            .flatten()
    }

    fn describe(&self) -> String {
        format!(
            "lazy IPG tables ({}, grammar v{})",
            self.graph.size(),
            self.grammar.version()
        )
    }

    /// The version tag of every parse served through this handle. The
    /// epoch serving layer checks it against the pinned epoch's version,
    /// so results can be matched to the exact table state that produced
    /// them even while writers publish newer epochs.
    fn grammar_version(&self) -> u64 {
        self.grammar.version()
    }
}

impl TableExpansion for LazyTables<'_> {
    /// The explicit expansion entry point: materialise one state (expand
    /// it and publish its cell) through the graph's serialized writer.
    fn ensure_state(&self, state: StateId) {
        self.graph.ensure_state(self.grammar, state);
    }

    /// Fully materialises the table (lazy generation becomes eager
    /// generation): every reachable state is expanded and every row
    /// published. Used to warm a served table before taking traffic.
    fn warm(&self) {
        self.graph.expand_all(self.grammar);
        self.graph.publish_all_rows(self.grammar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GcPolicy;
    use ipg_glr::{GssParser, PoolGlrParser};
    use ipg_grammar::fixtures;
    use ipg_lr::{tokenize_names, Action, Lr0Automaton, LrParser, ParseTable, ParserTables};

    #[test]
    fn lazy_actions_agree_with_eager_lr0_table() {
        let g = fixtures::booleans();
        let automaton = Lr0Automaton::build(&g);
        let eager = ParseTable::lr0(&automaton, &g);
        let graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let lazy = LazyTables::new(&g, &graph).unwrap();

        // Compare the action sets cell by cell: states are matched through
        // their kernels because numbering may differ.
        for state in automaton.states() {
            let lazy_id = lazy
                .graph()
                .live_nodes()
                .find(|n| n.kernel == state.kernel)
                .map(|n| n.id)
                .expect("kernel exists in the lazy graph");
            for terminal in g.symbols().terminals() {
                let a = eager.actions(state.id, terminal).to_vec();
                let b = lazy.actions(lazy_id, terminal).to_vec();
                // Shift targets use different numbering; compare shapes.
                let shape = |v: &[Action]| {
                    v.iter()
                        .map(|a| match a {
                            Action::Shift(_) => "s".to_owned(),
                            Action::Reduce(r) => format!("r{}", r.index()),
                            Action::Accept => "acc".to_owned(),
                        })
                        .collect::<std::collections::BTreeSet<_>>()
                };
                assert_eq!(shape(&a), shape(&b), "state {:?} symbol {:?}", state.id, terminal);
            }
        }
    }

    #[test]
    fn parsing_expands_only_what_is_needed() {
        // §5.2: sentences using only `and` and `true` never force the
        // `false`/`or` parts of the table to be generated.
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "true and true").unwrap();
        {
            let tables = LazyTables::new(&g, &graph).unwrap();
            assert!(parser.recognize(&tables, &tokens));
        }
        let size = graph.size();
        let full = Lr0Automaton::build(&g).num_states();
        assert!(size.complete < full, "only part of the table was generated");
        assert!(size.complete >= 4);
        // A second parse of the same sentence does not expand anything new.
        let expansions_before = graph.stats().expansions;
        {
            let tables = LazyTables::new(&g, &graph).unwrap();
            assert!(parser.recognize(&tables, &tokens));
        }
        assert_eq!(graph.stats().expansions, expansions_before);
    }

    #[test]
    fn lazy_tables_work_with_all_three_parsers() {
        // The deterministic LR parser needs an LR(0) grammar; the parallel
        // parsers handle the (non-LR(0)) arithmetic grammar as well.
        let lists = fixtures::left_recursive_list();
        let list_tokens = tokenize_names(&lists, "x , x , x").unwrap();
        let graph = ItemSetGraph::new(&lists);
        let det = LrParser::new(&lists);
        assert!(det
            .recognize(&LazyTables::new(&lists, &graph).unwrap(), &list_tokens)
            .unwrap());

        let g = fixtures::arithmetic();
        let tokens = tokenize_names(&g, "id + num * id").unwrap();

        let graph = ItemSetGraph::new(&g);
        let pool = PoolGlrParser::new(&g);
        assert!(pool
            .recognize(&LazyTables::new(&g, &graph).unwrap(), &tokens)
            .unwrap());

        let graph = ItemSetGraph::new(&g);
        let gss = GssParser::new(&g);
        assert!(gss.recognize(&LazyTables::new(&g, &graph).unwrap(), &tokens));
    }

    #[test]
    fn action_and_goto_calls_are_counted_per_handle_and_flushed() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "true or false").unwrap();
        {
            let tables = LazyTables::new(&g, &graph).unwrap();
            parser.recognize(&tables, &tokens);
            let (actions, gotos) = tables.query_counts();
            assert!(actions > 0);
            assert!(gotos > 0);
            // Not yet flushed into the graph-wide statistics.
            assert_eq!(graph.stats().action_calls, 0);
        }
        // Dropping the handle flushed its counters.
        assert!(graph.stats().action_calls > 0);
        assert!(graph.stats().goto_calls > 0);
        let tables = LazyTables::new(&g, &graph).unwrap();
        assert!(tables.describe().contains("lazy IPG tables"));
        assert_eq!(tables.grammar().num_active_rules(), 5);
    }

    #[test]
    fn incremental_update_keeps_lazy_tables_consistent() {
        // Parse, modify the grammar (Fig. 6.1: add `B ::= unknown`), parse a
        // sentence using the new rule, and one using only old rules.
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::RefCount);
        let tokens_old = tokenize_names(&g, "true or false").unwrap();
        {
            let parser = GssParser::new(&g);
            assert!(parser.recognize(&LazyTables::new(&g, &graph).unwrap(), &tokens_old));
        }
        let b = g.symbol("B").unwrap();
        let unknown = g.terminal("unknown");
        graph.add_rule(&mut g, b, vec![unknown]);
        let parser = GssParser::new(&g);
        let tokens_new = tokenize_names(&g, "unknown or true and unknown").unwrap();
        assert!(parser.recognize(&LazyTables::new(&g, &graph).unwrap(), &tokens_new));
        assert!(parser.recognize(&LazyTables::new(&g, &graph).unwrap(), &tokens_old));
        assert!(graph.stats().modifications == 1);
    }

    #[test]
    fn out_of_sync_grammar_is_a_hard_error() {
        let mut g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        let b = g.symbol("B").unwrap();
        let u = g.terminal("unknown");
        // Modifying the grammar behind the graph's back is detected in
        // debug *and* release builds: a stale shared graph must not serve.
        g.add_rule(b, vec![u]);
        let err = LazyTables::new(&g, &graph).unwrap_err();
        assert_eq!(err.grammar_version, g.version());
        assert_eq!(err.graph_version, graph.grammar_version());
        assert!(err.to_string().contains("out of sync"));
    }

    #[test]
    fn warm_materialises_the_full_table() {
        use ipg_lr::TableExpansion;
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        let tables = LazyTables::new(&g, &graph).unwrap();
        tables.warm();
        let full = Lr0Automaton::build(&g).num_states();
        assert_eq!(graph.size().complete, full);
        // Every row is published: a fresh handle serves purely from reads.
        let rows_before = graph.stats().rows_built;
        let parser = GssParser::new(&g);
        let tokens = tokenize_names(&g, "true or false and true").unwrap();
        assert!(parser.recognize(&tables, &tokens));
        assert_eq!(graph.stats().rows_built, rows_before);
        // The explicit per-state entry point is idempotent.
        tables.ensure_state(graph.start_state());
    }
}
