//! Correctness of the dense action-row cache layered on the lazy item-set
//! graph: for every `(state, terminal)` cell the cached row must agree with
//! the naive read-off of the node's transitions/reductions fields, before
//! and after grammar modifications (§6/§7); and `GOTO` must only ever be
//! asked about complete item sets (Appendix A).

mod common;

use std::collections::BTreeMap;

use common::{grammar_spec, resolve_sentence, sentence};
use proptest::prelude::*;

use ipg::{GcPolicy, ItemSetGraph, ItemSetKind, LazyTables};
use ipg_glr::GssParser;
use ipg_grammar::{Grammar, RuleId, SymbolId};
use ipg_lr::{ActionCell, ParserTables, StateId};
use ipg_sdf::fixtures::{paper_modification_rule, sdf_grammar_and_scanner};
use ipg_sdf::NormalizedSdf;

/// Asserts that, for every live complete node and every terminal, the lazy
/// tables' dense-row answer equals the naive read-off of the node's
/// `transitions` / `reductions` / `accepting` fields, and likewise for
/// `GOTO` over the non-terminals.
fn assert_rows_agree_with_naive_readoff(grammar: &Grammar, graph: &ItemSetGraph) {
    let ids: Vec<StateId> = graph
        .live_nodes()
        .filter(|n| !n.needs_expansion())
        .map(|n| n.id)
        .collect();
    let terminals: Vec<SymbolId> = grammar.symbols().terminals().collect();
    let nonterminals: Vec<SymbolId> = grammar.symbols().nonterminals().collect();
    for id in ids {
        let (reductions, transitions, accepting): (Vec<RuleId>, BTreeMap<SymbolId, StateId>, bool) = {
            let node = graph.node(id);
            (
                node.reductions.clone(),
                node.transitions.clone(),
                node.accepting,
            )
        };
        let tables = LazyTables::new(grammar, graph).unwrap();
        for &terminal in &terminals {
            let cell: ActionCell = tables.actions(id, terminal);
            assert_eq!(
                cell.shift,
                transitions.get(&terminal).copied(),
                "shift mismatch in state {id:?} on {terminal:?}"
            );
            assert_eq!(
                cell.reductions[..],
                reductions[..],
                "reduce mismatch in state {id:?} on {terminal:?}"
            );
            assert_eq!(
                cell.accept,
                accepting && terminal == grammar.eof_symbol(),
                "accept mismatch in state {id:?} on {terminal:?}"
            );
        }
        for &nt in &nonterminals {
            assert_eq!(
                tables.goto(id, nt),
                transitions.get(&nt).copied(),
                "GOTO mismatch in state {id:?} on {nt:?}"
            );
        }
    }
}

/// A [`ParserTables`] wrapper that fails the test if `GOTO` is ever asked
/// about an item set that is not complete — the Appendix A invariant the
/// lazy `goto` relies on (it no longer expands on demand in any build mode).
struct GotoInvariantChecked<'a> {
    inner: LazyTables<'a>,
}

impl ParserTables for GotoInvariantChecked<'_> {
    fn start_state(&self) -> StateId {
        self.inner.start_state()
    }

    fn actions_into(&self, state: StateId, symbol: SymbolId, out: &mut ActionCell) {
        self.inner.actions_into(state, symbol, out);
    }

    fn goto(&self, state: StateId, symbol: SymbolId) -> Option<StateId> {
        assert_eq!(
            self.inner.graph().node_kind(state),
            Ok(ItemSetKind::Complete),
            "Appendix A invariant violated: GOTO asked about a non-complete item set"
        );
        self.inner.goto(state, symbol)
    }
}

#[test]
fn sdf_rows_agree_before_and_after_the_paper_modification() {
    // The §7 scenario on the real measurement grammar: the SDF definition
    // of SDF, modified by `"(" CF-ELEM+ ")?" -> CF-ELEM`.
    let NormalizedSdf { mut grammar, .. } = sdf_grammar_and_scanner();
    let (lhs_name, rhs_names) = paper_modification_rule();
    let lhs = grammar.symbol(&lhs_name).expect("CF-ELEM exists");
    let mut rhs = Vec::new();
    for name in &rhs_names {
        let id = match grammar.symbol(name) {
            Some(id) => id,
            None => grammar.terminal(name),
        };
        rhs.push(id);
    }

    let mut graph = ItemSetGraph::with_policy(&grammar, GcPolicy::RefCount);
    graph.expand_all(&grammar);
    assert_rows_agree_with_naive_readoff(&grammar, &graph);

    // Count rows present, apply ADD-RULE, and check the §6 precision: rows
    // disappear exactly where item sets were invalidated.
    let rows_before: Vec<StateId> = graph
        .live_nodes()
        .filter(|n| graph.action_row(n.id).is_some())
        .map(|n| n.id)
        .collect();
    assert!(!rows_before.is_empty(), "queries built rows");
    graph.add_rule(&mut grammar, lhs, rhs.clone());
    for &id in &rows_before {
        let node = graph.node(id);
        assert_eq!(
            graph.action_row(id).is_none(),
            node.needs_expansion(),
            "row of state {id:?} must be dropped iff the item set was invalidated"
        );
        if let Some(row) = graph.action_row(id) {
            // Surviving rows still shadow valid transitions, and the
            // version they carry predates the modification.
            for (&symbol, &target) in &node.transitions {
                assert_eq!(row.target(symbol), Some(target));
            }
            assert!(row.version() < grammar.version());
        }
    }
    assert!(
        graph.live_nodes().any(|n| n.needs_expansion()),
        "the paper modification invalidates at least one item set"
    );

    graph.expand_all(&grammar);
    assert_rows_agree_with_naive_readoff(&grammar, &graph);
    // Rows rebuilt after the modification carry the current grammar
    // version.
    for node in graph.live_nodes() {
        if let Some(row) = graph.action_row(node.id) {
            assert!(row.version() <= grammar.version());
        }
    }

    // And the modification must be *observable*: removing it again restores
    // the smaller rule count.
    graph.remove_rule(&mut grammar, lhs, &rhs).expect("rule active");
    graph.expand_all(&grammar);
    assert_rows_agree_with_naive_readoff(&grammar, &graph);
}

/// Case count: `IPG_PROPTEST_CASES` (the CI epoch-stress job runs 256 in
/// release mode), defaulting to 24.
fn cases() -> u32 {
    std::env::var("IPG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Dense rows agree with the naive read-off on random grammars, after
    /// lazy warm-up, after `ADD-RULE`, and after `DELETE-RULE`, under every
    /// GC policy.
    #[test]
    fn rows_agree_across_random_modifications(
        spec in grammar_spec(true),
        sentences in prop::collection::vec(sentence(5), 3),
        policy_choice in 0..3usize,
    ) {
        let mut grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let policy = match policy_choice {
            0 => GcPolicy::Retain,
            1 => GcPolicy::RefCount,
            _ => GcPolicy::RefCountWithSweep { threshold_percent: 20 },
        };
        let mut graph = ItemSetGraph::with_policy(&grammar, policy);

        // Lazy warm-up through real parses.
        {
            let parser = GssParser::new(&grammar);
            for codes in &sentences {
                let tokens = resolve_sentence(&grammar, codes);
                parser.recognize(&LazyTables::new(&grammar, &graph).unwrap(), &tokens);
            }
        }
        assert_rows_agree_with_naive_readoff(&grammar, &graph);

        // ADD-RULE: reuse the first non-terminal with a fresh terminal.
        let lhs = grammar.symbol("N0").expect("spec interns N0");
        let fresh = grammar.terminal("fresh-token");
        graph.acknowledge_non_structural_change(&grammar);
        graph.add_rule(&mut grammar, lhs, vec![fresh]);
        graph.expand_all(&grammar);
        assert_rows_agree_with_naive_readoff(&grammar, &graph);

        // DELETE-RULE: remove it again.
        graph.remove_rule(&mut grammar, lhs, &[fresh]).expect("active rule");
        graph.expand_all(&grammar);
        assert_rows_agree_with_naive_readoff(&grammar, &graph);
    }

    /// Appendix A in practice: driving the GSS parser over modified
    /// grammars never asks `GOTO` about a non-complete item set.
    #[test]
    fn goto_is_only_asked_about_complete_item_sets(
        spec in grammar_spec(true),
        sentences in prop::collection::vec(sentence(6), 4),
    ) {
        let mut grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let mut graph = ItemSetGraph::with_policy(&grammar, GcPolicy::RefCount);
        {
            let parser = GssParser::new(&grammar);
            for codes in &sentences {
                let tokens = resolve_sentence(&grammar, codes);
                let tables = GotoInvariantChecked {
                    inner: LazyTables::new(&grammar, &graph).unwrap(),
                };
                parser.recognize(&tables, &tokens);
            }
        }
        // Modify, then parse again: the invariant must survive
        // invalidation and re-expansion.
        let lhs = grammar.symbol("N0").expect("spec interns N0");
        let fresh = grammar.terminal("fresh-token");
        graph.acknowledge_non_structural_change(&grammar);
        graph.add_rule(&mut grammar, lhs, vec![fresh]);
        let parser = GssParser::new(&grammar);
        for codes in &sentences {
            let tokens = resolve_sentence(&grammar, codes);
            let tables = GotoInvariantChecked {
                inner: LazyTables::new(&grammar, &graph).unwrap(),
            };
            parser.recognize(&tables, &tokens);
        }
    }
}
