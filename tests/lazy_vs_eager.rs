//! Cross-crate property tests: the lazily generated IPG tables, the eager
//! PG tables, the two parallel-parser formulations and Earley's algorithm
//! all recognise exactly the same language.

mod common;

use common::{grammar_spec, resolve_sentence, sentence};
use proptest::prelude::*;

use ipg::{ItemSetGraph, LazyTables};
use ipg_earley::EarleyParser;
use ipg_glr::{GssParser, PoolGlrParser};
use ipg_lr::{Lr0Automaton, ParseTable};

/// Case count: `IPG_PROPTEST_CASES` (the CI epoch-stress job runs 256 in
/// release mode), defaulting to 48.
fn cases() -> u32 {
    std::env::var("IPG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The lazy ACTION/GOTO functions answer exactly like the eagerly
    /// generated LR(0) table: both drive the same GSS parser to the same
    /// verdict on arbitrary input.
    #[test]
    fn lazy_tables_equal_eager_tables(spec in grammar_spec(true), codes in sentence(6)) {
        let grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let tokens = resolve_sentence(&grammar, &codes);

        let eager = ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar);
        let graph = ItemSetGraph::new(&grammar);
        let parser = GssParser::new(&grammar);

        let eager_verdict = parser.recognize(&eager, &tokens);
        let lazy_verdict =
            parser.recognize(&LazyTables::new(&grammar, &graph).unwrap(), &tokens);
        prop_assert_eq!(eager_verdict, lazy_verdict);
    }

    /// The paper-faithful parser-pool formulation (PAR-PARSE) and the
    /// graph-structured-stack formulation agree on epsilon-free grammars.
    ///
    /// (With epsilon rules the simple pool formulation of §3.2 can grow its
    /// stacks unboundedly through cyclic epsilon-reduce chains — a known
    /// limitation that the GSS formulation does not have; the pool parser
    /// then reports divergence instead of looping, which is checked by the
    /// companion property below.)
    #[test]
    fn pool_and_gss_recognise_the_same_language(spec in grammar_spec(false), codes in sentence(6)) {
        let grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let tokens = resolve_sentence(&grammar, &codes);
        let table = ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar);

        let gss = GssParser::new(&grammar).recognize(&table, &tokens);
        let pool = PoolGlrParser::new(&grammar).recognize(&table, &tokens);
        prop_assert_eq!(gss, pool.expect("pool parser terminates on epsilon-free grammars"));
    }

    /// With epsilon rules allowed, the pool parser either agrees with the
    /// GSS parser or explicitly reports divergence — it never loops and
    /// never gives a wrong verdict silently.
    #[test]
    fn pool_agrees_or_reports_divergence(spec in grammar_spec(true), codes in sentence(5)) {
        let grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let tokens = resolve_sentence(&grammar, &codes);
        let table = ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar);

        let gss = GssParser::new(&grammar).recognize(&table, &tokens);
        match PoolGlrParser::new(&grammar).recognize(&table, &tokens) {
            Ok(verdict) => prop_assert_eq!(verdict, gss),
            Err(ipg_glr::PoolError::Diverged { .. }) => {
                // Acceptable: cyclic epsilon-reduce chain detected.
            }
        }
    }

    /// Tomita-over-LR(0) (and therefore IPG) recognises the same language
    /// as Earley's algorithm — both claim to handle arbitrary context-free
    /// grammars.
    #[test]
    fn glr_agrees_with_earley(spec in grammar_spec(true), codes in sentence(6)) {
        let grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let tokens = resolve_sentence(&grammar, &codes);

        let table = ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar);
        let glr = GssParser::new(&grammar).recognize(&table, &tokens);
        let earley = EarleyParser::new(&grammar).recognize(&tokens);
        prop_assert_eq!(glr, earley);
    }

    /// A fully expanded lazy graph has exactly as many states as the
    /// conventional automaton — lazy generation changes *when* states are
    /// built, never *which*.
    #[test]
    fn full_lazy_expansion_matches_conventional_automaton(spec in grammar_spec(true)) {
        let grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let conventional = Lr0Automaton::build(&grammar);
        let graph = ItemSetGraph::new(&grammar);
        graph.expand_all(&grammar);
        prop_assert_eq!(graph.num_live(), conventional.num_states());
    }

    /// Accepted sentences of the forest-producing parser really derive the
    /// input: every extracted tree's fringe equals the token sequence.
    #[test]
    fn forest_trees_cover_the_input(spec in grammar_spec(false), codes in sentence(5)) {
        let grammar = spec.build();
        prop_assume!(grammar.validate().is_ok());
        let tokens = resolve_sentence(&grammar, &codes);
        let table = ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar);
        let result = GssParser::new(&grammar).parse(&table, &tokens);
        if result.accepted {
            for tree in result.forest.trees(16) {
                prop_assert_eq!(tree.fringe(), tokens.clone());
            }
        } else {
            prop_assert!(result.forest.roots().is_empty());
        }
    }
}
