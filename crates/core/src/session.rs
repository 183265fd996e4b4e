//! `IpgSession`: the user-facing facade of IPG.
//!
//! The paper's motivating scenario (§1) is an interactive language
//! definition environment: a syntax-directed editor holds a grammar that is
//! being edited, sentences are parsed against it continuously, and every
//! grammar change must be absorbed without a full regeneration of the
//! parser. `IpgSession` packages the grammar, the lazily generated item-set
//! graph, the parallel parser and the statistics into one object with that
//! workflow.
//!
//! ## Read/write split
//!
//! The session mirrors the shared-table design underneath it: every *parse*
//! method takes `&self` — parsing only reads the grammar and drives the
//! item-set graph's internally synchronised lazy expansion — while every
//! *modification* (`add_rule`, `remove_rule`, `collect_garbage`, …) takes
//! `&mut self`. Because of that, any number of threads can parse against
//! one session at the same time; to interleave modifications with parses,
//! wrap the session in [`crate::IpgServer`], which publishes each
//! modification as a fresh immutable *epoch* (parses pin the epoch they
//! started on and are never drained) and records request statistics:
//!
//! ```
//! use ipg::IpgSession;
//!
//! let mut session = IpgSession::from_bnf(r#"
//!     B ::= "true" | "false" | B "or" B | B "and" B
//!     START ::= B
//! "#).unwrap();
//!
//! assert!(session.parse_sentence("true and true").unwrap().accepted);
//!
//! // The language designer adds a rule; the parser is updated, not rebuilt.
//! session.add_rule_text(r#"B ::= "unknown""#).unwrap();
//! assert!(session.parse_sentence("true or unknown").unwrap().accepted);
//! ```

use std::fmt;

use ipg_glr::{GssParseResult, GssParser, PoolGlrParser};
use ipg_grammar::{parse_bnf, BnfError, Grammar, GrammarError, RuleId, SymbolId};
use ipg_lr::{LrParser, ParseError, ParseTree, TraceStep};

use crate::graph::{GcPolicy, ItemSetGraph};
use crate::stats::{GenStats, GraphSize};
use crate::tables::LazyTables;

/// Errors returned by [`IpgSession`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// A sentence contained a name that is not a terminal of the grammar.
    UnknownToken(String),
    /// A rule given as text could not be parsed.
    Bnf(BnfError),
    /// A grammar-level error (e.g. deleting a rule that does not exist).
    Grammar(GrammarError),
    /// The deterministic parser could not be used (the grammar is not
    /// LR(0)-deterministic for this input); use [`IpgSession::parse`].
    NotDeterministic(ParseError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownToken(t) => write!(f, "unknown terminal `{t}`"),
            SessionError::Bnf(e) => write!(f, "cannot parse rule: {e}"),
            SessionError::Grammar(e) => write!(f, "grammar error: {e}"),
            SessionError::NotDeterministic(e) => {
                write!(f, "grammar is not deterministic here: {e}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<BnfError> for SessionError {
    fn from(e: BnfError) -> Self {
        SessionError::Bnf(e)
    }
}

impl From<GrammarError> for SessionError {
    fn from(e: GrammarError) -> Self {
        SessionError::Grammar(e)
    }
}

/// An interactive lazy/incremental parsing session.
///
/// `Clone` forks the session **structurally shared**: grammar and item-set
/// graph are persistent stores, so the fork clones O(#chunks) `Arc`s and
/// the two sides copy-on-write only what they subsequently modify —
/// modifications to one side never touch the other, and an edit costs
/// what it invalidates, not what the session has accumulated.
/// [`crate::IpgServer`] uses exactly this to build each successor epoch —
/// `MODIFY` runs on a private fork while parses keep reading the original,
/// and the fork's publication latency stays flat as the grammar grows.
#[derive(Clone, Debug)]
pub struct IpgSession {
    grammar: Grammar,
    graph: ItemSetGraph,
}

impl IpgSession {
    /// Creates a session for an existing grammar with the default
    /// (reference-counting) garbage-collection policy.
    pub fn new(grammar: Grammar) -> Self {
        Self::with_policy(grammar, GcPolicy::default())
    }

    /// Creates a session with an explicit garbage-collection policy.
    pub fn with_policy(grammar: Grammar, gc: GcPolicy) -> Self {
        let graph = ItemSetGraph::with_policy(&grammar, gc);
        IpgSession { grammar, graph }
    }

    /// Creates a session from the textual BNF notation of `ipg-grammar`.
    pub fn from_bnf(text: &str) -> Result<Self, SessionError> {
        Ok(Self::new(parse_bnf(text)?))
    }

    /// The current grammar (read-only; modifications must go through the
    /// session so the item-set graph stays consistent).
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The item-set graph generated so far.
    pub fn graph(&self) -> &ItemSetGraph {
        &self.graph
    }

    /// A snapshot of the generator work counters. The residency gauge
    /// covers the session's stores: the item-set graph's node chunks and
    /// published snapshot plus the grammar's rule arena.
    pub fn stats(&self) -> GenStats {
        let mut stats = self.graph.stats();
        stats.resident_bytes += self.grammar.arena_bytes();
        stats.resident_high_water = stats.resident_high_water.max(stats.resident_bytes);
        stats
    }

    /// Modeled resident bytes of this session's stores (see
    /// [`crate::graph::ItemSetGraph::resident_bytes`] for the byte model):
    /// node chunks + published snapshot + rule arena.
    pub fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes() + self.grammar.arena_bytes()
    }

    /// Pointer-keyed accounting rows `(Arc pointer as usize, modeled
    /// bytes)` over every chunk this session holds alive: node chunks,
    /// published snapshot chunks, and rule-arena chunks. Sessions forked
    /// from a common base share chunks by `Arc`, so a registry summing
    /// residency across tenants dedupes these rows by pointer identity and
    /// counts each shared chunk once.
    pub fn chunk_accounting(&self) -> Vec<(usize, usize)> {
        let mut rows = self.graph.chunk_accounting();
        rows.extend(self.grammar.arena_accounting());
        rows
    }

    /// Current size of the item-set graph.
    pub fn graph_size(&self) -> GraphSize {
        self.graph.size()
    }

    /// Interns (or looks up) a terminal symbol.
    pub fn terminal(&mut self, name: &str) -> SymbolId {
        let id = self.grammar.terminal(name);
        self.graph.acknowledge_non_structural_change(&self.grammar);
        id
    }

    /// Interns (or looks up) a non-terminal symbol.
    pub fn nonterminal(&mut self, name: &str) -> SymbolId {
        let id = self.grammar.nonterminal(name);
        self.graph.acknowledge_non_structural_change(&self.grammar);
        id
    }

    /// Adds a rule (the paper's `ADD-RULE`) and incrementally updates the
    /// item-set graph.
    pub fn add_rule(&mut self, lhs: SymbolId, rhs: Vec<SymbolId>) -> RuleId {
        self.graph.add_rule(&mut self.grammar, lhs, rhs)
    }

    /// Deletes a rule (the paper's `DELETE-RULE`) and incrementally updates
    /// the item-set graph.
    pub fn remove_rule(&mut self, lhs: SymbolId, rhs: &[SymbolId]) -> Result<RuleId, SessionError> {
        Ok(self.graph.remove_rule(&mut self.grammar, lhs, rhs)?)
    }

    /// Adds a rule written in the textual BNF notation, e.g.
    /// `B ::= "unknown"` or `E ::= E "+" T`. Alternatives (`|`) add several
    /// rules; the last added rule's id is returned.
    pub fn add_rule_text(&mut self, text: &str) -> Result<RuleId, SessionError> {
        let rules = self.rules_from_text(text)?;
        let mut last = None;
        for (lhs, rhs) in rules {
            last = Some(self.add_rule(lhs, rhs));
        }
        last.ok_or_else(|| {
            SessionError::Bnf(BnfError {
                line: 1,
                message: "no rule found in text".to_owned(),
            })
        })
    }

    /// Deletes a rule written in the textual BNF notation.
    pub fn remove_rule_text(&mut self, text: &str) -> Result<RuleId, SessionError> {
        let rules = self.rules_from_text(text)?;
        let mut last = None;
        for (lhs, rhs) in rules {
            last = Some(self.remove_rule(lhs, &rhs)?);
        }
        last.ok_or_else(|| {
            SessionError::Bnf(BnfError {
                line: 1,
                message: "no rule found in text".to_owned(),
            })
        })
    }

    /// Parses rule text against *this* session's symbol table. Existing
    /// symbols keep their kind; new bare identifiers on the right-hand side
    /// become terminals unless they are defined as a left-hand side in the
    /// same text.
    fn rules_from_text(&mut self, text: &str) -> Result<Vec<(SymbolId, Vec<SymbolId>)>, SessionError> {
        // Parse the text into a scratch grammar to reuse the BNF parser,
        // then re-intern the symbols into the session grammar by name.
        let scratch = parse_bnf(text)?;
        let mut out = Vec::new();
        for rule in scratch.rules() {
            if rule.lhs == scratch.start_symbol() {
                // START rules in fragments are allowed and mapped onto the
                // session's START symbol.
            }
            let lhs_name = scratch.name(rule.lhs).to_owned();
            let lhs = if lhs_name == ipg_grammar::START_NAME {
                self.grammar.start_symbol()
            } else {
                self.nonterminal(&lhs_name)
            };
            let mut rhs = Vec::with_capacity(rule.rhs.len());
            for &s in &rule.rhs {
                let name = scratch.name(s).to_owned();
                let id = match self.grammar.symbol(&name) {
                    Some(existing) => existing,
                    None => {
                        if scratch.is_nonterminal(s) {
                            self.nonterminal(&name)
                        } else {
                            self.terminal(&name)
                        }
                    }
                };
                rhs.push(id);
            }
            out.push((lhs, rhs));
        }
        Ok(out)
    }

    /// Converts a whitespace-separated sentence of terminal names into
    /// symbol ids.
    pub fn tokens(&self, sentence: &str) -> Result<Vec<SymbolId>, SessionError> {
        let mut out = Vec::new();
        self.tokens_into(sentence, &mut out)?;
        Ok(out)
    }

    /// Like [`IpgSession::tokens`], filling a caller-owned reusable buffer
    /// (cleared first) instead of allocating a vector — the form the
    /// serving layer's recycled request contexts use.
    pub fn tokens_into(
        &self,
        sentence: &str,
        out: &mut Vec<SymbolId>,
    ) -> Result<(), SessionError> {
        out.clear();
        for name in sentence.split_whitespace() {
            let symbol = self
                .grammar
                .symbol(name)
                .filter(|&s| self.grammar.is_terminal(s))
                .ok_or_else(|| SessionError::UnknownToken(name.to_owned()))?;
            out.push(symbol);
        }
        Ok(())
    }

    /// A read-path handle on the lazy tables of this session — the same
    /// handle the parse methods use internally. The session keeps grammar
    /// and graph in sync, so construction cannot fail.
    pub fn tables(&self) -> LazyTables<'_> {
        LazyTables::new(&self.grammar, &self.graph)
            .expect("the session keeps grammar and graph in sync")
    }

    /// Parses a token sentence with the parallel (GSS) parser over the lazy
    /// tables, returning the full result (acceptance, forest, statistics).
    ///
    /// Takes `&self`: parsing is a shared read (lazy expansion serializes
    /// internally), so threads may parse one session concurrently.
    pub fn parse(&self, tokens: &[SymbolId]) -> GssParseResult {
        let parser = GssParser::new(&self.grammar);
        parser.parse(&self.tables(), tokens)
    }

    /// Parses a token sentence in a reusable [`ipg_glr::ParseCtx`]: the
    /// forest lands in the context's arena and all driver scratch is
    /// recycled — the allocation-free form of [`IpgSession::parse`] for
    /// callers managing their own contexts (the serving layer pools them
    /// per worker thread).
    pub fn parse_in(
        &self,
        ctx: &mut ipg_glr::ParseCtx,
        tokens: &[SymbolId],
    ) -> ipg_glr::ParseOutcome {
        GssParser::new(&self.grammar).parse_into(ctx, &self.tables(), tokens)
    }

    /// Recognises a token sentence in a reusable context (no forest).
    pub fn recognize_in(
        &self,
        ctx: &mut ipg_glr::ParseCtx,
        tokens: &[SymbolId],
    ) -> ipg_glr::ParseOutcome {
        let run = ipg_glr::GssRun::recognize(ipg_glr::SliceTokens::new(tokens));
        let Ok(outcome) = GssParser::new(&self.grammar).run(ctx, &self.tables(), run);
        outcome
    }

    /// Convenience: [`IpgSession::parse`] on a whitespace-separated
    /// sentence of terminal names.
    pub fn parse_sentence(&self, sentence: &str) -> Result<GssParseResult, SessionError> {
        let tokens = self.tokens(sentence)?;
        Ok(self.parse(&tokens))
    }

    /// Recognises a token sentence (no forest construction).
    pub fn recognize(&self, tokens: &[SymbolId]) -> bool {
        let parser = GssParser::new(&self.grammar);
        parser.recognize(&self.tables(), tokens)
    }

    /// Recognises a sentence with the paper-faithful parser-pool algorithm
    /// instead of the graph-structured stack (used by the ablation
    /// benches; the result is the same).
    pub fn recognize_with_pool(&self, tokens: &[SymbolId]) -> bool {
        let parser = PoolGlrParser::new(&self.grammar);
        parser
            .recognize(&self.tables(), tokens)
            .expect("pool parser diverged on a non-cyclic grammar")
    }

    /// Parses deterministically (plain `LR-PARSE`), returning a single
    /// parse tree. Fails with [`SessionError::NotDeterministic`] if the
    /// lazily generated LR(0) table has a conflict on this input.
    pub fn parse_deterministic(&self, tokens: &[SymbolId]) -> Result<ParseTree, SessionError> {
        let parser = LrParser::new(&self.grammar);
        parser
            .parse(&self.tables(), tokens)
            .map_err(SessionError::NotDeterministic)
    }

    /// Like [`IpgSession::parse_deterministic`], recording the parser's
    /// moves (Fig. 4.2).
    pub fn parse_deterministic_with_trace(
        &self,
        tokens: &[SymbolId],
        trace: &mut Vec<TraceStep>,
    ) -> Result<ParseTree, SessionError> {
        let parser = LrParser::new(&self.grammar);
        parser
            .parse_with_trace(&self.tables(), tokens, trace)
            .map_err(SessionError::NotDeterministic)
    }

    /// Forces full expansion of the item-set graph (turning IPG into PG);
    /// useful for measurements and for warming a served table.
    pub fn expand_all(&self) {
        self.expand_all_parallel(1);
    }

    /// [`IpgSession::expand_all`] with the expansion frontier and the row
    /// building/publication fanned out over `threads` worker threads. The
    /// result is identical to the serial warm (same state ids, same rows,
    /// same kernel index — see
    /// [`crate::graph::ItemSetGraph::expand_all_parallel`]); only the
    /// wall-clock changes.
    pub fn expand_all_parallel(&self, threads: usize) {
        self.graph.expand_all_parallel(&self.grammar, threads);
        self.graph.publish_all_rows_parallel(&self.grammar, threads);
    }

    /// Runs a mark-and-sweep collection over the item-set graph.
    pub fn collect_garbage(&mut self) {
        self.graph.mark_and_sweep(&self.grammar);
    }

    /// Forces this session to own every piece of its (normally
    /// structurally shared) storage, copying whatever is still shared
    /// with other forks — the cost profile of a *deep* fork. Exists so
    /// the `publish-scaling` benchmark can compare persistent against
    /// deep-fork epoch publication; serving code never needs it.
    pub fn unshare_all(&mut self) {
        self.grammar.unshare();
        self.graph.unshare_all();
    }

    /// Fraction of the *full* LR(0) parse table that has been generated so
    /// far: the measurement behind the paper's "only 60 percent of the
    /// parse table had to be generated" (§5.2). This builds the full
    /// automaton for comparison, so it is intended for reporting, not for
    /// hot paths.
    pub fn coverage(&self) -> f64 {
        let full = ipg_lr::Lr0Automaton::build(&self.grammar).num_states();
        self.graph.size().coverage_of(full)
    }

    /// Renders the current item-set graph.
    pub fn render_graph(&self) -> String {
        self.graph.render(&self.grammar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_grammar::fixtures;

    fn boolean_session() -> IpgSession {
        IpgSession::new(fixtures::booleans())
    }

    #[test]
    fn parse_accepts_and_rejects() {
        let s = boolean_session();
        assert!(s.parse_sentence("true or false").unwrap().accepted);
        assert!(!s.parse_sentence("true or").unwrap().accepted);
        assert!(matches!(
            s.parse_sentence("true xor false"),
            Err(SessionError::UnknownToken(t)) if t == "xor"
        ));
    }

    #[test]
    fn lazy_generation_is_observable_through_stats() {
        let s = boolean_session();
        assert_eq!(s.graph_size().complete, 0);
        s.parse_sentence("true and true").unwrap();
        let after_first = s.graph_size().complete;
        assert!(after_first > 0);
        assert!(s.coverage() > 0.0 && s.coverage() < 1.0);
        // Parsing a sentence with `or`/`false` expands more of the table.
        s.parse_sentence("false or true").unwrap();
        assert!(s.graph_size().complete > after_first);
    }

    #[test]
    fn add_rule_text_and_parse_new_syntax() {
        let mut s = boolean_session();
        s.parse_sentence("true").unwrap();
        let rule = s.add_rule_text(r#"B ::= "unknown""#).unwrap();
        assert!(s.grammar().is_active(rule));
        assert!(s.parse_sentence("unknown and false").unwrap().accepted);
        assert_eq!(s.stats().modifications, 1);
        assert!(s.stats().invalidations > 0);
    }

    #[test]
    fn remove_rule_text_rejects_old_syntax() {
        let mut s = boolean_session();
        assert!(s.parse_sentence("true and true").unwrap().accepted);
        s.remove_rule_text(r#"B ::= B "and" B"#).unwrap();
        assert!(!s.parse_sentence("true and true").unwrap().accepted);
        assert!(s.parse_sentence("true or true").unwrap().accepted);
        // Removing it again is an error.
        assert!(matches!(
            s.remove_rule_text(r#"B ::= B "and" B"#),
            Err(SessionError::Grammar(_))
        ));
    }

    #[test]
    fn deterministic_parse_and_trace() {
        let s = IpgSession::new(fixtures::arithmetic());
        let tokens = s.tokens("id + num").unwrap();
        let tree = s.parse_deterministic(&tokens).unwrap();
        assert_eq!(tree.leaf_count(), 3);
        let mut trace = Vec::new();
        let tree2 = s.parse_deterministic_with_trace(&tokens, &mut trace).unwrap();
        assert_eq!(tree, tree2);
        assert!(!trace.is_empty());
    }

    #[test]
    fn deterministic_parse_reports_conflicts() {
        let s = boolean_session();
        let tokens = s.tokens("true or true or true").unwrap();
        assert!(matches!(
            s.parse_deterministic(&tokens),
            Err(SessionError::NotDeterministic(_))
        ));
    }

    #[test]
    fn pool_and_gss_agree_in_the_session() {
        let s = boolean_session();
        let tokens = s.tokens("true or false and true").unwrap();
        assert_eq!(s.recognize(&tokens), s.recognize_with_pool(&tokens));
        let bad = s.tokens("or or").unwrap();
        assert_eq!(s.recognize(&bad), s.recognize_with_pool(&bad));
    }

    #[test]
    fn ambiguous_sentences_report_all_parses() {
        let s = boolean_session();
        let result = s.parse_sentence("true or true or true").unwrap();
        assert!(result.accepted);
        assert_eq!(result.forest.tree_count(100), 2);
    }

    #[test]
    fn expand_all_reaches_full_coverage() {
        let s = boolean_session();
        s.expand_all();
        assert!((s.coverage() - 1.0).abs() < 1e-9);
        let text = s.render_graph();
        assert!(text.contains("complete"));
    }

    #[test]
    fn interleaved_edits_and_parses() {
        // A longer editing session: grow an expression language step by step.
        let mut s = IpgSession::from_bnf(
            r#"
            E ::= "id"
            START ::= E
            "#,
        )
        .unwrap();
        assert!(s.parse_sentence("id").unwrap().accepted);
        assert!(!s.parse_sentence("id id").unwrap().accepted);
        // `+` is not even a known token yet.
        assert!(matches!(
            s.parse_sentence("id + id"),
            Err(SessionError::UnknownToken(_))
        ));

        s.add_rule_text(r#"E ::= E "+" E"#).unwrap();
        assert!(s.parse_sentence("id + id").unwrap().accepted);

        s.add_rule_text(r#"E ::= E "*" E"#).unwrap();
        s.add_rule_text(r#"E ::= "(" E ")""#).unwrap();
        assert!(s.parse_sentence("( id + id ) * id").unwrap().accepted);

        s.remove_rule_text(r#"E ::= E "+" E"#).unwrap();
        assert!(!s.parse_sentence("id + id").unwrap().accepted);
        assert!(s.parse_sentence("id * ( id )").unwrap().accepted);
        assert_eq!(s.stats().modifications, 4);
        // Garbage collection keeps the graph bounded.
        s.collect_garbage();
        assert!(s.graph_size().total <= 40);
    }

    #[test]
    fn session_error_messages() {
        let e = SessionError::UnknownToken("zzz".to_owned());
        assert!(e.to_string().contains("zzz"));
        let b: SessionError = BnfError { line: 2, message: "bad".into() }.into();
        assert!(b.to_string().contains("line 2"));
    }

    #[test]
    fn add_rule_text_with_empty_input_is_an_error() {
        let mut s = boolean_session();
        assert!(matches!(
            s.add_rule_text("   \n  "),
            Err(SessionError::Bnf(_))
        ));
    }
}
