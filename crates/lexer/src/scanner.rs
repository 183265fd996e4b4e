//! The incremental scanner generator ISG: named token definitions, layout
//! skipping, longest-match scanning, and incremental addition/removal of
//! token definitions.
//!
//! The scanner produced here feeds the parsers: its token *names* are
//! mapped to grammar terminals by name (see [`Scanner::tokenize_for`]), so
//! an SDF-style definition can drive lexer and parser from one source.

use std::fmt;
use std::sync::Arc;

use ipg_grammar::{Grammar, SymbolId};

use crate::dfa::{DfaSnapshot, DfaStats, LazyDfa, ScanTally};
use crate::nfa::{Nfa, TokenId};
use crate::regex::Regex;

/// One token definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TokenDef {
    /// The token's name; for keywords and punctuation this is usually the
    /// literal text itself (matching the grammar's terminal names).
    pub name: String,
    /// The regular expression it matches.
    pub regex: Regex,
    /// Layout tokens (whitespace, comments) are matched and then skipped.
    pub layout: bool,
}

impl TokenDef {
    /// A normal (non-layout) token.
    pub fn new(name: &str, regex: Regex) -> Self {
        TokenDef {
            name: name.to_owned(),
            regex,
            layout: false,
        }
    }

    /// A keyword or punctuation token whose name equals its literal text.
    pub fn keyword(text: &str) -> Self {
        TokenDef::new(text, Regex::literal(text))
    }

    /// A layout token (matched but not reported).
    pub fn layout(name: &str, regex: Regex) -> Self {
        TokenDef {
            name: name.to_owned(),
            regex,
            layout: true,
        }
    }
}

/// A token produced by the scanner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// Name of the matching token definition.
    pub name: String,
    /// The matched text.
    pub text: String,
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

/// Errors produced while scanning.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanError {
    /// No token definition matches at this offset.
    UnexpectedCharacter {
        /// Byte offset of the offending character.
        offset: usize,
        /// The character itself.
        character: char,
    },
    /// A token name has no corresponding terminal in the grammar (only
    /// reported by [`Scanner::tokenize_for`]).
    UnknownTerminal {
        /// The token name that could not be mapped.
        name: String,
    },
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::UnexpectedCharacter { offset, character } => {
                write!(f, "unexpected character {character:?} at offset {offset}")
            }
            ScanError::UnknownTerminal { name } => {
                write!(f, "token `{name}` has no terminal in the grammar")
            }
        }
    }
}

impl std::error::Error for ScanError {}

/// The incremental, lazily determinising scanner.
///
/// Scanning ([`Scanner::tokenize`] / [`Scanner::tokenize_for`]) takes
/// `&self`: the lazily materialised DFA synchronises internally, so many
/// threads can tokenize against one shared scanner (the serving layer's
/// lexing stage) without exclusive access. Definition changes
/// ([`Scanner::add_definition`] / [`Scanner::remove_definition`]) remain
/// `&mut self` writes, mirroring the parser's read/`MODIFY` split.
///
/// A definition change **carries over** the still-valid part of the lazy
/// DFA instead of discarding it (see [`LazyDfa::add_token`] /
/// [`LazyDfa::remove_token`]): token ids are stable slot indices (removed
/// definitions leave a tombstone), only the DFA states actually affected
/// by the changed definition are re-derived by need, and a full recompile
/// happens only as a fallback once removals have left too much garbage
/// behind.
#[derive(Clone, Debug)]
pub struct Scanner {
    /// Token-id slots; `None` is the tombstone of a removed definition.
    /// Slot order is the tie-breaking priority (earlier wins).
    slots: Vec<Option<TokenDef>>,
    /// The active definitions, in slot (= priority) order.
    active: Vec<TokenDef>,
    dfa: LazyDfa,
    /// Number of definition changes applied (each one used to force a
    /// full DFA rebuild; with carry-over it still counts the lexical
    /// generation).
    rebuilds: usize,
    /// DFA states carried over across definition changes, over the
    /// scanner's lifetime (survives the fallback recompile, which resets
    /// the DFA's own counters).
    carried_total: usize,
}

/// Garbage fraction of the lazy DFA above which a definition *removal*
/// falls back to a full recompile instead of carrying more tombstones.
const REBUILD_GARBAGE_FRACTION: f64 = 0.5;

/// Definition changes between unconditional compacting recompiles.
/// Additions can orphan materialised DFA states that the garbage counter
/// cannot see (the start-state reset changes which subsets are reachable,
/// but an orphaned subset may legitimately be resurrected through the
/// interning index, so there is no cheap exact accounting); a periodic
/// compaction bounds that growth while leaving carry-over in force for
/// every edit in between. One cold restart per 64 edits still beats the
/// pre-carry-over behaviour of one cold restart per edit by 64x.
const COMPACT_EVERY_CHANGES: usize = 64;

impl Scanner {
    /// Builds a scanner for the given token definitions. Definition order
    /// is the tie-breaking priority: earlier definitions win on equal match
    /// length (put keywords before identifiers).
    pub fn new(definitions: Vec<TokenDef>) -> Self {
        let dfa = Self::compile(&definitions);
        Scanner {
            slots: definitions.iter().cloned().map(Some).collect(),
            active: definitions,
            dfa,
            rebuilds: 0,
            carried_total: 0,
        }
    }

    fn compile(definitions: &[TokenDef]) -> LazyDfa {
        let regexes: Vec<Regex> = definitions.iter().map(|d| d.regex.clone()).collect();
        LazyDfa::new(Nfa::build(&regexes))
    }

    /// The current (active) token definitions, in priority order.
    pub fn definitions(&self) -> &[TokenDef] {
        &self.active
    }

    /// DFA work counters. They persist across definition changes (the
    /// carried-over states keep serving); only the fallback recompile
    /// after heavy removal churn resets them.
    pub fn dfa_stats(&self) -> DfaStats {
        let mut stats = self.dfa.stats();
        stats.carried_over = self.carried_total;
        stats
    }

    /// How many times the token definitions have been changed.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// DFA states carried over across definition changes instead of being
    /// rebuilt, over the scanner's lifetime.
    pub fn carried_states(&self) -> usize {
        self.carried_total
    }

    /// Measurement knob: disable (or re-enable) the DFA's byte-class table
    /// and skip loop so benches can compare them against decoding every
    /// `char` on identical hardware. Takes `&self`; safe to flip on a live
    /// scanner.
    pub fn set_dense_scanning(&self, enabled: bool) {
        self.dfa.set_dense_scanning(enabled);
    }

    /// Adds a token definition (at the lowest priority). The already
    /// materialised DFA is carried over — only the start state (whose
    /// closure gains the new definition) is re-derived by need.
    pub fn add_definition(&mut self, definition: TokenDef) {
        let carried_before = self.dfa.stats().carried_over;
        let id = self.dfa.add_token(&definition.regex);
        debug_assert_eq!(id, self.slots.len(), "token ids are slot indices");
        self.carried_total += self.dfa.stats().carried_over - carried_before;
        self.slots.push(Some(definition.clone()));
        self.active.push(definition);
        self.rebuilds += 1;
        self.maybe_compact();
    }

    /// The carry-over escape hatch: recompile from the active definitions
    /// when removals have left too much garbage behind, or on the periodic
    /// schedule that bounds the orphaned-state growth of add-heavy churn.
    fn maybe_compact(&mut self) {
        if self.rebuilds.is_multiple_of(COMPACT_EVERY_CHANGES)
            || self.dfa.garbage_fraction() > REBUILD_GARBAGE_FRACTION
        {
            self.slots = self.active.iter().cloned().map(Some).collect();
            self.dfa = Self::compile(&self.active);
        }
    }

    /// Removes every definition with the given name. Returns `true` if one
    /// was removed. DFA states unaffected by the removed definition are
    /// carried over; once removals have left more than half the automaton
    /// as garbage, the scanner falls back to a compacting recompile.
    pub fn remove_definition(&mut self, name: &str) -> bool {
        let mut removed = false;
        for id in 0..self.slots.len() {
            if self.slots[id].as_ref().is_some_and(|d| d.name == name) {
                let carried_before = self.dfa.stats().carried_over;
                self.dfa.remove_token(id);
                self.carried_total += self.dfa.stats().carried_over - carried_before;
                self.slots[id] = None;
                removed = true;
            }
        }
        if !removed {
            return false;
        }
        self.active.retain(|d| d.name != name);
        self.rebuilds += 1;
        // Fallback: compact the tombstones away and recompile, which also
        // recomputes the alphabet classes from the active definitions:
        // carrying over is no longer worth the garbage.
        self.maybe_compact();
        true
    }

    /// Scans `input` into tokens, skipping layout. Takes `&self`: threads
    /// may scan concurrently against one scanner. The call pins the DFA's
    /// chunk directory up front and serves every step from it — the hot
    /// loop is lock-free; only cache misses (first-time
    /// subset-construction steps) take the DFA's writer. Allocates the
    /// `Token` structs it returns; streaming consumers use
    /// [`Scanner::stream`] and never materialise tokens.
    pub fn tokenize(&self, input: &str) -> Result<Vec<Token>, ScanError> {
        let mut stream = self.stream(input);
        let mut tokens = Vec::new();
        while let Some(m) = stream.next_match()? {
            if !m.layout {
                let def = self.slots[m.slot]
                    .as_ref()
                    .expect("an accepting token is an active slot");
                let end = m.start + m.len;
                tokens.push(Token {
                    name: def.name.clone(),
                    text: input[m.start..end].to_owned(),
                    start: m.start,
                    end,
                });
            }
        }
        Ok(tokens)
    }

    /// Opens a streaming tokenizer over the bytes of `input`, in place and
    /// without allocating. The stream pins the DFA's chunk directory and
    /// yields token-id *slots* instead of materialised [`Token`]s — the
    /// form the fused lexer→parser path consumes. Its scan counters reach
    /// [`Scanner::dfa_stats`] when it is dropped.
    pub fn stream<'a>(&'a self, input: &'a str) -> TokenStream<'a> {
        TokenStream {
            scanner: self,
            pin: self.dfa.snapshot(),
            tally: ScanTally::default(),
            input,
            pos: 0,
        }
    }

    /// Modeled heap bytes of the materialised DFA rows and alphabet (the
    /// derived, evictable state). The persistent token definitions are not
    /// counted: they are the cheap source the lazy DFA re-derives from.
    pub fn resident_bytes(&self) -> usize {
        self.dfa.snapshot().resident_bytes()
    }

    /// Per-chunk accounting rows of the materialised DFA:
    /// `(Arc pointer as usize, modeled bytes)`, so a registry summing
    /// residency across tenants can dedupe by pointer identity.
    pub fn snapshot_accounting(&self) -> Vec<(usize, usize)> {
        self.dfa.snapshot().state_accounting()
    }

    /// A re-lazified copy: the same active definitions with the
    /// materialised DFA discarded. Scanning against the copy re-derives
    /// only the states the retouched inputs actually need — the eviction
    /// half of the registry's evict → re-lazify cycle. Without tombstones
    /// the NFA and the alphabet partition carry over as they are (only the
    /// DFA rows are derived from scanning); with them, the copy is the
    /// compacting recompile of `Scanner::maybe_compact`, which renumbers
    /// the slots. Lifetime counters (`rebuilds`, `carried_states`) are
    /// preserved so stats stay monotone across eviction.
    pub fn relazified(&self) -> Scanner {
        let dfa = if self.slots.len() == self.active.len() {
            self.dfa.relazified()
        } else {
            Self::compile(&self.active)
        };
        Scanner {
            slots: self.active.iter().cloned().map(Some).collect(),
            active: self.active.clone(),
            dfa,
            rebuilds: self.rebuilds,
            carried_total: self.carried_total,
        }
    }

    /// The definition in token-id slot `id`, or `None` for tombstones of
    /// removed definitions and out-of-range ids. Slot ids are what
    /// [`TokenStream`] yields; they are stable across definition changes
    /// (until a compacting recompile renumbers them).
    pub fn slot(&self, id: TokenId) -> Option<&TokenDef> {
        self.slots.get(id)?.as_ref()
    }

    /// Number of token-id slots (active definitions plus tombstones).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The underlying lazy DFA (crate-internal: the incremental re-lexer
    /// in [`crate::relex`] drives it with its own pin).
    pub(crate) fn dfa(&self) -> &LazyDfa {
        &self.dfa
    }

    /// Scans `input` and maps each token to the grammar terminal with the
    /// same name — the form the parsers consume. The paper's measurements
    /// feed the parsers exactly such pre-scanned in-memory token streams.
    pub fn tokenize_for(
        &self,
        grammar: &Grammar,
        input: &str,
    ) -> Result<Vec<SymbolId>, ScanError> {
        let tokens = self.tokenize(input)?;
        tokens
            .iter()
            .map(|t| {
                grammar
                    .symbol(&t.name)
                    .filter(|&s| grammar.is_terminal(s))
                    .ok_or_else(|| ScanError::UnknownTerminal {
                        name: t.name.clone(),
                    })
            })
            .collect()
    }
}

/// One raw scanner match: a token-id slot plus its span in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawMatch {
    /// The matching token-id slot (resolve with [`Scanner::slot`]).
    pub slot: TokenId,
    /// Byte offset of the first matched character.
    pub start: usize,
    /// Length of the match in bytes.
    pub len: usize,
    /// Whether the matching definition is layout (skipped by
    /// [`TokenStream::next_slot`]).
    pub layout: bool,
}

/// A streaming tokenizer over one pinned DFA chunk directory: the scanner
/// side of lexer→parser fusion.
///
/// Yields token-id slots one match at a time instead of materialising a
/// token vector — no `Token` structs, no name/text strings, no copy of the
/// text: the stream walks the input's UTF-8 bytes in place, and every
/// position it reports is a byte offset. Every step against
/// already-memoised DFA entries is a plain load; a miss funnels into the
/// DFA's writer. The stream tallies its scan counters locally and adds
/// them to the DFA's once, when it is dropped.
#[derive(Debug)]
pub struct TokenStream<'a> {
    scanner: &'a Scanner,
    pin: Arc<DfaSnapshot>,
    tally: ScanTally,
    input: &'a str,
    pos: usize,
}

impl Drop for TokenStream<'_> {
    fn drop(&mut self) {
        self.scanner.dfa.flush(&mut self.tally);
    }
}

impl TokenStream<'_> {
    /// The next raw match, layout included. `Ok(None)` at end of input.
    pub fn next_match(&mut self) -> Result<Option<RawMatch>, ScanError> {
        if self.pos >= self.input.len() {
            return Ok(None);
        }
        match self
            .scanner
            .dfa
            .longest_match_pinned(&mut self.pin, &mut self.tally, self.input, self.pos)
        {
            Some((len, slot)) if len > 0 => {
                let start = self.pos;
                self.pos += len;
                let layout = self.scanner.slots[slot]
                    .as_ref()
                    .expect("an accepting token is an active slot")
                    .layout;
                Ok(Some(RawMatch {
                    slot,
                    start,
                    len,
                    layout,
                }))
            }
            _ => Err(unexpected_character(self.input, self.pos)),
        }
    }

    /// The next non-layout token's slot id. `Ok(None)` at end of input.
    pub fn next_slot(&mut self) -> Result<Option<TokenId>, ScanError> {
        while let Some(m) = self.next_match()? {
            if !m.layout {
                return Ok(Some(m.slot));
            }
        }
        Ok(None)
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// The error for a scan that matched nothing at byte offset `pos` of
/// `input`.
pub(crate) fn unexpected_character(input: &str, pos: usize) -> ScanError {
    ScanError::UnexpectedCharacter {
        offset: pos,
        character: input[pos..].chars().next().expect("a scan error lies inside the text"),
    }
}

/// A ready-made scanner for identifier/number/keyword languages, used by
/// examples and tests: layout is ASCII whitespace, `--`-comments run to the
/// end of the line, identifiers are `[a-zA-Z][a-zA-Z0-9_-]*`, numbers are
/// `[0-9]+`, and every supplied keyword or punctuation literal is its own
/// token named after its text.
pub fn simple_scanner(keywords: &[&str]) -> Scanner {
    let mut defs = vec![
        TokenDef::layout("WHITESPACE", Regex::class(crate::charclass::CharClass::whitespace()).plus()),
        TokenDef::layout(
            "COMMENT",
            Regex::concat([
                Regex::literal("--"),
                Regex::class(crate::charclass::CharClass::single('\n').negate()).star(),
            ]),
        ),
    ];
    for kw in keywords {
        defs.push(TokenDef::keyword(kw));
    }
    defs.push(TokenDef::new(
        "id",
        Regex::concat([
            Regex::class(crate::charclass::CharClass::ident_start()),
            Regex::class(crate::charclass::CharClass::ident_continue()).star(),
        ]),
    ));
    defs.push(TokenDef::new(
        "num",
        Regex::class(crate::charclass::CharClass::digit()).plus(),
    ));
    Scanner::new(defs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_grammar::fixtures;

    #[test]
    fn scans_keywords_identifiers_and_numbers() {
        let scanner = simple_scanner(&["if", "then", "else", ":=", "(", ")"]);
        let tokens = scanner
            .tokenize("if x1 then y := 42 -- trailing comment\nelse ( z )")
            .unwrap();
        let names: Vec<&str> = tokens.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["if", "id", "then", "id", ":=", "num", "else", "(", "id", ")"]
        );
        let texts: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts[1], "x1");
        assert_eq!(texts[5], "42");
    }

    #[test]
    fn spans_are_byte_offsets() {
        let scanner = simple_scanner(&[]);
        let tokens = scanner.tokenize("ab  cd").unwrap();
        assert_eq!(tokens[0].start, 0);
        assert_eq!(tokens[0].end, 2);
        assert_eq!(tokens[1].start, 4);
        assert_eq!(tokens[1].end, 6);
    }

    #[test]
    fn keywords_take_priority_over_identifiers_only_on_exact_match() {
        let scanner = simple_scanner(&["if"]);
        let tokens = scanner.tokenize("if iffy").unwrap();
        assert_eq!(tokens[0].name, "if");
        assert_eq!(tokens[1].name, "id");
        assert_eq!(tokens[1].text, "iffy");
    }

    #[test]
    fn unexpected_characters_are_reported_with_offsets() {
        let scanner = simple_scanner(&[]);
        let err = scanner.tokenize("abc $ def").unwrap_err();
        assert_eq!(
            err,
            ScanError::UnexpectedCharacter {
                offset: 4,
                character: '$'
            }
        );
        assert!(err.to_string().contains("offset 4"));
    }

    #[test]
    fn incremental_definition_changes_rebuild_lazily() {
        let mut scanner = simple_scanner(&[]);
        assert!(scanner.tokenize("x % y").is_err());
        scanner.add_definition(TokenDef::keyword("%"));
        assert_eq!(scanner.rebuilds(), 1);
        let tokens = scanner.tokenize("x % y").unwrap();
        assert_eq!(tokens[1].name, "%");
        // The DFA only materialised what this input needed.
        assert!(scanner.dfa_stats().states > 1);
        assert!(scanner.remove_definition("%"));
        assert!(!scanner.remove_definition("%"));
        assert!(scanner.tokenize("x % y").is_err());
        assert_eq!(scanner.rebuilds(), 2);
    }

    #[test]
    fn definition_changes_carry_over_materialised_dfa_states() {
        let mut scanner = simple_scanner(&["if"]);
        let input = "if x1 42 -- note\n";
        scanner.tokenize(input).unwrap();
        let states_before = scanner.dfa_stats().states;
        assert!(states_before > 3);
        scanner.add_definition(TokenDef::keyword("%"));
        // Everything but the start state was carried over...
        assert_eq!(scanner.carried_states(), states_before - 1);
        assert_eq!(scanner.dfa_stats().carried_over, states_before - 1);
        // ...so re-scanning the old input re-derives far less than a cold
        // scanner would.
        let misses_before = scanner.dfa_stats().cache_misses;
        let incremental = scanner.tokenize(input).unwrap();
        let incremental_misses = scanner.dfa_stats().cache_misses - misses_before;
        let cold = {
            let mut s = simple_scanner(&["if"]);
            s.add_definition(TokenDef::keyword("%"));
            s
        };
        let cold_tokens = cold.tokenize(input).unwrap();
        assert_eq!(incremental, cold_tokens, "carry-over must not change the tokens");
        assert!(
            incremental_misses < cold.dfa_stats().cache_misses,
            "carried states must save subset-construction work \
             ({incremental_misses} vs cold {})",
            cold.dfa_stats().cache_misses
        );
        // Removal also carries over and stays oracle-equivalent.
        scanner.remove_definition("%");
        assert!(scanner.carried_states() > states_before - 1);
        assert_eq!(
            scanner.tokenize(input).unwrap(),
            simple_scanner(&["if"]).tokenize(input).unwrap()
        );
    }

    #[test]
    fn heavy_removal_churn_falls_back_to_a_compacting_recompile() {
        let mut scanner = simple_scanner(&[]);
        for i in 0..12 {
            scanner.add_definition(TokenDef::keyword(&format!("kw{i}")));
        }
        scanner.tokenize("kw0 kw11 x").unwrap();
        for i in 0..12 {
            assert!(scanner.remove_definition(&format!("kw{i}")));
        }
        // The garbage threshold forced at least one compacting recompile.
        assert!(scanner.dfa.garbage_fraction() < 0.5);
        // Behaviour equals a fresh scanner with the surviving definitions.
        let input = "x1 42 kw3";
        assert_eq!(
            scanner.tokenize(input).unwrap(),
            simple_scanner(&[]).tokenize(input).unwrap()
        );
        assert_eq!(scanner.definitions().len(), simple_scanner(&[]).definitions().len());
    }

    #[test]
    fn tokenize_for_maps_to_grammar_terminals() {
        let g = fixtures::booleans();
        let scanner = simple_scanner(&["true", "false", "or", "and"]);
        let symbols = scanner.tokenize_for(&g, "true or false and true").unwrap();
        assert_eq!(symbols.len(), 5);
        assert!(symbols.iter().all(|&s| g.is_terminal(s)));
        // Unknown terminal: `id` is not part of the boolean grammar.
        let err = scanner.tokenize_for(&g, "true or banana").unwrap_err();
        assert_eq!(err, ScanError::UnknownTerminal { name: "id".to_owned() });
    }

    #[test]
    fn layout_only_input_produces_no_tokens() {
        let scanner = simple_scanner(&[]);
        assert!(scanner.tokenize("   \n\t -- just a comment").unwrap().is_empty());
        assert!(scanner.tokenize("").unwrap().is_empty());
    }

    #[test]
    fn streaming_slots_agree_with_tokenize() {
        let scanner = simple_scanner(&["if", ":="]);
        let input = "if x1 := 42 -- note\nif";
        let tokens = scanner.tokenize(input).unwrap();
        let mut stream = scanner.stream(input);
        let mut streamed = Vec::new();
        while let Some(slot) = stream.next_slot().unwrap() {
            streamed.push(scanner.slot(slot).unwrap().name.clone());
        }
        let names: Vec<String> = tokens.iter().map(|t| t.name.clone()).collect();
        assert_eq!(streamed, names);
        assert_eq!(stream.position(), input.len());
        // A second stream over another text scans it from its start.
        let mut stream = scanner.stream("if if");
        assert!(stream.next_slot().unwrap().is_some());
    }

    #[test]
    fn streaming_reports_scan_errors_with_byte_offsets() {
        let scanner = simple_scanner(&[]);
        let mut stream = scanner.stream("ab $");
        assert!(stream.next_slot().is_ok());
        assert_eq!(
            stream.next_slot().unwrap_err(),
            ScanError::UnexpectedCharacter {
                offset: 3,
                character: '$'
            }
        );
        // Slot accessors: tombstones and out-of-range ids answer None.
        assert!(scanner.slot(scanner.num_slots()).is_none());
    }

    #[test]
    fn relazified_scanner_drops_derived_state_but_not_behaviour() {
        let scanner = simple_scanner(&["if", "then"]);
        let input = "if x1 then 42 -- note\n";
        scanner.tokenize(input).unwrap();
        let warm_bytes = scanner.resident_bytes();
        assert!(warm_bytes > 0);
        let cold = scanner.relazified();
        // Eviction dropped the materialised states (only the start state
        // survives a cold compile).
        assert!(cold.resident_bytes() < warm_bytes);
        assert_eq!(cold.dfa_stats().states, 1);
        // ...but behaviour is unchanged: laziness rebuilds on demand.
        assert_eq!(cold.tokenize(input).unwrap(), scanner.tokenize(input).unwrap());
        // Lifetime counters survive the eviction.
        assert_eq!(cold.rebuilds(), scanner.rebuilds());
        assert_eq!(cold.carried_states(), scanner.carried_states());
        // Accounting rows are pointer-keyed and sum to the total.
        let rows = scanner.snapshot_accounting();
        assert_eq!(rows.iter().map(|&(_, b)| b).sum::<usize>(), warm_bytes);
    }

    #[test]
    fn definition_accessors() {
        let scanner = simple_scanner(&["+"]);
        assert!(scanner.definitions().iter().any(|d| d.name == "+"));
        assert!(scanner.definitions().iter().any(|d| d.layout));
        assert_eq!(scanner.rebuilds(), 0);
    }
}
