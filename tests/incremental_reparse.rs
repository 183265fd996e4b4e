//! Incremental re-parse equivalence: random edit scripts applied to open
//! document sessions must be indistinguishable from cold re-parses of the
//! spliced text.
//!
//! The contract under test, per edit:
//!
//! * the document's text equals an independently maintained oracle string
//!   (the server applies exactly the requested splice);
//! * if the edited text lexes, the session's parse result digest-matches a
//!   cold `PARSE-TEXT` of the full spliced text — whether the server took
//!   the incremental path or the full-rebuild fallback;
//! * if the edited text does not lex, both the edit and the cold parse
//!   fail (and the session recovers on a later lexable edit);
//! * the `reparse_incremental` / `reparse_full` counters account for every
//!   successful edit, and an edit raced with a grammar or scanner `MODIFY`
//!   always takes the full path — parse state is never spliced across
//!   epochs.
//!
//! Edits are random byte-range splices, deliberately including
//! token-boundary-straddling replacements (which glue identifiers together
//! and can make the text unlexable), whitespace-only edits, pure
//! deletions and appends at EOF. Case count: `IPG_PROPTEST_CASES` (the CI
//! epoch-stress job runs 256 in release), defaulting to a debug-friendly
//! handful locally.

use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ipg::{IpgServer, IpgSession};
use ipg_frontend::{Client, Frontend, FrontendConfig, ShutdownMode};
use ipg_frontend::protocol::{write_request, Status, Verb};
use ipg_grammar::fixtures;
use ipg_lexer::{simple_scanner, ScanError};
use proptest::prelude::*;

mod common;
use common::{digest, grammar_spec, GrammarSpec, TERMINAL_NAMES};

/// One relative edit: resolved against the document's current length, so
/// a fixed script stays applicable as the text grows and shrinks.
#[derive(Clone, Debug)]
struct EditSpec {
    at: usize,
    del: usize,
    /// Replacement character codes: `0..3` are the terminals `a`/`b`/`c`,
    /// `3..` is a space.
    repl: Vec<usize>,
}

impl EditSpec {
    /// Resolves to a concrete `(start..end, replacement)` splice of
    /// `text`. The text is pure ASCII, so every offset is a char boundary.
    fn resolve(&self, text: &str) -> (usize, usize, String) {
        let start = self.at % (text.len() + 1);
        let end = (start + self.del).min(text.len());
        let repl = self
            .repl
            .iter()
            .map(|&c| ['a', 'b', 'c', ' ', ' '][c.min(4)])
            .collect();
        (start, end, repl)
    }
}

fn edit_strategy() -> impl Strategy<Value = EditSpec> {
    (
        0..10_000usize,
        0..8usize,
        prop::collection::vec(0..5usize, 0..6),
    )
        .prop_map(|(at, del, repl)| EditSpec { at, del, repl })
}

/// A substitution of `to.len()` consecutive tokens, starting at token `at`
/// (modulo the document's token count), by the terminals `to`. It keeps
/// the token count, so the incremental path resumes with convergence.
#[derive(Clone, Debug)]
struct Substitution {
    at: usize,
    to: Vec<usize>,
}

impl Substitution {
    /// The byte splice of a `tokens`-token document (one-letter terminals,
    /// one space apart), as an [`EditSpec`].
    fn resolve(&self, tokens: usize) -> EditSpec {
        let first = self.at % tokens;
        let count = self.to.len().min(tokens - first);
        let repl = self.to[..count]
            .iter()
            .flat_map(|&c| [3, c])
            .skip(1)
            .collect();
        EditSpec {
            at: 2 * first,
            del: 2 * count - 1,
            repl,
        }
    }
}

fn substitution_strategy() -> impl Strategy<Value = Substitution> {
    (0..10_000usize, prop::collection::vec(0..3usize, 1..=3))
        .prop_map(|(at, to)| Substitution { at, to })
}

/// A document: space-separated terminal names over `a`/`b`/`c`.
fn document(codes: &[usize]) -> String {
    codes
        .iter()
        .map(|&c| TERMINAL_NAMES[c])
        .collect::<Vec<_>>()
        .join(" ")
}

fn spec_server(spec: &GrammarSpec) -> IpgServer {
    IpgServer::new(IpgSession::new(spec.build()))
        .with_scanner(simple_scanner(&TERMINAL_NAMES[..3]))
}

fn cases() -> u32 {
    std::env::var("IPG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 10 } else { 48 })
}

/// One step of the raced script: an edit, or an epoch-publishing
/// modification. The modifications are language- and lexing-preserving
/// no-ops, so the cold oracle stays valid while every pinned epoch goes
/// stale.
#[derive(Clone, Debug)]
enum Op {
    Edit(EditSpec),
    /// `MODIFY` of the grammar (publishes a new epoch; same language).
    Modify,
    /// `MODIFY` of the scanner (publishes a new epoch; same tokens).
    ModifyScanner,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        edit_strategy().prop_map(Op::Edit),
        edit_strategy().prop_map(Op::Edit),
        edit_strategy().prop_map(Op::Edit),
        Just(Op::Modify),
        Just(Op::ModifyScanner),
    ]
}

/// Applies one edit to both the session and the text oracle and checks
/// the equivalence contract. Returns whether the edit parsed (`Ok`).
fn check_edit(
    server: &IpgServer,
    id: u64,
    text: &mut String,
    edit: &EditSpec,
) -> Result<bool, TestCaseError> {
    let (start, end, repl) = edit.resolve(text);
    check_splice(server, id, text, start..end, &repl)
}

/// [`check_edit`] for a concrete splice: replace bytes `range` (on char
/// boundaries) of the document by `repl`.
fn check_splice(
    server: &IpgServer,
    id: u64,
    text: &mut String,
    range: Range<usize>,
    repl: &str,
) -> Result<bool, TestCaseError> {
    let incremental = server.apply_edit(id, range.clone(), repl);
    text.replace_range(range, repl);
    prop_assert_eq!(
        &server.document_text(id).unwrap(),
        text,
        "the splice itself diverged"
    );
    let cold = server.parse_text(text);
    match (&incremental, &cold) {
        (Ok(_), Ok(cold_result)) => {
            let session_result = server.document_result(id).unwrap();
            prop_assert_eq!(
                digest(&session_result),
                digest(cold_result),
                "incremental result diverged from the cold re-parse of {:?}",
                text
            );
            Ok(true)
        }
        // Unlexable edited text: both sides must say so.
        (Err(_), Err(_)) => Ok(false),
        (Err(_), Ok(cold_result)) => {
            // The cold pipeline is fused and lazy: if every parser dies
            // before the lexical error is reached, the rest of the text is
            // never scanned and the cold parse reports a plain rejection.
            // The eager re-lex of the incremental path still surfaces the
            // scan error — but it must never contradict an *acceptance*.
            prop_assert!(
                !cold_result.accepted,
                "incremental scan error on {:?} but the cold parse accepted",
                text
            );
            Ok(false)
        }
        (Ok(_), Err(_)) => {
            prop_assert!(
                false,
                "incremental parse succeeded on {:?} but the cold parse failed to scan",
                text
            );
            unreachable!()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random grammars × random documents × random edit scripts: every
    /// edit digest-matches a cold re-parse, and the incremental/full
    /// counters account for every successful edit.
    #[test]
    fn random_edit_scripts_match_cold_reparses(
        spec in grammar_spec(true),
        doc in prop::collection::vec(0..3usize, 0..=16),
        edits in prop::collection::vec(edit_strategy(), 1..=10),
    ) {
        let server = spec_server(&spec);
        let mut text = document(&doc);
        let id = server.open_document(&text).expect("initial document lexes");
        let mut parsed_edits = 0usize;
        for edit in &edits {
            if check_edit(&server, id, &mut text, edit)? {
                parsed_edits += 1;
            }
        }
        let merged = server.stats().merged();
        prop_assert_eq!(
            merged.reparse_incremental + merged.reparse_full,
            parsed_edits,
            "every successful edit is counted exactly once"
        );
        server.close_document(id).unwrap();
        // The session pinned only the live epoch: nothing left to reclaim.
        prop_assert_eq!(server.stats().retired_epochs, 0);
    }

    /// Edits interleaved with grammar/scanner `MODIFY`: an edit whose
    /// pinned epoch went stale must take the full-re-parse path (counted
    /// in `reparse_full`), and still digest-match the cold oracle.
    #[test]
    fn edits_raced_with_modify_fall_back_to_full_reparse(
        doc in prop::collection::vec(0..3usize, 0..=12),
        ops in prop::collection::vec(op_strategy(), 1..=12),
    ) {
        // A fixed ambiguous grammar over the same alphabet, so `MODIFY`
        // no-ops are language-preserving by construction.
        let server = IpgServer::from_bnf(r#"
            N0 ::= "a" | "b" | "c" | N0 N0 |
            START ::= N0
        "#).unwrap().with_scanner(simple_scanner(&TERMINAL_NAMES[..3]));
        let mut text = document(&doc);
        let id = server.open_document(&text).expect("initial document lexes");

        // Mirror of the session's staleness state: `stale` tracks whether
        // an epoch was published since the session last (re-)pinned,
        // `synced` whether its parse state survived the last edit.
        let (mut stale, mut synced) = (false, true);
        let (mut want_full, mut want_incremental) = (0usize, 0usize);
        for op in &ops {
            match op {
                Op::Modify => {
                    server.modify(|_| {});
                    stale = true;
                }
                Op::ModifyScanner => {
                    server.modify_scanner(|_| {}).unwrap();
                    stale = true;
                }
                Op::Edit(edit) => {
                    let full_path = stale || !synced;
                    if check_edit(&server, id, &mut text, edit)? {
                        if full_path { want_full += 1 } else { want_incremental += 1 }
                        synced = true;
                        stale = false;
                    } else {
                        synced = false;
                        // The full path re-pins before lexing fails.
                        if full_path { stale = false }
                    }
                }
            }
        }
        let merged = server.stats().merged();
        prop_assert_eq!(merged.reparse_full, want_full, "stale/desynced edits take the full path");
        prop_assert_eq!(merged.reparse_incremental, want_incremental);
        server.close_document(id).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Substitution-only edit scripts over random grammars: every edit
    /// keeps the token count, so each re-parse may stop where it converges
    /// with the recorded parse and keep the recorded suffix — and must
    /// still digest-match a cold re-parse of the spliced text. Each random
    /// grammar gets a left-recursive list spine (`N0 ::= N0 t | t` for
    /// every terminal `t`), so every document parses to its end and the
    /// random rules' ambiguity decides where the re-runs converge.
    #[test]
    fn substitution_scripts_match_cold_reparses(
        spec in grammar_spec(true),
        doc in prop::collection::vec(0..3usize, 1..=24),
        subs in prop::collection::vec(substitution_strategy(), 1..=10),
    ) {
        let mut spec = spec;
        let n0 = spec.num_terminals;
        for t in 0..spec.num_terminals {
            spec.rules[0].extend([vec![n0, t], vec![t]]);
        }
        let server = spec_server(&spec);
        let mut text = document(&doc);
        let id = server.open_document(&text).expect("initial document lexes");
        for sub in &subs {
            let edit = sub.resolve(doc.len());
            prop_assert!(check_edit(&server, id, &mut text, &edit)?, "a substitution always lexes");
        }
        let merged = server.stats().merged();
        prop_assert_eq!(merged.reparse_incremental, subs.len(), "every substitution is incremental");
        prop_assert!(merged.reparse_converged <= merged.reparse_incremental);
        server.close_document(id).unwrap();
    }
}

/// Layout atoms: whitespace and a newline-terminated comment (after a
/// space, since an identifier may contain `-`).
const LAYOUT_ATOMS: [&str; 4] = [" ", "\n", "\t", " --c\n"];

/// A document as tokens with the layout around them: `gaps[0]` leads,
/// `gaps[i]` sits between tokens `i - 1` and `i`, and the last gap
/// trails. Gaps between two tokens are never empty.
#[derive(Clone, Debug)]
struct LaidOut {
    tokens: Vec<usize>,
    gaps: Vec<String>,
}

impl LaidOut {
    fn text(&self) -> String {
        let mut text = self.gaps[0].clone();
        for (token, gap) in self.tokens.iter().zip(&self.gaps[1..]) {
            text.push_str(TERMINAL_NAMES[*token]);
            text.push_str(gap);
        }
        text
    }

    /// The byte range of gap `k` in [`LaidOut::text`].
    fn gap_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = self.gaps[..k].iter().map(String::len).sum::<usize>()
            + self.tokens[..k].iter().map(|&t| TERMINAL_NAMES[t].len()).sum::<usize>();
        start..start + self.gaps[k].len()
    }
}

/// Layout from atom codes, at least `min` atoms long.
fn layout(atoms: &[usize], min: usize) -> String {
    let mut gap: String = atoms.iter().map(|&a| LAYOUT_ATOMS[a % LAYOUT_ATOMS.len()]).collect();
    if gap.len() < min {
        gap.push(' ');
    }
    gap
}

/// Layout of exactly `len` bytes from atom codes: a comment where it fits
/// and the code asks for one, single whitespace characters otherwise.
fn layout_of_len(atoms: &[usize], len: usize) -> String {
    let mut gap = String::new();
    let mut codes = atoms.iter().cycle();
    while gap.len() < len {
        let atom = LAYOUT_ATOMS[codes.next().map_or(0, |&a| a % LAYOUT_ATOMS.len())];
        gap.push_str(if gap.len() + atom.len() <= len { atom } else { " " });
    }
    gap
}

/// One layout edit: replace gap `at` (modulo the gap count) by the layout
/// `atoms` spell — of any length, or of the old gap's byte length when
/// `same_len` is set.
#[derive(Clone, Debug)]
struct Relayout {
    at: usize,
    same_len: bool,
    atoms: Vec<usize>,
}

fn relayout_strategy() -> impl Strategy<Value = Relayout> {
    (0..10_000usize, any::<bool>(), prop::collection::vec(0..4usize, 0..=4))
        .prop_map(|(at, same_len, atoms)| Relayout { at, same_len, atoms })
}

fn laid_out_strategy() -> impl Strategy<Value = LaidOut> {
    (
        prop::collection::vec((0..3usize, prop::collection::vec(0..4usize, 0..=3)), 0..=16),
        prop::collection::vec(0..4usize, 0..=3),
    )
        .prop_map(|(pairs, lead)| {
            let mut gaps = vec![layout(&lead, 0)];
            let mut tokens = Vec::with_capacity(pairs.len());
            for (i, (token, atoms)) in pairs.iter().enumerate() {
                tokens.push(*token);
                gaps.push(layout(atoms, usize::from(i + 1 < pairs.len())));
            }
            LaidOut { tokens, gaps }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Layout-only edit scripts over random grammars: whitespace and
    /// comments before, between and after the tokens are rewritten, some
    /// to the same byte length with a different number of layout matches.
    /// The token sequence never changes, so every edit is incremental,
    /// re-runs no GSS state and keeps the token count — and the session
    /// still digest-matches a cold parse of the edited text.
    #[test]
    fn layout_edit_scripts_match_cold_reparses(
        spec in grammar_spec(true),
        doc in laid_out_strategy(),
        edits in prop::collection::vec(relayout_strategy(), 1..=10),
    ) {
        let server = spec_server(&spec);
        let mut doc = doc;
        let id = server.open_document(&doc.text()).expect("initial document lexes");
        let tokens = server.document_info(id).unwrap().tokens;
        prop_assert_eq!(tokens, doc.tokens.len());
        for edit in &edits {
            let k = edit.at % doc.gaps.len();
            let inner = k > 0 && k < doc.tokens.len();
            let range = doc.gap_range(k);
            let gap = if edit.same_len {
                layout_of_len(&edit.atoms, range.len())
            } else {
                layout(&edit.atoms, usize::from(inner))
            };
            if range.is_empty() && gap.is_empty() {
                continue;
            }
            server.apply_edit(id, range, &gap).expect("a layout edit lexes and parses");
            doc.gaps[k] = gap;
            let text = doc.text();
            prop_assert_eq!(&server.document_text(id).unwrap(), &text);
            prop_assert_eq!(server.document_info(id).unwrap().tokens, tokens);
            let cold = server.parse_text(&text).expect("cold parse of a lexable text");
            prop_assert_eq!(
                digest(&server.document_result(id).unwrap()),
                digest(&cold),
                "layout edit diverged from the cold re-parse of {:?}",
                text
            );
        }
        let merged = server.stats().merged();
        prop_assert_eq!(merged.reparse_full, 0, "layout edits never rebuild");
        prop_assert_eq!(merged.states_rerun, 0, "layout edits never re-run the GSS");
        server.close_document(id).unwrap();
    }
}

/// Multi-byte characters: `λ` and `é` take two UTF-8 bytes, `→` and `❄`
/// three. The identifier class is ASCII, so only comments may hold them;
/// anywhere else they make the text unlexable.
const WIDE_CHARS: [&str; 4] = ["λ", "é", "→", "❄"];

/// Replacement pieces of a wide edit: the multi-byte characters, a token,
/// whitespace, and the two halves of a comment.
const WIDE_PIECES: [&str; 8] = ["λ", "é", "→", "❄", "a", " ", "\n", "--"];

/// A document of one-letter terminals, each followed by a space or by a
/// `--` comment of multi-byte characters.
fn wide_document(doc: &[(usize, Vec<usize>)]) -> String {
    let mut text = String::new();
    for (token, wide) in doc {
        text.push_str(TERMINAL_NAMES[*token]);
        if wide.is_empty() {
            text.push(' ');
        } else {
            text.push_str(" --");
            text.extend(wide.iter().map(|&c| WIDE_CHARS[c]));
            text.push('\n');
        }
    }
    text
}

/// One edit in characters: delete `del` characters from the `at`-th char
/// boundary (modulo their count) and insert the `repl` pieces.
#[derive(Clone, Debug)]
struct WideEdit {
    at: usize,
    del: usize,
    repl: Vec<usize>,
}

impl WideEdit {
    /// The byte splice of `text` this edit names; both ends are char
    /// boundaries.
    fn resolve(&self, text: &str) -> (Range<usize>, String) {
        let boundaries: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        let first = self.at % boundaries.len();
        let last = (first + self.del).min(boundaries.len() - 1);
        let repl = self.repl.iter().map(|&p| WIDE_PIECES[p]).collect();
        (boundaries[first]..boundaries[last], repl)
    }
}

fn wide_edit_strategy() -> impl Strategy<Value = WideEdit> {
    (
        0..10_000usize,
        0..4usize,
        prop::collection::vec(0..WIDE_PIECES.len(), 0..=3),
    )
        .prop_map(|(at, del, repl)| WideEdit { at, del, repl })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Edit scripts over documents whose comments hold multi-byte
    /// characters: inserts, deletes and replacements of those characters
    /// at char boundaries. Every edit digest-matches a cold parse of the
    /// spliced text, and the re-lexer, run beside the session on the same
    /// splices, yields exactly the records of a cold `lex_records` (or,
    /// when the edited text does not lex, the same scan error, which names
    /// the offending character at its byte offset).
    #[test]
    fn multibyte_edit_scripts_match_cold_reparses_and_records(
        spec in grammar_spec(true),
        doc in prop::collection::vec(
            (0..3usize, prop::collection::vec(0..WIDE_CHARS.len(), 0..=3)),
            0..=12,
        ),
        edits in prop::collection::vec(wide_edit_strategy(), 1..=10),
    ) {
        let server = spec_server(&spec);
        let mut text = wide_document(&doc);
        let id = server.open_document(&text).expect("initial document lexes");
        let scanner = simple_scanner(&TERMINAL_NAMES[..3]);
        let mut pin = scanner.dfa_snapshot();
        let mut recs = Vec::new();
        scanner.lex_records(&mut pin, &text, &mut recs).expect("initial document lexes");
        let mut synced = true;
        let mut parsed_edits = 0usize;
        for edit in &edits {
            let (range, repl) = edit.resolve(&text);
            if check_splice(&server, id, &mut text, range.clone(), &repl)? {
                parsed_edits += 1;
            }
            prop_assert_eq!(server.document_info(id).unwrap().bytes, text.len());

            let mut cold = Vec::new();
            let cold_lex = scanner.lex_records(&mut scanner.dfa_snapshot(), &text, &mut cold);
            if let Err(ScanError::UnexpectedCharacter { offset, character }) = &cold_lex {
                prop_assert_eq!(text[*offset..].chars().next(), Some(*character));
            }
            if synced {
                let relexed = scanner.relex_splice(&mut pin, &mut recs, &text, range, repl.len());
                prop_assert_eq!(relexed.err(), cold_lex.clone().err(), "on {:?}", text);
                if cold_lex.is_ok() {
                    prop_assert_eq!(&recs, &cold, "re-lexed records of {:?}", text);
                }
            }
            synced = cold_lex.is_ok();
            if synced {
                recs = cold;
            }
        }
        let merged = server.stats().merged();
        prop_assert_eq!(merged.reparse_incremental + merged.reparse_full, parsed_edits);
        server.close_document(id).unwrap();
    }
}

/// A grammar `MODIFY` that *changes the language* between edits: the next
/// edit must see the new language (proof that the fallback re-parses
/// against the fresh epoch instead of splicing stale state).
#[test]
fn stale_epoch_edits_see_the_new_language() {
    // `c` is interned (via the `"c" "c"` alternative) but a single `c`
    // is not a sentence former yet.
    let server = IpgServer::from_bnf(
        r#"
        N0 ::= "a" | N0 "b" | "c" "c"
        START ::= N0
    "#,
    )
    .unwrap()
    .with_scanner(simple_scanner(&TERMINAL_NAMES[..3]));
    let id = server.open_document("a b b").unwrap();
    assert!(server.document_result(id).unwrap().accepted);

    // An edit introducing a lone `c` rejects.
    server.apply_edit(id, 0..1, "c").unwrap();
    assert!(!server.document_result(id).unwrap().accepted);
    server.apply_edit(id, 0..1, "a").unwrap();

    // ADD-RULE makes `c` an alternative; the session's pinned epoch is now
    // stale, so the same edit must re-parse fully — and accept.
    server.add_rule_text(r#"N0 ::= "c""#).unwrap();
    let outcome = server.apply_edit(id, 0..1, "c").unwrap();
    assert!(outcome.accepted(), "the fallback re-parse sees the added rule");
    let merged = server.stats().merged();
    assert_eq!(merged.reparse_full, 1);
    assert_eq!(merged.reparse_incremental, 2);
    server.close_document(id).unwrap();
}

/// Free-running race: a thread publishing epochs at full speed while the
/// main thread streams edits. Every successful edit must still
/// digest-match its cold oracle, and the counters must account for every
/// edit — whichever path each one took.
#[test]
fn concurrent_modify_race_preserves_equivalence() {
    let server = IpgServer::from_bnf(
        r#"
        N0 ::= "a" | "b" | N0 N0
        START ::= N0
    "#,
    )
    .unwrap()
    .with_scanner(simple_scanner(&TERMINAL_NAMES[..3]));
    let id = server.open_document("a b a b").unwrap();
    let done = AtomicBool::new(false);

    let parsed = thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                server.modify(|_| {});
                thread::yield_now();
            }
        });
        let mut text = String::from("a b a b");
        let mut parsed = 0usize;
        let script: &[(usize, usize, &str)] = &[
            (0, 1, "b"),
            (2, 3, "a b"),
            (0, 0, "a "),
            (4, 5, ""),
            (0, 2, ""),
            (0, 0, "b "),
        ];
        for &(start, end, repl) in script {
            let end = end.min(text.len());
            let start = start.min(end);
            server.apply_edit(id, start..end, repl).unwrap();
            text.replace_range(start..end, repl);
            let cold = server.parse_text(&text).unwrap();
            assert_eq!(
                digest(&server.document_result(id).unwrap()),
                digest(&cold),
                "text {text:?}"
            );
            parsed += 1;
        }
        done.store(true, Ordering::Release);
        parsed
    });

    let merged = server.stats().merged();
    assert_eq!(merged.reparse_incremental + merged.reparse_full, parsed);
    server.close_document(id).unwrap();
}

// --- PARSE-DELTA over the wire -------------------------------------------

fn boolean_server() -> Arc<IpgServer> {
    Arc::new(
        IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and"])),
    )
}

fn frontend_config(workers: usize) -> FrontendConfig {
    FrontendConfig {
        workers,
        queue_depth: 8,
        read_timeout: Duration::from_millis(100),
        ..FrontendConfig::default()
    }
}

#[test]
fn parse_delta_round_trips_and_unknown_documents_answer_error() {
    let frontend = Frontend::bind("127.0.0.1:0", frontend_config(2), boolean_server())
        .expect("bind frontend");
    let mut client = Client::connect(frontend.local_addr()).expect("connect");
    client
        .set_response_timeout(Some(Duration::from_secs(10)))
        .expect("response timeout");

    // A delta to a document that was never opened answers ERROR — it does
    // not hang and does not poison the connection.
    let response = client.parse_delta(9999, 0, 0, "true", 0).expect("one reply");
    assert_eq!(response.status, Status::Error);
    assert!(String::from_utf8_lossy(&response.payload).contains("unknown document"));

    // The connection is still healthy: open, edit, close.
    let response = client.open_doc("true or false", 0).expect("open");
    assert_eq!(response.status, Status::Ok);
    let (doc_id, accepted, _) = Client::open_doc_outcome(&response).expect("open payload");
    assert!(accepted);

    // `false` -> `true and true` (bytes 8..13 of the original text).
    let response = client
        .parse_delta(doc_id, 8, 13, "true and true", 0)
        .expect("delta");
    assert_eq!(response.status, Status::Ok);
    let (accepted, _) = response.parse_outcome().expect("parse outcome payload");
    assert!(accepted);

    // An out-of-range delta answers ERROR and leaves the session usable.
    let response = client.parse_delta(doc_id, 500, 600, "x", 0).expect("reply");
    assert_eq!(response.status, Status::Error);
    assert!(String::from_utf8_lossy(&response.payload).contains("invalid edit range"));
    let response = client.parse_delta(doc_id, 0, 0, "", 0).expect("no-op delta");
    assert_eq!(response.status, Status::Ok);

    assert_eq!(client.close_doc(doc_id).expect("close").status, Status::Ok);
    // Closing twice: the id is gone.
    assert_eq!(client.close_doc(doc_id).expect("reply").status, Status::Error);
    frontend.shutdown(ShutdownMode::Drain);
}

#[test]
fn expired_deadline_delta_is_shed_without_mutating_the_session() {
    let server = boolean_server();
    let frontend =
        Frontend::bind("127.0.0.1:0", frontend_config(1), server).expect("bind frontend");
    let addr = frontend.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_response_timeout(Some(Duration::from_secs(10)))
        .expect("response timeout");
    let response = client.open_doc("true or false", 0).expect("open");
    let (doc_id, _, _) = Client::open_doc_outcome(&response).expect("open payload");

    // Occupy the single worker with pipelined slow parses (the ambiguous
    // or-chain), so a 1 µs-deadline delta expires in the queue.
    let mut slow = String::from("true");
    for _ in 0..120 {
        slow.push_str(" or true");
    }
    let mut busy = TcpStream::connect(addr).expect("connect busy pipeline");
    let mut buf = Vec::new();
    for request_id in 1..=3u64 {
        write_request(&mut busy, &mut buf, request_id, Verb::ParseText, 0, 0, slow.as_bytes())
            .expect("pipeline slow request");
    }

    // The shed delta would have *deleted the whole document*. It must not
    // touch the session.
    let response = client
        .parse_delta(doc_id, 0, 13, "", 1)
        .expect("one reply even when shed");
    assert_eq!(response.status, Status::DeadlineExceeded);

    // Proof of no mutation: a delta addressing the document's final byte
    // (valid only at the original 13-byte length) succeeds, and the text
    // still parses as the original sentence.
    let response = client.parse_delta(doc_id, 12, 13, "e", 0).expect("probe delta");
    assert_eq!(response.status, Status::Ok, "the shed delta did not shrink the text");
    let (accepted, _) = response.parse_outcome().expect("outcome");
    assert!(accepted);

    let stats = frontend.stats();
    assert_eq!(stats.shed_deadline, 1);
    frontend.shutdown(ShutdownMode::Drain);
}
