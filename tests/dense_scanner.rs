//! Dense-scanner equivalence: the byte-table fast path added to the lazy
//! DFA must be *observationally invisible* — every token stream it
//! produces must equal the lazy `char`-map path's, over random token sets
//! and random inputs, including non-ASCII input (which falls back to the
//! lazy path mid-token), bytes at the Latin-1/BMP boundary, inputs that
//! fail to scan, and lexical `MODIFY` mid-stream (where carried-over DFA
//! states keep their dense rows).
//!
//! Case count: `IPG_PROPTEST_CASES` (the CI epoch-stress job runs 256 in
//! release mode), defaulting to a debug-friendly handful locally.

use ipg_lexer::{simple_scanner, Scanner};
use proptest::prelude::*;

/// Keyword pool the random token sets draw from: ASCII operators and
/// words, multi-byte UTF-8 keywords, and keywords spanning the 0xFF/0x100
/// boundary (both `ÿ` and `Ā` are multi-byte, served by the `char` map).
const KEYWORD_POOL: &[&str] = &[
    "if", "then", "else", ":=", "(", ")", "==", "=", "<", "<<", "λ", "λx", "déjà", "→", "ÿ", "ÿĀ",
    "end",
];

/// Word pool the random inputs draw from: pool keywords, identifiers,
/// numbers, non-ASCII words, boundary characters, and characters no token
/// definition covers (so scans can fail — errors must be identical too).
const WORD_POOL: &[&str] = &[
    "if", "then", "else", ":=", "(", ")", "==", "=", "<", "<<", "λ", "λx", "déjà", "→", "ÿ", "ÿĀ",
    "end", "x1", "foo", "42", "007", "-- comment", "§", "❄", "Āā",
];

fn scanner_with(keyword_idx: &[usize]) -> Scanner {
    let keywords: Vec<&str> = keyword_idx.iter().map(|&i| KEYWORD_POOL[i]).collect();
    simple_scanner(&keywords)
}

fn input_of(word_idx: &[usize]) -> String {
    let words: Vec<&str> = word_idx.iter().map(|&i| WORD_POOL[i]).collect();
    words.join(" ")
}

fn cases() -> u32 {
    std::env::var("IPG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 16 } else { 64 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random token set, random input: the shared scanner with the dense
    /// fast path enabled (the default) agrees exactly — tokens *and*
    /// errors — with a fresh scanner restricted to the lazy `char` path.
    #[test]
    fn dense_and_lazy_scanners_tokenize_identically(
        keyword_idx in prop::collection::vec(0..KEYWORD_POOL.len(), 1..6),
        word_idx in prop::collection::vec(0..WORD_POOL.len(), 0..12),
    ) {
        let input = input_of(&word_idx);
        let dense = scanner_with(&keyword_idx);
        let lazy = scanner_with(&keyword_idx);
        lazy.set_dense_scanning(false);
        prop_assert_eq!(dense.tokenize(&input), lazy.tokenize(&input));
        // Scanning again hits the dense rows built by the first pass —
        // still identical (the dense row is a projection of the same
        // memoised transitions).
        prop_assert_eq!(dense.tokenize(&input), lazy.tokenize(&input));
    }

    /// Lexical `MODIFY` mid-stream: warm the scanner (building dense rows),
    /// then change the token definitions — the carried-over states keep
    /// their dense rows, and the post-edit streams must still equal a cold
    /// all-lazy oracle built with the post-edit definitions.
    #[test]
    fn dense_rows_survive_lexical_modify(
        keyword_idx in prop::collection::vec(0..KEYWORD_POOL.len(), 1..5),
        word_idx in prop::collection::vec(0..WORD_POOL.len(), 1..10),
        added in 0..KEYWORD_POOL.len(),
    ) {
        let input = input_of(&word_idx);
        let mut dense = scanner_with(&keyword_idx);
        let _ = dense.tokenize(&input); // warm: dense rows materialise
        dense.add_definition(ipg_lexer::TokenDef::keyword(KEYWORD_POOL[added]));
        let lazy = {
            let mut s = scanner_with(&keyword_idx);
            s.add_definition(ipg_lexer::TokenDef::keyword(KEYWORD_POOL[added]));
            s.set_dense_scanning(false);
            s
        };
        prop_assert_eq!(dense.tokenize(&input), lazy.tokenize(&input));
        let marked = format!("{} {} {}", KEYWORD_POOL[added], input, KEYWORD_POOL[added]);
        prop_assert_eq!(dense.tokenize(&marked), lazy.tokenize(&marked));
        // And removing it again keeps agreeing. (The oracle replays the
        // same edit history: `remove_definition` removes *every* slot with
        // the name, including one the random keyword set already had.)
        dense.remove_definition(KEYWORD_POOL[added]);
        let lazy_removed = {
            let mut s = scanner_with(&keyword_idx);
            s.add_definition(ipg_lexer::TokenDef::keyword(KEYWORD_POOL[added]));
            s.remove_definition(KEYWORD_POOL[added]);
            s.set_dense_scanning(false);
            s
        };
        prop_assert_eq!(dense.tokenize(&input), lazy_removed.tokenize(&input));
    }
}

/// The fast path actually engages on ASCII input: dense bytes and
/// skip-loop bytes are counted, and disabling it changes nothing but the
/// counters.
#[test]
fn dense_counters_engage_on_ascii_and_the_paths_agree() {
    let scanner = simple_scanner(&["if", "then", ":="]);
    let input = "if aaaaaaaaaaaaaaaaaaaaaaaaaa then b := 12345";
    let expected = scanner.tokenize(input).expect("input scans");
    let stats = scanner.dfa_stats();
    assert!(stats.dense_bytes > 0, "dense stepping engaged");
    assert!(stats.skip_loop_bytes > 0, "the identifier run used the skip loop");
    assert!(stats.dense_rows_built > 0, "snapshot states carry dense rows");
    scanner.set_dense_scanning(false);
    let lazy_tokens = scanner.tokenize(input).expect("input scans");
    assert_eq!(expected, lazy_tokens);
    let after = scanner.dfa_stats();
    assert_eq!(stats.dense_bytes, after.dense_bytes, "lazy pass adds no dense bytes");
    assert_eq!(stats.skip_loop_bytes, after.skip_loop_bytes);
}
