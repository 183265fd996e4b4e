//! Property tests for the ISG substrate: the lazily determinised DFA always
//! agrees with direct NFA simulation, and incremental token-definition
//! changes behave like rebuilding the scanner from scratch.

use ipg_lexer::{simple_scanner, CharClass, LazyDfa, Nfa, Regex, Scanner, TokenDef, TokenId};
use proptest::prelude::*;

/// Case count: `IPG_PROPTEST_CASES` (the CI epoch-stress job runs 256 in
/// release mode), defaulting to 64.
fn cases() -> u32 {
    std::env::var("IPG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A small pool of token regexes to combine into scanners.
fn regex_pool() -> Vec<(&'static str, Regex)> {
    vec![
        ("kw_if", Regex::literal("if")),
        ("kw_in", Regex::literal("in")),
        ("ident", Regex::concat([
            Regex::class(CharClass::ident_start()),
            Regex::class(CharClass::ident_continue()).star(),
        ])),
        ("number", Regex::class(CharClass::digit()).plus()),
        ("arrow", Regex::literal("->")),
        ("dashes", Regex::concat([
            Regex::literal("--"),
            Regex::class(CharClass::single('\n').negate()).star(),
        ])),
    ]
}

fn input_strategy() -> impl Strategy<Value = String> {
    // Strings over a small alphabet that exercises overlaps between the
    // token definitions (identifiers vs keywords, `-` vs `--` vs `->`).
    proptest::collection::vec(
        prop_oneof![
            Just("if".to_owned()),
            Just("in".to_owned()),
            Just("x".to_owned()),
            Just("if2".to_owned()),
            Just("42".to_owned()),
            Just("->".to_owned()),
            Just("-".to_owned()),
            Just(" ".to_owned()),
            Just("\n".to_owned()),
        ],
        0..12,
    )
    .prop_map(|parts| parts.concat())
}

/// Token regexes over a mixed alphabet: a negated class (`~[\n]*`, which
/// matches multi-byte characters), multi-byte literals, a class of Greek
/// letters, and ASCII identifiers and numbers.
fn wide_regex_pool() -> Vec<(&'static str, Regex)> {
    let not_newline = || Regex::class(CharClass::single('\n').negate());
    vec![
        ("line", not_newline().star()),
        ("comment", Regex::concat([Regex::literal("--"), not_newline().star()])),
        ("lambda_x", Regex::literal("λx")),
        ("arrow", Regex::literal("→")),
        ("greek", Regex::class(CharClass::range('α', 'ω')).plus()),
        ("ident", Regex::concat([
            Regex::class(CharClass::ident_start()),
            Regex::class(CharClass::ident_continue()).star(),
        ])),
        ("number", Regex::class(CharClass::digit()).plus()),
    ]
}

/// Pieces of the wide inputs: ASCII with two-, three- and four-byte
/// characters, some of which no definition in the wide pool but `~[\n]*`
/// covers. `Ã` is U+00C3, the lead byte of `é` in UTF-8: a scalar value
/// must never be confused with a byte.
const WIDE_PIECES: [&str; 15] = [
    "λ", "λx", "x", "→", "❄", "é", "Ã", "αβ", "ω", "𝛑", "42", "--", "-", " ", "\n",
];

fn wide_input_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..WIDE_PIECES.len()).prop_map(|i| WIDE_PIECES[i]), 0..12)
        .prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The lazy DFA's longest match equals the NFA reference at every
    /// starting offset of arbitrary input.
    #[test]
    fn lazy_dfa_agrees_with_nfa_reference(input in input_strategy(), subset in proptest::collection::vec(any::<bool>(), 6)) {
        let pool = regex_pool();
        let chosen: Vec<Regex> = pool
            .iter()
            .zip(&subset)
            .filter(|(_, &keep)| keep)
            .map(|((_, r), _)| r.clone())
            .collect();
        prop_assume!(!chosen.is_empty());
        let nfa = Nfa::build(&chosen);
        let dfa = LazyDfa::new(Nfa::build(&chosen));
        let chars: Vec<char> = input.chars().collect();
        for start in 0..=chars.len() {
            let reference = nfa.longest_match(&chars[start..]);
            let lazy = dfa.longest_match(&input, start);
            prop_assert_eq!(lazy, reference, "offset {} of {:?}", start, input);
        }
    }

    /// Adding a token definition incrementally gives the same tokenisation
    /// as building the scanner with that definition from the start.
    #[test]
    fn incremental_definition_addition_equals_rebuild(input in input_strategy()) {
        let mut incremental = simple_scanner(&["->", "--"]);
        incremental.add_definition(TokenDef::keyword("if"));
        let fresh = Scanner::new({
            let mut defs = simple_scanner(&["->", "--"]).definitions().to_vec();
            defs.push(TokenDef::keyword("if"));
            defs
        });
        let a = incremental.tokenize(&input);
        let b = fresh.tokenize(&input);
        prop_assert_eq!(a, b);
    }

    /// Removing a token definition incrementally (which carries over the
    /// unaffected DFA states) gives the same tokenisation as building the
    /// scanner without that definition from the start.
    #[test]
    fn incremental_definition_removal_equals_rebuild(input in input_strategy()) {
        let mut incremental = simple_scanner(&["->", "--", "if"]);
        // Materialise part of the DFA before the edit so there is
        // something to carry over.
        let _ = incremental.tokenize(&input);
        let _ = incremental.tokenize("if x -> 42");
        assert!(incremental.remove_definition("if"));
        let fresh = simple_scanner(&["->", "--"]);
        let a = incremental.tokenize(&input);
        let b = fresh.tokenize(&input);
        prop_assert_eq!(a, b);
        // Add-after-remove still matches a fresh build with the same
        // priority order (re-adding appends at the lowest priority).
        incremental.add_definition(TokenDef::keyword("if"));
        let fresh2 = Scanner::new({
            let mut defs = simple_scanner(&["->", "--"]).definitions().to_vec();
            defs.push(TokenDef::keyword("if"));
            defs
        });
        prop_assert_eq!(incremental.tokenize(&input), fresh2.tokenize(&input));
    }

    /// Scanning never panics and either yields tokens covering the input or
    /// a position-accurate error.
    #[test]
    fn scanning_is_total(input in input_strategy()) {
        let scanner = simple_scanner(&["if", "->", "--"]);
        match scanner.tokenize(&input) {
            Ok(tokens) => {
                // Tokens are in order and non-overlapping.
                let mut last_end = 0;
                for t in &tokens {
                    prop_assert!(t.start >= last_end);
                    prop_assert!(t.end > t.start);
                    last_end = t.end;
                }
            }
            Err(ipg_lexer::ScanError::UnexpectedCharacter { offset, .. }) => {
                prop_assert!(offset <= input.len());
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other:?}"))),
        }
    }

    /// On text mixing ASCII and multi-byte characters, the DFA scans the
    /// UTF-8 bytes: at every char boundary its match, converted to a char
    /// count, equals the char-level NFA's, on the dense path and on the
    /// `char`-map path alike. A scanner over the same definitions reports
    /// an unmatched character by its byte offset and the whole `char`.
    #[test]
    fn byte_dfa_agrees_with_char_nfa_on_multibyte_input(
        input in wide_input_strategy(),
        subset in proptest::collection::vec(any::<bool>(), 7),
    ) {
        let chosen: Vec<(&str, Regex)> = wide_regex_pool()
            .into_iter()
            .zip(&subset)
            .filter(|(_, &keep)| keep)
            .map(|(def, _)| def)
            .collect();
        prop_assume!(!chosen.is_empty());
        let regexes: Vec<Regex> = chosen.iter().map(|(_, r)| r.clone()).collect();
        let nfa = Nfa::build(&regexes);
        let dfa = LazyDfa::new(Nfa::build(&regexes));
        let chars: Vec<char> = input.chars().collect();
        let boundaries = input.char_indices().map(|(i, _)| i).chain([input.len()]);
        for (k, start) in boundaries.enumerate() {
            let reference = nfa.longest_match(&chars[k..]);
            for dense in [true, false] {
                dfa.set_dense_scanning(dense);
                let lazy = dfa
                    .longest_match(&input, start)
                    .map(|(len, t)| (input[start..start + len].chars().count(), t));
                prop_assert_eq!(lazy, reference, "byte {} of {:?} (dense {})", start, input, dense);
            }
        }

        let defs = chosen.iter().map(|(name, r)| TokenDef::new(name, r.clone())).collect();
        let scanner = Scanner::new(defs);
        // The oracle tokenization: NFA longest matches, char by char.
        let mut k = 0;
        let mut expected = Vec::new();
        let oracle_error = loop {
            if k == chars.len() {
                break None;
            }
            match nfa.longest_match(&chars[k..]) {
                Some((len, _)) if len > 0 => {
                    expected.push(chars[k..k + len].iter().collect::<String>());
                    k += len;
                }
                _ => break Some((chars[..k].iter().map(|c| c.len_utf8()).sum::<usize>(), chars[k])),
            }
        };
        match scanner.tokenize(&input) {
            Ok(tokens) => {
                prop_assert_eq!(oracle_error, None);
                let texts: Vec<String> = tokens.iter().map(|t| t.text.clone()).collect();
                prop_assert_eq!(texts, expected);
                for t in &tokens {
                    prop_assert_eq!(&input[t.start..t.end], t.text.as_str());
                }
            }
            Err(ipg_lexer::ScanError::UnexpectedCharacter { offset, character }) => {
                prop_assert_eq!(Some((offset, character)), oracle_error);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other:?}"))),
        }
    }
}

/// Token definitions a lexical MODIFY script adds: each splits an alphabet
/// class of the base definitions (`[a-z]+`, `[0-9]+`, blanks) or of an
/// earlier addition — a keyword inside `[a-z]`, a range inside it, a
/// negated class, multi-byte literals and a class of Greek letters.
fn splitting_pool() -> Vec<Regex> {
    vec![
        Regex::literal("if"),
        Regex::class(CharClass::range('m', 'q')).plus(),
        Regex::class(CharClass::parse("~[a-z\\n ]").unwrap()).plus(),
        Regex::literal("λx"),
        Regex::concat([Regex::literal("é"), Regex::class(CharClass::range('α', 'ω')).star()]),
        Regex::literal("x9"),
    ]
}

/// Pieces of the inputs scanned between the edits of a MODIFY script.
const SPLIT_PIECES: [&str; 15] = [
    "if", "iff", "x9", "λx", "λ", "é", "αβ", "mnop", "abc", "42", " ", "\n", "%", "❄", "q",
];

/// At every char boundary of `input`, on the dense path and on the
/// decoding path, the DFA's longest match (as a char count) equals the
/// NFA's.
fn agrees_with_nfa(dfa: &LazyDfa, input: &str) -> Result<(), TestCaseError> {
    let chars: Vec<char> = input.chars().collect();
    let boundaries = input.char_indices().map(|(i, _)| i).chain([input.len()]);
    for (k, start) in boundaries.enumerate() {
        let reference = dfa.nfa().longest_match(&chars[k..]);
        for dense in [true, false] {
            dfa.set_dense_scanning(dense);
            let lazy = dfa
                .longest_match(input, start)
                .map(|(len, t)| (input[start..start + len].chars().count(), t));
            prop_assert_eq!(lazy, reference, "byte {} of {:?} (dense {})", start, input, dense);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Partition refinement under lexical MODIFY: random `add_token` /
    /// `remove_token` scripts whose classes split existing ones, with a
    /// scan after every edit. Carried-over rows copy the entry of a split
    /// class to its new part, and removals keep the finer partition; the
    /// DFA must still agree with direct NFA simulation everywhere.
    #[test]
    fn partition_refinement_under_lexical_modify_agrees_with_nfa(
        script in proptest::collection::vec((any::<bool>(), 0..6usize), 1..8),
        inputs in proptest::collection::vec(proptest::collection::vec(0..SPLIT_PIECES.len(), 0..10), 8),
    ) {
        let pool = splitting_pool();
        let base = [
            Regex::class(CharClass::range('a', 'z')).plus(),
            Regex::class(CharClass::digit()).plus(),
            Regex::class(CharClass::from_ranges([(' ', ' '), ('\n', '\n')])).plus(),
        ];
        let mut dfa = LazyDfa::new(Nfa::build(&base));
        let mut active: Vec<TokenId> = vec![0, 1, 2];
        let text = |i: usize| inputs[i % inputs.len()].iter().map(|&p| SPLIT_PIECES[p]).collect::<String>();
        // Materialise states before the first edit so that there are rows
        // to carry over.
        agrees_with_nfa(&dfa, &text(inputs.len() - 1))?;
        for (step, &(add, pick)) in script.iter().enumerate() {
            if add || active.is_empty() {
                active.push(dfa.add_token(&pool[pick]));
            } else {
                let id = active.remove(pick % active.len());
                prop_assert!(dfa.remove_token(id));
            }
            agrees_with_nfa(&dfa, &text(step))?;
        }
    }
}

/// A multi-byte character no definition matches is reported with its
/// byte offset and as the whole `char`, by `tokenize`, by the streaming
/// tokenizer and by the document re-lexer.
#[test]
fn scan_errors_name_multibyte_characters_at_byte_offsets() {
    let scanner = simple_scanner(&[]);
    let cases = [("ab ❄", 3, '❄'), ("λ", 0, 'λ'), ("x -- é\n é", 9, 'é'), ("1 𝛑", 2, '𝛑')];
    for (input, offset, character) in cases {
        let expected = ipg_lexer::ScanError::UnexpectedCharacter { offset, character };
        assert_eq!(scanner.tokenize(input), Err(expected.clone()), "{input:?}");
        let mut stream = scanner.stream(input);
        let streamed = loop {
            match stream.next_slot() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert_eq!(streamed, Err(expected.clone()), "{input:?}");
        let mut recs = Vec::new();
        let lexed = scanner.lex_records(&mut scanner.dfa_snapshot(), input, &mut recs);
        assert_eq!(lexed, Err(expected), "{input:?}");
    }
}
