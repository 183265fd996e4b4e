//! Scanner snapshots under load: tokenizer threads race the lazy DFA's
//! subset construction *and* lexical-syntax modifications, and every token
//! stream must match a cold single-threaded scanner oracle for the epoch
//! (lexical generation) it was produced against.
//!
//! This is the lexer half of the epoch scheme: `tokenize` pins one
//! immutable DFA snapshot per call (the hot loop takes no locks), misses
//! funnel into the DFA's writer and refresh the pin, and `modify_scanner`
//! publishes a *new* scanner (with a fresh lazy DFA) as part of a new
//! grammar epoch while in-flight tokenizations finish on the snapshot they
//! pinned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use ipg::{IpgServer, IpgSession};
use ipg_grammar::fixtures;
use ipg_lexer::{simple_scanner, ScanError, Scanner, Token, TokenDef};

const INPUTS: &[&str] = &[
    "if x1 then y := 42 else ( z )",
    "begin 007 agent end -- trailing comment",
    "iffy if 0 then then",
    "  \t lots of ws \n 12345",
];

fn cold_tokens(make: impl Fn() -> Scanner, input: &str) -> Result<Vec<Token>, ScanError> {
    // A fresh scanner per call: the single-threaded, cold-DFA oracle.
    make().tokenize(input)
}

#[test]
fn racing_tokenizers_agree_with_cold_oracles() {
    let keywords = &["if", "then", "else", ":=", "(", ")", "begin", "end"];
    let shared = simple_scanner(keywords);
    let expected: Vec<_> = INPUTS
        .iter()
        .map(|input| cold_tokens(|| simple_scanner(keywords), input))
        .collect();
    thread::scope(|scope| {
        for t in 0..4 {
            let shared = &shared;
            let expected = &expected;
            scope.spawn(move || {
                // Each thread starts at a different input so the lazy DFA
                // is expanded from several directions at once.
                for round in 0..20 {
                    for (i, input) in INPUTS.iter().enumerate().skip((t + round) % INPUTS.len()) {
                        assert_eq!(&shared.tokenize(input), &expected[i], "input `{input}`");
                    }
                }
            });
        }
    });
    // All threads materialised one shared cache, and racing did not
    // duplicate states: the set of DFA states reached is exactly the
    // cold oracle's, whatever the interleaving.
    let oracle = simple_scanner(keywords);
    for input in INPUTS {
        let _ = oracle.tokenize(input);
    }
    assert_eq!(shared.dfa_stats().states, oracle.dfa_stats().states);
    assert!(shared.dfa_stats().cache_hits > 0);
}

#[test]
fn lexical_modify_races_tokenizers_with_per_epoch_oracles() {
    let keywords = &["true", "false", "or", "and"];
    let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
        .with_scanner(simple_scanner(keywords));
    let input = "true % false";
    let stable_input = "true or false -- comment\n";

    // Cold single-threaded oracles for the two lexical generations the
    // writer cycles between. `Scanner::rebuilds` counts definition changes,
    // so generation parity identifies the definition set: even = base,
    // odd = base + `%`.
    let base = simple_scanner(keywords);
    let with_percent = {
        let mut s = simple_scanner(keywords);
        s.add_definition(TokenDef::keyword("%"));
        s
    };
    let oracle_base = base.tokenize(input);
    let oracle_percent = with_percent.tokenize(input);
    assert!(oracle_base.is_err(), "`%` does not scan under the base syntax");
    let oracle_stable_base = base.tokenize(stable_input).unwrap();
    let oracle_stable_percent = with_percent.tokenize(stable_input).unwrap();
    assert_eq!(oracle_stable_base, oracle_stable_percent);

    let cycles = if cfg!(debug_assertions) { 8 } else { 20 };
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        for _ in 0..4 {
            let server = &server;
            let done = &done;
            let oracle_base = &oracle_base;
            let oracle_percent = &oracle_percent;
            let oracle_stable = &oracle_stable_base;
            scope.spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                // Pin one epoch; everything observed below belongs to it.
                let epoch = server.current_epoch();
                let scanner = epoch.scanner().expect("server has a scanner");
                let generation = scanner.rebuilds();
                let expected = if generation.is_multiple_of(2) {
                    oracle_base
                } else {
                    oracle_percent
                };
                assert_eq!(
                    &scanner.tokenize(input),
                    expected,
                    "lexical generation {generation}"
                );
                // Inputs untouched by the edit scan identically everywhere.
                assert_eq!(&scanner.tokenize(stable_input).unwrap(), oracle_stable);
                drop(epoch);
                if finished {
                    break;
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..cycles {
                server
                    .modify_scanner(|s| s.add_definition(TokenDef::keyword("%")))
                    .unwrap();
                thread::yield_now();
                server
                    .modify_scanner(|s| {
                        assert!(s.remove_definition("%"));
                    })
                    .unwrap();
                thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    // Every lexical edit published an epoch sharing the table state...
    let stats = server.stats();
    assert_eq!(stats.graph.epochs_published, 2 * cycles);
    assert_eq!(stats.graph.modifications, 0, "no grammar modification ran");
    // ...and with all readers gone, every retired epoch (and its DFA
    // snapshot) has been reclaimed.
    assert_eq!(stats.retired_epochs, 0);
    assert_eq!(stats.graph.epochs_reclaimed, 2 * cycles);
}

/// The DFA carry-over across a lexical `MODIFY`: a definition change that
/// touches one token class must (a) keep every token stream equal to a
/// cold scanner oracle built with the post-edit definitions, and (b) keep
/// a nonzero number of already-materialised DFA states alive instead of
/// rebuilding the automaton from zero — observable through the scanner's
/// carried-states counter and the server's `GenStats`.
#[test]
fn lexical_modify_carries_over_dfa_states_and_matches_cold_oracle() {
    let keywords = &["true", "false", "or", "and"];
    let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
        .with_scanner(simple_scanner(keywords));
    // Materialise a healthy part of the DFA before the edit.
    for input in INPUTS {
        let epoch = server.current_epoch();
        let _ = epoch.scanner().expect("scanner attached").tokenize(input);
    }
    let states_before = {
        let epoch = server.current_epoch();
        epoch.scanner().unwrap().dfa_stats().states
    };
    assert!(states_before > 3, "warm-up materialised states");
    assert_eq!(server.stats().graph.dfa_states_carried, 0);

    // One lexical MODIFY touching one token class.
    server
        .modify_scanner(|s| s.add_definition(TokenDef::keyword("%")))
        .unwrap();

    let epoch = server.current_epoch();
    let scanner = epoch.scanner().unwrap();
    // (b) the post-edit snapshot reports carried-over states — everything
    // but the start state survived the addition.
    assert_eq!(scanner.carried_states(), states_before - 1);
    assert_eq!(scanner.dfa_stats().carried_over, states_before - 1);
    assert_eq!(
        server.stats().graph.dfa_states_carried,
        states_before - 1,
        "the carry-over counter reaches the server's GenStats"
    );
    // (a) token streams equal a cold post-edit oracle, for old inputs and
    // for input using the new token class.
    let cold = {
        let mut s = simple_scanner(keywords);
        s.add_definition(TokenDef::keyword("%"));
        s
    };
    for input in INPUTS.iter().copied().chain(["true % false", "%%"]) {
        assert_eq!(scanner.tokenize(input), cold.tokenize(input), "input `{input}`");
    }
    // The carried states keep serving: re-scanning a stable input through
    // the shared scanner re-derives less than the cold oracle had to.
    let stable_input = "true or false and true -- comment\n";
    cold.tokenize(stable_input).unwrap();
    let misses_before = scanner.dfa_stats().cache_misses;
    scanner.tokenize(stable_input).unwrap();
    let incremental_misses = scanner.dfa_stats().cache_misses - misses_before;
    assert!(
        incremental_misses < cold.dfa_stats().cache_misses,
        "carry-over saved subset-construction work ({incremental_misses} vs {})",
        cold.dfa_stats().cache_misses
    );

    // A removal touching one token class carries over too, and the
    // counter keeps accumulating.
    drop(epoch);
    server
        .modify_scanner(|s| {
            assert!(s.remove_definition("%"));
        })
        .unwrap();
    let epoch = server.current_epoch();
    let scanner = epoch.scanner().unwrap();
    assert!(scanner.carried_states() > states_before - 1);
    let cold_base = simple_scanner(keywords);
    for input in INPUTS {
        assert_eq!(scanner.tokenize(input), cold_base.tokenize(input), "input `{input}`");
    }
    assert!(server.stats().graph.dfa_states_carried > states_before - 1);
}

#[test]
fn pinned_epoch_keeps_its_lexical_syntax_across_modify() {
    let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
        .with_scanner(simple_scanner(&["true", "or"]));
    let pinned = server.current_epoch();
    server
        .modify_scanner(|s| s.add_definition(TokenDef::keyword("%")))
        .unwrap();
    // The pinned epoch still scans with the old lexical syntax...
    assert!(matches!(
        pinned.scanner().unwrap().tokenize("true % true"),
        Err(ScanError::UnexpectedCharacter { .. })
    ));
    // ...while the current epoch scans `%` (and then fails later, in the
    // grammar, which has no such terminal).
    assert!(matches!(
        server.parse_text("true % true"),
        Err(ipg::ServerError::Scan(ScanError::UnknownTerminal { .. }))
    ));
    // Both epochs share one table state: same grammar version.
    assert_eq!(pinned.grammar_version(), server.grammar_version());
}

/// Cold misses under contention: eight threads tokenize the Fig. 7 inputs
/// against one freshly re-lazified SDF scanner, so every subset-construction
/// step races other threads' misses and readers of the rows being written.
/// Every token stream equals a cold single-threaded oracle, and the DFA ends
/// with exactly the oracle's states: no racing miss interned a state twice.
/// A stream dropped part-way leaves the DFA serving correct scans.
#[test]
fn cold_misses_under_contention_match_a_single_thread_oracle() {
    use ipg_sdf::fixtures::{measurement_inputs, sdf_grammar_and_scanner};

    let sdf = sdf_grammar_and_scanner().scanner;
    let inputs = measurement_inputs();
    let oracle = sdf.relazified();
    let expected: Vec<_> = inputs.iter().map(|input| oracle.tokenize(input.text)).collect();
    assert!(expected.iter().all(Result::is_ok), "the Fig. 7 inputs scan");
    let oracle_states = oracle.dfa_stats().states;

    let shared = sdf.relazified();
    assert_eq!(shared.dfa_stats().states, 1, "a re-lazified DFA holds only the start state");
    thread::scope(|scope| {
        for t in 0..8 {
            let (shared, inputs, expected) = (&shared, &inputs, &expected);
            scope.spawn(move || {
                // Threads start at different inputs, and half of them first
                // drop a stream after a few tokens.
                for round in 0..inputs.len() {
                    let i = (t + round) % inputs.len();
                    if t % 2 == 1 {
                        let mut stream = shared.stream(inputs[i].text);
                        for _ in 0..1 + t {
                            stream.next_slot().expect("a prefix of a Fig. 7 input scans");
                        }
                    }
                    assert_eq!(shared.tokenize(inputs[i].text), expected[i], "{}", inputs[i].name);
                }
            });
        }
    });
    assert_eq!(shared.dfa_stats().states, oracle_states);

    // A stream dropped after k tokens, on a cold scanner: later scans are
    // still the oracle's, and its counters were kept (the first token is
    // all misses; by the seventh, steps repeat).
    let asf = inputs.iter().find(|i| i.name == "ASF.sdf").expect("ASF.sdf is a Fig. 7 input");
    let expected_asf = oracle.tokenize(asf.text).expect("ASF.sdf scans");
    for k in [1, 7, 50] {
        let cold = sdf.relazified();
        let mut stream = cold.stream(asf.text);
        for _ in 0..k {
            stream.next_slot().expect("a prefix of ASF.sdf scans");
        }
        drop(stream);
        let hits = cold.dfa_stats().cache_hits;
        assert!(k < 7 || hits > 0, "the dropped stream flushed its counters");
        assert_eq!(cold.tokenize(asf.text).as_ref(), Ok(&expected_asf), "after dropping at {k}");
        assert!(cold.dfa_stats().cache_hits > hits);
    }
}
