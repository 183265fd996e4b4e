//! Epoch equivalence: randomized edit scripts — sequences of
//! `ADD-RULE` / `DELETE-RULE` / GC over the Fig. 7 SDF workload,
//! interleaved with parses — must be indistinguishable from single-threaded
//! oracle replays.
//!
//! The server publishes every edit as a new immutable grammar epoch while
//! parses in flight keep the epoch they pinned, so the correctness
//! statement is *per epoch*: whatever grammar version a parse reports, its
//! accept/reject verdict and forest digest must equal those of a fresh,
//! cold session that replayed exactly the edit prefix producing that
//! version.
//!
//! Case count: `IPG_PROPTEST_CASES` (the CI epoch-stress job runs 256 in
//! release mode), defaulting to a debug-friendly handful locally.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

use ipg::{IpgServer, IpgSession};
use ipg_bench::SdfWorkload;
use ipg_grammar::{Grammar, SymbolId};
use proptest::prelude::*;

mod common;
use common::{digest, Digest};

/// One step of an edit script, over a fixed pool of candidate rules so
/// that the server run and the oracle replay apply bit-identical edits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EditOp {
    /// `ADD-RULE` of pool rule *i* (re-adding an active rule is the
    /// grammar's documented no-op).
    Add(usize),
    /// `DELETE-RULE` of pool rule *i* (deleting an absent rule is an
    /// error, which the script ignores — deterministically).
    Remove(usize),
    /// A mark-and-sweep collection (language-preserving).
    Gc,
}

/// The SDF fixture shared by every case: the normalised grammar, the
/// pre-lexed measurement inputs plus the discriminating `( … )?` module,
/// and the candidate-rule pool.
struct Fixture {
    grammar: Grammar,
    /// `(name, tokens)` — parsed by every thread in every round.
    inputs: Vec<(&'static str, Vec<SymbolId>)>,
    /// Candidate rules the edit ops index into.
    pool: Vec<(SymbolId, Vec<SymbolId>)>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let workload = SdfWorkload::load();
        let input_names: &[&str] = if cfg!(debug_assertions) {
            &["exp.sdf"]
        } else {
            &["exp.sdf", "Exam.sdf"]
        };
        let mut inputs: Vec<(&'static str, Vec<SymbolId>)> = input_names
            .iter()
            .map(|name| (*name, workload.input(name).tokens.clone()))
            .collect();
        // A module using the added `( ... )?` syntax: rejected unless the
        // §7 rule is active — the input that makes edits observable.
        {
            use ipg_lexer::TokenDef;
            use ipg_sdf::fixtures::sdf_grammar_and_scanner;
            let mut scanner = sdf_grammar_and_scanner().scanner;
            scanner.add_definition(TokenDef::keyword(")?"));
            let optional_module = r#"
                module Optional
                begin
                    context-free syntax
                        sorts D
                        functions
                            "unit" ( D D )? -> D
                end Optional
            "#;
            let tokens = scanner
                .tokenize_for(&workload.grammar, optional_module)
                .expect("optional-group module scans");
            inputs.push(("optional-group module", tokens));
        }

        let (cf_elem, paper_rhs) = workload.modification.clone();
        let grammar = workload.grammar.clone();
        let sym = |name: &str| grammar.symbol(name).expect("symbol in the SDF grammar");
        let pool = vec![
            // The §7 modification itself: `"(" CF-ELEM+ ")?" -> CF-ELEM`.
            (cf_elem, paper_rhs),
            // A synthetic alternative reusing interned symbols only.
            (cf_elem, vec![sym(")?")]),
            (cf_elem, vec![sym("("), sym("SORT"), sym(")?")]),
            // A rule of the *base* grammar (`SORT -> CF-ELEM`): deleting it
            // breaks most modules, re-adding restores them — the
            // high-contrast edit.
            (cf_elem, vec![sym("SORT")]),
        ];
        Fixture {
            grammar,
            inputs,
            pool,
        }
    })
}

/// Applies one edit op to a session — the *same* function drives the
/// served run and the oracle replay.
fn apply(session: &mut IpgSession, op: EditOp, pool: &[(SymbolId, Vec<SymbolId>)]) {
    match op {
        EditOp::Add(i) => {
            session.add_rule(pool[i].0, pool[i].1.clone());
        }
        EditOp::Remove(i) => {
            // Deleting an absent rule errors; the script ignores it (the
            // grammar version is untouched on the error path, so server
            // and oracle stay aligned).
            let _ = session.remove_rule(pool[i].0, &pool[i].1);
        }
        EditOp::Gc => session.collect_garbage(),
    }
}

/// Cold oracle: a fresh single-threaded session that replays `prefix`.
fn replay(fx: &Fixture, prefix: &[EditOp]) -> IpgSession {
    let mut session = IpgSession::new(fx.grammar.clone());
    for &op in prefix {
        apply(&mut session, op, &fx.pool);
    }
    session
}

fn op_strategy() -> impl Strategy<Value = EditOp> {
    let pool_len = fixture().pool.len();
    prop_oneof![
        (0..pool_len).prop_map(EditOp::Add),
        (0..pool_len).prop_map(EditOp::Remove),
        Just(EditOp::Gc),
    ]
}

fn script_strategy() -> impl Strategy<Value = Vec<EditOp>> {
    prop::collection::vec(op_strategy(), 1..=6)
}

fn cases() -> u32 {
    std::env::var("IPG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 10 } else { 48 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Sequential form: after every single edit, every input parsed
    /// through the server must digest-match a cold oracle that replayed
    /// the prefix — and each edit publishes exactly one epoch.
    #[test]
    fn sequential_edit_scripts_match_cold_oracles(script in script_strategy()) {
        let fx = fixture();
        let server = IpgServer::new(IpgSession::new(fx.grammar.clone()));
        for k in 0..script.len() {
            server.modify(|s| apply(s, script[k], &fx.pool));
            let oracle = replay(fx, &script[..=k]);
            prop_assert_eq!(server.grammar_version(), oracle.grammar().version());
            for (name, tokens) in &fx.inputs {
                let (version, result) = server.parse_versioned(tokens);
                prop_assert_eq!(version, oracle.grammar().version());
                prop_assert_eq!(
                    digest(&result),
                    digest(&oracle.parse(tokens)),
                    "input {} after {:?}",
                    name,
                    &script[..=k]
                );
            }
        }
        prop_assert_eq!(server.epoch_number(), script.len() as u64);
        // With no parses in flight between edits, every retired epoch has
        // been freed with its last pin.
        let stats = server.stats();
        prop_assert_eq!(stats.retired_epochs, 0);
        prop_assert_eq!(stats.graph.epochs_reclaimed, script.len());
    }

    /// Concurrent form: parser threads race the edit script; every parse
    /// is validated against the cold oracle of the exact edit prefix that
    /// produced the grammar version it pinned.
    #[test]
    fn concurrent_edit_scripts_match_per_epoch_oracles(script in script_strategy()) {
        let fx = fixture();
        let server = IpgServer::new(IpgSession::new(fx.grammar.clone()));
        let base_version = server.grammar_version();
        // `(grammar version, number of edits applied)` transitions, pushed
        // inside the modify closure — i.e. before the epoch carrying that
        // version can be published or observed.
        let version_log: Mutex<Vec<(u64, usize)>> = Mutex::new(vec![(base_version, 0)]);
        let done = AtomicBool::new(false);
        let records: Mutex<Vec<(u64, usize, Digest)>> = Mutex::new(Vec::new());

        thread::scope(|scope| {
            for _ in 0..2 {
                let server = &server;
                let done = &done;
                let records = &records;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        for (i, (_, tokens)) in fx.inputs.iter().enumerate() {
                            let (version, result) = server.parse_versioned(tokens);
                            local.push((version, i, digest(&result)));
                        }
                        if finished {
                            break;
                        }
                    }
                    records.lock().unwrap().extend(local);
                });
            }
            scope.spawn(|| {
                for (k, &op) in script.iter().enumerate() {
                    server.modify(|s| {
                        apply(s, op, &fx.pool);
                        version_log.lock().unwrap().push((s.grammar().version(), k + 1));
                    });
                    thread::yield_now();
                }
                done.store(true, Ordering::Release);
            });
        });

        let log = version_log.into_inner().unwrap();
        let records = records.into_inner().unwrap();
        prop_assert!(records.len() >= 2 * fx.inputs.len());
        // Oracle digests per observed grammar version, built on demand.
        let mut oracle_digests: HashMap<u64, Vec<Digest>> = HashMap::new();
        for (version, input, observed) in records {
            let expected = oracle_digests.entry(version).or_insert_with(|| {
                let edits = log
                    .iter()
                    .rev()
                    .find(|(v, _)| *v <= version)
                    .expect("every observed version is at or above the base version")
                    .1;
                let oracle = replay(fx, &script[..edits]);
                fx.inputs
                    .iter()
                    .map(|(_, tokens)| digest(&oracle.parse(tokens)))
                    .collect()
            });
            prop_assert_eq!(
                observed,
                expected[input].clone(),
                "input {} on grammar v{} (script {:?})",
                fx.inputs[input].0,
                version,
                script
            );
        }
        // The full script landed and, with all readers gone, every retired
        // epoch has been reclaimed.
        prop_assert_eq!(server.epoch_number(), script.len() as u64);
        let stats = server.stats();
        prop_assert_eq!(stats.retired_epochs, 0);
        prop_assert_eq!(stats.graph.epochs_reclaimed, script.len());
    }
}
