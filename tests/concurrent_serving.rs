//! Concurrent correctness of the epoch-versioned serving layer: N threads
//! parse the Fig. 7 SDF workload against one `IpgServer` while a writer
//! applies the §7 `ADD-RULE`/`DELETE-RULE` sequence. Every parse must
//! agree — accept/reject verdict *and* forest digest — with a
//! single-threaded oracle run against the grammar version the parse
//! observed; modifications publish new epochs instead of draining the
//! in-flight parses, and retired epochs are reclaimed once their last
//! reader leaves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use ipg::{IpgServer, IpgSession};
use ipg_bench::SdfWorkload;
use ipg_grammar::fixtures;

mod common;
use common::digest;

#[test]
fn racing_parsers_and_modify_agree_with_the_oracle() {
    let workload = SdfWorkload::load();
    let (lhs, rhs) = workload.modification.clone();
    // The two smaller measurement inputs keep the debug-build runtime sane;
    // the release-mode CI job runs the same test over the full set.
    let input_names: &[&str] = if cfg!(debug_assertions) {
        &["exp.sdf", "Exam.sdf"]
    } else {
        &["exp.sdf", "Exam.sdf", "SDF.sdf", "ASF.sdf"]
    };
    let mut inputs: Vec<(&str, Vec<_>)> = input_names
        .iter()
        .map(|name| (*name, workload.input(name).tokens.clone()))
        .collect();
    // A module that uses the added `( ... )?` syntax: rejected by the base
    // grammar, accepted once the §7 rule is in — the discriminating input
    // that makes the two oracle phases observably different.
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

    // --- Single-threaded oracle -----------------------------------------
    // Phase `false` = base grammar, phase `true` = with the §7 rule added.
    let oracle = |modified: bool| -> Vec<(bool, usize, usize, u64)> {
        let mut session = IpgSession::new(workload.grammar.clone());
        if modified {
            session.add_rule(lhs, rhs.clone());
        }
        inputs
            .iter()
            .map(|(_, tokens)| digest(&session.parse(tokens)))
            .collect()
    };
    let oracle_base = oracle(false);
    let oracle_modified = oracle(true);
    assert_ne!(
        oracle_base, oracle_modified,
        "the §7 modification must be observable in the digests"
    );

    // --- Serving run ------------------------------------------------------
    let server = IpgServer::new(IpgSession::new(workload.grammar.clone()));
    let base_version = server.grammar_version();
    // Log of (grammar version, modified?) transitions, written under the
    // same write lock as the modification itself.
    let version_log: Mutex<Vec<(u64, bool)>> = Mutex::new(vec![(base_version, false)]);
    let phase_of = |log: &[(u64, bool)], version: u64| -> bool {
        log.iter()
            .rev()
            .find(|(v, _)| *v <= version)
            .expect("every version is at or above the base version")
            .1
    };

    // One warm-up parse expands item sets the §7 rule invalidates, so the
    // writer's first modification has something to invalidate however the
    // threads are scheduled; the other inputs still expand cold while the
    // writer races them.
    let (warm_name, warm_tokens) = &inputs[0];
    let (version, result) = server.parse_versioned(warm_tokens);
    assert_eq!(version, base_version);
    assert_eq!(digest(&result), oracle_base[0], "warm-up parse of {warm_name}");

    let rounds = if cfg!(debug_assertions) { 12 } else { 30 };
    let parser_threads = 4;
    thread::scope(|scope| {
        for t in 0..parser_threads {
            let server = &server;
            let inputs = &inputs;
            let version_log = &version_log;
            let oracle_base = &oracle_base;
            let oracle_modified = &oracle_modified;
            scope.spawn(move || {
                for round in 0..rounds {
                    for (i, (name, tokens)) in inputs.iter().enumerate() {
                        let (version, result) = server.parse_versioned(tokens);
                        let modified = phase_of(&version_log.lock().unwrap(), version);
                        let expected = if modified {
                            oracle_modified[i]
                        } else {
                            oracle_base[i]
                        };
                        assert_eq!(
                            digest(&result),
                            expected,
                            "thread {t}, round {round}, input {name}, \
                             grammar v{version} (modified: {modified})"
                        );
                    }
                }
            });
        }
        // The writer races the parsers: add the §7 rule, then delete it
        // again, several times. Each transition is logged under the same
        // exclusive lock that applies it, so the log is consistent with
        // every version number a parse can observe.
        scope.spawn(|| {
            let cycles = if cfg!(debug_assertions) { 4 } else { 10 };
            for _ in 0..cycles {
                server.modify(|s| {
                    s.add_rule(lhs, rhs.clone());
                    version_log
                        .lock()
                        .unwrap()
                        .push((s.grammar().version(), true));
                });
                thread::yield_now();
                server.modify(|s| {
                    s.remove_rule(lhs, &rhs).expect("rule was just added");
                    version_log
                        .lock()
                        .unwrap()
                        .push((s.grammar().version(), false));
                });
                thread::yield_now();
            }
        });
    });

    // The writer really ran, and the graph absorbed its invalidations.
    let stats = server.stats();
    assert!(stats.graph.modifications >= 8);
    assert!(stats.graph.invalidations > 0);
    assert_eq!(
        stats.total_parses(),
        1 + parser_threads * rounds * inputs.len(),
        "every parse was served and recorded"
    );
    // Every modification published (and retired) an epoch, and with all
    // readers gone every retired epoch's item-set storage was reclaimed.
    assert_eq!(stats.graph.epochs_published, stats.graph.modifications);
    assert_eq!(stats.graph.epochs_reclaimed, stats.graph.epochs_retired);
    assert_eq!(stats.retired_epochs, 0);
}

/// The non-draining guarantee: a deliberately slow parse that pinned its
/// epoch *before* `ADD-RULE` completes on the old grammar version while
/// the writer publishes — and a parse started after observes the new one.
///
/// Under the old draining design (`MODIFY` took the session write lock)
/// this test would deadlock: the writer would wait for the pinned reader
/// to finish, and the reader waits for the writer's publication signal.
#[test]
fn modify_does_not_drain_in_flight_parses() {
    let server = IpgServer::new(IpgSession::new(fixtures::booleans()));
    server.warm();
    let base_version = server.grammar_version();
    // `true true` is juxtaposition: rejected by the base grammar, accepted
    // once `B ::= B B` is added.
    let tokens = server.tokens("true true").unwrap();

    let entered = Barrier::new(2);
    let published = AtomicBool::new(false);
    thread::scope(|scope| {
        let reader = scope.spawn(|| {
            server.read(|session| {
                entered.wait();
                // Hold the pin until the writer has provably finished.
                while !published.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                // The edit landed, yet this pinned read still serves the
                // grammar version it started on, end to end.
                assert_eq!(session.grammar().version(), base_version);
                let result = session.parse(&tokens);
                assert!(!result.accepted, "old epoch rejects juxtaposition");
                result.grammar_version
            })
        });
        entered.wait();
        // The edit must complete while the reader is still in flight.
        server.add_rule_text(r#"B ::= B B"#).unwrap();
        published.store(true, Ordering::Release);
        let pinned_version = reader.join().expect("reader thread panicked");
        assert_eq!(pinned_version, base_version, "parse was version-tagged with its epoch");
    });

    // A parse started after the publication observes the new grammar.
    let (version, result) = server.parse_versioned(&tokens);
    assert!(version > base_version);
    assert!(result.accepted, "new epoch accepts juxtaposition");
    assert_eq!(result.grammar_version, version);
}

/// Reclamation: a retired epoch's storage (the whole forked session,
/// item sets included) stays alive exactly as long as a reader pins it,
/// and is freed when the last reader drops its pin.
#[test]
fn retired_epochs_free_their_item_sets_after_last_reader_leaves() {
    let server = IpgServer::new(IpgSession::new(fixtures::booleans()));
    server.warm();
    let weak = Arc::downgrade(&server.current_epoch());
    assert!(weak.upgrade().is_some(), "current epoch is alive");

    let pinned = Barrier::new(2);
    let release = Barrier::new(2);
    thread::scope(|scope| {
        let reader = scope.spawn(|| {
            server.read(|session| {
                pinned.wait();
                release.wait();
                // Still serving: the pinned item sets must all be intact.
                assert!(session.parse_sentence("true or false").unwrap().accepted);
            });
        });
        pinned.wait();
        server.add_rule_text(r#"B ::= "maybe""#).unwrap();
        // Retired but pinned: the storage must survive...
        let stats = server.stats();
        assert_eq!(stats.retired_epochs, 1);
        assert_eq!(stats.graph.epochs_retired, 1);
        assert_eq!(stats.graph.epochs_reclaimed, 0);
        assert!(weak.upgrade().is_some(), "pinned epoch survives retirement");
        release.wait();
        reader.join().expect("reader thread panicked");
    });

    // ...and the reader's dropped pin freed it: the retired epoch, with
    // its item-set graph, is gone.
    assert!(weak.upgrade().is_none(), "item-set storage was freed");
    let stats = server.stats();
    assert_eq!(stats.retired_epochs, 0);
    assert_eq!(stats.graph.epochs_reclaimed, 1);
}

/// Chunk-granular reclamation: dropping a retired epoch frees exactly the
/// storage chunks no live epoch shares. The chunks the successor epoch
/// inherited (everything the edit did not invalidate) must survive the
/// retired epoch's reclamation, because the successor still serves from
/// them; only the copied-on-write predecessors die with their epoch.
#[test]
fn retired_epochs_free_only_chunks_no_live_epoch_shares() {
    use ipg_bench::synthetic_workload;

    let workload = synthetic_workload(2000);
    let (lhs, rhs) = workload.edit.clone();
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    let server = IpgServer::new(session);

    let epoch0 = server.current_epoch();
    let observers: Vec<_> = epoch0
        .session()
        .graph()
        .chunk_handles()
        .iter()
        .map(|handle| handle.observer())
        .collect();
    assert!(observers.len() >= 4, "fixture spans several chunks");

    server.modify(|s| {
        s.add_rule(lhs, rhs.clone());
    });
    let epoch1 = server.current_epoch();
    let shared = epoch0
        .session()
        .graph()
        .shared_chunks_with(epoch1.session().graph());
    assert!(shared.iter().any(|&s| s), "untouched chunks stay shared");
    assert!(shared.iter().any(|&s| !s), "invalidated chunks were copied");

    // Retired but pinned: every chunk of epoch 0 is still alive.
    assert_eq!(server.stats().retired_epochs, 1);
    assert!(observers.iter().all(|o| o.is_alive()));

    // Drop the pin; that frees epoch 0 — but only the chunks it owned
    // alone. Shared chunks live on inside epoch 1.
    drop(epoch0);
    let stats = server.stats();
    assert_eq!(stats.retired_epochs, 0);
    assert_eq!(stats.graph.epochs_reclaimed, 1);
    for (c, observer) in observers.iter().enumerate() {
        assert_eq!(
            observer.is_alive(),
            shared[c],
            "chunk {c}: alive iff the live epoch shares it"
        );
    }
    // The surviving epoch still serves from the shared chunks.
    assert!(server.parse(&workload.sentence).accepted);
}

#[test]
fn warm_shared_table_serves_identical_results_across_thread_counts() {
    let workload = SdfWorkload::load();
    let server = IpgServer::new(IpgSession::new(workload.grammar.clone()));
    server.warm();
    let requests: Vec<Vec<_>> = (0..12)
        .map(|i| workload.inputs[i % 2].tokens.clone())
        .collect();
    let expansions_before = server.stats().graph.total_expansions();

    let single: Vec<_> = server.parse_many(&requests, 1).iter().map(digest).collect();
    for threads in [2, 4, 8] {
        let multi: Vec<_> = server
            .parse_many(&requests, threads)
            .iter()
            .map(digest)
            .collect();
        assert_eq!(single, multi, "{threads}-thread results differ");
    }
    // A warm table serves reads only: no expansion happened.
    assert_eq!(server.stats().graph.total_expansions(), expansions_before);
}
