//! The paper's motivating scenario (§1), scaled to the serving layer: a
//! language is being *designed*, so its grammar changes all the time, and
//! each change must be absorbed without regenerating the parser — while
//! sentences are being parsed continuously. Here the "syntax-directed
//! editor" is an `IpgServer`: several worker threads parse against one
//! shared, lazily generated item-set graph, and the language designer's
//! `ADD-RULE`/`DELETE-RULE` edits are published as new grammar *epochs*
//! with the paper's invalidation semantics — parses in flight finish on
//! the epoch they pinned (edits never drain them), and retired epochs are
//! reclaimed once their last reader leaves.
//!
//! Run with `cargo run --example interactive_language_design`.

use std::thread;

use ipg::IpgServer;

/// Parses every sentence from four worker threads at once and checks the
/// verdicts; prints what the shared table looks like afterwards.
fn step(server: &IpgServer, action: &str, sentences: &[(&str, bool)]) {
    println!("== {action}");
    thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for (sentence, expected) in sentences {
                    let accepted = server
                        .parse_sentence(sentence)
                        .map(|r| r.accepted)
                        .unwrap_or(false);
                    assert_eq!(accepted, *expected, "unexpected verdict for `{sentence}`");
                }
            });
        }
    });
    for (sentence, expected) in sentences {
        println!(
            "   ok  `{sentence}` -> {}",
            if *expected { "accepted" } else { "rejected" }
        );
    }
    let (size, stats) = server.read(|s| (s.graph_size(), s.stats()));
    println!(
        "   table: {size}; expansions so far: {} (+{} re-expansions), modifications: {}",
        stats.expansions, stats.re_expansions, stats.modifications
    );
    let epochs = server.stats().graph;
    println!(
        "   epochs: {} published, {} retired, {} reclaimed (edits landed without draining)\n",
        epochs.epochs_published, epochs.epochs_retired, epochs.epochs_reclaimed
    );
}

fn main() {
    let server = IpgServer::from_bnf(
        r#"
        STMT ::= "print" EXPR
        EXPR ::= "num"
        START ::= STMT
        "#,
    )
    .expect("grammar parses");

    step(
        &server,
        "initial language: `print num` (4 threads, one shared table)",
        &[("print num", true), ("num", false)],
    );

    server.add_rule_text(r#"EXPR ::= EXPR "+" EXPR"#).expect("rule ok");
    step(
        &server,
        "add infix addition (MODIFY, published as a new epoch)",
        &[("print num + num + num", true), ("print +", false)],
    );

    server
        .add_rule_text(r#"STMT ::= "if" EXPR "then" STMT "else" STMT"#)
        .expect("rule ok");
    server.add_rule_text(r#"EXPR ::= "id""#).expect("rule ok");
    step(
        &server,
        "add conditionals and identifiers",
        &[
            ("if id + num then print id else print num", true),
            ("if then else", false),
        ],
    );

    // Both rules go in one fragment so that `STMTS` is recognised as a
    // non-terminal (it has a defining rule in the same text).
    server
        .add_rule_text(
            r#"
            STMT ::= "begin" STMTS "end"
            STMTS ::= STMT | STMTS ";" STMT
            "#,
        )
        .expect("rules ok");
    step(
        &server,
        "add statement blocks",
        &[
            ("begin print num ; print id ; if id then print num else print id end", true),
            ("begin end", false),
        ],
    );

    // The designer reconsiders: conditionals should not need an else branch,
    // and the old form is removed — while the workers keep parsing.
    server.add_rule_text(r#"STMT ::= "if" EXPR "then" STMT"#).expect("rule ok");
    server
        .remove_rule_text(r#"STMT ::= "if" EXPR "then" STMT "else" STMT"#)
        .expect("rule existed");
    step(
        &server,
        "replace if/then/else by if/then",
        &[
            ("if id then print num", true),
            ("if id + num then print id else print num", false),
        ],
    );

    // Garbage-collect item sets that the removed rule left behind: the
    // collection runs on a private fork and is published like any other
    // modification, so even GC never drains the workers.
    server.collect_garbage();
    println!("after garbage collection: {}", server.read(|s| s.graph_size()));

    // The server's counters: the requests of every thread, and the
    // epochs each modification published.
    let stats = server.stats();
    println!(
        "served {} parses ({} ACTION queries in total)",
        stats.total_parses(),
        stats.merged().action_calls
    );
    println!(
        "epoch lifecycle: {} published, {} retired, {} reclaimed, {} still pinned",
        stats.graph.epochs_published,
        stats.graph.epochs_retired,
        stats.graph.epochs_reclaimed,
        stats.retired_epochs
    );
    println!("final generator statistics:\n{}", stats.graph);
}
