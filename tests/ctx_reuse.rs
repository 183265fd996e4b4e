//! Context-reuse equivalence: a sequence of parses through one recycled
//! `ParseCtx` — interleaved accepting, rejected and ambiguous inputs, with
//! a `MODIFY` landing mid-sequence — must be digest-identical to
//! fresh-context oracles. This is the correctness side of the
//! allocation-free request path: recycling scratch pools, the forest arena
//! and the frontier maps across requests (and across grammar versions)
//! must be observationally invisible.
//!
//! Case count: `IPG_PROPTEST_CASES` overrides the default (10 debug / 48
//! release).

mod common;

use common::{digest, grammar_spec, resolve_sentence, sentence};
use ipg::{IpgServer, IpgSession};
use ipg_glr::ParseCtx;
use ipg_lexer::simple_scanner;
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("IPG_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 10 } else { 48 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// One recycled context vs a fresh context per parse, over random
    /// grammars and random sentences, with an `ADD-RULE` `MODIFY` fired
    /// mid-sequence (the context outlives the grammar version it started
    /// serving).
    #[test]
    fn recycled_context_digests_match_fresh_context_oracles(
        spec in grammar_spec(true),
        sentences in prop::collection::vec(sentence(6), 2..=8),
        modify_at in 0..8usize,
    ) {
        let mut session = IpgSession::new(spec.build());
        let mut ctx = ParseCtx::new();
        let modify_at = modify_at % sentences.len();
        for (i, codes) in sentences.iter().enumerate() {
            if i == modify_at {
                // MODIFY mid-sequence: a new rule with a new terminal, so
                // the item-set graph really invalidates and re-expands
                // while the same context keeps serving.
                let t = session.terminal("zz");
                let n0 = session.nonterminal("N0");
                session.add_rule(n0, vec![t, t]);
            }
            let tokens = resolve_sentence(session.grammar(), codes);
            // Recycled path: same context every iteration.
            let outcome = session.parse_in(&mut ctx, &tokens);
            let recycled = outcome.into_result(ctx.forest().clone());
            // Oracle: a brand-new context (inside `parse`) per call.
            let fresh = session.parse(&tokens);
            prop_assert_eq!(
                digest(&recycled),
                digest(&fresh),
                "parse {} of {:?} (modify at {})",
                i,
                codes,
                modify_at
            );
            // Recognition agrees with parsing through the same context.
            prop_assert_eq!(
                session.recognize_in(&mut ctx, &tokens).accepted(),
                fresh.accepted
            );
        }
    }
}

/// The server-level variant over the text pipeline: one thread's pooled
/// context serves fused `parse_text` requests across a `MODIFY` of both
/// the grammar and the scanner, digest-checked against the owned results
/// (which clone out of the same parse) and a cold per-version server.
#[test]
fn pooled_text_requests_survive_modify_between_requests() {
    let build = || {
        IpgServer::new(IpgSession::new(ipg_grammar::fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and", "maybe"]))
    };
    let server = build();
    let inputs = [
        "true or false and true",
        "true or true or true", // ambiguous
        "true or",              // rejected
        "true",
    ];
    for round in 0..3 {
        for input in inputs {
            let pooled = server.parse_text_pooled(input).unwrap();
            let pooled = pooled.into_result();
            let owned = server.parse_text(input).unwrap();
            assert_eq!(digest(&pooled), digest(&owned), "`{input}` round {round}");
            // Cold oracle at the same grammar version.
            let oracle = build();
            if round >= 1 {
                oracle.add_rule_text(r#"B ::= "maybe""#).unwrap();
            }
            if round >= 2 {
                oracle
                    .modify_scanner(|s| s.add_definition(ipg_lexer::TokenDef::keyword("!")))
                    .unwrap();
            }
            assert_eq!(
                digest(&oracle.parse_text(input).unwrap()),
                digest(&owned),
                "`{input}` round {round} vs cold oracle"
            );
        }
        // MODIFY between rounds: grammar first, then the scanner — the
        // same thread-pooled context keeps serving across both.
        if round == 0 {
            server.add_rule_text(r#"B ::= "maybe""#).unwrap();
            assert!(server.parse_text("maybe or true").unwrap().accepted);
        }
        if round == 1 {
            server
                .modify_scanner(|s| s.add_definition(ipg_lexer::TokenDef::keyword("!")))
                .unwrap();
        }
    }
    let stats = server.stats().merged();
    let (reused, fresh) = (stats.ctx_reused, stats.ctx_fresh);
    assert!(
        reused > fresh,
        "the pooled context must be recycled across MODIFYs: {reused} reused / {fresh} fresh"
    );
}
