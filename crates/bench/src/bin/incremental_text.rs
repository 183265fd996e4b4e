//! Incremental re-parse of edited text: single-token edits applied to an
//! open document session against full cold re-parses of the same spliced
//! text.
//!
//! The workload is a large document (an unambiguous left-recursive list,
//! so the GSS does linear honest work with no ambiguity blow-up) edited
//! one token at a time at the front, middle and end. Each position is
//! measured twice over the *same* edit sequence:
//!
//! * **incremental** — the session's epoch pin is current, so the edit
//!   re-lexes only the damaged region and resumes the GSS from the
//!   leftmost damaged token;
//! * **full** — a language-preserving no-op `MODIFY` is published before
//!   every edit, staling the session's pin, so the same edit takes the
//!   full-rebuild fallback (lex + parse of the whole document).
//!
//! The headline number, `single_token_edit_speedup`, is the full/incremental
//! ratio for end-of-document edits — an in-run, same-host ratio, hard-gated
//! at 20x (exit code 1 below). A whitespace-only row exercises the
//! token-identical fast path, where the parse does not re-run at all.
//!
//! The insert/delete rows change the token count, so their re-parse
//! replays to the end of the document. The `incremental-substitute-*` rows
//! instead swap one token for another terminal of the same length, on a
//! two-terminal list (its own server, so the other rows keep their
//! grammar): the re-parse stops where it converges with the recorded parse
//! and keeps the recorded suffix. `substitution_edit_speedup_front` — the
//! `full-edit-front` mean over the `incremental-substitute-front` mean — is
//! hard-gated at 50x.
//!
//! The `incremental-relayout-front` row edits the layout after the first
//! token of a document of its own: `   \n` becomes ` --\n`, one whitespace
//! match becomes three layout matches, with the token count and the byte
//! length unchanged. Layout folds into the record of the token after it,
//! so the record vector keeps its length and the splice moves nothing; the
//! row is hard-gated at 3x the `incremental-substitute-front` mean
//! (`relayout_over_substitute_front`).
//!
//! Prints a table and writes `BENCH_incremental_text.json` for CI.
//!
//! Run with `cargo run --release -p ipg-bench --bin incremental_text`.

use std::ops::Range;
use std::time::Instant;

use ipg::{json, IpgServer};
use ipg_bench::mean_max_us;
use ipg_lexer::simple_scanner;

/// Tokens in the document. ~30k keeps a full re-parse in the milliseconds
/// on any host while staying far above the damage size of a 1-token edit.
const TOKENS: usize = 30_000;

/// Timed edit pairs per scenario.
const ROUNDS: usize = 30;

fn server() -> IpgServer {
    IpgServer::from_bnf(
        r#"
        L ::= L "item" | "item"
        START ::= L
    "#,
    )
    .expect("list grammar parses")
    .with_scanner(simple_scanner(&["item"]))
}

/// The same list over two terminals of equal length, for substitutions.
fn two_terminal_server() -> IpgServer {
    IpgServer::from_bnf(
        r#"
        L ::= L "item" | L "atom" | "item" | "atom"
        START ::= L
    "#,
    )
    .expect("two-terminal list grammar parses")
    .with_scanner(simple_scanner(&["item", "atom"]))
}

/// One timed pair of edits that leaves the document as it was.
type EditPair = [(Range<usize>, &'static str); 2];

/// Insert one `item` token at byte `at`, then delete it again.
fn insert_pair(at: usize) -> EditPair {
    [(at..at, "item "), (at..at + 5, "")]
}

/// Substitute the `item` token at byte `at` with `atom`, then back.
fn substitute_pair(at: usize) -> EditPair {
    [(at..at + 4, "atom"), (at..at + 4, "item")]
}

/// Turn the layout `   \n` at byte `at` into ` --\n` (one whitespace
/// match into a space, a comment and a newline), then back.
fn relayout_pair(at: usize) -> EditPair {
    [(at..at + 4, " --\n"), (at..at + 4, "   \n")]
}

struct Row {
    scenario: &'static str,
    mean_us: f64,
    max_us: f64,
    /// Mean tokens re-lexed per edit (damage size), from `GenStats`.
    tokens_relexed: f64,
    /// Mean GSS states re-run per edit, from `GenStats`.
    states_rerun: f64,
    /// Fraction of edits whose re-parse converged before the end.
    converged: f64,
}

/// Runs `ROUNDS` edit pairs and returns the per-edit latency row. `stale`
/// publishes a no-op `MODIFY` before every edit, forcing the full-rebuild
/// fallback. Each pair leaves the document as it was, so every scenario
/// measures the same text and the ratios are honest.
fn run_edits(server: &IpgServer, id: u64, pair: EditPair, stale: bool, scenario: &'static str) -> Row {
    let before = server.stats().merged();
    let mut latencies = Vec::with_capacity(ROUNDS * 2);
    for _ in 0..ROUNDS {
        for (range, repl) in pair.clone() {
            if stale {
                server.modify(|_| {});
            }
            let started = Instant::now();
            let outcome = server.apply_edit(id, range, repl).expect("edit parses");
            latencies.push(started.elapsed().as_secs_f64());
            assert!(outcome.accepted(), "the list stays a sentence");
        }
    }
    let after = server.stats().merged();
    let edits = (ROUNDS * 2) as f64;
    let (mean_us, max_us) = mean_max_us(&latencies);
    let (expect_incremental, expect_full) = if stale { (0, ROUNDS * 2) } else { (ROUNDS * 2, 0) };
    assert_eq!(
        after.reparse_incremental - before.reparse_incremental,
        expect_incremental,
        "{scenario}: every edit takes the intended path"
    );
    assert_eq!(after.reparse_full - before.reparse_full, expect_full);
    Row {
        scenario,
        mean_us,
        max_us,
        tokens_relexed: (after.tokens_relexed - before.tokens_relexed) as f64 / edits,
        states_rerun: (after.states_rerun - before.states_rerun) as f64 / edits,
        converged: (after.reparse_converged - before.reparse_converged) as f64 / edits,
    }
}

fn main() {
    let server = server();
    let text = vec!["item"; TOKENS].join(" ");

    let started = Instant::now();
    let id = server.open_document(&text).expect("document opens");
    let open_s = started.elapsed().as_secs_f64();
    println!(
        "opened a {TOKENS}-token ({} byte) document in {:.1} ms",
        text.len(),
        open_s * 1e3
    );

    // Warm both paths once so neither scenario pays first-touch costs.
    server.apply_edit(id, 0..0, "item ").expect("warm edit");
    server.apply_edit(id, 0..5, "").expect("warm edit");
    server.modify(|_| {});
    server.apply_edit(id, 0..0, "item ").expect("warm full edit");
    server.apply_edit(id, 0..5, "").expect("warm edit");

    let substitutions = two_terminal_server();
    let sub_id = substitutions.open_document(&text).expect("document opens");
    substitutions.apply_edit(sub_id, 0..4, "atom").expect("warm edit");
    substitutions.apply_edit(sub_id, 0..4, "item").expect("warm edit");

    // The relayout document: the same list with `   \n` after its first
    // token.
    let relayout_text = format!("item   \n{}", &text["item ".len()..]);
    let relayout_id = server.open_document(&relayout_text).expect("document opens");
    server.apply_edit(relayout_id, 4..8, " --\n").expect("warm edit");
    server.apply_edit(relayout_id, 4..8, "   \n").expect("warm edit");

    let end = text.len() - 4; // before the last "item"
    let mid = text.len() / 2 / 5 * 5; // a token boundary near the middle
    let rows = [
        run_edits(&server, id, insert_pair(end), false, "incremental-edit-end"),
        run_edits(&server, id, insert_pair(mid), false, "incremental-edit-mid"),
        run_edits(&server, id, insert_pair(0), false, "incremental-edit-front"),
        run_edits(&substitutions, sub_id, substitute_pair(0), false, "incremental-substitute-front"),
        run_edits(&substitutions, sub_id, substitute_pair(mid), false, "incremental-substitute-mid"),
        run_edits(&server, relayout_id, relayout_pair(4), false, "incremental-relayout-front"),
        // Whitespace-only: the damaged region re-lexes to the same token
        // sequence, so the parse is reused outright (fast path).
        {
            let before = server.stats().merged();
            let mut latencies = Vec::with_capacity(ROUNDS * 2);
            for _ in 0..ROUNDS {
                for (range, repl) in [(mid..mid, " "), (mid..mid + 1, "")] {
                    let started = Instant::now();
                    server.apply_edit(id, range, repl).expect("whitespace edit");
                    latencies.push(started.elapsed().as_secs_f64());
                }
            }
            let after = server.stats().merged();
            assert_eq!(
                after.states_rerun,
                before.states_rerun,
                "whitespace-only edits never re-run the GSS"
            );
            let (mean_us, max_us) = mean_max_us(&latencies);
            Row {
                scenario: "incremental-whitespace-mid",
                mean_us,
                max_us,
                tokens_relexed: (after.tokens_relexed - before.tokens_relexed) as f64
                    / (ROUNDS * 2) as f64,
                states_rerun: 0.0,
                converged: 0.0,
            }
        },
        run_edits(&server, id, insert_pair(end), true, "full-edit-end"),
        run_edits(&server, id, insert_pair(0), true, "full-edit-front"),
    ];

    println!(
        "\n{:<30} {:>12} {:>12} {:>16} {:>14} {:>10}",
        "scenario", "mean µs", "max µs", "tokens re-lexed", "states re-run", "converged"
    );
    for row in &rows {
        println!(
            "{:<30} {:>12.1} {:>12.1} {:>16.1} {:>14.1} {:>10.2}",
            row.scenario, row.mean_us, row.max_us, row.tokens_relexed, row.states_rerun, row.converged
        );
    }

    let mean = |scenario: &str| {
        rows.iter()
            .find(|r| r.scenario == scenario)
            .expect("scenario measured")
            .mean_us
    };
    let speedup_end = mean("full-edit-end") / mean("incremental-edit-end");
    let speedup_front = mean("full-edit-front") / mean("incremental-edit-front");
    let speedup_substitute = mean("full-edit-front") / mean("incremental-substitute-front");
    let relayout_over_substitute =
        mean("incremental-relayout-front") / mean("incremental-substitute-front");
    let work_ratio = mean("incremental-edit-end") / mean("full-edit-end");
    println!("\nsingle-token edit speedup (end of document):   {speedup_end:.1}x");
    println!("single-token edit speedup (front of document): {speedup_front:.1}x");
    println!("substitution edit speedup (front of document): {speedup_substitute:.1}x");
    println!("relayout/substitution latency ratio (front):   {relayout_over_substitute:.2}");
    println!("incremental/full latency ratio (end edits):    {work_ratio:.5}");

    let json = json::object(|doc| {
        doc.objects("rows", &rows, |o, row| {
            o.string("scenario", row.scenario)
                .field("mean_us", format_args!("{:.2}", row.mean_us))
                .field("max_us", format_args!("{:.2}", row.max_us))
                .field("tokens_relexed", format_args!("{:.2}", row.tokens_relexed))
                .field("states_rerun", format_args!("{:.2}", row.states_rerun))
                .field("converged", format_args!("{:.2}", row.converged));
        })
        .field("tokens", TOKENS)
        .field("open_document_ms", format_args!("{:.3}", open_s * 1e3))
        .field("single_token_edit_speedup", format_args!("{speedup_end:.3}"))
        .field("single_token_edit_speedup_front", format_args!("{speedup_front:.3}"))
        .field("substitution_edit_speedup_front", format_args!("{speedup_substitute:.3}"))
        .field("relayout_over_substitute_front", format_args!("{relayout_over_substitute:.3}"))
        .field("incremental_full_ratio", format_args!("{work_ratio:.6}"));
    });
    std::fs::write("BENCH_incremental_text.json", &json).expect("write BENCH_incremental_text.json");
    println!("\nwrote BENCH_incremental_text.json");

    server.close_document(id).expect("close");
    substitutions.close_document(sub_id).expect("close");
    server.close_document(relayout_id).expect("close");

    // Hard gate: a single-token edit at the end of a large document must
    // beat the full re-parse by 20x — an in-run, same-host ratio, so it
    // holds on any hardware. (The design target is 100x+; 20x is the
    // regression floor, leaving headroom for slow CI runners.)
    let mut failed = false;
    if speedup_end < 20.0 {
        eprintln!(
            "FAIL: single-token edit speedup {speedup_end:.1}x below the 20x gate \
             (incremental {:.1} µs vs full {:.1} µs)",
            mean("incremental-edit-end"),
            mean("full-edit-end")
        );
        failed = true;
    }
    // Hard gate: a same-length substitution at the front converges a few
    // tokens after the edit, so it must beat the full re-parse by 50x.
    if speedup_substitute < 50.0 {
        eprintln!(
            "FAIL: substitution edit speedup {speedup_substitute:.1}x below the 50x gate \
             (substitution {:.1} µs vs full {:.1} µs)",
            mean("incremental-substitute-front"),
            mean("full-edit-front")
        );
        failed = true;
    }
    // Hard gate: a relayout edit keeps the record count, so it costs a
    // re-lex of the two records around it and no parse — at most 3x a
    // converging substitution at the same place.
    if relayout_over_substitute > 3.0 {
        eprintln!(
            "FAIL: relayout edit {relayout_over_substitute:.2}x the substitution edit, above the \
             3x gate (relayout {:.1} µs vs substitution {:.1} µs)",
            mean("incremental-relayout-front"),
            mean("incremental-substitute-front")
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
