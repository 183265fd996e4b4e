//! Allocation-free request path regression tests.
//!
//! A wrapping global allocator counts allocations *per thread* (so the
//! test stays accurate when the harness runs other tests concurrently in
//! the same process), and the tests assert that a warm request served
//! through the per-thread context pool — scan, parse, forest and all —
//! performs **zero** heap allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ipg::{IpgServer, IpgSession, ParseBudget, Request};
use ipg_grammar::fixtures;
use ipg_lexer::simple_scanner;

/// Pass-through allocator with a per-thread allocation counter.
struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` so allocations during TLS teardown never panic.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the only
// addition is a thread-local counter bump on the allocating entry points.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

fn text_server() -> IpgServer {
    IpgServer::new(IpgSession::new(fixtures::booleans()))
        .with_scanner(simple_scanner(&["true", "false", "or", "and"]))
}

#[test]
fn second_warm_parse_text_performs_zero_allocations() {
    let server = text_server();
    server.warm();
    let input = "true or false and true or true -- trailing comment\n";
    // First warm request: grows the thread's pooled context (GSS pools,
    // forest arena, scan buffer) and materialises the DFA snapshot. A
    // couple more round out hash-map capacities.
    for _ in 0..3 {
        assert!(server.parse_text_pooled(input).unwrap().accepted());
    }
    // Second warm request of the same input: zero heap allocations, end
    // to end — the acceptance gate of the allocation-free request path.
    let before = thread_allocations();
    let parsed = server.parse_text_pooled(input).unwrap();
    assert!(parsed.accepted());
    assert!(!parsed.forest().roots().is_empty());
    drop(parsed);
    let allocated = thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "warm fused parse_text must not allocate (counted {allocated})"
    );
}

#[test]
fn warm_pooled_token_parses_perform_zero_allocations() {
    let server = text_server();
    server.warm();
    let tokens = server.tokens("true or true or true").unwrap(); // ambiguous
    for _ in 0..3 {
        assert!(server.parse_pooled(&tokens).accepted());
        assert!(server.recognize(&tokens));
    }
    let before = thread_allocations();
    let parsed = server.parse_pooled(&tokens);
    assert!(parsed.accepted());
    assert!(parsed.forest().is_ambiguous());
    drop(parsed);
    // Recognition rides the same pooled path (no forest at all).
    assert!(server.recognize(&tokens));
    let allocated = thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "warm pooled parse/recognize must not allocate (counted {allocated})"
    );
}

#[test]
fn warm_budgeted_sentence_requests_perform_zero_allocations() {
    // The wire `PARSE-TOKENS` path: a sentence of terminal names under a
    // budget, answered from the pooled result without copying the forest.
    let server = text_server();
    server.warm();
    let sentence = "true or true or true";
    let budget = ParseBudget::default()
        .with_fuel(1 << 20)
        .with_max_gss_bytes(1 << 20)
        .with_max_forest_bytes(1 << 20);
    let version = server.grammar_version();
    for _ in 0..3 {
        assert!(server.serve(Request::Sentence(sentence), budget).unwrap().accepted());
    }
    let before = thread_allocations();
    let parsed = server.serve(Request::Sentence(sentence), budget).unwrap();
    assert!(parsed.accepted());
    assert_eq!(parsed.grammar_version(), version);
    assert!(parsed.forest().is_ambiguous());
    drop(parsed);
    let allocated = thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "a warm budgeted sentence request must not allocate (counted {allocated})"
    );
}

#[test]
fn warm_requests_stay_allocation_free_across_differing_inputs() {
    let server = text_server();
    server.warm();
    // Mixed accept/reject/ambiguous inputs of different lengths: after one
    // full warm-up cycle the pools have grown to the high-water mark, and
    // the whole interleaved sequence runs without allocating.
    let inputs = [
        "true or false and true or true",
        "true or",
        "true and true and true and true and true",
        "true",
    ];
    for input in inputs {
        let _ = server.parse_text_pooled(input).unwrap();
    }
    let before = thread_allocations();
    for _ in 0..3 {
        for input in inputs {
            let _ = server.parse_text_pooled(input).unwrap();
        }
    }
    let allocated = thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "warm interleaved requests must not allocate (counted {allocated})"
    );
}

#[test]
fn overlapping_pooled_results_keep_a_context_pooled() {
    let server = text_server();
    server.warm();
    let input = "true or false and true";
    for _ in 0..3 {
        assert!(server.parse_text_pooled(input).unwrap().accepted());
    }
    // Two pooled results alive at once, returned out of order: the second
    // checkout builds a fresh context, and the returns collide on the
    // slot. Exactly one context must survive (last return wins) so the
    // thread's warm path stays allocation-free afterwards.
    let first = server.parse_text_pooled(input).unwrap();
    let second = server.parse_text_pooled(input).unwrap();
    drop(second);
    drop(first);
    let before = thread_allocations();
    assert!(server.parse_text_pooled(input).unwrap().accepted());
    let allocated = thread_allocations() - before;
    assert_eq!(
        allocated, 0,
        "a context must survive overlapping pooled returns (counted {allocated})"
    );
}

#[test]
fn owned_results_cost_exactly_the_forest_copy() {
    let server = text_server();
    server.warm();
    let input = "true or false and true";
    for _ in 0..3 {
        assert!(server.parse_text(input).unwrap().accepted);
    }
    let before = thread_allocations();
    let result = server.parse_text(input).unwrap();
    let allocated = thread_allocations() - before;
    assert!(result.accepted);
    // The owned convenience clones the context's forest arena out — a
    // handful of pool allocations, not the hundreds the pre-fusion
    // pipeline paid per request (token vector + per-token strings +
    // per-derivation vectors).
    assert!(
        (1..=16).contains(&allocated),
        "owned parse_text should cost only the forest copy, counted {allocated}"
    );
}
