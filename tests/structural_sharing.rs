//! Structural sharing of the persistent item-set store: a `MODIFY`
//! publication forks the graph by cloning chunk pointers, and the §6
//! invalidation copies-on-write exactly the chunks holding invalidated
//! states. These tests pin that down with `Arc::ptr_eq`-level assertions
//! (via [`ItemSetGraph::shared_chunks_with`] / [`ChunkHandle::ptr_eq`])
//! on a synthetic grammar large enough to span several storage chunks.
//! The published table's snapshot chunks are checked the same way, by
//! address: a lazy miss writes its cell in place, and an epoch copies a
//! snapshot chunk it shares with another epoch at most once.

mod common;

use std::collections::BTreeSet;

use common::digest;
use ipg::{IpgServer, IpgSession, ItemSetGraph, ItemSetKind, LazyTables};
use ipg_bench::synthetic_workload;
use ipg_glr::GssParser;
use ipg_grammar::{Grammar, SymbolId};
use ipg_lr::ParserTables;

/// Chunk indices of the fork's invalidated (non-complete) states.
fn dirty_chunks(graph: &ItemSetGraph) -> BTreeSet<usize> {
    graph
        .live_nodes()
        .filter(|n| n.kind != ItemSetKind::Complete)
        .map(|n| ItemSetGraph::chunk_of_state(n.id))
        .collect()
}

#[test]
fn modify_fork_shares_every_chunk_without_invalidated_states() {
    let workload = synthetic_workload(2000);
    let (lhs, rhs) = workload.edit.clone();
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    assert!(
        session.graph().num_chunks() >= 4,
        "fixture must span several chunks, got {}",
        session.graph().num_chunks()
    );
    let server = IpgServer::new(session);

    let before = server.current_epoch();
    server.modify(|s| {
        s.add_rule(lhs, rhs.clone());
    });
    let after = server.current_epoch();

    let dirty = dirty_chunks(after.session().graph());
    assert!(!dirty.is_empty(), "the edit invalidated something");
    let invalidations = after
        .session()
        .graph()
        .live_nodes()
        .filter(|n| n.kind != ItemSetKind::Complete)
        .count();
    assert!(
        invalidations <= 4,
        "the synthetic edit has constant impact, got {invalidations}"
    );

    // Arc-level sharing: exactly the chunks holding invalidated states
    // were copied on write; every other chunk is the same storage.
    let shared = before
        .session()
        .graph()
        .shared_chunks_with(after.session().graph());
    assert_eq!(shared.len(), after.session().graph().num_chunks());
    for (c, &is_shared) in shared.iter().enumerate() {
        assert_eq!(
            is_shared,
            !dirty.contains(&c),
            "chunk {c} must be shared iff it holds no invalidated state"
        );
    }
    assert!(shared.iter().filter(|&&s| s).count() >= shared.len() - 2);

    // The same fact through the opaque handles.
    let before_handles = before.session().graph().chunk_handles();
    let after_handles = after.session().graph().chunk_handles();
    for (c, (b, a)) in before_handles.iter().zip(&after_handles).enumerate() {
        assert_eq!(b.ptr_eq(a), shared[c], "handle ptr_eq agrees, chunk {c}");
    }

    // The retired epoch still answers for the pre-edit grammar.
    assert!(before
        .session()
        .graph()
        .live_nodes()
        .all(|n| n.kind == ItemSetKind::Complete));
    assert!(before.session().parse(&workload.sentence).accepted);
    assert!(after.session().parse(&workload.sentence).accepted);
}

#[test]
fn post_fork_expansion_writes_through_cow_without_touching_the_old_epoch() {
    let workload = synthetic_workload(2000);
    let (lhs, rhs) = workload.edit.clone();
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    let server = IpgServer::new(session);
    let before = server.current_epoch();
    server.modify(|s| {
        s.add_rule(lhs, rhs.clone());
    });

    // Drive the new epoch: re-expansion (RE-EXPAND + refcount GC) runs on
    // the fork, through the COW layer.
    assert!(server.parse(&workload.sentence).accepted);
    server.warm();

    // The pinned old epoch was never written: still fully complete, same
    // state count, still parsing the old language.
    assert!(before
        .session()
        .graph()
        .live_nodes()
        .all(|n| n.kind == ItemSetKind::Complete));
    assert!(before.session().parse(&workload.sentence).accepted);
    // And the fork's writes were COW-counted.
    assert!(server.stats().graph.chunks_cowed > 0);
}

#[test]
fn unshare_all_reproduces_the_deep_fork() {
    let workload = synthetic_workload(500);
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    let mut fork = session.clone();
    assert!(fork
        .graph()
        .shared_chunks_with(session.graph())
        .iter()
        .all(|&s| s));
    fork.unshare_all();
    assert!(fork
        .graph()
        .shared_chunks_with(session.graph())
        .iter()
        .all(|&s| !s));
    // Deep or shared, the fork answers identically.
    assert_eq!(
        fork.parse(&workload.sentence).accepted,
        session.parse(&workload.sentence).accepted
    );
}

/// Addresses of the graph's published snapshot chunks, in chunk order
/// (`chunk_accounting` lists the node chunks first, then these).
fn snapshot_chunks(graph: &ItemSetGraph) -> Vec<usize> {
    graph.chunk_accounting()[graph.num_chunks()..]
        .iter()
        .map(|&(addr, _)| addr)
        .collect()
}

#[test]
fn lazy_misses_on_an_unforked_graph_write_cells_in_place() {
    let workload = synthetic_workload(2000);
    let grammar = &workload.grammar;
    let graph = ItemSetGraph::new(grammar);
    graph.expand_all(grammar);
    assert!(graph.num_chunks() >= 4, "fixture must span several chunks");
    let ids: Vec<_> = graph.live_nodes().map(|n| n.id).collect();
    let tables = LazyTables::new(grammar, &graph).unwrap();
    let rows_before = graph.stats().rows_built;
    // One miss per state, in id order: each publishes one cell, and only
    // a miss into a chunk not yet in the directory appends one.
    for &id in &ids {
        let before = snapshot_chunks(&graph);
        tables.actions(id, grammar.eof_symbol());
        let after = snapshot_chunks(&graph);
        assert_eq!(
            after[..before.len()],
            before[..],
            "the miss on state {id:?} moved a snapshot chunk"
        );
        assert_eq!(after.len(), ItemSetGraph::chunk_of_state(id) + 1);
    }
    assert_eq!(graph.stats().rows_built - rows_before, ids.len());
    assert_eq!(graph.resident_bytes(), graph.recompute_resident_bytes());
}

/// The token sentence named by `names`.
fn tokens(grammar: &Grammar, names: &[String]) -> Vec<SymbolId> {
    names
        .iter()
        .map(|n| grammar.symbol(n).expect("interned by the workload"))
        .collect()
}

#[test]
fn forked_epochs_expand_a_shared_initial_state_each_their_own_way() {
    let workload = synthetic_workload(2000);
    let (lhs, rhs) = workload.edit.clone();
    let parent = IpgSession::new(workload.grammar.clone());
    let grammar = parent.grammar();
    // The edited non-terminal `E` hangs off `N{m}` behind `mark`. Reading
    // `a0 … a{m-1} z{m}` expands the state that shifts `mark`, so the
    // `mark`-successor (whose closure holds the `E` rules) is interned but
    // stays `Initial`.
    let m = (0..)
        .find(|i| grammar.symbol(&format!("N{}", i + 1)).is_none())
        .expect("chain ends")
        / 2;
    let prefix: Vec<String> = (0..m).map(|i| format!("a{i}")).collect();
    let sentence = |tail: &[&str]| {
        let mut names = prefix.clone();
        names.extend(tail.iter().map(|t| t.to_string()));
        names
    };
    let warm = sentence(&[&format!("z{m}")]);
    assert!(parent.parse(&tokens(grammar, &warm)).accepted);
    let mark = grammar.symbol("mark").unwrap();
    let x = parent
        .graph()
        .live_nodes()
        .find_map(|n| n.transitions.get(&mark).copied())
        .expect("the mark-successor is interned");
    assert_eq!(parent.graph().node_kind(x), Ok(ItemSetKind::Initial));
    assert!(parent.graph().num_chunks() >= 2);

    // Pin the parent's tables, then fork and add `E ::= e2` on the fork.
    let pinned = parent.tables();
    let mut fork = parent.clone();
    fork.add_rule(lhs, rhs);
    assert_eq!(fork.stats().invalidations, 0, "no complete state reads E yet");
    assert_eq!(fork.graph().node_kind(x), Ok(ItemSetKind::Initial));
    let shared = snapshot_chunks(parent.graph());
    assert_eq!(snapshot_chunks(fork.graph()), shared);

    // Drive both epochs through `x` and beyond, recording every snapshot
    // chunk address each one publishes along the way.
    let probes = [
        sentence(&["mark", "e1"]),
        sentence(&["mark", "e2"]),
        sentence(&[&format!("a{m}"), &format!("z{}", m + 1)]),
        sentence(&["mark", "e1"]),
    ];
    let mut seen = [vec![BTreeSet::new(); shared.len()], vec![BTreeSet::new(); shared.len()]];
    let cold_parent = IpgSession::new(parent.grammar().clone());
    let cold_fork = IpgSession::new(fork.grammar().clone());
    for names in &probes {
        let sides = [(&parent, &cold_parent), (&fork, &cold_fork)];
        for (side, (epoch, cold)) in sides.into_iter().enumerate() {
            let toks = tokens(epoch.grammar(), names);
            assert_eq!(digest(&epoch.parse(&toks)), digest(&cold.parse(&toks)), "{names:?}");
            for (c, &addr) in snapshot_chunks(epoch.graph()).iter().take(shared.len()).enumerate() {
                if addr != shared[c] {
                    seen[side][c].insert(addr);
                }
            }
        }
    }
    let e2 = tokens(fork.grammar(), &sentence(&["mark", "e2"]));
    assert!(!parent.parse(&e2).accepted, "the parent keeps the old grammar");
    assert!(fork.parse(&e2).accepted, "the fork reads its own expansion of x");
    assert_eq!(parent.graph().node_kind(x), Ok(ItemSetKind::Complete));
    assert_eq!(fork.graph().node_kind(x), Ok(ItemSetKind::Complete));

    // Each shared chunk was copied at most once per epoch, and the chunk
    // holding `x` was copied by both.
    let cx = ItemSetGraph::chunk_of_state(x);
    for (side, copies) in seen.iter().enumerate() {
        for (c, addrs) in copies.iter().enumerate() {
            assert!(
                addrs.len() <= 1,
                "epoch {side} copied snapshot chunk {c} {} times",
                addrs.len()
            );
        }
        assert_eq!(copies[cx].len(), 1, "epoch {side} wrote x's cell into its own copy");
    }
    assert_ne!(seen[0][cx], seen[1][cx]);

    // The handle pinned on the parent before the fork answers the old
    // grammar, cell for cell like a cold session of it.
    let parser = GssParser::new(parent.grammar());
    for names in &probes {
        let toks = tokens(parent.grammar(), names);
        assert_eq!(
            digest(&parser.parse(&pinned, &toks)),
            digest(&cold_parent.parse(&toks)),
            "pinned handle on {names:?}"
        );
    }
}
