//! `publish-scaling`: how does **edit-publication latency** scale with
//! grammar size?
//!
//! The paper's thesis (§6, §8) is that an interactive edit must cost what
//! it *invalidates*, not what the language definition has accumulated.
//! This bench pits the two fork strategies against each other on synthetic
//! chain grammars of ~100 / ~1000 / ~5000 productions whose edit rule
//! invalidates a **constant** number of item sets:
//!
//! * **persistent** — the serving path: `IpgServer::modify` forks the
//!   epoch structurally shared (O(#chunks) `Arc` bumps) and the §6 pass
//!   copies-on-write only the chunks holding invalidated states. Expected
//!   flat (≤2x from smallest to largest size).
//! * **deep-fork** — the seed behaviour of this PR, reproduced by
//!   `IpgSession::unshare_all` after the clone: every node chunk, kernel
//!   shard, snapshot chunk and grammar table is copied per edit. Expected
//!   ~linear in grammar size.
//!
//! Prints a table and writes `BENCH_publish_scaling.json`; the run fails
//! its own target check (exit code 1) if the persistent store's edit
//! latency more than doubles from the smallest to the largest grammar.
//!
//! Run with `cargo run --release -p ipg-bench --bin publish-scaling`.

use std::time::Instant;

use ipg::{json, IpgServer, IpgSession};
use ipg_bench::{mean_max_us, synthetic_workload};

struct Row {
    productions: usize,
    states: usize,
    chunks: usize,
    persistent_mean_us: f64,
    persistent_max_us: f64,
    deep_mean_us: f64,
    deep_max_us: f64,
    /// Fraction of storage chunks shared between the pre- and post-edit
    /// epoch under the persistent store.
    shared_fraction: f64,
}

fn measure(productions: usize, edits: usize, deep_edits: usize) -> Row {
    let workload = synthetic_workload(productions);
    let (lhs, rhs) = workload.edit.clone();

    // ---- persistent (the serving path) --------------------------------
    let session = IpgSession::new(workload.grammar.clone());
    session.graph().expand_all(session.grammar());
    let states = session.graph().num_live();
    let chunks = session.graph().num_chunks();
    let server = IpgServer::new(session);
    assert!(server.parse(&workload.sentence).accepted, "sanity parse");

    // Chunk sharing across one publication (measured before the timing
    // loop so the pins don't skew reclamation).
    let shared_fraction = {
        let before = server.current_epoch();
        server.modify(|s| {
            s.add_rule(lhs, rhs.clone());
        });
        let after = server.current_epoch();
        let shared = before
            .session()
            .graph()
            .shared_chunks_with(after.session().graph());
        let fraction =
            shared.iter().filter(|&&s| s).count() as f64 / shared.len().max(1) as f64;
        server.modify(|s| {
            s.remove_rule(lhs, &rhs).expect("edit rule was just added");
        });
        fraction
    };

    // Warm-up edit pair, then timed steady-state cycles.
    server.modify(|s| {
        s.add_rule(lhs, rhs.clone());
    });
    server.modify(|s| {
        s.remove_rule(lhs, &rhs).expect("edit rule was just added");
    });
    let mut persistent: Vec<f64> = Vec::with_capacity(edits);
    for i in 0..edits {
        let start = Instant::now();
        if i % 2 == 0 {
            server.modify(|s| {
                s.add_rule(lhs, rhs.clone());
            });
        } else {
            server.modify(|s| {
                s.remove_rule(lhs, &rhs).expect("edit rule was just added");
            });
        }
        persistent.push(start.elapsed().as_secs_f64());
    }
    assert!(server.parse(&workload.sentence).accepted, "still serving");

    // ---- deep fork (the seed behaviour of this PR) --------------------
    let mut base = IpgSession::new(workload.grammar.clone());
    base.graph().expand_all(base.grammar());
    let mut deep: Vec<f64> = Vec::with_capacity(deep_edits);
    for i in 0..deep_edits {
        let start = Instant::now();
        let mut fork = base.clone();
        fork.unshare_all();
        if i % 2 == 0 {
            fork.add_rule(lhs, rhs.clone());
        } else {
            fork.remove_rule(lhs, &rhs).expect("edit rule was just added");
        }
        deep.push(start.elapsed().as_secs_f64());
        base = fork; // "publish" the fork, as the old server did
    }

    let (persistent_mean_us, persistent_max_us) = mean_max_us(&persistent);
    let (deep_mean_us, deep_max_us) = mean_max_us(&deep);
    Row {
        productions,
        states,
        chunks,
        persistent_mean_us,
        persistent_max_us,
        deep_mean_us,
        deep_max_us,
        shared_fraction,
    }
}

fn main() {
    let sizes = [100usize, 1000, 5000];
    let edits = 200;
    let deep_edits = 40;

    let rows: Vec<Row> = sizes
        .iter()
        .map(|&size| measure(size, edits, deep_edits))
        .collect();

    println!("Edit-publication latency vs grammar size ({edits} persistent / {deep_edits} deep edits per size)");
    println!("productions |  states | chunks | persistent mean/max µs | deep-fork mean/max µs | chunks shared");
    for row in &rows {
        println!(
            "{:>11} | {:>7} | {:>6} | {:>10.1} / {:>8.1} | {:>9.1} / {:>9.1} | {:>11.1}%",
            row.productions,
            row.states,
            row.chunks,
            row.persistent_mean_us,
            row.persistent_max_us,
            row.deep_mean_us,
            row.deep_max_us,
            row.shared_fraction * 100.0,
        );
    }

    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    let persistent_growth = last.persistent_mean_us / first.persistent_mean_us;
    let deep_growth = last.deep_mean_us / first.deep_mean_us;
    println!(
        "\npersistent-store edit latency growth {}→{} productions: {persistent_growth:.2}x (target ≤ 2x)",
        first.productions, last.productions
    );
    println!("deep-fork edit latency growth: {deep_growth:.2}x (the cost the persistent store removes)");

    let json = json::object(|doc| {
        doc.string("benchmark", "publish-scaling")
            .string("workload", "synthetic-chain")
            .objects("rows", &rows, |o, row| {
                o.field("productions", row.productions)
                    .field("states", row.states)
                    .field("chunks", row.chunks)
                    .field("persistent_mean_us", format_args!("{:.2}", row.persistent_mean_us))
                    .field("persistent_max_us", format_args!("{:.2}", row.persistent_max_us))
                    .field("deep_fork_mean_us", format_args!("{:.2}", row.deep_mean_us))
                    .field("deep_fork_max_us", format_args!("{:.2}", row.deep_max_us))
                    .field("shared_chunk_fraction", format_args!("{:.4}", row.shared_fraction));
            })
            .field("persistent_growth", format_args!("{persistent_growth:.3}"))
            .field("deep_fork_growth", format_args!("{deep_growth:.3}"));
    });
    std::fs::write("BENCH_publish_scaling.json", &json).expect("write BENCH_publish_scaling.json");
    println!("\nwrote BENCH_publish_scaling.json");

    if persistent_growth > 2.0 {
        eprintln!(
            "WARNING: persistent-store edit latency grew {persistent_growth:.2}x from {} to {} productions (target ≤ 2x)",
            first.productions, last.productions
        );
    }
    // Hard gate with headroom for scheduler noise on shared CI runners:
    // anything past 2.5x (or within a factor of four of the deep fork's
    // growth) means structural sharing regressed, not that the run was
    // unlucky.
    if persistent_growth > 2.5 || persistent_growth * 4.0 > deep_growth {
        eprintln!("FAIL: edit publication no longer scales like O(invalidated)");
        std::process::exit(1);
    }
}
