//! # ipg — Incremental Parser Generation
//!
//! A from-scratch Rust implementation of **IPG**, the lazy and incremental
//! LR(0) parser generator of *Incremental Generation of Parsers* (J.
//! Heering, P. Klint, J. Rekers; CWI report CS-R8822 / PLDI 1989).
//!
//! The system eliminates the separate parse-table generation phase:
//!
//! * **Lazy generation (§5)** — parsing starts against an item-set graph
//!   that contains only the initial start state; whenever the parser asks
//!   `ACTION` about a state that has not been expanded yet, that single
//!   state is expanded on the spot. Input that exercises only part of the
//!   grammar only ever generates that part of the table.
//! * **Incremental modification (§6)** — `ADD-RULE` / `DELETE-RULE` update
//!   the grammar and invalidate exactly the item sets whose expansion is no
//!   longer valid (those with a transition on the rule's left-hand side).
//!   Everything else is reused; invalidated item sets are re-expanded by
//!   need.
//! * **Garbage collection (§6.2)** — reference counting (plus an optional
//!   mark-and-sweep pass) reclaims item sets that can no longer be reached
//!   after modifications.
//! * **Parallel parsing (§3)** — the tables are driven by the Tomita-style
//!   parsers of `ipg-glr`, so arbitrary context-free grammars are accepted.
//!
//! ## Crate layout
//!
//! | module | paper | contents |
//! |--------|-------|----------|
//! | [`graph`] | §4–§6 | the item-set graph, `EXPAND`, `MODIFY`, GC, and the dense [`ActionRow`] cache shadowing complete item sets |
//! | [`tables`] | §5.1 | lazy `ACTION`/`GOTO` as `ipg_lr::ParserTables` — borrow-based, allocation-free on the steady-state path |
//! | [`session`] | §1, §8 | the interactive language-definition facade |
//! | [`stats`] | §5.2, §7 | work counters and coverage measurements |
//!
//! ## Quick start
//!
//! ```
//! use ipg::IpgSession;
//!
//! let mut session = IpgSession::from_bnf(r#"
//!     B ::= "true" | "false" | B "or" B | B "and" B
//!     START ::= B
//! "#).unwrap();
//!
//! // No generation phase: parsing starts immediately and generates only
//! // the needed parts of the parse table.
//! assert!(session.parse_sentence("true and true").unwrap().accepted);
//! assert!(session.coverage() < 1.0);
//!
//! // Modify the grammar; the existing table is updated, not regenerated.
//! session.add_rule_text(r#"B ::= "unknown""#).unwrap();
//! assert!(session.parse_sentence("unknown or true").unwrap().accepted);
//! ```
//!
//! ## Driving the tables directly
//!
//! `ParserTables::actions_into` fills a reusable [`ipg_lr::ActionCell`] —
//! the reduce set, the optional shift target and the accept flag of one
//! ACTION cell, read from a dense per-state row without allocating (the
//! `actions` convenience below returns a fresh cell):
//!
//! ```
//! use ipg::{ItemSetGraph, LazyTables};
//! use ipg_grammar::fixtures;
//! use ipg_lr::ParserTables;
//!
//! let grammar = fixtures::booleans();
//! let graph = ItemSetGraph::new(&grammar);
//! let tables = LazyTables::new(&grammar, &graph).unwrap();
//!
//! let start = tables.start_state();
//! let tru = grammar.symbol("true").unwrap();
//! let cell = tables.actions(start, tru); // expands the start state
//! assert!(cell.shift.is_some());
//! assert!(cell.reductions.is_empty() && !cell.accept);
//! ```
//!
//! ## Serving many parsers from one graph
//!
//! The table stack is split into a `&self` **read path** (steady-state
//! `ACTION`/`GOTO` queries never block each other) and serialized
//! **writers** (lazy expansion, `MODIFY`, GC). [`IpgServer`] packages the
//! split for multi-threaded use with **grammar epochs**: N threads parse
//! one shared, lazily generated graph, and each modification forks the
//! table state, applies the paper's invalidation privately and publishes
//! the result as a new immutable epoch — in-flight parses finish on the
//! epoch they pinned instead of being drained, and retired epochs are
//! reclaimed once their last reader leaves — see [`server`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod document;
pub mod graph;
pub mod registry;
pub mod server;
pub mod session;
pub mod stats;
pub mod tables;

pub use document::DocumentInfo;
pub use ipg_glr::{ExhaustReason, FaultPlan, ParseBudget};
pub use graph::{
    ActionRow, ChunkHandle, ChunkObserver, GcPolicy, GraphError, ItemSetGraph, ItemSetKind,
    ItemSetNode, CHUNK_SIZE,
};
pub use registry::{GrammarRegistry, RegistryError};
pub use server::{
    GrammarEpoch, IpgServer, PooledParse, Request, RequestCtx, ServerError, ServerStats,
};
pub use session::{IpgSession, SessionError};
pub use stats::{GenStats, GraphSize, LatencyHistogram, HISTOGRAM_BUCKETS};
pub use tables::{LazyTables, StaleGraphError};
