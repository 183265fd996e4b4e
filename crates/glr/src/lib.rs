//! # ipg-glr
//!
//! Tomita-style (pseudo-)parallel LR parsing for the IPG reproduction
//! (*Incremental Generation of Parsers*, Heering, Klint & Rekers).
//!
//! The paper drives its lazily generated LR(0) tables with Tomita's
//! parallel parsing algorithm so that *arbitrary* context-free grammars are
//! accepted (§3.2). This crate provides two interchangeable drivers:
//!
//! * [`pool`] — the paper-faithful `PAR-PARSE`: a pool of simple LR parsers
//!   that are copied per action and synchronised on shifts;
//! * [`gss`] — the production formulation over a graph-structured stack,
//!   with shared-forest construction ([`forest`]).
//!
//! Both are written against `ipg_lr::ParserTables`, so they run over
//! eagerly generated tables as well as over the lazy item-set graph of the
//! `ipg` crate.
//!
//! ```
//! use ipg_grammar::fixtures;
//! use ipg_lr::{Lr0Automaton, ParseTable, tokenize_names};
//! use ipg_glr::GssParser;
//!
//! let grammar = fixtures::booleans();
//! let table = ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar);
//! let parser = GssParser::new(&grammar);
//! let tokens = tokenize_names(&grammar, "true or true or true").unwrap();
//! let result = parser.parse(&table, &tokens);
//! assert!(result.accepted);
//! assert_eq!(result.forest.tree_count(100), 2); // two ways to nest `or`
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod fault;
pub mod forest;
pub mod fxhash;
pub mod gss;
pub mod pool;
mod rewind;
pub mod source;

pub use budget::{ExhaustReason, ParseBudget};
pub use fault::FaultPlan;
pub use forest::{Derivation, Derivations, Forest, ForestNode, ForestRef, NodeId};
pub use gss::{
    GssParseResult, GssParser, GssRun, GssStats, ParseCtx, ParseHistory, ParseOutcome, TokenEdit,
};
pub use pool::{PoolCtx, PoolError, PoolGlrParser, PoolStats};
pub use source::{SliceTokens, TokenSource};
