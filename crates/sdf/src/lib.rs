//! # ipg-sdf
//!
//! A subset of **SDF**, the Syntax Definition Formalism in which grammar
//! definitions for IPG are written (and which serves as the benchmark
//! grammar of the paper's §7 measurements — Appendix B gives the SDF
//! definition of SDF itself).
//!
//! The crate provides:
//!
//! * the abstract syntax of SDF modules ([`ast`]),
//! * a hand-written parser for the textual notation ([`parse`]),
//! * normalisation into a context-free grammar plus a scanner derived from
//!   the lexical syntax ([`normalize`](mod@normalize)) — iterations such as `A+`, `A*` and
//!   `{A ","}+` are expanded into auxiliary non-terminals, literals become
//!   keyword tokens, lexical sorts become token definitions,
//! * the paper's fixtures: the SDF definition of SDF and the four
//!   measurement inputs of Fig. 7.1 ([`fixtures`]).
//!
//! ```
//! use ipg_sdf::fixtures;
//!
//! // The paper's experimental setup: the SDF grammar drives ISG + IPG, and
//! // the inputs are themselves SDF definitions.
//! let normalized = fixtures::sdf_grammar_and_scanner();
//! let mut scanner = normalized.scanner;
//! let grammar = normalized.grammar;
//! let tokens = scanner.tokenize_for(&grammar, fixtures::EXP_SDF).unwrap();
//! assert!(tokens.len() > 20);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod fixtures;
pub mod normalize;
pub mod parse;

pub use ast::{CfElem, CfFunction, LexElem, LexicalFunction, SdfDefinition, SdfIterator};
pub use fixtures::{measurement_inputs, MeasurementInput};
pub use normalize::{normalize, to_grammar, to_scanner, NormalizeError, NormalizedSdf};
pub use parse::{parse_sdf, SdfParseError};
