//! # ipg-lexer
//!
//! **ISG** — the lazy and incremental lexical scanner generator that
//! accompanies IPG (the paper's §1 refers to it as \[HKR87a\]; the
//! ISG/IPG combination is what drives the ASF/SDF syntax-directed editor).
//!
//! The same two ideas as the parser generator, applied to scanners:
//!
//! * **lazy** — the DFA is obtained from the token definitions by *lazy*
//!   subset construction: DFA states and transitions are created the first
//!   time the scanner needs them ([`dfa::LazyDfa`]);
//! * **incremental** — token definitions can be added and removed at run
//!   time; the cheap NFA is rebuilt and the DFA re-materialises by need
//!   ([`scanner::Scanner`]).
//!
//! Supporting modules: SDF-style character classes ([`charclass`]),
//! regular expressions with a small textual notation ([`regex`]), and
//! Thompson construction ([`nfa`]).
//!
//! ```
//! use ipg_lexer::{simple_scanner};
//!
//! let mut scanner = simple_scanner(&["while", "do", ":="]);
//! let tokens = scanner.tokenize("while n do n := n1").unwrap();
//! let names: Vec<_> = tokens.iter().map(|t| t.name.as_str()).collect();
//! assert_eq!(names, ["while", "id", "do", "id", ":=", "id"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod charclass;
pub mod dfa;
pub mod nfa;
pub mod regex;
pub mod relex;
pub mod scanner;

pub use charclass::CharClass;
pub use dfa::{DfaSnapshot, DfaStats, LazyDfa, ScanTally};
pub use nfa::{Nfa, TokenId};
pub use regex::Regex;
pub use relex::{MatchRec, RelexOutcome, MAX_TEXT_BYTES};
pub use scanner::{simple_scanner, RawMatch, ScanError, Scanner, Token, TokenDef, TokenStream};
