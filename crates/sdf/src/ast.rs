//! Abstract syntax of the SDF subset.
//!
//! SDF ("Syntax Definition Formalism") is the language in which grammar
//! definitions for IPG are written; the paper uses (an LR(1) version of)
//! the SDF grammar as its benchmark grammar and gives the SDF definition of
//! SDF itself in Appendix B. An SDF definition has a lexical-syntax section
//! (sorts, layout, lexical functions over character classes) and a
//! context-free-syntax section (sorts, priorities, functions). An SDF
//! function `β -> A` is equivalent to a BNF rule `A ::= β`.

use std::fmt;

use ipg_lexer::CharClass;

/// The two SDF iteration operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SdfIterator {
    /// `+`: one or more.
    Plus,
    /// `*`: zero or more.
    Star,
}

impl fmt::Display for SdfIterator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SdfIterator::Plus => "+",
            SdfIterator::Star => "*",
        })
    }
}

/// An element of a lexical function's left-hand side.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LexElem {
    /// Reference to another lexical sort.
    Sort(String),
    /// Iterated reference to a lexical sort (`ID-TAIL*`).
    Iter(String, SdfIterator),
    /// A literal string.
    Literal(String),
    /// A character class (possibly negated).
    Class(CharClass),
    /// An iterated character class (`[a-z]+`). A small extension over
    /// Appendix B, which only iterates sorts: it lets lexical syntax say
    /// `[a-z]+` without a helper sort for the class.
    ClassIter(CharClass, SdfIterator),
}

/// A lexical function `elems -> SORT`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LexicalFunction {
    /// The elements that make up the token.
    pub elems: Vec<LexElem>,
    /// The lexical sort the token belongs to.
    pub sort: String,
}

/// An element of a context-free function's left-hand side.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CfElem {
    /// A sort (lexical sorts become terminals, context-free sorts become
    /// non-terminals).
    Sort(String),
    /// A literal keyword or punctuation symbol.
    Literal(String),
    /// An iterated sort, `SORT+` or `SORT*`.
    Iter(String, SdfIterator),
    /// A separated iteration, `{SORT ","}+` or `{SORT ","}*`.
    SepIter {
        /// The repeated sort.
        sort: String,
        /// The separator literal.
        separator: String,
        /// `+` or `*`.
        iter: SdfIterator,
    },
}

/// A context-free function `elems -> SORT attributes`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CfFunction {
    /// The elements of the right-hand side (empty for `-- empty --`
    /// productions).
    pub elems: Vec<CfElem>,
    /// The sort the function produces (the BNF left-hand side).
    pub sort: String,
    /// Attribute names (`left-assoc`, `assoc`, `par`, ...).
    pub attributes: Vec<String>,
}

/// A parsed SDF module (the subset used by this reproduction).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SdfDefinition {
    /// The module name (`module NAME begin ... end NAME`).
    pub name: String,
    /// Sorts declared in the lexical syntax.
    pub lexical_sorts: Vec<String>,
    /// Layout sorts (whitespace, comments).
    pub layout_sorts: Vec<String>,
    /// Lexical functions.
    pub lexical_functions: Vec<LexicalFunction>,
    /// Sorts declared in the context-free syntax.
    pub cf_sorts: Vec<String>,
    /// Priority declarations, kept as raw text (they do not affect the
    /// token streams the benchmarks feed to the parsers).
    pub priorities: Vec<String>,
    /// Context-free functions.
    pub cf_functions: Vec<CfFunction>,
}

impl SdfDefinition {
    /// `true` if `sort` is declared in the lexical-syntax section (and thus
    /// becomes a terminal of the context-free grammar).
    pub fn is_lexical_sort(&self, sort: &str) -> bool {
        self.lexical_sorts.iter().any(|s| s == sort)
            || self.layout_sorts.iter().any(|s| s == sort)
    }

    /// The start sort of the definition: the first declared context-free
    /// sort (SDF uses the outermost sort of the module; for the Appendix B
    /// definition that is `SDF-DEFINITION`).
    pub fn start_sort(&self) -> Option<&str> {
        self.cf_sorts.first().map(String::as_str).or_else(|| {
            self.cf_functions.first().map(|f| f.sort.as_str())
        })
    }

    /// All literals used in context-free functions (the keyword terminals).
    pub fn cf_literals(&self) -> Vec<String> {
        let mut out = Vec::new();
        for f in &self.cf_functions {
            for elem in &f.elems {
                match elem {
                    CfElem::Literal(l) => push_unique(&mut out, l),
                    CfElem::SepIter { separator, .. } => push_unique(&mut out, separator),
                    _ => {}
                }
            }
        }
        out
    }

    /// The lexical sorts referenced from context-free functions; these are
    /// the token sorts the scanner must produce.
    pub fn terminal_sorts(&self) -> Vec<String> {
        let mut out = Vec::new();
        for f in &self.cf_functions {
            for elem in &f.elems {
                let name = match elem {
                    CfElem::Sort(s) | CfElem::Iter(s, _) | CfElem::SepIter { sort: s, .. } => s,
                    CfElem::Literal(_) => continue,
                };
                if self.is_lexical_sort(name) {
                    push_unique(&mut out, name);
                }
            }
        }
        out
    }

    /// Number of context-free functions (BNF rules before iteration
    /// expansion).
    pub fn num_cf_functions(&self) -> usize {
        self.cf_functions.len()
    }
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_owned());
    }
}

impl fmt::Display for CfElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfElem::Sort(s) => write!(f, "{s}"),
            CfElem::Literal(l) => write!(f, "\"{l}\""),
            CfElem::Iter(s, it) => write!(f, "{s}{it}"),
            CfElem::SepIter { sort, separator, iter } => {
                write!(f, "{{{sort} \"{separator}\"}}{iter}")
            }
        }
    }
}

impl fmt::Display for CfFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let elems: Vec<String> = self.elems.iter().map(|e| e.to_string()).collect();
        write!(f, "{} -> {}", elems.join(" "), self.sort)?;
        if !self.attributes.is_empty() {
            write!(f, " {{{}}}", self.attributes.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SdfDefinition {
        SdfDefinition {
            name: "Sample".to_owned(),
            lexical_sorts: vec!["ID".to_owned(), "NUM".to_owned()],
            layout_sorts: vec!["WHITE-SPACE".to_owned()],
            lexical_functions: vec![],
            cf_sorts: vec!["PROGRAM".to_owned(), "STMT".to_owned()],
            priorities: vec![],
            cf_functions: vec![
                CfFunction {
                    elems: vec![
                        CfElem::Literal("begin".to_owned()),
                        CfElem::SepIter {
                            sort: "STMT".to_owned(),
                            separator: ";".to_owned(),
                            iter: SdfIterator::Plus,
                        },
                        CfElem::Literal("end".to_owned()),
                    ],
                    sort: "PROGRAM".to_owned(),
                    attributes: vec![],
                },
                CfFunction {
                    elems: vec![
                        CfElem::Sort("ID".to_owned()),
                        CfElem::Literal(":=".to_owned()),
                        CfElem::Sort("NUM".to_owned()),
                    ],
                    sort: "STMT".to_owned(),
                    attributes: vec!["par".to_owned()],
                },
            ],
        }
    }

    #[test]
    fn sort_classification() {
        let d = sample();
        assert!(d.is_lexical_sort("ID"));
        assert!(d.is_lexical_sort("WHITE-SPACE"));
        assert!(!d.is_lexical_sort("STMT"));
        assert_eq!(d.start_sort(), Some("PROGRAM"));
        assert_eq!(d.num_cf_functions(), 2);
    }

    #[test]
    fn literal_and_terminal_collection() {
        let d = sample();
        assert_eq!(d.cf_literals(), vec!["begin", ";", "end", ":="]);
        assert_eq!(d.terminal_sorts(), vec!["ID", "NUM"]);
    }

    #[test]
    fn display_forms() {
        let d = sample();
        assert_eq!(
            d.cf_functions[0].to_string(),
            "\"begin\" {STMT \";\"}+ \"end\" -> PROGRAM"
        );
        assert_eq!(d.cf_functions[1].to_string(), "ID \":=\" NUM -> STMT {par}");
        assert_eq!(SdfIterator::Star.to_string(), "*");
    }

    #[test]
    fn empty_definition_has_no_start_sort() {
        assert_eq!(SdfDefinition::default().start_sort(), None);
    }
}
