//! The paper's SDF fixtures.
//!
//! * [`SDF_OF_SDF`] — the SDF definition of SDF itself (Appendix B),
//!   adapted to the subset implemented by this crate (see below);
//! * the four measurement inputs of §7 / Fig. 7.1: `exp.sdf` (37 tokens in
//!   the paper), `Exam.sdf` (166), `SDF.sdf` (342) and `ASF.sdf` (475).
//!   The originals are not available, so `exp`, `Exam` and `ASF` are
//!   synthesised SDF modules of comparable size; `SDF.sdf` is — as in the
//!   paper — the SDF definition of SDF itself;
//! * [`paper_modification_rule`] — the grammar rule the paper adds during
//!   the measurements: `"(" CF-ELEM+ ")?" -> CF-ELEM`.
//!
//! Adaptations with respect to the verbatim Appendix B text, which keep
//! the lexical syntax within the SDF subset this crate parses: string
//! escapes inside literals are avoided by using character classes (`["]`
//! instead of `"\""`), the difference operator on character classes is
//! written `~[...]` instead of `- [...]`, and the lexical chain
//! `ORD-CHAR`/`C-CHAR`/`CHAR-RANGE` is folded into a single `CC-CHAR` sort.
//! None of these changes affect the context-free grammar that the parser
//! generators are measured on.

use crate::ast::{SdfDefinition, SdfIterator};
use crate::normalize::{iter_symbol_name, normalize, NormalizedSdf};
use crate::parse::parse_sdf;

/// The SDF definition of SDF (Appendix B, adapted to the implemented
/// subset).
pub const SDF_OF_SDF: &str = r#"
module SDF
begin
    -- The SDF definition of SDF --
    lexical syntax
        sorts LETTER, ID-CHAR, ID, ITERATOR, L-CHAR, LITERAL, CC-CHAR, CHAR-CLASS
        layout WHITE-SPACE, COMMENT
        functions
            [a-zA-Z]                    -> LETTER
            [a-zA-Z0-9_\-]              -> ID-CHAR
            LETTER ID-CHAR*             -> ID
            "+"                         -> ITERATOR
            "*"                         -> ITERATOR
            ~["\n]                      -> L-CHAR
            ["] L-CHAR* ["]             -> LITERAL
            ~[\]\\]                     -> CC-CHAR
            "\\" [\]nrt\\-]             -> CC-CHAR
            "[" CC-CHAR* "]"            -> CHAR-CLASS
            "~" "[" CC-CHAR* "]"        -> CHAR-CLASS
            [ \t\n\r]                   -> WHITE-SPACE
            "--" ~[\n]*                 -> COMMENT

    context-free syntax
        sorts SDF-DEFINITION, LEXICAL-SYNTAX, SORTS-DECL, SORT, LAYOUT,
              LEXICAL-FUNCTIONS, LEXICAL-FUNCTION-DEF, LEX-ELEM,
              CONTEXT-FREE-SYNTAX, PRIORITIES, PRIO-DEF, ABBREV-F-LIST,
              ABBREV-F-DEF, FUNCTIONS, FUNCTION-DEF, CF-ELEM, ATTRIBUTES,
              ATTRIBUTE
        functions
            "module" ID
            "begin"
                LEXICAL-SYNTAX
                CONTEXT-FREE-SYNTAX
            "end" ID                                   -> SDF-DEFINITION

            "lexical" "syntax"
                SORTS-DECL
                LAYOUT
                LEXICAL-FUNCTIONS                      -> LEXICAL-SYNTAX
                                                       -> LEXICAL-SYNTAX

            "sorts" {SORT ","}+                        -> SORTS-DECL
                                                       -> SORTS-DECL
            ID                                         -> SORT
            "layout" {SORT ","}+                       -> LAYOUT
                                                       -> LAYOUT

            "functions" LEXICAL-FUNCTION-DEF+          -> LEXICAL-FUNCTIONS
            LEX-ELEM+ "->" SORT                        -> LEXICAL-FUNCTION-DEF
            SORT                                       -> LEX-ELEM
            SORT ITERATOR                              -> LEX-ELEM
            LITERAL                                    -> LEX-ELEM
            CHAR-CLASS                                 -> LEX-ELEM
            CHAR-CLASS ITERATOR                        -> LEX-ELEM
            "~" CHAR-CLASS                             -> LEX-ELEM

            "context-free" "syntax"
                SORTS-DECL
                PRIORITIES
                FUNCTIONS                              -> CONTEXT-FREE-SYNTAX

            "priorities" {PRIO-DEF ","}+               -> PRIORITIES
                                                       -> PRIORITIES
            {ABBREV-F-LIST ">"}+                       -> PRIO-DEF
            {ABBREV-F-LIST "<"}+                       -> PRIO-DEF
            ABBREV-F-DEF                               -> ABBREV-F-LIST
            "(" {ABBREV-F-DEF ","}+ ")"                -> ABBREV-F-LIST
            CF-ELEM+                                   -> ABBREV-F-DEF
            CF-ELEM* "->" SORT                         -> ABBREV-F-DEF

            "functions" FUNCTION-DEF+                  -> FUNCTIONS
            CF-ELEM* "->" SORT ATTRIBUTES              -> FUNCTION-DEF
            SORT                                       -> CF-ELEM
            LITERAL                                    -> CF-ELEM
            SORT ITERATOR                              -> CF-ELEM
            "{" SORT LITERAL "}" ITERATOR              -> CF-ELEM

            "{" {ATTRIBUTE ","}+ "}"                   -> ATTRIBUTES
                                                       -> ATTRIBUTES
            "par"                                      -> ATTRIBUTE
            "assoc"                                    -> ATTRIBUTE
            "left-assoc"                               -> ATTRIBUTE
            "right-assoc"                              -> ATTRIBUTE
end SDF
"#;

/// `exp.sdf`: the smallest measurement input (37 tokens in the paper) — a
/// tiny expression-language definition.
pub const EXP_SDF: &str = r#"
module Exp
begin
    lexical syntax
        sorts ID
        functions
            [a-z]+ -> ID
    context-free syntax
        sorts EXP
        functions
            EXP "+" EXP -> EXP {left-assoc}
            EXP "*" EXP -> EXP {left-assoc}
            ID          -> EXP
end Exp
"#;

/// `Exam.sdf`: the second measurement input (166 tokens in the paper) — a
/// small imperative language with declarations, statements and expressions.
pub const EXAM_SDF: &str = r#"
module Exam
begin
    lexical syntax
        sorts LETTER, DIGIT, ID, NAT
        layout WHITE-SPACE, COMMENT
        functions
            [a-zA-Z]            -> LETTER
            [0-9]               -> DIGIT
            LETTER LETTER*      -> ID
            DIGIT DIGIT*        -> NAT
            [ \t\n]             -> WHITE-SPACE
            "%" ~[\n]*          -> COMMENT
    context-free syntax
        sorts PROGRAM, DECLS, DECL, TYPE, STATS, STAT, EXP
        functions
            "program" ID DECLS "begin" STATS "end"     -> PROGRAM
            "declare" {DECL ","}*                      -> DECLS
            ID ":" TYPE                                -> DECL
            "natural"                                  -> TYPE
            "string"                                   -> TYPE
            {STAT ";"}+                                -> STATS
            ID ":=" EXP                                -> STAT
            "if" EXP "then" STATS "else" STATS "fi"    -> STAT
            "while" EXP "do" STATS "od"                -> STAT
            "read" ID                                  -> STAT
            "write" EXP                                -> STAT
            "skip"                                     -> STAT
            EXP "+" EXP                                -> EXP {left-assoc}
            EXP "-" EXP                                -> EXP {left-assoc}
            EXP "=" EXP                                -> EXP
            "(" EXP ")"                                -> EXP
            ID                                         -> EXP
            NAT                                        -> EXP
end Exam
"#;

/// `ASF.sdf`: the largest measurement input (475 tokens in the paper) — an
/// algebraic-specification formalism in the spirit of ASF, with modules,
/// imports, signatures, variables and conditional equations.
pub const ASF_SDF: &str = r##"
module ASF
begin
    lexical syntax
        sorts UC-LETTER, LC-LETTER, DIGIT, SORT-ID, FUN-ID, VAR-ID, NUMBER, TAG
        layout WHITE-SPACE, COMMENT
        functions
            [A-Z]                           -> UC-LETTER
            [a-z]                           -> LC-LETTER
            [0-9]                           -> DIGIT
            UC-LETTER UC-LETTER*            -> SORT-ID
            LC-LETTER LC-LETTER*            -> FUN-ID
            UC-LETTER DIGIT DIGIT*          -> VAR-ID
            DIGIT DIGIT*                    -> NUMBER
            "[" DIGIT DIGIT* "]"            -> TAG
            [ \t\n\r]                       -> WHITE-SPACE
            "%" "%" ~[\n]*                  -> COMMENT
    context-free syntax
        sorts SPECIFICATION, MODULE, IMPORTS, EXPORTS, SIGNATURE,
              SORTS-SECTION, FUNCTIONS-SECTION, FUNCTION-DECL, SORT-LIST,
              VARIABLES, VARIABLE-DECL, EQUATIONS, EQUATION, CONDITIONS,
              CONDITION, TERM, TERM-LIST
        functions
            MODULE+                                            -> SPECIFICATION
            "module" SORT-ID IMPORTS EXPORTS "endmodule"       -> MODULE
            "imports" {SORT-ID ","}*                           -> IMPORTS
                                                               -> IMPORTS
            "exports" SIGNATURE VARIABLES EQUATIONS            -> EXPORTS
            SORTS-SECTION FUNCTIONS-SECTION                    -> SIGNATURE
            "sorts" {SORT-ID ","}+                             -> SORTS-SECTION
                                                               -> SORTS-SECTION
            "functions" FUNCTION-DECL+                         -> FUNCTIONS-SECTION
                                                               -> FUNCTIONS-SECTION
            FUN-ID ":" SORT-LIST "->" SORT-ID                  -> FUNCTION-DECL
            FUN-ID ":" "->" SORT-ID                            -> FUNCTION-DECL
            {SORT-ID "#"}+                                     -> SORT-LIST
            "variables" VARIABLE-DECL+                         -> VARIABLES
                                                               -> VARIABLES
            VAR-ID ":" "->" SORT-ID                            -> VARIABLE-DECL
            "equations" EQUATION+                              -> EQUATIONS
                                                               -> EQUATIONS
            TAG TERM "=" TERM                                  -> EQUATION
            TAG CONDITIONS "==>" TERM "=" TERM                 -> EQUATION
            "when" {CONDITION ","}+                            -> CONDITIONS
            TERM "=" TERM                                      -> CONDITION
            TERM "!=" TERM                                     -> CONDITION
            FUN-ID                                             -> TERM
            VAR-ID                                             -> TERM
            NUMBER                                             -> TERM
            FUN-ID "(" TERM-LIST ")"                           -> TERM
            "(" TERM ")"                                       -> TERM
            TERM "+" TERM                                      -> TERM {left-assoc}
            TERM "-" TERM                                      -> TERM {left-assoc}
            TERM "*" TERM                                      -> TERM {left-assoc}
            "if" TERM "then" TERM "else" TERM "fi"             -> TERM
            "let" VAR-ID "be" TERM "in" TERM                   -> TERM
            "succ" "(" TERM ")"                                -> TERM
            "pred" "(" TERM ")"                                -> TERM
            "true"                                             -> TERM
            "false"                                            -> TERM
            "nil"                                              -> TERM
            "cons" "(" TERM "," TERM ")"                       -> TERM
            "head" "(" TERM ")"                                -> TERM
            "tail" "(" TERM ")"                                -> TERM
            TERM "and" TERM                                    -> TERM {assoc}
            TERM "or" TERM                                     -> TERM {assoc}
            "not" "(" TERM ")"                                 -> TERM
            TERM "eq" TERM                                     -> TERM
            TERM "lt" TERM                                     -> TERM
            TERM "gt" TERM                                     -> TERM
            {TERM ","}+                                        -> TERM-LIST
            {TERM ","}*                                        -> TERM-LIST
end ASF
"##;

/// One measurement input of Fig. 7.1.
#[derive(Clone, Debug)]
pub struct MeasurementInput {
    /// File name used in the paper (`exp.sdf`, `Exam.sdf`, ...).
    pub name: &'static str,
    /// The SDF text of the input.
    pub text: &'static str,
    /// The token count the paper reports for its original input.
    pub paper_tokens: usize,
}

/// The four inputs of Fig. 7.1, smallest to largest.
pub fn measurement_inputs() -> Vec<MeasurementInput> {
    vec![
        MeasurementInput { name: "exp.sdf", text: EXP_SDF, paper_tokens: 37 },
        MeasurementInput { name: "Exam.sdf", text: EXAM_SDF, paper_tokens: 166 },
        MeasurementInput { name: "SDF.sdf", text: SDF_OF_SDF, paper_tokens: 342 },
        MeasurementInput { name: "ASF.sdf", text: ASF_SDF, paper_tokens: 475 },
    ]
}

/// Parses [`SDF_OF_SDF`] into an [`SdfDefinition`].
pub fn sdf_of_sdf_definition() -> SdfDefinition {
    parse_sdf(SDF_OF_SDF).expect("the bundled SDF definition of SDF parses")
}

/// The normalised SDF grammar and scanner — the paper's benchmark grammar.
pub fn sdf_grammar_and_scanner() -> NormalizedSdf {
    normalize(&sdf_of_sdf_definition()).expect("the bundled SDF definition normalises")
}

/// The grammar modification used in the paper's measurements (§7): the rule
/// `"(" CF-ELEM+ ")?" -> CF-ELEM` is *added* to the SDF grammar. Returned
/// as `(lhs, rhs)` symbol names against the normalised grammar: the
/// left-hand side `CF-ELEM`, and the right-hand side `(`, `CF-ELEM+`
/// (the auxiliary iteration non-terminal that already exists) and the new
/// terminal `")?"`.
pub fn paper_modification_rule() -> (String, Vec<String>) {
    (
        "CF-ELEM".to_owned(),
        vec![
            "(".to_owned(),
            iter_symbol_name("CF-ELEM", SdfIterator::Plus),
            ")?".to_owned(),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdf_of_sdf_parses_and_normalises() {
        let def = sdf_of_sdf_definition();
        assert_eq!(def.name, "SDF");
        assert_eq!(def.start_sort(), Some("SDF-DEFINITION"));
        assert!(def.num_cf_functions() >= 35);
        assert!(def.is_lexical_sort("ID"));
        assert!(def.is_lexical_sort("COMMENT"));
        let normalized = sdf_grammar_and_scanner();
        normalized.grammar.validate().unwrap();
        assert!(normalized.grammar.num_active_rules() > 40);
    }

    #[test]
    fn all_measurement_inputs_parse_as_sdf_text() {
        for input in measurement_inputs() {
            let def = parse_sdf(input.text).expect(input.name);
            assert!(!def.cf_functions.is_empty(), "{}", input.name);
        }
    }

    #[test]
    fn measurement_inputs_are_ordered_by_size() {
        let inputs = measurement_inputs();
        assert_eq!(inputs.len(), 4);
        let NormalizedSdf { grammar, scanner } = sdf_grammar_and_scanner();
        let sizes: Vec<usize> = inputs
            .iter()
            .map(|i| scanner.tokenize_for(&grammar, i.text).expect(i.name).len())
            .collect();
        for pair in inputs.windows(2) {
            assert!(pair[0].paper_tokens < pair[1].paper_tokens);
        }
        for pair in sizes.windows(2) {
            assert!(pair[0] < pair[1], "token counts must increase: {sizes:?}");
        }
    }

    #[test]
    fn scanner_tokenizes_every_measurement_input() {
        let NormalizedSdf { grammar, scanner } = sdf_grammar_and_scanner();
        for input in measurement_inputs() {
            let tokens = scanner
                .tokenize_for(&grammar, input.text)
                .unwrap_or_else(|e| panic!("{}: {e}", input.name));
            assert!(
                !tokens.is_empty(),
                "{} should produce tokens",
                input.name
            );
            // The synthesised inputs are within a factor of two of the
            // paper's token counts: close enough that Fig. 7.1's rows
            // compare inputs of the paper's sizes, without claiming the
            // unavailable originals' exact counts.
            let lo = input.paper_tokens / 2;
            let hi = input.paper_tokens * 2;
            assert!(
                (lo..=hi).contains(&tokens.len()),
                "{}: {} tokens, paper reports {}",
                input.name,
                tokens.len(),
                input.paper_tokens
            );
        }
    }

    #[test]
    fn modification_rule_refers_to_existing_symbols() {
        let NormalizedSdf { grammar, .. } = sdf_grammar_and_scanner();
        let (lhs, rhs) = paper_modification_rule();
        assert!(grammar.symbol(&lhs).is_some());
        assert!(grammar.symbol(&rhs[0]).is_some());
        assert!(grammar.symbol(&rhs[1]).is_some());
        // `")?"` is new — it is interned by whoever applies the modification.
        assert!(grammar.symbol(&rhs[2]).is_none());
    }
}
