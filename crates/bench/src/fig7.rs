//! The Fig. 7.1 measurement: for each of the three parser generators
//! (Yacc-like LALR(1), PG, IPG) and each of the four inputs, measure
//!
//! 1. constructing the parse table for SDF,
//! 2. parsing the input twice,
//! 3. modifying the grammar (adding `"(" CF-ELEM+ ")?" -> CF-ELEM`) and
//!    reconstructing the parse table,
//! 4. parsing the same input twice again.
//!
//! The absolute numbers are of course nothing like a 1988 SUN 3/60 running
//! LeLisp; what the reproduction preserves is the *shape*: batch generation
//! (Yacc, PG) pays its full table-generation cost before the first parse
//! and again after every modification, while IPG starts parsing
//! immediately, spreads generation over the first parse, and absorbs the
//! modification with a near-zero update.

use std::time::Instant;

use ipg::{GcPolicy, ItemSetGraph, LazyTables};
use ipg_glr::GssParser;
use ipg_grammar::Grammar;
use ipg_lr::{lalr1_table, Lr0Automaton, LrParser, ParseTable};

use crate::workload::{PreLexedInput, SdfWorkload};

/// The three generators of the measurement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GeneratorKind {
    /// LALR(1) batch generation, deterministic parsing where possible —
    /// the stand-in for Yacc (§7; the C-compile/link share of the paper's
    /// Yacc column is not modelled: there is no C toolchain step to time).
    Yacc,
    /// Eager LR(0) generation, Tomita parsing — the paper's PG.
    Pg,
    /// Lazy/incremental LR(0) generation, Tomita parsing — IPG.
    Ipg,
}

impl GeneratorKind {
    /// All three generators, in the paper's order.
    pub fn all() -> [GeneratorKind; 3] {
        [GeneratorKind::Yacc, GeneratorKind::Pg, GeneratorKind::Ipg]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GeneratorKind::Yacc => "Yacc (LALR(1))",
            GeneratorKind::Pg => "PG (eager LR(0))",
            GeneratorKind::Ipg => "IPG (lazy/incremental LR(0))",
        }
    }
}

/// One measured row of Fig. 7.1 (all times in milliseconds).
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Which generator.
    pub generator: GeneratorKind,
    /// Which input.
    pub input: &'static str,
    /// Tokens in the input.
    pub tokens: usize,
    /// Time to construct the parse table for SDF.
    pub construct_ms: f64,
    /// First parse of the input.
    pub parse1_ms: f64,
    /// Second parse of the same input.
    pub parse2_ms: f64,
    /// Time to modify the grammar and reconstruct/update the parse table.
    pub modify_ms: f64,
    /// First parse after the modification.
    pub parse3_ms: f64,
    /// Second parse after the modification.
    pub parse4_ms: f64,
}

impl Fig7Row {
    /// Total time of the whole scenario.
    pub fn total_ms(&self) -> f64 {
        self.construct_ms
            + self.parse1_ms
            + self.parse2_ms
            + self.modify_ms
            + self.parse3_ms
            + self.parse4_ms
    }

    /// Time until the first parse has completed (the "smooth response"
    /// quantity the paper cares about for interactive use).
    pub fn time_to_first_parse_ms(&self) -> f64 {
        self.construct_ms + self.parse1_ms
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1e3)
}

/// Parses with the deterministic LR parser when the table is conflict-free,
/// falling back to the parallel parser otherwise. Returns `true` when the
/// input was accepted.
fn parse_with_table(grammar: &Grammar, table: &ParseTable, input: &PreLexedInput) -> bool {
    if table.is_deterministic() {
        LrParser::new(grammar)
            .recognize(table, &input.tokens)
            .unwrap_or(false)
    } else {
        GssParser::new(grammar).recognize(table, &input.tokens)
    }
}

/// Runs the scenario for one generator and one input.
pub fn measure(workload: &SdfWorkload, generator: GeneratorKind, input_name: &str) -> Fig7Row {
    let input = workload.input(input_name).clone();
    let (lhs, rhs) = workload.modification.clone();
    match generator {
        GeneratorKind::Yacc => {
            let mut grammar = workload.grammar.clone();
            let (table, construct_ms) = time(|| {
                let table = lalr1_table(&grammar);
                // Stand-in for writing the generated parser out (the paper's
                // Yacc emits C source; compiling it is not modelled).
                let _ = table.render(&grammar);
                table
            });
            let (ok1, parse1_ms) = time(|| parse_with_table(&grammar, &table, &input));
            let (_, parse2_ms) = time(|| parse_with_table(&grammar, &table, &input));
            let (table, modify_ms) = time(|| {
                grammar.add_rule(lhs, rhs.clone());
                let table = lalr1_table(&grammar);
                let _ = table.render(&grammar);
                table
            });
            let (ok3, parse3_ms) = time(|| parse_with_table(&grammar, &table, &input));
            let (_, parse4_ms) = time(|| parse_with_table(&grammar, &table, &input));
            assert!(ok1 && ok3, "Yacc baseline rejected {input_name}");
            Fig7Row {
                generator,
                input: input.name,
                tokens: input.tokens.len(),
                construct_ms,
                parse1_ms,
                parse2_ms,
                modify_ms,
                parse3_ms,
                parse4_ms,
            }
        }
        GeneratorKind::Pg => {
            let mut grammar = workload.grammar.clone();
            let (table, construct_ms) =
                time(|| ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar));
            let parser = GssParser::new(&grammar);
            let (ok1, parse1_ms) = time(|| parser.recognize(&table, &input.tokens));
            let (_, parse2_ms) = time(|| parser.recognize(&table, &input.tokens));
            let (table, modify_ms) = time(|| {
                grammar.add_rule(lhs, rhs.clone());
                ParseTable::lr0(&Lr0Automaton::build(&grammar), &grammar)
            });
            let parser = GssParser::new(&grammar);
            let (ok3, parse3_ms) = time(|| parser.recognize(&table, &input.tokens));
            let (_, parse4_ms) = time(|| parser.recognize(&table, &input.tokens));
            assert!(ok1 && ok3, "PG rejected {input_name}");
            Fig7Row {
                generator,
                input: input.name,
                tokens: input.tokens.len(),
                construct_ms,
                parse1_ms,
                parse2_ms,
                modify_ms,
                parse3_ms,
                parse4_ms,
            }
        }
        GeneratorKind::Ipg => {
            let mut grammar = workload.grammar.clone();
            let (mut graph, construct_ms) =
                time(|| ItemSetGraph::with_policy(&grammar, GcPolicy::RefCount));
            let parser = GssParser::new(&grammar);
            let (ok1, parse1_ms) = time(|| {
                parser.recognize(&LazyTables::new(&grammar, &graph).unwrap(), &input.tokens)
            });
            let (_, parse2_ms) = time(|| {
                parser.recognize(&LazyTables::new(&grammar, &graph).unwrap(), &input.tokens)
            });
            let (_, modify_ms) = time(|| graph.add_rule(&mut grammar, lhs, rhs.clone()));
            let parser = GssParser::new(&grammar);
            let (ok3, parse3_ms) = time(|| {
                parser.recognize(&LazyTables::new(&grammar, &graph).unwrap(), &input.tokens)
            });
            let (_, parse4_ms) = time(|| {
                parser.recognize(&LazyTables::new(&grammar, &graph).unwrap(), &input.tokens)
            });
            assert!(ok1 && ok3, "IPG rejected {input_name}");
            Fig7Row {
                generator,
                input: input.name,
                tokens: input.tokens.len(),
                construct_ms,
                parse1_ms,
                parse2_ms,
                modify_ms,
                parse3_ms,
                parse4_ms,
            }
        }
    }
}

/// Runs the whole Fig. 7.1 matrix (3 generators × 4 inputs).
pub fn measure_all(workload: &SdfWorkload) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for input in &workload.inputs {
        for generator in GeneratorKind::all() {
            rows.push(measure(workload, generator, input.name));
        }
    }
    rows
}

/// Renders the rows in the layout of Fig. 7.1 (one block per input, one
/// column per generator).
pub fn render(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 7.1 — CPU time (ms) for Yacc / PG / IPG on the SDF grammar\n");
    out.push_str(
        "phase               |        Yacc |          PG |         IPG\n",
    );
    let inputs: Vec<&str> = {
        let mut seen = Vec::new();
        for r in rows {
            if !seen.contains(&r.input) {
                seen.push(r.input);
            }
        }
        seen
    };
    for input in inputs {
        let of = |g: GeneratorKind| {
            rows.iter()
                .find(|r| r.input == input && r.generator == g)
                .expect("complete matrix")
        };
        let yacc = of(GeneratorKind::Yacc);
        let pg = of(GeneratorKind::Pg);
        let ipg = of(GeneratorKind::Ipg);
        out.push_str(&format!(
            "--- {} ({} tokens) ---\n",
            input, yacc.tokens
        ));
        let mut line = |label: &str, f: &dyn Fn(&Fig7Row) -> f64| {
            out.push_str(&format!(
                "{label:<20}| {:>11.3} | {:>11.3} | {:>11.3}\n",
                f(yacc),
                f(pg),
                f(ipg)
            ));
        };
        line("construct table", &|r| r.construct_ms);
        line("parse (1st)", &|r| r.parse1_ms);
        line("parse (2nd)", &|r| r.parse2_ms);
        line("modify grammar", &|r| r.modify_ms);
        line("parse (1st)", &|r| r.parse3_ms);
        line("parse (2nd)", &|r| r.parse4_ms);
        line("total", &|r| r.total_ms());
        line("time to 1st parse", &|r| r.time_to_first_parse_ms());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipg_measurement_shape_on_the_smallest_input() {
        let workload = SdfWorkload::load();
        let row = measure(&workload, GeneratorKind::Ipg, "exp.sdf");
        // Lazy generation: constructing the "table" is (nearly) free, and
        // the second parse is not slower than the first (which had to
        // expand item sets).
        assert!(row.construct_ms < row.parse1_ms);
        assert!(row.parse2_ms <= row.parse1_ms * 1.5 + 0.5);
        // The incremental modification is cheap compared to parsing.
        assert!(row.modify_ms <= row.parse1_ms + 0.5);
        assert!(row.total_ms() > 0.0);
    }

    #[test]
    fn pg_pays_generation_before_the_first_parse() {
        let workload = SdfWorkload::load();
        let row = measure(&workload, GeneratorKind::Pg, "exp.sdf");
        assert!(row.construct_ms > 0.0);
        // Full regeneration after the modification costs about as much as
        // the initial generation (same order of magnitude).
        assert!(row.modify_ms > row.construct_ms * 0.2);
    }

    #[test]
    fn render_produces_one_block_per_input() {
        let workload = SdfWorkload::load();
        let rows = vec![
            measure(&workload, GeneratorKind::Yacc, "exp.sdf"),
            measure(&workload, GeneratorKind::Pg, "exp.sdf"),
            measure(&workload, GeneratorKind::Ipg, "exp.sdf"),
        ];
        let text = render(&rows);
        assert!(text.contains("exp.sdf"));
        assert!(text.contains("construct table"));
        assert!(text.contains("time to 1st parse"));
    }
}
