//! Correctness bookkeeping and the result line.

use std::fmt::Write as _;

/// Oracle verdicts and counter reconciliations of one run. Every checked
/// request is one attempt; a wrong verdict, refused request or counter
/// mismatch is one failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Reconciliation mismatches: they fail the run without being requests.
    pub mismatches: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Counts one checked request; `ok` is whether its reply was right.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("wrong or refused: {what}"));
        }
    }

    pub fn reconcile(&mut self, counter: &str, server: i64, client: i64) {
        if server != client {
            self.mismatches += 1;
            self.note(format!(
                "reconciliation: {counter} is {server} on the server, {client} by the client"
            ));
        }
    }

    /// Fails the run for a reason that is not one request.
    pub fn invalid(&mut self, why: String) {
        self.mismatches += 1;
        self.note(why);
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < 20 {
            eprintln!("perfbench: {message}");
            self.messages.push(message);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }
}

/// Named metrics in the order they were produced.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The result line: one JSON object with every metric and its unit.
    pub fn result_line(&self, checks: &Checks) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            checks.correct(),
            checks.attempted.max(1),
            checks.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                line,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        line.push_str("}}");
        line
    }

    /// A human-readable table (printed before the result line).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<34} {value:>16.3} {unit}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_metrics_with_units() {
        let mut metrics = Metrics::default();
        metrics.put("p50_us", 12.5, "us");
        let mut checks = Checks::default();
        checks.expect("x", true);
        assert_eq!(
            metrics.result_line(&checks),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }
}
