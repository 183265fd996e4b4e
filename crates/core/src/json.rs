//! A small JSON writer for the reports this workspace emits: the network
//! frontend's `STATS` document and the bench binaries' `BENCH_*.json`
//! files. (The vendored serde is a stub without a serializer.)
//!
//! Members are written as `"key": value`. The top-level object puts one
//! member per line, arrays put one element per line, and nested objects
//! stay on one line.

use std::fmt::{self, Write};

use crate::stats::{CounterValue, GenStats, LatencyHistogram};

/// Renders one JSON object whose members `f` writes.
pub fn object(f: impl FnOnce(&mut JsonObject<'_>)) -> String {
    let mut out = String::new();
    let mut root = JsonObject::open(&mut out, Some(2));
    f(&mut root);
    root.close();
    out.push('\n');
    out
}

/// An open JSON object; see [`object`].
#[derive(Debug)]
pub struct JsonObject<'a> {
    out: &'a mut String,
    /// Indentation of members on their own lines, or `None` for one line.
    indent: Option<usize>,
    members: usize,
}

impl<'a> JsonObject<'a> {
    fn open(out: &'a mut String, indent: Option<usize>) -> Self {
        out.push('{');
        JsonObject {
            out,
            indent,
            members: 0,
        }
    }

    fn close(self) {
        if let (Some(indent), 1..) = (self.indent, self.members) {
            newline(self.out, indent - 2);
        }
        self.out.push('}');
    }

    /// Starts a member and returns the buffer to write its value into.
    fn key(&mut self, key: &str) -> &mut String {
        separate(self.out, self.members, self.indent);
        self.members += 1;
        write_string(self.out, key);
        self.out.push_str(": ");
        self.out
    }

    /// A member whose value is written verbatim: a number, a bool, `null`
    /// or an already rendered JSON document.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        write!(self.key(key), "{value}").expect("writing to a String");
        self
    }

    /// A string member, escaped.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        write_string(self.key(key), value);
        self
    }

    /// A nested object whose members `f` writes, on one line.
    pub fn object(&mut self, key: &str, f: impl FnOnce(&mut JsonObject<'_>)) -> &mut Self {
        let mut inner = JsonObject::open(self.key(key), None);
        f(&mut inner);
        inner.close();
        self
    }

    /// An array with one object per item, whose members `f` writes.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut JsonObject<'_>, T),
    ) -> &mut Self {
        let indent = self.indent.map(|n| n + 2);
        let out = self.key(key);
        out.push('[');
        let mut count = 0;
        for item in items {
            separate(out, count, indent);
            count += 1;
            let mut inner = JsonObject::open(&mut *out, None);
            f(&mut inner, item);
            inner.close();
        }
        if let (Some(indent), 1..) = (indent, count) {
            newline(out, indent - 2);
        }
        out.push(']');
        self
    }

    /// A latency histogram as `{count, mean_us, p50_us, p99_us, p999_us,
    /// max_us}`.
    pub fn histogram(&mut self, key: &str, h: &LatencyHistogram) -> &mut Self {
        let (p50, p99, p999) = h.percentiles_us();
        self.object(key, |o| {
            o.field("count", h.count())
                .field("mean_us", format_args!("{:.1}", h.mean_us()))
                .field("p50_us", p50)
                .field("p99_us", p99)
                .field("p999_us", p999)
                .field("max_us", h.max_us());
        })
    }

    /// Every counter of `stats`, keyed by its name (histograms by
    /// `<name>_us`).
    pub fn counters(&mut self, stats: &GenStats) -> &mut Self {
        for counter in stats.counters() {
            match counter.value {
                CounterValue::Sum(n) | CounterValue::Max(n) => self.field(counter.name, n),
                CounterValue::Histogram(h) => self.histogram(&format!("{}_us", counter.name), h),
            };
        }
        self
    }
}

/// Writes the separator before the `index`-th member or element.
fn separate(out: &mut String, index: usize, indent: Option<usize>) {
    if index > 0 {
        out.push(',');
    }
    match indent {
        Some(indent) => newline(out, indent),
        None if index > 0 => out.push(' '),
        None => {}
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', indent));
}

/// Writes `s` as a JSON string: quotes, backslashes and control
/// characters are escaped.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn objects_nest_and_strings_escape() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_micros(3));
        let doc = object(|o| {
            o.field("n", 1)
                .string("name", "a\"b\\\n\u{1}")
                .histogram("latency_us", &h)
                .objects("rows", [1, 2], |row, id| {
                    row.field("id", id);
                })
                .objects("none", [0; 0], |_, _: i32| {});
        });
        assert_eq!(
            doc,
            "{\n  \"n\": 1,\n  \"name\": \"a\\\"b\\\\\\n\\u0001\",\n  \"latency_us\": \
             {\"count\": 1, \"mean_us\": 3.0, \"p50_us\": 3, \"p99_us\": 3, \"p999_us\": 3, \
             \"max_us\": 3},\n  \"rows\": [\n    {\"id\": 1},\n    {\"id\": 2}\n  ],\n  \
             \"none\": []\n}\n"
        );
    }
}
