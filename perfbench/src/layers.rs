//! The traced run's per-layer numbers: in-process replays that time the
//! public call into each layer on the workload's own inputs, recorded as
//! spans whose parent is the wire request they decompose.

use std::io;
use std::time::Instant;

use ipg::IpgServer;
use ipg_frontend::protocol::Verb;
use ipg_glr::{GssParser, ParseCtx};

use crate::measure::{allocations, us, Samples, Trace};
use crate::report::{Checks, Metrics};
use crate::stack::{stats_field, Stack, Wire, COLD_TEXT};

/// Rounds and calls per pass of `Layers::trace_overhead`.
const OVERHEAD_ROUNDS: usize = 21;
const OVERHEAD_CALLS: usize = 40;

/// One in-process parse to replay: the text, the verdict it must get, and
/// the wire request (and its span) it decomposes.
#[derive(Clone, Copy, Debug)]
pub struct ParseOp<'a> {
    pub text: &'a str,
    pub accepted: bool,
    pub request: u64,
    pub parent: Option<usize>,
}

/// Every per-layer metric. Layers a workload does not exercise stay 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub frontend_ping_rtt_us_p50: f64,
    pub frontend_self_us_p50: f64,
    pub frontend_allocs_per_req: f64,
    pub frontend_queue_high_water: f64,
    pub frontend_shed: f64,
    pub server_parse_text_us_p50: f64,
    pub server_allocs_per_req: f64,
    pub server_ctx_reuse_frac: f64,
    pub lexer_tokenize_ns_per_token: f64,
    pub lexer_dense_frac: f64,
    pub lexer_skip_frac: f64,
    pub lexer_cold_dfa_states: f64,
    pub glr_parse_ns_per_token: f64,
    pub glr_nodes_per_token: f64,
    pub glr_edges_per_token: f64,
    pub glr_reductions_per_token: f64,
    pub graph_cold_expand_us: f64,
    pub graph_expansions_cold: f64,
    pub graph_closures_cold: f64,
    pub graph_rows_built_cold: f64,
    pub graph_coverage: f64,
    pub graph_publish_us_p50: f64,
    pub graph_reexpand_us: f64,
    pub graph_invalidations_per_edit: f64,
    pub graph_chunks_cowed_per_edit: f64,
    pub registry_resident_bytes: f64,
    pub document_open_us_p50: f64,
    pub document_edit_us_p50: f64,
    pub document_edit_us_p99: f64,
    pub document_relex_only_us_p50: f64,
    pub document_structural_us_p50: f64,
    pub document_tokens_relexed_per_edit: f64,
    pub document_states_rerun_per_edit: f64,
    pub wire_structural_us_p50: f64,
    pub wire_rename_us_p50: f64,
    pub client_send_lag_us_p99: f64,
    pub client_send_lag_us_max: f64,
    pub trace_coverage: f64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    pub fn emit(&self, m: &mut Metrics) {
        m.put(
            "frontend.ping_rtt_us_p50",
            self.frontend_ping_rtt_us_p50,
            "us",
        );
        m.put("frontend.self_us_p50", self.frontend_self_us_p50, "us");
        m.put(
            "frontend.allocs_per_req",
            self.frontend_allocs_per_req,
            "count/req",
        );
        m.put(
            "frontend.queue_high_water",
            self.frontend_queue_high_water,
            "count",
        );
        m.put("frontend.shed", self.frontend_shed, "count");
        m.put(
            "server.parse_text_us_p50",
            self.server_parse_text_us_p50,
            "us",
        );
        m.put(
            "server.allocs_per_req",
            self.server_allocs_per_req,
            "count/req",
        );
        m.put("server.ctx_reuse_frac", self.server_ctx_reuse_frac, "frac");
        m.put(
            "lexer.tokenize_ns_per_token",
            self.lexer_tokenize_ns_per_token,
            "ns/token",
        );
        m.put("lexer.dense_frac", self.lexer_dense_frac, "frac");
        m.put("lexer.skip_frac", self.lexer_skip_frac, "frac");
        m.put("lexer.cold_dfa_states", self.lexer_cold_dfa_states, "count");
        m.put(
            "glr.parse_ns_per_token",
            self.glr_parse_ns_per_token,
            "ns/token",
        );
        m.put(
            "glr.nodes_per_token",
            self.glr_nodes_per_token,
            "count/token",
        );
        m.put(
            "glr.edges_per_token",
            self.glr_edges_per_token,
            "count/token",
        );
        m.put(
            "glr.reductions_per_token",
            self.glr_reductions_per_token,
            "count/token",
        );
        m.put("graph.cold_expand_us", self.graph_cold_expand_us, "us");
        m.put("graph.expansions_cold", self.graph_expansions_cold, "count");
        m.put("graph.closures_cold", self.graph_closures_cold, "count");
        m.put("graph.rows_built_cold", self.graph_rows_built_cold, "count");
        m.put("graph.coverage", self.graph_coverage, "frac");
        m.put("graph.publish_us_p50", self.graph_publish_us_p50, "us");
        m.put("graph.reexpand_us", self.graph_reexpand_us, "us");
        m.put(
            "graph.invalidations_per_edit",
            self.graph_invalidations_per_edit,
            "count/edit",
        );
        m.put(
            "graph.chunks_cowed_per_edit",
            self.graph_chunks_cowed_per_edit,
            "count/edit",
        );
        m.put(
            "registry.resident_bytes",
            self.registry_resident_bytes,
            "bytes",
        );
        m.put("document.open_us_p50", self.document_open_us_p50, "us");
        m.put("document.edit_us_p50", self.document_edit_us_p50, "us");
        m.put("document.edit_us_p99", self.document_edit_us_p99, "us");
        m.put(
            "document.relex_only_us_p50",
            self.document_relex_only_us_p50,
            "us",
        );
        m.put(
            "document.structural_us_p50",
            self.document_structural_us_p50,
            "us",
        );
        m.put(
            "document.tokens_relexed_per_edit",
            self.document_tokens_relexed_per_edit,
            "count/edit",
        );
        m.put(
            "document.states_rerun_per_edit",
            self.document_states_rerun_per_edit,
            "count/edit",
        );
        m.put("wire.structural_us_p50", self.wire_structural_us_p50, "us");
        m.put("wire.rename_us_p50", self.wire_rename_us_p50, "us");
        m.put("client.send_lag_us_p99", self.client_send_lag_us_p99, "us");
        m.put("client.send_lag_us_max", self.client_send_lag_us_max, "us");
        m.put("trace.coverage", self.trace_coverage, "frac");
        m.put("trace.overhead_frac", self.trace_overhead_frac, "frac");
    }

    /// Frontend gauges from `STATS`, `PING` round trips and the registry's
    /// residency. Call after the workload's traffic.
    pub fn frontend_and_registry(
        &mut self,
        stack: &Stack,
        wire: &mut Wire,
        stats: &str,
    ) -> io::Result<()> {
        let mut pings = Samples::default();
        for _ in 0..400 {
            let started = Instant::now();
            wire.call(Verb::Ping, &[])?;
            pings.push(us(started.elapsed()));
        }
        self.frontend_ping_rtt_us_p50 = pings.p50();
        self.frontend_queue_high_water = stats_field(stats, "", "queue_high_water").unwrap_or(0.0);
        self.frontend_shed = ["shed_overload", "shed_deadline", "shed_shutdown"]
            .iter()
            .map(|key| stats_field(stats, "frontend", key).unwrap_or(0.0))
            .sum();
        self.registry_resident_bytes = stack.frontend.registry().stats().resident_bytes as f64;
        Ok(())
    }

    /// The cold-DFA state count: a re-lazified copy of the epoch's scanner
    /// after scanning `text` once.
    pub fn cold_dfa(&mut self, server: &IpgServer, text: &str) {
        let epoch = server.current_epoch();
        let cold = epoch
            .scanner()
            .expect("the SDF stack has a scanner")
            .relazified();
        let _ = cold.tokenize(text);
        self.lexer_cold_dfa_states = cold.dfa_stats().states as f64;
    }

    /// In-process time-to-first-parse on the cold tenant: re-lazify, parse
    /// `COLD_TEXT` cold, then warm, `reps` times. Expansion work comes from
    /// the tenant's `GenStats` deltas across the cold parse.
    pub fn cold_expansion(
        &mut self,
        stack: &Stack,
        trace: &mut Trace,
        reps: usize,
        checks: &mut Checks,
    ) {
        let cold = stack.cold();
        let mut expand = Samples::default();
        let (mut expansions, mut closures, mut rows) =
            (Samples::default(), Samples::default(), Samples::default());
        for rep in 0..reps {
            cold.relazify();
            let before = cold.stats().graph;
            let (cold_ok, cold_span) = trace.time("graph.cold", rep as u64, None, || {
                cold.parse_text_pooled(COLD_TEXT).map(|p| p.accepted())
            });
            let after = cold.stats().graph;
            let (warm_ok, warm_span) =
                trace.time("graph.warm", rep as u64, Some(cold_span), || {
                    cold.parse_text_pooled(COLD_TEXT).map(|p| p.accepted())
                });
            checks.expect("cold in-process parse", cold_ok.unwrap_or(false));
            checks.expect("warm in-process parse", warm_ok.unwrap_or(false));
            expand.push((trace.span_ns(cold_span) - trace.span_ns(warm_span)) / 1e3);
            expansions.push((after.expansions - before.expansions) as f64);
            closures.push((after.closures - before.closures) as f64);
            rows.push((after.rows_built - before.rows_built) as f64);
        }
        self.graph_cold_expand_us = expand.p50();
        self.graph_expansions_cold = expansions.p50();
        self.graph_closures_cold = closures.p50();
        self.graph_rows_built_cold = rows.p50();
        // Coverage of the table a cold parse of `COLD_TEXT` generates.
        cold.relazify();
        let _ = cold.parse_text_pooled(COLD_TEXT).map(|p| p.accepted());
        self.graph_coverage = cold.read(|session| session.coverage());
    }

    /// Share of the server's parses that ran in a recycled request context.
    pub fn ctx_reuse(&mut self, server: &IpgServer) {
        let stats = server.stats().merged();
        self.server_ctx_reuse_frac =
            stats.ctx_reused as f64 / (stats.ctx_reused + stats.ctx_fresh).max(1) as f64;
    }

    /// In-process `open_document` of `text`, `reps` times.
    pub fn document_open(
        &mut self,
        server: &IpgServer,
        text: &str,
        reps: usize,
        checks: &mut Checks,
    ) {
        let mut opens = Samples::default();
        for _ in 0..reps {
            let started = Instant::now();
            let opened = server.open_document(text);
            opens.push(us(started.elapsed()));
            match opened {
                Ok(id) => {
                    checks.expect(
                        "in-process open accepted",
                        server.document_info(id).is_ok_and(|i| i.accepted),
                    );
                    let _ = server.close_document(id);
                }
                Err(_) => checks.expect("in-process open", false),
            }
        }
        self.document_open_us_p50 = opens.p50();
    }

    /// What recording a span costs: `OVERHEAD_ROUNDS` rounds that each
    /// parse `texts` (cycled, `OVERHEAD_CALLS` calls) with
    /// `parse_text_pooled` once bare and once inside `Trace::time`, in
    /// alternating order; the median over rounds of traced ÷ bare − 1.
    pub fn trace_overhead(&mut self, server: &IpgServer, texts: &[&str]) {
        let mut scratch = Trace::new();
        let bare_pass = || {
            let started = Instant::now();
            for i in 0..OVERHEAD_CALLS {
                let _ = server.parse_text_pooled(texts[i % texts.len()]);
            }
            started.elapsed().as_secs_f64()
        };
        let traced_pass = |trace: &mut Trace| {
            let started = Instant::now();
            for i in 0..OVERHEAD_CALLS {
                trace.time("overhead", i as u64, None, || {
                    let _ = server.parse_text_pooled(texts[i % texts.len()]);
                });
            }
            started.elapsed().as_secs_f64()
        };
        let mut ratios = Samples::default();
        for round in 0..OVERHEAD_ROUNDS {
            let (bare, traced) = if round % 2 == 0 {
                (bare_pass(), traced_pass(&mut scratch))
            } else {
                let traced = traced_pass(&mut scratch);
                (bare_pass(), traced)
            };
            ratios.push(traced / bare - 1.0);
        }
        self.trace_overhead_frac = ratios.p50();
    }

    /// Self time of the decomposed wire spans, and the share of their p50
    /// that the p50 self times of the frontend and of `layers` cover.
    pub fn attribution(&mut self, trace: &Trace, layers: &[&str]) {
        let (mut wire, mut own) = trace.times("frontend", true);
        self.frontend_self_us_p50 = own.p50();
        let covered: f64 = layers
            .iter()
            .map(|name| trace.times(name, false).1.p50())
            .sum();
        self.trace_coverage = (own.p50() + covered) / wire.p50().max(f64::MIN_POSITIVE);
    }
}

/// Accumulates in-process parse replays: each op times `parse_text_pooled`
/// (server), `Scanner::tokenize_for` (lexer) and `GssParser::parse_into`
/// over the epoch's warm tables (glr). The server span's parent is the
/// op's wire span; lexer and glr are children of the server span.
#[derive(Debug, Default)]
pub struct ParseReplay {
    ops: usize,
    allocs: u64,
    tokens: usize,
    chars: usize,
    dense: usize,
    skip: usize,
    lex_ns: f64,
    glr_ns: f64,
    nodes: usize,
    edges: usize,
    reductions: usize,
    ctx: ParseCtx,
}

impl ParseReplay {
    /// Replays `op` against the server's current epoch; returns the server
    /// span.
    pub fn replay(
        &mut self,
        server: &IpgServer,
        trace: &mut Trace,
        op: ParseOp<'_>,
        checks: &mut Checks,
    ) -> usize {
        let ((parsed, allocated), server_span) =
            trace.time("server", op.request, op.parent, || {
                let (_, before) = allocations();
                let parsed = server.parse_text_pooled(op.text).map(|p| p.accepted());
                (parsed, allocations().1 - before)
            });
        self.ops += 1;
        self.allocs += allocated;
        checks.expect("in-process verdict", parsed.ok() == Some(op.accepted));
        let epoch = server.current_epoch();
        let scanner = epoch.scanner().expect("the SDF stack has a scanner");
        let grammar = epoch.session().grammar();
        let dfa = scanner.dfa_stats();
        let (lexed, lexer_span) = trace.time("lexer", op.request, Some(server_span), || {
            scanner.tokenize_for(grammar, op.text)
        });
        let after = scanner.dfa_stats();
        self.dense += after.dense_bytes - dfa.dense_bytes;
        self.skip += after.skip_loop_bytes - dfa.skip_loop_bytes;
        self.lex_ns += trace.span_ns(lexer_span);
        self.chars += op.text.chars().count();
        let Ok(symbols) = lexed else {
            checks.expect("in-process tokenize", false);
            return server_span;
        };
        let tables = epoch.session().tables();
        let parser = GssParser::new(grammar);
        let ctx = &mut self.ctx;
        let (outcome, glr_span) = trace.time("glr", op.request, Some(server_span), || {
            parser.parse_into(ctx, &tables, &symbols)
        });
        self.glr_ns += trace.span_ns(glr_span);
        let stats = outcome.stats();
        self.nodes += stats.nodes;
        self.edges += stats.edges;
        self.reductions += stats.reductions;
        self.tokens += symbols.len();
        server_span
    }

    pub fn finish(&self, layers: &mut Layers, trace: &Trace) {
        let per_token = |x: f64| x / self.tokens.max(1) as f64;
        layers.server_parse_text_us_p50 = trace.times("server", false).0.p50();
        layers.server_allocs_per_req = self.allocs as f64 / self.ops.max(1) as f64;
        layers.lexer_tokenize_ns_per_token = per_token(self.lex_ns);
        layers.lexer_dense_frac = self.dense as f64 / self.chars.max(1) as f64;
        layers.lexer_skip_frac = self.skip as f64 / self.chars.max(1) as f64;
        layers.glr_parse_ns_per_token = per_token(self.glr_ns);
        layers.glr_nodes_per_token = per_token(self.nodes as f64);
        layers.glr_edges_per_token = per_token(self.edges as f64);
        layers.glr_reductions_per_token = per_token(self.reductions as f64);
    }
}
