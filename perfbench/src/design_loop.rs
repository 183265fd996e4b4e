//! `design-loop`: the paper's language designer. One closed-loop client
//! alternates `ADD-RULE`/`DELETE-RULE` of the §7 rule, each edit followed
//! by `PARSE-TEXT` of a module that uses the new `( D D )?` syntax; a
//! seeded share of iterations first measures time-to-first-parse of
//! `ASF.sdf` on a freshly re-lazified tenant, outside the timed window.

use std::io;
use std::time::{Duration, Instant};

use ipg_frontend::protocol::Verb;

use crate::doc_edit;
use crate::layers::{Layers, ParseOp, ParseReplay};
use crate::measure::{allocations, us, Samples, Strata, Trace, Windowed};
use crate::report::Checks;
use crate::stack::{self, Probes, Stack, Wire, COLD_TEXT};
use crate::{Config, EndToEnd, Outcome, RUN_SHARE, TRACE_PROBE_REPS, WINDOWS};

/// Frontend worker threads.
pub const WORKERS: usize = 1;
/// One iteration in this many (at a seeded place in each block) starts
/// with a cold parse: about 900 cold parses in a 30 s run, 5% of its time.
pub const COLD_EVERY: usize = 512;
/// The §7 modification in the textual BNF notation (`CF-ELEM+` is an
/// existing non-terminal, quoted because `+` is not an identifier letter).
pub const RULE: &str = r#"CF-ELEM ::= "(" "CF-ELEM+" ")?""#;
/// A module that is a sentence exactly when the §7 rule is active.
pub const OPTIONAL_MODULE: &str = r#"
module Optional
begin
    context-free syntax
        sorts D
        functions
            "unit" ( D D )? -> D
end Optional
"#;
/// In-process edit replays in the traced run.
const REPLAYS: usize = 400;

/// One designer iteration that was timed: whether it added the rule, and
/// when the edit was sent and the parse verdict received.
struct Iteration {
    added: bool,
    sent: Instant,
    received: Instant,
}

struct Loop {
    latencies: Windowed,
    /// Every timed iteration, kept only by the traced run.
    iterations: Vec<Iteration>,
    /// Requests per second in the timed window (median over slices).
    throughput_rps: f64,
    /// Allocations per timed request on threads other than the client's.
    served_allocs: f64,
}

/// Tracks whether the rule is active and checks every reply against it.
struct Designer {
    active: bool,
    version: u64,
}

impl Designer {
    /// One timed iteration: toggle the rule, then parse the module.
    fn iterate(&mut self, wire: &mut Wire, checks: &mut Checks) -> io::Result<Iteration> {
        let added = !self.active;
        let verb = if added {
            Verb::AddRule
        } else {
            Verb::DeleteRule
        };
        let sent = Instant::now();
        let (edit, _) = wire.verdict(verb, RULE.as_bytes())?;
        let (parse, _) = wire.verdict(Verb::ParseText, OPTIONAL_MODULE.as_bytes())?;
        let received = Instant::now();
        self.active = added;
        checks.expect("grammar edit applied", edit.is_some());
        checks.expect(
            "( D D )? accepted exactly when the rule is active",
            parse.is_some_and(|(ok, _)| ok == self.active),
        );
        for version in [edit, parse].into_iter().flatten().map(|(_, v)| v) {
            checks.expect("grammar_version is monotonic", version >= self.version);
            self.version = self.version.max(version);
        }
        Ok(Iteration {
            added,
            sent,
            received,
        })
    }
}

/// Runs the designer for `duration` of timed time; cold parses (seeded
/// iterations) and open probes (on their clock) go to `probes`.
#[allow(clippy::too_many_arguments)]
fn designer_loop(
    stack: &Stack,
    wire: &mut Wire,
    probes: &mut Probes,
    designer: &mut Designer,
    seed: u64,
    duration: Duration,
    keep: bool,
    checks: &mut Checks,
) -> io::Result<Loop> {
    let mut cold_turns = Strata::new(seed, COLD_EVERY);
    let mut out = Loop {
        latencies: Windowed::new(duration, WINDOWS),
        iterations: Vec::new(),
        throughput_rps: 0.0,
        served_allocs: 0.0,
    };
    let mut untimed = Duration::ZERO;
    let mut allocs = 0u64;
    let started = Instant::now();
    while started.elapsed() < duration + untimed {
        let timed = started.elapsed() - untimed;
        untimed += probes.run_due(stack, wire, timed, checks)?;
        if cold_turns.next_stratum() == 0 {
            let paused = Instant::now();
            probes.cold_parse(stack, timed, checks)?;
            untimed += paused.elapsed();
        }
        let (total, own) = allocations();
        let iteration = designer.iterate(wire, checks)?;
        let (total_after, own_after) = allocations();
        allocs += (total_after - total) - (own_after - own);
        let at = (iteration.received - started).saturating_sub(untimed);
        out.latencies
            .push(us(iteration.received - iteration.sent), at);
        if keep {
            out.iterations.push(iteration);
        }
    }
    // Each iteration is two requests: the edit and the parse.
    out.throughput_rps = 2.0 * out.latencies.rate();
    out.served_allocs = allocs as f64 / (2 * out.latencies.count()).max(1) as f64;
    Ok(out)
}

/// Creates the rule's slot (and interns `")?"`) so that every later parse
/// of the module gets a verdict, then warms both tenants.
fn warm(stack: &Stack, wire: &mut Wire) -> io::Result<()> {
    for verb in [Verb::AddRule, Verb::DeleteRule] {
        if wire.verdict(verb, RULE.as_bytes())?.0.is_none() {
            return Err(io::Error::other(
                "the §7 rule edit was refused while warming",
            ));
        }
    }
    let (module, _) = wire.verdict(Verb::ParseText, OPTIONAL_MODULE.as_bytes())?;
    let (asf, _) = wire.verdict(Verb::ParseText, COLD_TEXT.as_bytes())?;
    if !matches!(module, Some((false, _))) || !matches!(asf, Some((true, _))) {
        return Err(io::Error::other("unexpected verdict while warming"));
    }
    stack
        .cold()
        .parse_text(COLD_TEXT)
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok(())
}

pub fn run(config: &Config, checks: &mut Checks) -> io::Result<Outcome> {
    let (stack, mut wire, setup_s) = stack::set_up(WORKERS, true, warm)?;
    let document = doc_edit::module_text(config.seed);
    let mut probes = Probes::new(&stack, &document, false, config.share(RUN_SHARE))?;
    let mut designer = Designer {
        active: false,
        version: 0,
    };
    let outcome = if config.trace {
        traced(
            config,
            &stack,
            &mut wire,
            &mut probes,
            &mut designer,
            checks,
        )?
    } else {
        let mut run = designer_loop(
            &stack,
            &mut wire,
            &mut probes,
            &mut designer,
            config.seed,
            config.share(RUN_SHARE),
            false,
            checks,
        )?;
        probes.top_up(&stack, &mut wire, config.share(RUN_SHARE), checks)?;
        stack::reconcile(&stack, &mut wire, checks)?;
        let (p50_us, p99_us) = run.latencies.percentiles();
        Outcome::EndToEnd(EndToEnd {
            setup_s,
            p50_us,
            p99_us,
            throughput_rps: run.throughput_rps,
            cold_parse_p50_us: probes.cold.percentiles().0,
            open_doc_p50_us: probes.opens.percentiles().0,
        })
    };
    drop((wire, probes));
    stack.shutdown();
    Ok(outcome)
}

fn traced(
    config: &Config,
    stack: &Stack,
    wire: &mut Wire,
    probes: &mut Probes,
    designer: &mut Designer,
    checks: &mut Checks,
) -> io::Result<Outcome> {
    let mut layers = Layers::default();
    let mut trace = Trace::new();
    let run = designer_loop(
        stack,
        wire,
        probes,
        designer,
        config.seed,
        config.share(0.5),
        true,
        checks,
    )?;
    // Wire spans, split by edit kind so each replayed edit decomposes a
    // wire iteration of its own kind.
    let mut spans: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (id, it) in run.iterations.iter().enumerate() {
        let span = trace.record("frontend", id as u64, None, it.sent, it.received);
        spans[it.added as usize].push(span);
    }

    let server = stack.server();
    let mut replay = ParseReplay::default();
    let (mut publish, mut reexpand) = (Samples::default(), Samples::default());
    let (mut invalidations, mut cowed, mut edits) = (0usize, 0usize, 0usize);
    let mut publish_allocs = 0u64;
    let mut next = [0usize; 2];
    for _ in 0..REPLAYS.min(run.iterations.len()) {
        let added = !designer.active;
        let Some(&parent) = spans[added as usize].get(next[added as usize]) else {
            break;
        };
        next[added as usize] += 1;
        let request = trace.request_of(parent);
        let before = server.stats().graph;
        let ((edited, allocated), publish_span) =
            trace.time("graph", request, Some(parent), || {
                let (_, own) = allocations();
                let edited = if added {
                    server.add_rule_text(RULE)
                } else {
                    server.remove_rule_text(RULE)
                };
                (edited, allocations().1 - own)
            });
        publish_allocs += allocated;
        let after = server.stats().graph;
        checks.expect("in-process grammar edit", edited.is_ok());
        designer.active = added;
        publish.push(trace.span_ns(publish_span) / 1e3);
        invalidations += after.invalidations - before.invalidations;
        cowed += after.chunks_cowed - before.chunks_cowed;
        edits += 1;
        let op = ParseOp {
            text: OPTIONAL_MODULE,
            accepted: designer.active,
            request,
            parent: Some(parent),
        };
        let first = replay.replay(server, &mut trace, op, checks);
        let (_, warm_span) = trace.time("warm", request, None, || {
            server
                .parse_text_pooled(OPTIONAL_MODULE)
                .map(|p| p.accepted())
        });
        reexpand.push((trace.span_ns(first) - trace.span_ns(warm_span)) / 1e3);
    }
    replay.finish(&mut layers, &trace);
    // Each iteration is two wire requests: the edit and the parse.
    let in_process = publish_allocs as f64 / edits.max(1) as f64 + layers.server_allocs_per_req;
    layers.frontend_allocs_per_req = run.served_allocs - in_process / 2.0;
    layers.graph_publish_us_p50 = publish.p50();
    layers.graph_reexpand_us = reexpand.p50();
    layers.graph_invalidations_per_edit = invalidations as f64 / edits.max(1) as f64;
    layers.graph_chunks_cowed_per_edit = cowed as f64 / edits.max(1) as f64;
    layers.cold_dfa(server, COLD_TEXT);
    layers.cold_expansion(stack, &mut trace, TRACE_PROBE_REPS, checks);
    let document = doc_edit::module_text(config.seed);
    layers.document_open(server, &document, TRACE_PROBE_REPS, checks);
    let stats = stack::reconcile(stack, wire, checks)?;
    layers.frontend_and_registry(stack, wire, &stats)?;
    layers.ctx_reuse(server);
    layers.trace_overhead(server, &[OPTIONAL_MODULE]);
    layers.attribution(&trace, &["graph", "server", "lexer", "glr"]);
    Ok(Outcome::Traced(Box::new(layers), trace))
}
