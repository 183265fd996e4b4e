//! `serve-mix`: steady-state serving. Open-loop Poisson `PARSE-TEXT` at a
//! fixed rate over a seeded uniform mix of the four Fig. 7 inputs on warm
//! tables, then a closed-loop phase with a fixed in-flight window.

use std::io;
use std::time::{Duration, Instant};

use ipg_frontend::protocol::Verb;

use crate::conn::Conn;
use crate::doc_edit;
use crate::layers::{Layers, ParseOp, ParseReplay};
use crate::measure::{allocations, us, Rng, Samples, Strata, Trace, Windowed};
use crate::report::Checks;
use crate::stack::{self, fig7_texts, Stack};
use crate::{Config, EndToEnd, Outcome, PROBE_SHARE, TRACE_PROBE_REPS, WINDOWS};

/// Offered rate of the open-loop phase, requests per second.
pub const RATE: f64 = 2000.0;
/// Requests in flight during the closed-loop phase.
pub const WINDOW: usize = 4;
/// Frontend worker threads.
pub const WORKERS: usize = 1;
/// A run whose generator sent its p99 request later than this after its
/// scheduled instant measured the client, not the server: it is invalid.
pub const MAX_SEND_LAG_P99_US: f64 = 2000.0;
/// In-process replays of open-loop requests in the traced run.
const REPLAYS: usize = 2000;

/// One open-loop phase: latency from each request's scheduled instant to
/// its reply, how late each send was, and (for tracing) per-request spans.
struct OpenLoop {
    latencies: Windowed,
    send_lags: Samples,
    /// `(input index, scheduled instant, reply instant)` per request.
    requests: Vec<(usize, Instant, Instant)>,
}

/// Drives `duration` of Poisson arrivals at `RATE` over one connection.
/// One busy-polling thread keeps the schedule and reads the replies.
fn open_loop(
    stack: &Stack,
    texts: &[&str],
    seed: u64,
    duration: Duration,
    checks: &mut Checks,
) -> io::Result<OpenLoop> {
    let mut gaps = Rng::new(seed ^ 0x0_9E11);
    let mut mix = Strata::new(seed, texts.len());
    let mut schedule = Vec::new();
    let mut at = 0.0;
    loop {
        at += -gaps.unit().ln() / RATE;
        if at >= duration.as_secs_f64() {
            break;
        }
        schedule.push((Duration::from_secs_f64(at), mix.next_stratum()));
    }
    let mut conn = Conn::connect(stack.frontend.local_addr())?;
    let mut out = OpenLoop {
        latencies: Windowed::new(duration, WINDOWS),
        send_lags: Samples::default(),
        requests: Vec::with_capacity(schedule.len()),
    };
    let mut replies = Vec::with_capacity(schedule.len());
    let start = Instant::now() + Duration::from_millis(2);
    let mut next = 0;
    let mut last_progress = Instant::now();
    while replies.len() < schedule.len() {
        let now = Instant::now();
        let mut progressed = false;
        while let Some(&(offset, input)) = schedule.get(next) {
            let due = start + offset;
            if due > now {
                break;
            }
            out.send_lags.push(us(now - due));
            conn.send(next as u64, Verb::ParseText, texts[input].as_bytes())?;
            next += 1;
            progressed = true;
        }
        while let Some(reply) = conn.poll()? {
            replies.push(reply);
            progressed = true;
        }
        if progressed {
            last_progress = now;
        } else if now - last_progress > Duration::from_secs(30) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "open loop stalled"));
        } else {
            std::thread::yield_now();
        }
    }
    for reply in replies {
        stack.tally.note(reply.status);
        let Some(&(offset, input)) = schedule.get(reply.request_id as usize) else {
            checks.expect("reply to a request that was sent", false);
            continue;
        };
        checks.expect(
            "serve-mix input accepted",
            reply.verdict().is_some_and(|(ok, _)| ok),
        );
        let due = start + offset;
        out.latencies
            .push(us(reply.received.saturating_duration_since(due)), offset);
        out.requests.push((input, due, reply.received));
    }
    Ok(out)
}

/// Closed loop: `WINDOW` requests in flight on one connection, each reply
/// answered by the next request until `duration` is up. Returns
/// `(requests per second, allocations per request off this thread)`.
fn closed_loop(
    stack: &Stack,
    texts: &[&str],
    seed: u64,
    duration: Duration,
    checks: &mut Checks,
) -> io::Result<(f64, f64)> {
    let mut conn = Conn::connect(stack.frontend.local_addr())?;
    let mut mix = Strata::new(seed ^ 0xC1_05ED, texts.len());
    let mut send = |id: u64, conn: &mut Conn| {
        conn.send(id, Verb::ParseText, texts[mix.next_stratum()].as_bytes())
    };
    let (total_before, own_before) = allocations();
    let started = Instant::now();
    let deadline = started + duration;
    for id in 0..WINDOW as u64 {
        send(id, &mut conn)?;
    }
    let mut next = WINDOW as u64;
    let mut in_flight = WINDOW;
    let mut completed = 0u64;
    while in_flight > 0 {
        let reply = conn.wait()?;
        in_flight -= 1;
        completed += 1;
        stack.tally.note(reply.status);
        checks.expect(
            "serve-mix input accepted",
            reply.verdict().is_some_and(|(ok, _)| ok),
        );
        if reply.received < deadline {
            send(next, &mut conn)?;
            next += 1;
            in_flight += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (total_after, own_after) = allocations();
    let served_allocs = (total_after - total_before) - (own_after - own_before);
    Ok((
        completed as f64 / elapsed,
        served_allocs as f64 / completed.max(1) as f64,
    ))
}

fn warm<'a>(
    texts: &'a [&'static str],
) -> impl FnMut(&Stack, &mut stack::Wire) -> io::Result<()> + 'a {
    move |_, wire| {
        for text in texts {
            let (verdict, _) = wire.verdict(Verb::ParseText, text.as_bytes())?;
            if !verdict.is_some_and(|(ok, _)| ok) {
                return Err(io::Error::other(
                    "a Fig. 7 input was rejected while warming",
                ));
            }
        }
        Ok(())
    }
}

/// Fails the run when the generator, not the server, set the latencies.
fn guard_send_lag(lags: &mut Samples, checks: &mut Checks) {
    let p99 = lags.p99();
    if p99 > MAX_SEND_LAG_P99_US {
        checks.invalid(format!(
            "invalid run: the generator sent its p99 request {p99:.0} us late \
             (bound {MAX_SEND_LAG_P99_US} us)"
        ));
    }
}

pub fn run(config: &Config, checks: &mut Checks) -> io::Result<Outcome> {
    let texts = fig7_texts();
    let (stack, mut wire, setup_s) = stack::set_up(WORKERS, false, warm(&texts))?;
    let outcome = if config.trace {
        traced(config, &stack, &mut wire, &texts, checks)?
    } else {
        let mut cold_wire = stack.connect()?;
        cold_wire.set_tenant(stack.cold_tenant);
        let mut cold = stack::probe_for(config.share(PROBE_SHARE), || {
            stack::cold_parse(&stack, &mut cold_wire, checks)
        })?;
        let document = doc_edit::module_text(config.seed);
        let mut opens = stack::probe_for(config.share(PROBE_SHARE), || {
            stack::open_doc(&mut wire, &document, checks)
        })?;
        let mut open = open_loop(&stack, &texts, config.seed, config.share(0.55), checks)?;
        guard_send_lag(&mut open.send_lags, checks);
        let (throughput_rps, _) =
            closed_loop(&stack, &texts, config.seed, config.share(0.3), checks)?;
        stack::reconcile(&stack, &mut wire, checks)?;
        let (p50_us, p99_us) = open.latencies.percentiles();
        Outcome::EndToEnd(EndToEnd {
            setup_s,
            p50_us,
            p99_us,
            throughput_rps,
            cold_parse_p50_us: cold.p50(),
            open_doc_p50_us: opens.p50(),
        })
    };
    drop(wire);
    stack.shutdown();
    Ok(outcome)
}

fn traced(
    config: &Config,
    stack: &Stack,
    wire: &mut stack::Wire,
    texts: &[&str],
    checks: &mut Checks,
) -> io::Result<Outcome> {
    let mut layers = Layers::default();
    let mut trace = Trace::new();
    let mut open = open_loop(stack, texts, config.seed, config.share(0.5), checks)?;
    guard_send_lag(&mut open.send_lags, checks);
    let wire_spans: Vec<usize> = open
        .requests
        .iter()
        .enumerate()
        .map(|(id, &(_, due, received))| trace.record("frontend", id as u64, None, due, received))
        .collect();
    layers.client_send_lag_us_p99 = open.send_lags.p99();
    layers.client_send_lag_us_max = open.send_lags.max();

    let (_, served_allocs) = closed_loop(stack, texts, config.seed, config.share(0.2), checks)?;

    let server = stack.server();
    let mut replay = ParseReplay::default();
    for (id, &(input, _, _)) in open.requests.iter().enumerate().take(REPLAYS) {
        let op = ParseOp {
            text: texts[input],
            accepted: true,
            request: id as u64,
            parent: Some(wire_spans[id]),
        };
        replay.replay(server, &mut trace, op, checks);
    }
    replay.finish(&mut layers, &trace);
    layers.frontend_allocs_per_req = served_allocs - layers.server_allocs_per_req;
    layers.cold_dfa(server, texts[texts.len() - 1]);
    layers.cold_expansion(stack, &mut trace, TRACE_PROBE_REPS, checks);
    let document = doc_edit::module_text(config.seed);
    layers.document_open(server, &document, TRACE_PROBE_REPS, checks);
    let stats = stack::reconcile(stack, wire, checks)?;
    layers.frontend_and_registry(stack, wire, &stats)?;
    layers.ctx_reuse(server);
    layers.trace_overhead(server, texts);
    layers.attribution(&trace, &["server", "lexer", "glr"]);
    Ok(Outcome::Traced(Box::new(layers), trace))
}
