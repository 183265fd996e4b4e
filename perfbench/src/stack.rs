//! The system under test and the client side of the wire: builds the SDF
//! serving stack (a default tenant plus a dedicated cold tenant behind an
//! in-process `Frontend`), sends requests, reads `STATS`, reconciles
//! counters, and runs the probes every workload shares.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipg::{IpgServer, IpgSession};
use ipg_frontend::protocol::{Status, Verb};
use ipg_frontend::{Frontend, FrontendConfig, ShutdownMode};
use ipg_lexer::TokenDef;
use ipg_sdf::fixtures::{measurement_inputs, sdf_grammar_and_scanner, ASF_SDF};

use crate::affinity;
use crate::conn::{Conn, Reply};
use crate::measure::{us, Samples, Windowed};
use crate::report::Checks;
use crate::WINDOWS;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 41;
/// The fewest samples a probe phase takes, however short the run.
pub const MIN_PROBES: usize = 20;

/// The four Fig. 7 inputs, smallest first.
pub fn fig7_texts() -> Vec<&'static str> {
    measurement_inputs().into_iter().map(|i| i.text).collect()
}

/// The input of every cold-parse probe: Fig. 7's largest.
pub const COLD_TEXT: &str = ASF_SDF;

/// Requests a stack's clients sent, and how many came back `OVERLOADED`:
/// the client side of the counter reconciliation.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: AtomicU64,
    pub overloaded: AtomicU64,
}

impl Tally {
    pub fn note(&self, status: Status) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        if status == Status::Overloaded {
            self.overloaded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running frontend with its default and cold tenants.
pub struct Stack {
    pub frontend: Frontend,
    pub cold_tenant: u32,
    pub tally: Arc<Tally>,
}

/// Builds the SDF grammar and scanner; with `optional_group` the scanner
/// also knows the `")?"` keyword of the §7 rule.
fn sdf_server(optional_group: bool) -> IpgServer {
    let sdf = sdf_grammar_and_scanner();
    let mut scanner = sdf.scanner;
    if optional_group {
        scanner.add_definition(TokenDef::keyword(")?"));
    }
    IpgServer::new(IpgSession::new(sdf.grammar)).with_scanner(scanner)
}

impl Stack {
    pub fn build(workers: usize, optional_group: bool) -> io::Result<Stack> {
        let config = FrontendConfig {
            workers,
            queue_depth: 1024,
            ..FrontendConfig::default()
        };
        affinity::enter_server()?;
        let frontend = Frontend::bind("127.0.0.1:0", config, Arc::new(sdf_server(optional_group)))?;
        affinity::enter_client()?;
        let cold_tenant = frontend
            .registry()
            .attach("cold", sdf_server(optional_group))
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(Stack {
            frontend,
            cold_tenant,
            tally: Arc::default(),
        })
    }

    pub fn server(&self) -> &Arc<IpgServer> {
        self.frontend.server()
    }

    pub fn cold(&self) -> Arc<IpgServer> {
        self.frontend
            .registry()
            .server(self.cold_tenant)
            .expect("the cold tenant stays attached")
    }

    pub fn connect(&self) -> io::Result<Wire> {
        Ok(Wire {
            conn: Conn::connect(self.frontend.local_addr())?,
            next_id: 0,
            tally: Arc::clone(&self.tally),
        })
    }

    pub fn shutdown(self) {
        self.frontend.shutdown(ShutdownMode::Drain);
    }
}

/// Sets the stack up `SETUP_REPS` times, each time building it, connecting
/// and running `warm`, and keeps the last one. Returns it with the median
/// set-up time in seconds.
pub fn set_up<W>(
    workers: usize,
    optional_group: bool,
    mut warm: W,
) -> io::Result<(Stack, Wire, f64)>
where
    W: FnMut(&Stack, &mut Wire) -> io::Result<()>,
{
    let mut times = Samples::default();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let stack = Stack::build(workers, optional_group)?;
        let mut wire = stack.connect()?;
        warm(&stack, &mut wire)?;
        times.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            last = Some((stack, wire));
        } else {
            drop(wire);
            stack.shutdown();
        }
    }
    let (stack, wire) = last.expect("at least one set-up");
    reset_peak_rss();
    Ok((stack, wire, times.p50()))
}

/// Starts `VmHWM` over from the current resident set, so `peak_rss_mb` is
/// the peak of the measured phase, not of the discarded set-ups. Kernels
/// without the `clear_refs` reset keep the whole process's peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One busy-polling connection whose requests are tallied for
/// reconciliation.
pub struct Wire {
    conn: Conn,
    next_id: u64,
    tally: Arc<Tally>,
}

impl Wire {
    pub fn call(&mut self, verb: Verb, payload: &[u8]) -> io::Result<Reply> {
        self.next_id += 1;
        let reply = self.conn.request(self.next_id, verb, payload)?;
        self.tally.note(reply.status);
        Ok(reply)
    }

    /// Sends a parse-like request and returns `(accepted, grammar_version)`
    /// with its round-trip time in µs; `None` for any non-`OK` reply.
    pub fn verdict(
        &mut self,
        verb: Verb,
        payload: &[u8],
    ) -> io::Result<(Option<(bool, u64)>, f64)> {
        let started = Instant::now();
        let reply = self.call(verb, payload)?;
        Ok((reply.verdict(), us(reply.received - started)))
    }

    pub fn set_tenant(&mut self, tenant: u32) {
        self.conn.tenant = tenant;
    }

    pub fn stats(&mut self) -> io::Result<String> {
        let reply = self.call(Verb::Stats, &[])?;
        String::from_utf8(reply.payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "STATS is not UTF-8"))
    }

    /// `OPEN-DOC`: `(doc id, accepted)` and the round-trip time in µs.
    pub fn open_doc(&mut self, text: &str) -> io::Result<(Option<(u64, bool)>, f64)> {
        let started = Instant::now();
        let reply = self.call(Verb::OpenDoc, text.as_bytes())?;
        let elapsed = us(reply.received - started);
        // `[doc_id: u64][accepted: u8][grammar_version: u64]`.
        let outcome = (reply.status == Status::Ok && reply.payload.len() == 17).then(|| {
            let id = u64::from_le_bytes(reply.payload[..8].try_into().expect("8 bytes"));
            (id, reply.payload[8] != 0)
        });
        Ok((outcome, elapsed))
    }

    pub fn close_doc(&mut self, id: u64) -> io::Result<bool> {
        Ok(self.call(Verb::CloseDoc, &id.to_le_bytes())?.status == Status::Ok)
    }
}

/// A number from the `STATS` JSON: `key` inside the object named `block`
/// (or at top level for an empty `block`).
pub fn stats_field(json: &str, block: &str, key: &str) -> Option<f64> {
    let scope = if block.is_empty() {
        json
    } else {
        &json[json.find(&format!("\"{block}\": {{"))?..]
    };
    let rest = &scope[scope.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Reads `STATS` and checks the frontend's counters against the client's
/// tallies: every request sent and not shed was executed once, and every
/// `OVERLOADED` reply is one `shed_overload`. Returns the `STATS` document.
pub fn reconcile(stack: &Stack, wire: &mut Wire, checks: &mut Checks) -> io::Result<String> {
    let sent = stack.tally.sent.load(Ordering::Relaxed);
    let overloaded = stack.tally.overloaded.load(Ordering::Relaxed);
    let json = wire.stats()?;
    let field = |key| stats_field(&json, "frontend", key).unwrap_or(-1.0) as i64;
    checks.reconcile(
        "frontend.requests",
        field("requests"),
        (sent - overloaded) as i64,
    );
    checks.reconcile(
        "frontend.shed_overload",
        field("shed_overload"),
        overloaded as i64,
    );
    Ok(json)
}

/// Probes interleaved with a workload's timed loop: every `PROBE_EVERY` of
/// timed time, one `OPEN-DOC` of a document and, if asked, one cold parse,
/// outside the timed window. The host's speed drifts by up to 1.8x over
/// seconds (an in-process parse of the same text, process after process),
/// so a probe phase of its own would catch one speed; spread over the run,
/// the probes see the same host as the loop.
pub struct Probes<'a> {
    document: &'a str,
    cold_wire: Wire,
    interleave_cold: bool,
    next: Duration,
    pub opens: Windowed,
    pub cold: Windowed,
}

/// Timed time between two interleaved probes.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);

impl<'a> Probes<'a> {
    /// Probes that open `document` during a loop of `duration` timed
    /// time; with `interleave_cold`, each also parses cold.
    pub fn new(
        stack: &Stack,
        document: &'a str,
        interleave_cold: bool,
        duration: Duration,
    ) -> io::Result<Probes<'a>> {
        let mut cold_wire = stack.connect()?;
        cold_wire.set_tenant(stack.cold_tenant);
        Ok(Probes {
            document,
            cold_wire,
            interleave_cold,
            next: Duration::ZERO,
            opens: Windowed::new(duration, WINDOWS),
            cold: Windowed::new(duration, WINDOWS),
        })
    }

    /// One time-to-first-parse probe (see `cold_parse`), `timed` into the
    /// loop.
    pub fn cold_parse(
        &mut self,
        stack: &Stack,
        timed: Duration,
        checks: &mut Checks,
    ) -> io::Result<()> {
        let elapsed = cold_parse(stack, &mut self.cold_wire, checks)?;
        self.cold.push(elapsed, timed);
        Ok(())
    }

    fn probe(
        &mut self,
        stack: &Stack,
        wire: &mut Wire,
        timed: Duration,
        checks: &mut Checks,
    ) -> io::Result<()> {
        self.opens
            .push(open_doc(wire, self.document, checks)?, timed);
        if self.interleave_cold {
            self.cold_parse(stack, timed, checks)?;
        }
        Ok(())
    }

    /// Runs the probes if they are due `timed` into the loop; returns the
    /// time they took, which the loop must leave out of its timed window.
    pub fn run_due(
        &mut self,
        stack: &Stack,
        wire: &mut Wire,
        timed: Duration,
        checks: &mut Checks,
    ) -> io::Result<Duration> {
        if timed < self.next {
            return Ok(Duration::ZERO);
        }
        self.next += PROBE_EVERY;
        let started = Instant::now();
        self.probe(stack, wire, timed, checks)?;
        Ok(started.elapsed())
    }

    /// After a loop of `timed` time: probes until there are `MIN_PROBES`
    /// samples.
    pub fn top_up(
        &mut self,
        stack: &Stack,
        wire: &mut Wire,
        timed: Duration,
        checks: &mut Checks,
    ) -> io::Result<()> {
        while self.opens.count() < MIN_PROBES {
            self.probe(stack, wire, timed, checks)?;
        }
        Ok(())
    }
}

/// Repeats `probe` (which returns one sample) for `budget`, and at least
/// `MIN_PROBES` times.
pub fn probe_for(
    budget: Duration,
    mut probe: impl FnMut() -> io::Result<f64>,
) -> io::Result<Samples> {
    let mut samples = Samples::default();
    let started = Instant::now();
    while samples.len() < MIN_PROBES || started.elapsed() < budget {
        samples.push(probe()?);
    }
    Ok(samples)
}

/// Time-to-first-parse: re-lazifies the cold tenant (outside the timed
/// window), then parses `COLD_TEXT` there over the wire. The wire must be
/// addressed to the cold tenant. Returns the parse time in µs.
pub fn cold_parse(stack: &Stack, wire: &mut Wire, checks: &mut Checks) -> io::Result<f64> {
    stack.cold().relazify();
    let (verdict, elapsed) = wire.verdict(Verb::ParseText, COLD_TEXT.as_bytes())?;
    checks.expect("cold parse accepted", verdict.is_some_and(|(ok, _)| ok));
    Ok(elapsed)
}

/// One `OPEN-DOC` of `text` (timed) followed by its `CLOSE-DOC` (untimed).
pub fn open_doc(wire: &mut Wire, text: &str, checks: &mut Checks) -> io::Result<f64> {
    let (outcome, elapsed) = wire.open_doc(text)?;
    checks.expect(
        "document opened and accepted",
        outcome.is_some_and(|(_, ok)| ok),
    );
    if let Some((id, _)) = outcome {
        checks.expect("document closed", wire.close_doc(id)?);
    }
    Ok(elapsed)
}
