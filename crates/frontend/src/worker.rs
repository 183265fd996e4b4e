//! The worker pool: executes admitted requests against the shared
//! [`IpgServer`].
//!
//! Each worker thread maps 1:1 onto the serving layer's per-thread
//! request-context pool slot: `PARSE-TEXT` and `PARSE-TOKENS` go through
//! [`IpgServer::serve`], whose checkout is that slot, and the reply reads
//! the pooled result in place, so the warm wire path runs scan → parse →
//! forest in recycled memory. Grammar edits (`ADD-RULE` /
//! `DELETE-RULE`) go through the server's non-draining epoch publication
//! like any library caller — they serialize among themselves on the
//! server's writer lock but never against in-flight parses.
//!
//! Deadline discipline (see [`crate::deadline`]): checked **at dequeue**,
//! again **at epoch-pin time** (after payload decoding, immediately
//! before the server call commits parser time), and — new with per-request
//! budgets — **inside the parse** via the `ParseBudget` the worker folds
//! the wire deadline into. All three reply `DEADLINE_EXCEEDED` and count
//! into `GenStats::shed_deadline`.
//!
//! Containment: each request executes under [`std::panic::catch_unwind`].
//! A panicking parse (injected fault or real bug) answers `ERROR` exactly
//! once, its request context is dropped instead of recycled
//! (`ctx_quarantined`), the tenant's registry accounting is still
//! refunded, and the worker thread survives at full pool strength
//! (`worker_panics`). Budget-killed parses answer `RESOURCE_EXHAUSTED`
//! (or `DEADLINE_EXCEEDED` for the deadline axis) the same exactly-once
//! way.
//!
//! Tenancy: jobs carry the wire tenant id; workers resolve it through
//! the shared [`GrammarRegistry`] (touching the tenant's clock position)
//! and complete with [`GrammarRegistry::after_request`], which drives
//! re-lazification accounting and byte-budget enforcement on the request
//! cadence. `ATTACH-TENANT` bypasses routing — it *creates* the route.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ipg::{
    json, ExhaustReason, GenStats, GrammarRegistry, IpgServer, Request, ServerError, SessionError,
};

use crate::deadline::Deadline;
use crate::protocol::{
    decode_attach_tenant, decode_parse_delta, open_doc_payload, parse_outcome_payload,
    write_response, Status, Verb,
};
use crate::queue::BoundedQueue;
use crate::FrontendConfig;

/// The write side of one client connection, shared between its reader
/// thread (admission-time sheds) and whichever workers execute its jobs.
/// Replies from concurrent workers serialize on the mutex; the reply
/// buffer inside is reused, so steady-state replies do not allocate.
#[derive(Debug)]
pub(crate) struct Conn {
    writer: Mutex<ReplyWriter>,
    /// Cleared when the connection is poisoned (write failure/timeout);
    /// the reader loop exits and further replies are dropped on the floor
    /// (the peer is gone or hopeless).
    alive: AtomicBool,
    /// Request ids this connection has asked to cancel (`CANCEL` verb),
    /// consulted by workers at dequeue. Bounded: a client spamming cancels
    /// for ids that never existed evicts its own oldest notes, nothing
    /// else.
    cancelled: Mutex<VecDeque<u64>>,
}

/// Cap on remembered cancel notes per connection.
const MAX_CANCEL_NOTES: usize = 64;

#[derive(Debug)]
struct ReplyWriter {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Conn {
        Conn {
            writer: Mutex::new(ReplyWriter {
                stream,
                buf: Vec::with_capacity(64),
            }),
            alive: AtomicBool::new(true),
            cancelled: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub(crate) fn poison(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Notes a `CANCEL` for `request_id` (called by the connection
    /// reader, inline — cancels never queue behind the work they cancel).
    pub(crate) fn note_cancel(&self, request_id: u64) {
        let mut cancelled = self.cancelled.lock().unwrap();
        if cancelled.len() >= MAX_CANCEL_NOTES {
            cancelled.pop_front();
        }
        cancelled.push_back(request_id);
    }

    /// Consumes a cancel note for `request_id` if one exists.
    fn take_cancel(&self, request_id: u64) -> bool {
        let mut cancelled = self.cancelled.lock().unwrap();
        match cancelled.iter().position(|&id| id == request_id) {
            Some(at) => {
                cancelled.remove(at);
                true
            }
            None => false,
        }
    }
}

/// One admitted request, queued for a worker.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) conn: Arc<Conn>,
    pub(crate) request_id: u64,
    pub(crate) verb: Verb,
    /// Which registry tenant the request addresses (0 = the default
    /// tenant). Validated at admission; workers route through the
    /// registry so eviction/re-lazification bookkeeping sees every touch.
    pub(crate) tenant: u32,
    pub(crate) payload: Vec<u8>,
    pub(crate) deadline: Deadline,
    /// When the frame was read — latency is measured admit→reply, so the
    /// histograms include queueing delay (what the client experiences).
    pub(crate) admitted: Instant,
}

/// State shared by the accept loop, connection readers and workers.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) server: Arc<IpgServer>,
    /// The multi-tenant registry; the default `server` is attached as
    /// tenant 0. `ATTACH-TENANT` adds tenants at runtime, and every
    /// request routes through it (clock touch + budget enforcement).
    pub(crate) registry: Arc<GrammarRegistry>,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) config: FrontendConfig,
    /// Frontend-side counters and the admit→reply latency histogram (the
    /// server keeps its own parse-time histogram underneath).
    pub(crate) stats: Mutex<GenStats>,
    /// Set once shutdown begins: stop accepting and admitting.
    pub(crate) draining: AtomicBool,
    /// With `draining`: shed queued jobs with `SHUTTING_DOWN` instead of
    /// executing them ([`crate::ShutdownMode::Shed`]).
    pub(crate) shed_on_drain: AtomicBool,
}

impl Shared {
    pub(crate) fn note(&self, f: impl FnOnce(&mut GenStats)) {
        f(&mut self.stats.lock().unwrap());
    }

    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// A point-in-time copy of the frontend stats with the queue's
    /// high-water mark folded in.
    pub(crate) fn stats_snapshot(&self) -> GenStats {
        let mut stats = *self.stats.lock().unwrap();
        stats.queue_depth_high_water =
            stats.queue_depth_high_water.max(self.queue.high_water());
        stats
    }
}

/// Writes one response frame to a connection; a failed or timed-out write
/// poisons the connection (slow-client protection on the write side).
pub(crate) fn reply(
    shared: &Shared,
    conn: &Conn,
    request_id: u64,
    status: Status,
    payload: &[u8],
) {
    if !conn.alive() {
        return;
    }
    let mut writer = conn.writer.lock().unwrap();
    let ReplyWriter { stream, buf } = &mut *writer;
    let result = write_response(stream, buf, request_id, status, payload)
        .and_then(|()| stream.flush());
    if let Err(e) = result {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            shared.note(|s| s.io_timeouts += 1);
        }
        conn.poison();
    }
}

/// The worker thread body: drain the admission queue until it closes.
pub(crate) fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        handle(shared, job);
    }
}

fn handle(shared: &Shared, job: Job) {
    // Deadline check #1: at dequeue. A request whose budget died in the
    // queue is shed without parsing — a worker-time refund that under
    // overload goes to requests that can still make their deadlines.
    if job.deadline.expired(Instant::now()) {
        shared.note(|s| s.shed_deadline += 1);
        reply(
            shared,
            &job.conn,
            job.request_id,
            Status::DeadlineExceeded,
            b"deadline expired in the admission queue",
        );
        return;
    }
    // Client cancellation: a `CANCEL` that raced ahead of this job answers
    // it `CANCELLED` at dequeue — definitive, no parser time spent.
    if job.conn.take_cancel(job.request_id) {
        shared.note(|s| s.parses_cancelled += 1);
        reply(
            shared,
            &job.conn,
            job.request_id,
            Status::Cancelled,
            b"cancelled by client request",
        );
        return;
    }
    // Shed-mode drain: queued jobs get a definitive reply, not execution.
    if shared.draining() && shared.shed_on_drain.load(Ordering::Acquire) {
        shared.note(|s| s.shed_shutdown += 1);
        reply(
            shared,
            &job.conn,
            job.request_id,
            Status::ShuttingDown,
            b"shutting down",
        );
        return;
    }
    let (status, payload) = execute(shared, &job);
    match status {
        Status::DeadlineExceeded => {
            // Deadline check #2 or the mid-parse budget fired inside
            // `execute`.
            shared.note(|s| s.shed_deadline += 1);
        }
        Status::ResourceExhausted => {
            let latency = job.admitted.elapsed();
            shared.note(|s| {
                s.parses += 1;
                s.parses_exhausted += 1;
                s.latency.record(latency);
            });
        }
        _ => {
            let latency = job.admitted.elapsed();
            shared.note(|s| {
                s.parses += 1;
                s.latency.record(latency);
            });
        }
    }
    reply(shared, &job.conn, job.request_id, status, &payload);
}

/// Executes one verb, returning the reply. `ATTACH-TENANT` goes to the
/// registry; everything else routes to the addressed tenant's server
/// (touching its clock position) and completes with
/// [`GrammarRegistry::after_request`] so re-lazification accounting and
/// budget enforcement run on the request cadence.
fn execute(shared: &Shared, job: &Job) -> (Status, Vec<u8>) {
    if job.verb == Verb::AttachTenant {
        return attach_tenant(shared, &job.payload);
    }
    // Admission already vetoed unknown tenants; a tenant can still be
    // unknown here only through a racing attach view, and the answer is
    // the same ERROR either way.
    let Some(server) = shared.registry.server(job.tenant) else {
        return (
            Status::Error,
            format!("unknown tenant {}", job.tenant).into_bytes(),
        );
    };
    // Panic isolation: a panicking parse (a grammar-triggered bug, an
    // injected fault) must not take the worker thread — and with it a
    // permanent slice of pool capacity — down. The unwind is caught here,
    // *inside* the tenant bracket, so `after_request` still refunds the
    // registry's per-request accounting; the request context unwinding
    // through the pooled entry points drops instead of recycling (its TLS
    // slot stays empty), which is exactly the quarantine a corrupted
    // context needs.
    let reply = catch_unwind(AssertUnwindSafe(|| route(shared, &server, job)));
    shared.registry.after_request(job.tenant);
    match reply {
        Ok(reply) => reply,
        Err(_) => {
            shared.note(|s| {
                s.worker_panics += 1;
                s.ctx_quarantined += 1;
            });
            (
                Status::Error,
                b"internal error: the parse panicked; its context was quarantined".to_vec(),
            )
        }
    }
}

/// Maps a server error to its wire status: budget exhaustion splits into
/// `DEADLINE_EXCEEDED` (the wire deadline observed mid-parse) and
/// `RESOURCE_EXHAUSTED` (fuel/byte caps); everything else is `ERROR`.
fn error_reply(e: ServerError) -> (Status, Vec<u8>) {
    let status = match e {
        ServerError::Exhausted(ExhaustReason::Deadline) => Status::DeadlineExceeded,
        ServerError::Exhausted(_) => Status::ResourceExhausted,
        _ => Status::Error,
    };
    (status, e.to_string().into_bytes())
}

/// Handles the `ATTACH-TENANT` verb: an empty base attaches an
/// independent tenant built from the BNF rules; a non-empty base forks
/// that tenant's epoch copy-on-write and applies the rules as a dialect
/// delta. The OK payload is the new tenant id (little-endian `u32`).
fn attach_tenant(shared: &Shared, payload: &[u8]) -> (Status, Vec<u8>) {
    let Some((name, base, rules)) = decode_attach_tenant(payload) else {
        return (
            Status::Error,
            b"attach-tenant payload shorter than its name/base prefix".to_vec(),
        );
    };
    let attached = if base.is_empty() {
        match IpgServer::from_bnf(rules) {
            Ok(server) => shared.registry.attach(name, server),
            Err(e) => return (Status::Error, e.to_string().into_bytes()),
        }
    } else {
        shared.registry.attach_dialect(name, base, rules)
    };
    match attached {
        Ok(id) => (Status::Ok, id.to_le_bytes().to_vec()),
        Err(e) => (Status::Error, e.to_string().into_bytes()),
    }
}

/// Executes one routed verb against the addressed tenant's server.
fn route(shared: &Shared, server: &IpgServer, job: &Job) -> (Status, Vec<u8>) {
    // Verbs without text: answered here, no epoch pin to guard.
    match job.verb {
        Verb::Ping => return (Status::Ok, Vec::new()),
        Verb::Stats => return (Status::Ok, stats_json(shared).into_bytes()),
        Verb::CloseDoc => {
            let Ok(doc_id) = <[u8; 8]>::try_from(&job.payload[..]) else {
                return (Status::Error, b"close-doc payload must be a doc id".to_vec());
            };
            return match server.close_document(u64::from_le_bytes(doc_id)) {
                Ok(()) => (Status::Ok, Vec::new()),
                Err(e) => (Status::Error, e.to_string().into_bytes()),
            };
        }
        _ => {}
    }
    // The one preamble of every text-carrying verb: borrow the text out of
    // the frame (for `PARSE-DELTA`, the replacement after its fixed
    // prefix), check it is UTF-8, and check the deadline at epoch-pin
    // time (deadline check #2) — the last moment before the server call
    // pins an epoch and commits parser time. An expired `PARSE-DELTA` is
    // shed before the edit is applied, so the client can retry it
    // verbatim.
    let (delta, text) = match job.verb {
        Verb::ParseDelta => match decode_parse_delta(&job.payload) {
            Some((doc_id, start, end, replacement)) => {
                (Some((doc_id, start as usize..end as usize)), replacement)
            }
            None => {
                return (
                    Status::Error,
                    b"parse-delta payload shorter than its fixed prefix".to_vec(),
                )
            }
        },
        _ => (None, &job.payload[..]),
    };
    let Ok(text) = std::str::from_utf8(text) else {
        return (Status::Error, b"payload is not valid UTF-8".to_vec());
    };
    if job.deadline.expired(Instant::now()) {
        return (
            Status::DeadlineExceeded,
            b"deadline expired before epoch pin".to_vec(),
        );
    }
    // The parse budget: the tenant's default, tightened by the frontend's
    // per-request config, tightened again by the wire deadline — so a
    // deadline that expires *after* the pin still cancels the parse from
    // inside the GSS loop at the next budget stride.
    let budget = server
        .default_budget()
        .merged(shared.config.parse_budget)
        .tightened_deadline(job.deadline.instant());
    let parsed = |accepted: bool, grammar_version: u64| {
        (Status::Ok, parse_outcome_payload(accepted, grammar_version).to_vec())
    };
    let rule_edited = |edited: Result<_, SessionError>| match edited {
        Ok(_) => parsed(true, server.grammar_version()),
        Err(e) => (Status::Error, e.to_string().into_bytes()),
    };
    match (job.verb, delta) {
        (Verb::ParseText | Verb::ParseTokens, _) => {
            let request = match job.verb {
                Verb::ParseText => Request::Text(text),
                _ => Request::Sentence(text),
            };
            match server.serve(request, budget) {
                Ok(result) => parsed(result.accepted(), result.grammar_version()),
                Err(e) => error_reply(e),
            }
        }
        (Verb::AddRule, _) => rule_edited(server.add_rule_text(text)),
        (Verb::DeleteRule, _) => rule_edited(server.remove_rule_text(text)),
        (Verb::OpenDoc, _) => match server.open_document_budgeted(text, budget) {
            Ok(id) => {
                let accepted = server
                    .document_info(id)
                    .map(|info| info.accepted)
                    .unwrap_or(false);
                (
                    Status::Ok,
                    open_doc_payload(id, accepted, server.grammar_version()).to_vec(),
                )
            }
            Err(e) => error_reply(e),
        },
        (Verb::ParseDelta, Some((doc_id, range))) => {
            match server.apply_edit_budgeted(doc_id, range, text, budget) {
                Ok(outcome) => parsed(outcome.accepted(), outcome.grammar_version()),
                Err(e) => error_reply(e),
            }
        }
        // `PING`, `STATS` and `CLOSE-DOC` are answered before the
        // preamble, `ATTACH-TENANT` in `execute` before tenant routing,
        // and `CANCEL` inline by the connection reader (never queued).
        (verb, _) => unreachable!("{verb:?} is not routed through the text preamble"),
    }
}

/// The STATS verb's payload: the frontend's admission/latency counters,
/// the default tenant's merged server counters, the registry's residency
/// gauges (deduped across tenants; `budget_bytes` 0 means unbounded), one
/// row per tenant and the registry-wide totals.
pub(crate) fn stats_json(shared: &Shared) -> String {
    let frontend = shared.stats_snapshot();
    let server = shared.server.stats().merged();
    let (tenants, totals) = shared.registry.tenant_stats();
    let budget = shared.registry.budget();
    json::object(|doc| {
        doc.field("workers", frontend.effective_workers)
            .field("queue_capacity", shared.queue.capacity())
            .field("queue_depth", shared.queue.depth())
            .field("queue_high_water", frontend.queue_depth_high_water)
            .field("draining", shared.draining())
            .field("grammar_version", shared.server.grammar_version())
            .field("epoch", shared.server.epoch_number())
            .object("frontend", |o| {
                o.field("requests", frontend.parses)
                    .field("shed_overload", frontend.shed_overload)
                    .field("shed_deadline", frontend.shed_deadline)
                    .field("shed_shutdown", frontend.shed_shutdown)
                    .field("malformed", frontend.rejected_malformed)
                    .field("io_timeouts", frontend.io_timeouts)
                    .field("cancelled", frontend.parses_cancelled)
                    .field("resource_exhausted", frontend.parses_exhausted)
                    .field("worker_panics", frontend.worker_panics)
                    .field("ctx_quarantined", frontend.ctx_quarantined)
                    .histogram("latency_us", &frontend.latency);
            })
            .object("server", |o| {
                o.counters(&server)
                    .field("open_documents", shared.server.open_documents());
            })
            .object("registry", |o| {
                o.field("tenants_active", totals.tenants_active)
                    .field("budget_bytes", if budget == usize::MAX { 0 } else { budget })
                    .field("resident_bytes", totals.resident_bytes)
                    .field("resident_high_water", totals.resident_high_water)
                    .field("chunks_evicted", totals.chunks_evicted)
                    .field("chunks_relazified", totals.chunks_relazified);
            })
            .objects("tenants", &tenants, |o, (id, name, stats)| {
                o.field("id", id).string("name", name).counters(stats);
            })
            .object("totals", |o| {
                o.counters(&totals);
            });
    })
}
