//! # ipg-frontend — the network face of the IPG serving stack
//!
//! A std-only TCP frontend (hand-rolled accept loop + worker pool; no
//! async runtime) exposing the incremental parser generator over the
//! length-prefixed binary protocol of [`protocol`]: `PING`, `PARSE-TEXT`,
//! `PARSE-TOKENS`, `ADD-RULE`, `DELETE-RULE`, `STATS`, the document verbs
//! (`OPEN-DOC`, `PARSE-DELTA`, `CLOSE-DOC`) and `ATTACH-TENANT`.
//!
//! The frontend is **multi-tenant**: every request header carries a
//! tenant id, routed through a shared [`ipg::GrammarRegistry`] whose
//! tenant 0 is the server passed to [`Frontend::bind`]. `ATTACH-TENANT`
//! adds tenants at runtime — independent grammars, or copy-on-write
//! dialect forks of an attached base that share its resident chunks.
//! A configurable byte budget ([`FrontendConfig::registry_budget`])
//! bounds the combined derived state; over budget, cold tenants are
//! evicted back to their persistent grammars and rebuilt lazily on their
//! next touch. Requests addressing unknown tenants are answered `ERROR`
//! at admission, before they can consume a queue slot or a worker parse.
//!
//! ## The wire path
//!
//! ```text
//! accept ─▶ reader thread (per connection)
//!              │  read frame (max-size checked, timeouts classified)
//!              ▼
//!          admission: BoundedQueue::try_push
//!              │            │
//!              │            └─ full/closed ─▶ OVERLOADED / SHUTTING_DOWN
//!              ▼                              (immediate, never silent)
//!          worker pool (1:1 with pooled parse contexts)
//!              │  deadline check at dequeue ─▶ DEADLINE_EXCEEDED
//!              │  deadline check at epoch pin ─▶ DEADLINE_EXCEEDED
//!              ▼
//!          checkout ctx ─▶ pin epoch ─▶ scan+parse (zero-alloc warm path)
//!              │
//!              ▼
//!          reply (reused buffer, write timeout poisons slow clients)
//! ```
//!
//! ## Robustness properties
//!
//! * **Every request gets exactly one reply.** Admission failure, deadline
//!   expiry, shutdown and parse errors are all *replies*, not drops; the
//!   only requests without a reply are those on connections the client
//!   itself broke (or poisoned with a malformed/stalled frame).
//! * **Bounded backlog.** The admission queue is the only buffer; beyond
//!   it, offered load is shed in microseconds with `OVERLOADED`. Admitted
//!   latency stays bounded by `queue depth × service time` — under
//!   overload the latency curve plateaus instead of collapsing.
//! * **Slow clients cannot wedge the server.** Reads and writes carry
//!   timeouts; a peer that stalls mid-frame (or never drains its replies)
//!   poisons only its own connection. Frame sizes are validated before
//!   allocation.
//! * **Graceful drain.** [`Frontend::shutdown`] stops accepting, lets
//!   already-admitted requests finish ([`ShutdownMode::Drain`]) or sheds
//!   them with definitive `SHUTTING_DOWN` replies ([`ShutdownMode::Shed`]),
//!   then joins every thread. No request admitted before the drain began
//!   is left unanswered.
//! * **Runaway parses are contained.** Every routed parse runs under a
//!   [`ipg::ParseBudget`] (tenant default ∧ [`FrontendConfig::parse_budget`]
//!   ∧ wire deadline) that the GSS loop observes cooperatively every few
//!   dozen steps: an ambiguity blow-up or adversarial input is cancelled
//!   mid-flight with `RESOURCE_EXHAUSTED`/`DEADLINE_EXCEEDED` instead of
//!   monopolising a worker, and its ballooned request context is
//!   quarantined, not recycled. `CANCEL` (handled inline by the reader)
//!   answers still-queued requests `CANCELLED` at dequeue.
//! * **Panics don't shrink the pool.** Workers run each request under
//!   `catch_unwind`: a panicking parse answers `ERROR` exactly once, its
//!   context is dropped, registry accounting is refunded, and the worker
//!   thread keeps serving — proven by the fault-injection chaos suite
//!   (`ipg_glr::FaultPlan`), not assumed.

pub mod client;
pub mod deadline;
pub mod protocol;
pub mod queue;
mod worker;

pub use client::Client;

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ipg::{GenStats, GrammarRegistry, IpgServer};

use deadline::Deadline;
use protocol::{read_request, FrameError, Status, Verb};
use queue::{BoundedQueue, PushError};
use worker::{reply, Conn, Job, Shared};

/// Tuning knobs of a [`Frontend`]. The defaults favour robustness tests
/// and small machines; a production deployment would mainly raise
/// `queue_depth` to its latency budget divided by the mean service time.
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// Worker threads (0 = one per available core). Each worker owns one
    /// pooled parse context once warm.
    pub workers: usize,
    /// Admission queue capacity (min 1). This bounds the worst-case
    /// queueing delay of an *admitted* request.
    pub queue_depth: usize,
    /// Maximum frame size accepted from a client, checked before any
    /// allocation.
    pub max_frame: usize,
    /// Socket read timeout: how long a reader blocks before re-checking
    /// the drain flag (idle) or giving up on a mid-frame stall (slow
    /// client). Also bounds shutdown's reader-join time.
    pub read_timeout: Duration,
    /// Socket write timeout: a client that never drains its replies is
    /// poisoned after this long.
    pub write_timeout: Duration,
    /// Global byte budget over the deduped resident derived state of all
    /// registry tenants (0 = unbounded, never evict). Over budget, the
    /// coldest tenants are re-lazified back to their persistent grammars
    /// — see [`ipg::GrammarRegistry`].
    pub registry_budget: usize,
    /// Budget-enforcement cadence: one pass per this many completed
    /// requests (clamped to at least 1; irrelevant when unbounded).
    pub registry_sweep_every: usize,
    /// Per-request parse budget applied to every routed parse, merged
    /// (tightest-per-axis) with the tenant server's own default budget and
    /// tightened by the request's wire deadline. [`ipg::ParseBudget::UNLIMITED`]
    /// (the default) adds no caps beyond the wire deadline — which alone
    /// already makes `DEADLINE_EXCEEDED` fire *mid-parse* instead of only
    /// at dequeue/pin time.
    pub parse_budget: ipg::ParseBudget,
}

impl Default for FrontendConfig {
    fn default() -> FrontendConfig {
        FrontendConfig {
            workers: 0,
            queue_depth: 256,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(1_000),
            registry_budget: 0,
            registry_sweep_every: 64,
            parse_budget: ipg::ParseBudget::UNLIMITED,
        }
    }
}

/// What happens to already-admitted requests on shutdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Execute everything already in the queue, then stop. New arrivals
    /// are refused with `SHUTTING_DOWN`.
    Drain,
    /// Reply `SHUTTING_DOWN` to queued requests instead of executing them
    /// — fastest exit that still answers everything.
    Shed,
}

/// A running network frontend: an accept thread, one reader thread per
/// connection, and a worker pool sharing one [`IpgServer`].
#[derive(Debug)]
pub struct Frontend {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Frontend {
    /// Binds `addr` and starts serving `server` with `config`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        mut config: FrontendConfig,
        server: Arc<IpgServer>,
    ) -> io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        if config.workers == 0 {
            config.workers = thread::available_parallelism().map_or(1, |n| n.get());
        }
        let worker_count = config.workers;
        let stats = GenStats {
            effective_workers: worker_count,
            ..GenStats::default()
        };
        let registry = Arc::new(if config.registry_budget == 0 {
            GrammarRegistry::unbounded()
        } else {
            GrammarRegistry::new(config.registry_budget, config.registry_sweep_every)
        });
        registry
            .attach_shared("default", Arc::clone(&server))
            .expect("fresh registry accepts the default tenant");
        let shared = Arc::new(Shared {
            server,
            registry,
            queue: BoundedQueue::new(config.queue_depth),
            config,
            stats: Mutex::new(stats),
            draining: AtomicBool::new(false),
            shed_on_drain: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ipg-fe-worker-{i}"))
                    .spawn(move || worker::worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("ipg-fe-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &conns))?
        };
        Ok(Frontend {
            shared,
            local_addr,
            accept: Some(accept),
            conns,
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server behind the frontend (registry tenant 0, `"default"`).
    pub fn server(&self) -> &Arc<IpgServer> {
        &self.shared.server
    }

    /// The multi-tenant grammar registry behind the frontend. Tenants
    /// attached here (or over the wire with `ATTACH-TENANT`) are
    /// addressable by the request header's tenant field.
    pub fn registry(&self) -> &Arc<GrammarRegistry> {
        &self.shared.registry
    }

    /// A snapshot of the frontend-side counters (sheds, malformed frames,
    /// admit→reply latency, queue high-water mark).
    pub fn stats(&self) -> GenStats {
        self.shared.stats_snapshot()
    }

    /// The `STATS` verb's JSON document, server side.
    pub fn stats_json(&self) -> String {
        worker::stats_json(&self.shared)
    }

    /// Stops the frontend: stop accepting, answer or shed everything
    /// admitted (per `mode`), join every thread. Returns the final
    /// frontend stats. A connection still held open by its client is
    /// closed at its next frame (answered `SHUTTING_DOWN`) or once idle for
    /// one read-timeout, whichever comes first — so the drain is bounded by
    /// the admitted work plus one read-timeout, however eagerly clients
    /// retry.
    pub fn shutdown(mut self, mode: ShutdownMode) -> GenStats {
        self.shutdown_in_place(mode)
    }

    fn shutdown_in_place(&mut self, mode: ShutdownMode) -> GenStats {
        if mode == ShutdownMode::Shed {
            self.shared.shed_on_drain.store(true, Ordering::Release);
        }
        self.shared.draining.store(true, Ordering::Release);
        // The accept thread blocks in `accept`; a throwaway connection
        // wakes it to observe the drain flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // No reader can be spawned past this point. Existing readers wake
        // at least every read-timeout, see the flag, and exit once their
        // connection is idle.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for conn in conns {
            let _ = conn.join();
        }
        // Close admissions for good; the workers drain what was admitted
        // (executing or shedding it, per mode) and exit on the closed
        // queue.
        self.shared.queue.close();
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        self.shared.stats_snapshot()
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        // A dropped-without-shutdown frontend still drains cleanly (shed
        // mode: fastest exit that answers everything). After an explicit
        // `shutdown` the handles are empty and this is a no-op.
        if self.accept.is_some() || !self.workers.is_empty() {
            self.shutdown_in_place(ShutdownMode::Shed);
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conns: &Mutex<Vec<JoinHandle<()>>>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining() {
                    // The shutdown wake-up connection (or a very late
                    // client): refuse by closing.
                    break;
                }
                let reader = {
                    let shared = Arc::clone(shared);
                    thread::Builder::new()
                        .name("ipg-fe-conn".into())
                        .spawn(move || connection_loop(stream, &shared))
                };
                // On spawn failure (resource exhaustion) the connection is
                // dropped — refusing is the shed, not a hang.
                if let Ok(handle) = reader {
                    conns.lock().unwrap().push(handle);
                }
            }
            Err(_) if shared.draining() => break,
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, ...):
                // back off briefly instead of spinning.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// One connection's reader: decode frames, admit or shed, loop. Exits on
/// EOF, poison (slow client, malformed frame, dead writer), or during a
/// drain at the first frame or idle poll.
fn connection_loop(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn::new(write_half));
    let mut read_half = io::BufReader::new(stream);
    loop {
        if !conn.alive() {
            return;
        }
        match read_request(&mut read_half, shared.config.max_frame) {
            Ok(request) => {
                let admitted = Instant::now();
                if shared.draining() {
                    // A frame arriving during the drain gets its one
                    // definitive reply, and then the connection closes: a
                    // client retrying at once must not keep this reader
                    // (and so `Frontend::shutdown`) alive forever.
                    shared.note(|s| s.shed_shutdown += 1);
                    reply(
                        shared,
                        &conn,
                        request.request_id,
                        Status::ShuttingDown,
                        b"shutting down",
                    );
                    return;
                }
                // `CANCEL` is handled inline by the reader — queueing a
                // cancel behind the very request it cancels would defeat
                // it. The note is consumed by whichever worker dequeues
                // the target; the `OK` here only acknowledges the note.
                if request.verb == Verb::Cancel {
                    if request.payload.len() == 8 {
                        let target =
                            u64::from_le_bytes(request.payload[..8].try_into().expect("8 bytes"));
                        conn.note_cancel(target);
                        reply(shared, &conn, request.request_id, Status::Ok, &[]);
                    } else {
                        reply(
                            shared,
                            &conn,
                            request.request_id,
                            Status::Error,
                            b"cancel payload must be a request id",
                        );
                    }
                    continue;
                }
                // Unknown tenants are refused at admission — an `ERROR`
                // reply that never consumes a queue slot or a worker
                // parse. (`ATTACH-TENANT` is exempt: it creates tenants,
                // it doesn't address one.)
                if request.verb != Verb::AttachTenant
                    && shared.registry.name_of(request.tenant).is_none()
                {
                    reply(
                        shared,
                        &conn,
                        request.request_id,
                        Status::Error,
                        format!("unknown tenant {}", request.tenant).as_bytes(),
                    );
                    continue;
                }
                let job = Job {
                    conn: Arc::clone(&conn),
                    request_id: request.request_id,
                    verb: request.verb,
                    tenant: request.tenant,
                    payload: request.payload,
                    deadline: Deadline::from_budget_us(request.deadline_us, admitted),
                    admitted,
                };
                match shared.queue.try_push(job) {
                    Ok(()) => {}
                    Err(PushError::Full(job)) => {
                        shared.note(|s| s.shed_overload += 1);
                        reply(
                            shared,
                            &job.conn,
                            job.request_id,
                            Status::Overloaded,
                            b"admission queue full",
                        );
                    }
                    Err(PushError::Closed(job)) => {
                        shared.note(|s| s.shed_shutdown += 1);
                        reply(
                            shared,
                            &job.conn,
                            job.request_id,
                            Status::ShuttingDown,
                            b"shutting down",
                        );
                    }
                }
            }
            // No traffic: poll the drain flag, keep listening otherwise.
            Err(FrameError::Idle) => {
                if shared.draining() {
                    return;
                }
            }
            Err(FrameError::Eof) => return,
            Err(FrameError::SlowClient) => {
                shared.note(|s| s.io_timeouts += 1);
                conn.poison();
                return;
            }
            Err(FrameError::Malformed { request_id, reason }) => {
                shared.note(|s| s.rejected_malformed += 1);
                if let Some(id) = request_id {
                    reply(shared, &conn, id, Status::Malformed, reason.as_bytes());
                }
                // A malformed frame desynchronises the stream; only this
                // connection pays for it.
                conn.poison();
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}
