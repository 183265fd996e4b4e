//! Chaos testing of the frontend's runaway-parse containment.
//!
//! Injects panics at every labeled fault site along the request path
//! (`post-pin`, `mid-gss`, `forest-grow`, `relex`) through a live
//! frontend and asserts the containment contract: every request gets
//! exactly one definitive reply, the worker pool survives at full
//! strength, the panicked context is quarantined (not recycled), and
//! client-side tallies agree with the server's own counters — no
//! accounting drift through the panic path. Also exercises the `CANCEL`
//! verb's note-and-consume round trip.
//!
//! The faults must fire on the frontend's worker threads, so every test
//! here arms through the process-wide slot (`ipg_glr::fault::process_wide`),
//! which serializes them; the panic hook is silenced for injected faults
//! only.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Once;
use std::thread;
use std::time::Duration;

use ipg::{FaultPlan, IpgServer, IpgSession};
use ipg_frontend::protocol::{read_response, write_request, Status, Verb, DEFAULT_MAX_FRAME};
use ipg_frontend::{Client, Frontend, FrontendConfig, ShutdownMode};
use ipg_grammar::fixtures;
use ipg_lexer::simple_scanner;

/// Silences the default panic hook for injected faults (they are caught
/// and answered; their backtraces are noise), leaving real panics loud.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                previous(info);
            }
        }));
    });
}

fn boolean_server() -> IpgServer {
    IpgServer::new(IpgSession::new(fixtures::booleans()))
        .with_scanner(simple_scanner(&["true", "false", "or", "and"]))
}

fn chaos_frontend(workers: usize) -> Frontend {
    Frontend::bind(
        "127.0.0.1:0",
        FrontendConfig {
            workers,
            queue_depth: 64,
            read_timeout: Duration::from_millis(100),
            ..FrontendConfig::default()
        },
        std::sync::Arc::new(boolean_server()),
    )
    .expect("bind frontend")
}

fn connect(frontend: &Frontend) -> Client {
    let mut client = Client::connect(frontend.local_addr()).expect("connect");
    client
        .set_response_timeout(Some(Duration::from_secs(10)))
        .expect("response timeout");
    client
}

/// One panic at each labeled site, each through the wire: the reply is a
/// definitive `ERROR` naming the quarantine, the next request on the same
/// connection succeeds, and at drain the counters match what the client
/// saw — `worker_panics == ctx_quarantined == #sites` and `parses`
/// equals every executed (OK or ERROR) request exactly once.
#[test]
fn a_panic_at_every_labeled_site_is_contained() {
    let faults = ipg_glr::fault::process_wide();
    quiet_injected_panics();

    let frontend = chaos_frontend(2);
    let mut client = connect(&frontend);
    let (mut ok, mut errors) = (0usize, 0usize);

    // The wire-path sites: pin, GSS loop, forest growth. An ambiguous
    // sentence guarantees the forest site is reached.
    for site in ["post-pin", "mid-gss", "forest-grow"] {
        faults.arm(FaultPlan::new().fail(site, 1));
        let response = client
            .parse_text("true or true or true", 0)
            .expect("a panicked parse still gets exactly one reply");
        assert_eq!(response.status, Status::Error, "site {site}");
        let message = String::from_utf8_lossy(&response.payload).into_owned();
        assert!(
            message.contains("quarantined"),
            "site {site}: reply names the quarantine, got `{message}`"
        );
        errors += 1;
        faults.disarm();

        // The very next request on the same connection parses fine: the
        // worker survived and a fresh context replaced the quarantined one.
        let response = client.parse_text("true or false", 0).expect("follow-up");
        assert_eq!(response.status, Status::Ok, "after {site}");
        ok += 1;
    }

    // The incremental re-lex site, reached through a document edit. The
    // panic poisons the document mutex mid-edit; recovery must clear the
    // poison and rebuild from scratch on the next edit.
    let response = client.open_doc("true or false", 0).expect("open doc");
    assert_eq!(response.status, Status::Ok);
    let (doc_id, accepted, _) = Client::open_doc_outcome(&response).expect("open-doc payload");
    assert!(accepted);
    ok += 1;

    faults.arm(FaultPlan::new().fail("relex", 1));
    let response = client
        .parse_delta(doc_id, 0, 4, "false", 0)
        .expect("a panicked edit still gets exactly one reply");
    assert_eq!(response.status, Status::Error);
    errors += 1;
    faults.disarm();

    // The poisoned session recovers: the next edit full-rebuilds and
    // accepts.
    let response = client.parse_delta(doc_id, 0, 5, "true", 0).expect("recovery edit");
    assert_eq!(response.status, Status::Ok, "poisoned document session recovers");
    ok += 1;
    let response = client.close_doc(doc_id).expect("close doc");
    assert_eq!(response.status, Status::Ok);
    ok += 1;

    // Full pool strength: both workers serve concurrently after the storm.
    let addr = frontend.local_addr();
    let slow: String = std::iter::once("true".to_owned())
        .chain((0..200).map(|_| " or true".to_owned()))
        .collect();
    let survivors: Vec<_> = (0..2)
        .map(|_| {
            let slow = slow.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect survivor");
                client
                    .set_response_timeout(Some(Duration::from_secs(10)))
                    .expect("response timeout");
                client.parse_text(&slow, 0).expect("survivor parse").status
            })
        })
        .collect();
    for survivor in survivors {
        assert_eq!(survivor.join().unwrap(), Status::Ok);
        ok += 1;
    }

    let stats = frontend.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_panics, 4, "one panic per labeled site");
    assert_eq!(stats.ctx_quarantined, 4, "every panic quarantined its context");
    // No drift: the frontend executed exactly the requests the client saw
    // answered (OK and ERROR both count as executed parses), no more.
    assert_eq!(
        stats.parses,
        ok + errors,
        "client saw {ok} OK + {errors} ERROR but the frontend counted {}",
        stats.parses
    );
}

/// A `CANCEL` note for a not-yet-dequeued request answers that request
/// `CANCELLED` at dequeue — deterministic when the note is sent first —
/// and the ack itself is an `OK` that only means "noted".
#[test]
fn cancel_notes_answer_queued_requests_definitively() {
    let _faults = ipg_glr::fault::process_wide();
    quiet_injected_panics();

    let frontend = chaos_frontend(1);
    let mut stream = TcpStream::connect(frontend.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();

    // Note the cancellation *before* its target exists: the note waits in
    // the connection's bounded buffer and is consumed at dequeue.
    write_request(&mut stream, &mut buf, 1, Verb::Cancel, 0, 0, &2u64.to_le_bytes())
        .expect("cancel request");
    write_request(&mut stream, &mut buf, 2, Verb::ParseText, 0, 0, b"true or false")
        .expect("target request");
    write_request(&mut stream, &mut buf, 3, Verb::ParseText, 0, 0, b"true or false")
        .expect("uncancelled request");

    let mut reader = BufReader::new(stream);
    let mut statuses = std::collections::HashMap::new();
    for _ in 0..3 {
        let response =
            read_response(&mut reader, DEFAULT_MAX_FRAME).expect("a reply for every request");
        assert!(
            statuses.insert(response.request_id, response.status).is_none(),
            "duplicate reply for request {}",
            response.request_id
        );
    }
    assert_eq!(statuses[&1], Status::Ok, "the cancel ack means `noted`");
    assert_eq!(statuses[&2], Status::Cancelled, "the target dies at dequeue");
    assert_eq!(statuses[&3], Status::Ok, "later requests are untouched");

    let stats = frontend.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.parses_cancelled, 1);
    assert_eq!(stats.parses, 1, "only the uncancelled parse ran");
    assert_eq!(stats.worker_panics, 0);
}

/// A storm of repeated panics through a pipelined connection: every
/// request is answered exactly once, the panic count matches the armed
/// plan, and afterwards a full-queue burst is admitted without a single
/// `OVERLOADED` — the panic path leaked no queue slots or registry
/// accounting.
#[test]
fn a_panic_storm_leaks_no_accounting() {
    let faults = ipg_glr::fault::process_wide();
    quiet_injected_panics();

    let frontend = chaos_frontend(2);
    let panics = 8usize;
    let total = 32usize;
    faults.arm(FaultPlan::new().fail("mid-gss", panics as u32));

    let mut stream = TcpStream::connect(frontend.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = Vec::new();
    for id in 1..=total as u64 {
        write_request(&mut stream, &mut buf, id, Verb::ParseText, 0, 0, b"true or true or true")
            .expect("storm request");
    }
    let mut reader = BufReader::new(stream);
    let (mut ok, mut errors) = (0usize, 0usize);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..total {
        let response =
            read_response(&mut reader, DEFAULT_MAX_FRAME).expect("a reply for every request");
        assert!(seen.insert(response.request_id), "duplicate reply");
        match response.status {
            Status::Ok => ok += 1,
            Status::Error => errors += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    faults.disarm();
    assert_eq!(errors, panics, "exactly the armed panics surfaced as errors");
    assert_eq!(ok, total - panics);

    // Queue-slot refund check: a burst of exactly `queue_depth` requests
    // on a fresh connection is fully admitted — any slot leaked by the
    // panic path would surface as `OVERLOADED` here.
    let mut stream = TcpStream::connect(frontend.local_addr()).expect("reconnect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for id in 1..=64u64 {
        write_request(&mut stream, &mut buf, id, Verb::ParseText, 0, 0, b"true or false")
            .expect("burst request");
    }
    let mut reader = BufReader::new(stream);
    for _ in 0..64 {
        let response = read_response(&mut reader, DEFAULT_MAX_FRAME).expect("burst reply");
        assert_eq!(response.status, Status::Ok, "no slot leaked through the storm");
    }

    let stats = frontend.shutdown(ShutdownMode::Drain);
    assert_eq!(stats.worker_panics, panics, "panic count matches the plan");
    assert_eq!(stats.ctx_quarantined, panics);
    assert_eq!(stats.parses, total + 64);
}
