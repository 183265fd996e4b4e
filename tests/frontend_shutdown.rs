//! Graceful drain of the network frontend, racing live traffic.
//!
//! `Frontend::shutdown` must terminate within a bound (no deadlock) while
//! parses and a wire-level `ADD-RULE` are in flight, answer everything
//! that was admitted, and lose nothing: an edit acknowledged with `OK`
//! before the drain must be present in the surviving server — verified by
//! digest against a cold oracle session, the same equivalence the
//! `epoch_equivalence` suite uses.
//!
//! The drain bound holds however eagerly clients retry: a connection is
//! answered `SHUTTING_DOWN` at most once and then closed.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use ipg::{IpgServer, IpgSession};
use ipg_frontend::protocol::{read_response, write_request, Status, Verb, DEFAULT_MAX_FRAME};
use ipg_frontend::{Client, Frontend, FrontendConfig, ShutdownMode};
use ipg_grammar::fixtures;
use ipg_lexer::simple_scanner;

mod common;
use common::digest;

fn boolean_server() -> Arc<IpgServer> {
    Arc::new(
        IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and"])),
    )
}

/// How long a drain may take: the admitted slow parses (milliseconds each)
/// plus one 100 ms read timeout for each idle reader, with ample slack for
/// a loaded debug build.
const DRAIN_BOUND: Duration = Duration::from_secs(5);

fn slow_input() -> String {
    let mut input = String::from("true");
    for _ in 0..100 {
        input.push_str(" or true");
    }
    input
}

#[test]
fn drain_races_pinned_parses_and_a_wire_edit_without_losing_either() {
    let server = boolean_server();
    let config = FrontendConfig {
        workers: 2,
        queue_depth: 64,
        read_timeout: Duration::from_millis(100),
        ..FrontendConfig::default()
    };
    let frontend =
        Frontend::bind("127.0.0.1:0", config, Arc::clone(&server)).expect("bind frontend");
    let addr = frontend.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Three connections keep slow parses pinned to epochs for the whole
    // run; each counts the definitive replies it got.
    let parsers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let input = slow_input();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect parser");
                client
                    .set_response_timeout(Some(Duration::from_secs(10)))
                    .expect("response timeout");
                let (mut served, mut refused) = (0u64, 0u64);
                while !stop.load(Ordering::Acquire) {
                    match client.parse_text(&input, 0) {
                        Ok(response) => match response.status {
                            Status::Ok => served += 1,
                            Status::ShuttingDown => refused += 1,
                            other => panic!("unexpected status: {other:?}"),
                        },
                        // The connection died *after* the drain: the
                        // frontend closed it once idle. Never a timeout —
                        // that would be a lost reply.
                        Err(e) => {
                            assert_ne!(
                                e.kind(),
                                std::io::ErrorKind::TimedOut,
                                "a request hung instead of being answered"
                            );
                            break;
                        }
                    }
                }
                (served, refused)
            })
        })
        .collect();

    // One wire edit racing the parses: B ::= "unknown", acknowledged (or
    // definitively refused) exactly once.
    let editor = thread::spawn(move || {
        thread::sleep(Duration::from_millis(50));
        let mut client = Client::connect(addr).expect("connect editor");
        client
            .set_response_timeout(Some(Duration::from_secs(10)))
            .expect("response timeout");
        let response = client
            .add_rule(r#"B ::= "unknown""#)
            .expect("the edit gets exactly one reply");
        response.status
    });

    // Let the race build up, then drain. A channel bounds the shutdown:
    // if it deadlocks against the pinned parses or the editor, the
    // recv_timeout fails the test instead of hanging it.
    thread::sleep(Duration::from_millis(250));
    let (tx, rx) = mpsc::channel();
    let drainer = thread::spawn(move || {
        let started = Instant::now();
        let stats = frontend.shutdown(ShutdownMode::Drain);
        tx.send((stats, started.elapsed())).unwrap();
    });
    let (stats, drain_time) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown drains instead of deadlocking");
    drainer.join().unwrap();
    assert!(
        drain_time < DRAIN_BOUND,
        "the drain took {drain_time:?}, over its {DRAIN_BOUND:?} bound"
    );

    stop.store(true, Ordering::Release);
    let (mut served_total, mut refused_total) = (0u64, 0u64);
    for parser in parsers {
        let (served, refused) = parser.join().unwrap();
        assert!(refused <= 1, "a connection is refused at most once, then closed");
        served_total += served;
        refused_total += refused;
    }
    let edit_status = editor.join().unwrap();
    // Exactly one reply per request: every SHUTTING_DOWN the frontend
    // sent reached a client, once.
    let edit_refused = u64::from(edit_status == Status::ShuttingDown);
    assert_eq!(
        stats.shed_shutdown as u64,
        refused_total + edit_refused,
        "refusals sent vs refusals received"
    );

    assert!(served_total > 0, "parses were in flight during the run");
    // The frontend executed every request the clients saw served (plus
    // the edit, if it won the race) — nothing double-counted or dropped.
    assert!(
        stats.parses as u64 >= served_total,
        "frontend executed {} but clients saw {served_total} served",
        stats.parses
    );

    // No lost edit: an `OK`-acknowledged ADD-RULE survives the drain.
    // Digest-check the served grammar against a cold oracle that has the
    // rule (the `epoch_equivalence` correctness statement).
    match edit_status {
        Status::Ok => {
            let result = server
                .parse_sentence("unknown")
                .expect("the edited terminal resolves after the edit");
            assert!(result.accepted, "the acknowledged rule is live");
            let oracle = IpgSession::new(fixtures::booleans_with_unknown());
            let unknown = oracle.grammar().symbol("unknown").expect("oracle symbol");
            assert_eq!(
                digest(&result),
                digest(&oracle.parse(&[unknown])),
                "served grammar and cold oracle disagree after the drain"
            );
        }
        Status::ShuttingDown => {
            // The edit lost the race to the drain — then it must NOT be
            // half-applied: the terminal is absent, exactly as cold.
            assert!(
                server.parse_sentence("unknown").is_err(),
                "a refused edit must not be partially applied"
            );
        }
        other => panic!("unexpected edit status: {other:?}"),
    }

    // The server outlives its frontend and still serves the library path.
    let result = server.parse_sentence("true or false").expect("library parse");
    assert!(result.accepted);
}

#[test]
fn shed_mode_answers_every_queued_request_definitively() {
    let frontend = Frontend::bind(
        "127.0.0.1:0",
        FrontendConfig {
            workers: 1,
            queue_depth: 16,
            read_timeout: Duration::from_millis(100),
            ..FrontendConfig::default()
        },
        boolean_server(),
    )
    .expect("bind frontend");
    let addr = frontend.local_addr();
    let input = slow_input();

    // Pipeline 8 slow requests on one connection, then shut down in shed
    // mode while most still sit in the queue.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut buf = Vec::new();
    for id in 1..=8u64 {
        write_request(&mut stream, &mut buf, id, Verb::ParseText, 0, 0, input.as_bytes())
            .expect("pipeline request");
    }
    thread::sleep(Duration::from_millis(30));
    let stats = frontend.shutdown(ShutdownMode::Shed);

    // Every admitted request got exactly one definitive reply — executed
    // before the drain or shed with SHUTTING_DOWN, never dropped.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream);
    let mut seen = [false; 8];
    let (mut served, mut shed) = (0usize, 0usize);
    for _ in 0..8 {
        let response = read_response(&mut reader, DEFAULT_MAX_FRAME)
            .expect("a definitive reply for every admitted request");
        let index = usize::try_from(response.request_id - 1).expect("known id");
        assert!(!seen[index], "duplicate reply for request {}", response.request_id);
        seen[index] = true;
        match response.status {
            Status::Ok => served += 1,
            Status::ShuttingDown => shed += 1,
            other => panic!("unexpected status: {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "all 8 requests answered");
    assert_eq!(stats.parses, served);
    assert_eq!(stats.shed_shutdown, shed);
    assert!(shed > 0, "shed mode refused the still-queued tail");
}
