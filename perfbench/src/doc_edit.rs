//! `doc-edit`: writes on the document layer. `OPEN-DOC` of a seeded,
//! generated SDF module, then a closed-loop stream of single-token
//! `PARSE-DELTA` edits at seeded positions: structural edits that flip an
//! attribute between `left-assoc` and `right-assoc` (the GSS resumes and
//! replays to the end), and identifier renames that keep the token
//! sequence (re-lex only).

use std::fmt::Write as _;
use std::io;
use std::time::{Duration, Instant};

use ipg::IpgServer;
use ipg_frontend::protocol::{parse_delta_payload, Verb};

use crate::layers::{Layers, ParseOp, ParseReplay};
use crate::measure::{allocations, us, Rng, Samples, Strata, Trace, Windowed};
use crate::report::Checks;
use crate::stack::{self, Probes, Stack, Wire};
use crate::{Config, EndToEnd, Outcome, RUN_SHARE, TRACE_PROBE_REPS, WINDOWS};

/// Frontend worker threads.
pub const WORKERS: usize = 1;
/// `functions` lines of the generated module (about 15 KB of text): enough
/// that its full parse takes milliseconds.
pub const LINES: usize = 400;
/// Of every `KINDS` edits, `STRUCTURAL` flip an attribute, the rest rename.
/// No published edit-kind frequencies back a ratio, so the split is even;
/// the traced run reports each kind's latency on its own.
pub const KINDS: usize = 2;
pub const STRUCTURAL: usize = 1;
/// Edit positions are drawn from this many equal slices of the module.
pub const POSITION_STRATA: usize = 64;
/// One edit in this many (seeded) is checked against a full parse.
pub const ORACLE_EVERY: usize = 64;
/// In-process replays of the module's full parse in the traced run.
const PARSE_REPLAYS: usize = 20;

const LEFT: &str = "left-assoc ";
const RIGHT: &str = "right-assoc";
const OPERATORS: [&str; 6] = ["+", "*", "-", "=", "and", "or"];

/// The generated module and where its edit targets are. Every edit keeps
/// the byte length, so the offsets never move.
struct Module {
    text: String,
    /// Per line: offset of its attribute word (if it has one) and whether
    /// that is currently `right-assoc`.
    attributes: Vec<(usize, bool)>,
    /// Per line: offset of its first sort name (`S` and four digits).
    names: Vec<usize>,
}

/// The text of the generated module for `seed`: the document every
/// workload's `OPEN-DOC` probe opens.
pub fn module_text(seed: u64) -> String {
    Module::generate(seed).text
}

fn sort(rng: &mut Rng) -> String {
    format!("S{:04}", rng.below(10_000))
}

impl Module {
    fn generate(seed: u64) -> Module {
        let mut rng = Rng::new(seed ^ 0xD0C);
        let mut text = String::from("module Gen\nbegin\n    context-free syntax\n        sorts ");
        let sorts: Vec<String> = (0..32).map(|_| sort(&mut rng)).collect();
        text.push_str(&sorts.join(", "));
        text.push_str("\n        functions\n");
        let (mut attributes, mut names) = (Vec::new(), Vec::new());
        for _ in 0..LINES {
            text.push_str("            ");
            names.push(text.len());
            if rng.below(4) == 0 {
                let (a, b, c) = (sort(&mut rng), sort(&mut rng), sort(&mut rng));
                let _ = writeln!(text, "{a} \"k{}\" {b}* -> {c}", rng.below(100));
            } else {
                let (a, b, c) = (sort(&mut rng), sort(&mut rng), sort(&mut rng));
                let op = OPERATORS[rng.below(OPERATORS.len())];
                let _ = write!(text, "{a} \"{op}\" {b} -> {c} {{");
                let right = rng.below(2) == 0;
                attributes.push((text.len(), right));
                text.push_str(if right { RIGHT } else { LEFT });
                text.push_str("}\n");
            }
        }
        text.push_str("end Gen\n");
        Module {
            text,
            attributes,
            names,
        }
    }
}

/// One edit: the byte range replaced, its replacement, and whether it is
/// structural.
#[derive(Clone, Debug)]
struct Edit {
    at: usize,
    replacement: String,
    structural: bool,
}

impl Edit {
    fn len(&self) -> usize {
        self.replacement.len()
    }
}

/// Seeded edits against the module's current state.
struct EditStream {
    rng: Rng,
    kinds: Strata,
    positions: Strata,
}

impl EditStream {
    fn new(seed: u64) -> EditStream {
        EditStream {
            rng: Rng::new(seed ^ 0xED17),
            kinds: Strata::new(seed ^ 0x4B1D, KINDS),
            positions: Strata::new(seed ^ 0x9051, POSITION_STRATA),
        }
    }

    /// The next edit, applied to `module` (text and target state).
    fn next(&mut self, module: &mut Module) -> Edit {
        let structural = self.kinds.next_stratum() < STRUCTURAL;
        let targets = if structural {
            module.attributes.len()
        } else {
            module.names.len()
        };
        let slice = self.positions.next_stratum();
        let (lo, hi) = (
            slice * targets / POSITION_STRATA,
            (slice + 1) * targets / POSITION_STRATA,
        );
        let target = lo + self.rng.below((hi - lo).max(1));
        let edit = if structural {
            let (at, right) = &mut module.attributes[target];
            *right = !*right;
            Edit {
                at: *at,
                replacement: (if *right { RIGHT } else { LEFT }).to_owned(),
                structural,
            }
        } else {
            let at = module.names[target];
            let old = &module.text[at..at + 5];
            let mut name = sort(&mut self.rng);
            while name == old {
                name = sort(&mut self.rng);
            }
            Edit {
                at,
                replacement: name,
                structural,
            }
        };
        module
            .text
            .replace_range(edit.at..edit.at + edit.len(), &edit.replacement);
        edit
    }
}

/// A timed edit of the closed loop.
struct Timed {
    edit: Edit,
    sent: Instant,
    received: Instant,
}

struct EditLoop {
    latencies: Windowed,
    /// Every timed edit, kept only by the traced run.
    edits: Vec<Timed>,
    throughput_rps: f64,
    served_allocs: f64,
}

/// Sends `PARSE-DELTA` edits to document `doc` for `duration` of timed
/// time, checking a seeded sample (and the last edit) against a full parse
/// by `oracle` and running `probes` on their clock.
#[allow(clippy::too_many_arguments)]
fn edit_loop(
    stack: &Stack,
    probes: &mut Probes,
    wire: &mut Wire,
    doc: u64,
    module: &mut Module,
    stream: &mut EditStream,
    oracle: &IpgServer,
    seed: u64,
    duration: Duration,
    keep: bool,
    checks: &mut Checks,
) -> io::Result<EditLoop> {
    let mut sampled = Strata::new(seed ^ 0x0AC1E, ORACLE_EVERY);
    let mut out = EditLoop {
        latencies: Windowed::new(duration, WINDOWS),
        edits: Vec::new(),
        throughput_rps: 0.0,
        served_allocs: 0.0,
    };
    let mut untimed = Duration::ZERO;
    let mut allocs = 0u64;
    let started = Instant::now();
    let mut verdict = None;
    while started.elapsed() < duration + untimed {
        let timed = started.elapsed() - untimed;
        untimed += probes.run_due(stack, wire, timed, checks)?;
        let edit = stream.next(module);
        let payload = parse_delta_payload(
            doc,
            edit.at as u32,
            (edit.at + edit.len()) as u32,
            edit.replacement.as_bytes(),
        );
        let (total, own) = allocations();
        let sent = Instant::now();
        let (reply, _) = wire.verdict(Verb::ParseDelta, &payload)?;
        let received = Instant::now();
        let at = (received - started).saturating_sub(untimed);
        let (total_after, own_after) = allocations();
        allocs += (total_after - total) - (own_after - own);
        verdict = reply.map(|(ok, _)| ok);
        checks.expect("edited module accepted", verdict == Some(true));
        if sampled.next_stratum() == 0 {
            let paused = Instant::now();
            check_oracle(oracle, &module.text, verdict, checks);
            untimed += paused.elapsed();
        }
        out.latencies.push(us(received - sent), at);
        if keep {
            out.edits.push(Timed {
                edit,
                sent,
                received,
            });
        }
    }
    check_oracle(oracle, &module.text, verdict, checks);
    out.throughput_rps = out.latencies.rate();
    out.served_allocs = allocs as f64 / out.latencies.count().max(1) as f64;
    Ok(out)
}

fn check_oracle(oracle: &IpgServer, text: &str, verdict: Option<bool>, checks: &mut Checks) {
    let expected = oracle.parse_text(text).map(|r| r.accepted).ok();
    checks.expect(
        "verdict equals a full parse of the spliced text",
        verdict == expected,
    );
}

/// The `reparse_incremental`/`reparse_full` counters of the default tenant.
fn reparse_counters(wire: &mut Wire) -> io::Result<(i64, i64)> {
    let json = wire.stats()?;
    let field = |key| stack::stats_field(&json, "server", key).unwrap_or(-1.0) as i64;
    Ok((field("reparse_incremental"), field("reparse_full")))
}

fn oracle_server() -> IpgServer {
    let sdf = ipg_sdf::fixtures::sdf_grammar_and_scanner();
    IpgServer::new(ipg::IpgSession::new(sdf.grammar)).with_scanner(sdf.scanner)
}

pub fn run(config: &Config, checks: &mut Checks) -> io::Result<Outcome> {
    let mut module = Module::generate(config.seed);
    let initial = module.text.clone();
    let (stack, mut wire, setup_s) = stack::set_up(WORKERS, false, |_, wire| {
        match wire.verdict(Verb::ParseText, initial.as_bytes())?.0 {
            Some((true, _)) => Ok(()),
            _ => Err(io::Error::other(
                "the generated module was rejected while warming",
            )),
        }
    })?;
    let oracle = oracle_server();
    let (doc, _) = wire.open_doc(&module.text)?;
    let Some((doc, true)) = doc else {
        return Err(io::Error::other("the generated module did not open"));
    };
    let mut stream = EditStream::new(config.seed);
    let mut probes = Probes::new(&stack, &initial, true, config.share(RUN_SHARE))?;
    let (incremental_before, full_before) = reparse_counters(&mut wire)?;
    let (outcome, incremental_edits) = if config.trace {
        traced(
            config,
            &stack,
            &mut probes,
            &mut wire,
            doc,
            &mut module,
            &mut stream,
            &oracle,
            checks,
        )?
    } else {
        let mut edits = edit_loop(
            &stack,
            &mut probes,
            &mut wire,
            doc,
            &mut module,
            &mut stream,
            &oracle,
            config.seed,
            config.share(RUN_SHARE),
            false,
            checks,
        )?;
        probes.top_up(&stack, &mut wire, config.share(RUN_SHARE), checks)?;
        let (p50_us, p99_us) = edits.latencies.percentiles();
        let end_to_end = Outcome::EndToEnd(EndToEnd {
            setup_s,
            p50_us,
            p99_us,
            throughput_rps: edits.throughput_rps,
            cold_parse_p50_us: probes.cold.percentiles().0,
            open_doc_p50_us: probes.opens.percentiles().0,
        });
        (end_to_end, edits.latencies.count())
    };
    // Every edit of the run, on the wire or in process, took the
    // incremental path: no epoch was published on the default tenant.
    let (incremental, full) = reparse_counters(&mut wire)?;
    checks.reconcile(
        "server.reparse_incremental",
        incremental - incremental_before,
        incremental_edits as i64,
    );
    checks.reconcile("server.reparse_full", full - full_before, 0);
    if !wire.close_doc(doc)? {
        checks.invalid("the edited document did not close".into());
    }
    stack::reconcile(&stack, &mut wire, checks)?;
    drop((wire, probes));
    stack.shutdown();
    Ok(outcome)
}

#[allow(clippy::too_many_arguments)]
fn traced(
    config: &Config,
    stack: &Stack,
    probes: &mut Probes,
    wire: &mut Wire,
    doc: u64,
    module: &mut Module,
    stream: &mut EditStream,
    oracle: &IpgServer,
    checks: &mut Checks,
) -> io::Result<(Outcome, usize)> {
    let mut layers = Layers::default();
    let mut trace = Trace::new();
    let before_traced = module.text.clone();
    let run = edit_loop(
        stack,
        probes,
        wire,
        doc,
        module,
        stream,
        oracle,
        config.seed,
        config.share(0.5),
        true,
        checks,
    )?;

    // Replay the traced edits on an in-process copy of the document.
    let server = stack.server();
    let mirror = server
        .open_document(&before_traced)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let before = server.stats().merged();
    let (mut edit_us, mut relex_only_us) = (Samples::default(), Samples::default());
    let mut structural_us = Samples::default();
    let (mut wire_structural, mut wire_rename) = (Samples::default(), Samples::default());
    let mut document_allocs = 0u64;
    for (id, timed) in run.edits.iter().enumerate() {
        let parent = trace.record("frontend", id as u64, None, timed.sent, timed.received);
        let round_trip = us(timed.received - timed.sent);
        let edit = &timed.edit;
        let ((applied, allocated), span) = trace.time("document", id as u64, Some(parent), || {
            let (_, own) = allocations();
            let applied =
                server.apply_edit(mirror, edit.at..edit.at + edit.len(), &edit.replacement);
            (applied.map(|o| o.accepted()), allocations().1 - own)
        });
        document_allocs += allocated;
        checks.expect("in-process edit accepted", applied.unwrap_or(false));
        let elapsed = trace.span_ns(span) / 1e3;
        edit_us.push(elapsed);
        if edit.structural {
            structural_us.push(elapsed);
            wire_structural.push(round_trip);
        } else {
            relex_only_us.push(elapsed);
            wire_rename.push(round_trip);
        }
    }
    let after = server.stats().merged();
    let edits = run.edits.len().max(1) as f64;
    layers.document_edit_us_p50 = edit_us.p50();
    layers.document_edit_us_p99 = edit_us.p99();
    layers.document_relex_only_us_p50 = relex_only_us.p50();
    layers.document_structural_us_p50 = structural_us.p50();
    layers.wire_structural_us_p50 = wire_structural.p50();
    layers.wire_rename_us_p50 = wire_rename.p50();
    layers.document_tokens_relexed_per_edit =
        (after.tokens_relexed - before.tokens_relexed) as f64 / edits;
    layers.document_states_rerun_per_edit =
        (after.states_rerun - before.states_rerun) as f64 / edits;
    layers.frontend_allocs_per_req = run.served_allocs - document_allocs as f64 / edits;
    checks.expect(
        "in-process document closed",
        server.close_document(mirror).is_ok(),
    );

    let mut replay = ParseReplay::default();
    for rep in 0..PARSE_REPLAYS {
        let op = ParseOp {
            text: &module.text,
            accepted: true,
            request: rep as u64,
            parent: None,
        };
        replay.replay(server, &mut trace, op, checks);
    }
    replay.finish(&mut layers, &trace);
    layers.cold_dfa(server, &module.text);
    layers.cold_expansion(stack, &mut trace, TRACE_PROBE_REPS, checks);
    layers.document_open(server, &before_traced, TRACE_PROBE_REPS, checks);
    let stats = wire.stats()?;
    layers.frontend_and_registry(stack, wire, &stats)?;
    layers.ctx_reuse(server);
    layers.trace_overhead(server, &[&module.text]);
    layers.attribution(&trace, &["document"]);
    // Each traced edit ran twice: over the wire and on the in-process copy.
    let incremental = 2 * run.edits.len();
    Ok((Outcome::Traced(Box::new(layers), trace), incremental))
}
