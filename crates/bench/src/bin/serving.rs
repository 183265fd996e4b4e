//! Multi-threaded serving throughput of the shared-table layer: 1/2/4/8
//! threads drive one `IpgServer` over the Fig. 7 SDF workload, with a warm
//! table, a cold (lazily generated under contention) table, a warm table
//! with `MODIFY` cycles mixed in, a `modify-concurrent` scenario that
//! measures **edit publication latency** while parses are in flight — the
//! epoch claim: an edit lands in the time it takes to fork the table state
//! and apply the §7 rule, independent of the longest running parse — and
//! two end-to-end *text* scenarios over the same inputs: `warm-text`
//! (fused scan→parse through the pooled request contexts) against
//! `warm-text-split` (tokenize to a vector, then parse), which is where
//! the lexer→parser fusion win is measured. `scanner-cold` times the
//! re-lazified scanner's first scan of `ASF.sdf` against a warm scan: the
//! lazy DFA's share of time to first parse.
//!
//! The fused/split, dense/lazy and scanner cold/warm ratio gates compare
//! the fastest of several interleaved single-thread rounds of each side,
//! timed back to back, not the separately measured table rows.
//!
//! Every process allocation is counted by a wrapping global allocator, so
//! each row also reports **allocations per request**; the run fails (exit
//! code 1) if the warm fused text path allocates at all — the
//! allocation-free-request-path gate.
//!
//! Prints a human-readable table and writes `BENCH_serving.json` to the
//! current directory so CI can track the serving-perf trajectory.
//!
//! Run with `cargo run --release -p ipg-bench --bin serving`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ipg::{json, GenStats, IpgServer, IpgSession};
use ipg_bench::{mean_max_us, wide_synthetic_workload, SdfWorkload};
use ipg_grammar::Grammar;
use ipg_lexer::Scanner;

/// A pass-through allocator that counts every allocation, so the bench can
/// report per-request allocation counts and gate the warm fused path on
/// zero.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the only
// addition is a relaxed counter increment on the allocating entry points.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One measured configuration.
struct Row {
    scenario: &'static str,
    threads: usize,
    requests: usize,
    tokens: usize,
    elapsed_s: f64,
    modifications: usize,
    /// Mean/max `MODIFY` publication latency in microseconds (zero for
    /// scenarios that do not time edits).
    edit_mean_us: f64,
    edit_max_us: f64,
    /// Heap allocations per request across the timed runs (process-wide,
    /// so multi-thread rows include the scoped-thread spawn cost).
    allocs_per_request: f64,
}

impl Row {
    fn tokens_per_sec(&self) -> f64 {
        self.tokens as f64 / self.elapsed_s
    }
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }
}

fn batch(workload: &SdfWorkload, repeats: usize) -> (Vec<Vec<ipg_grammar::SymbolId>>, usize) {
    let mut requests = Vec::new();
    for _ in 0..repeats {
        for input in &workload.inputs {
            requests.push(input.tokens.clone());
        }
    }
    let tokens = requests.iter().map(Vec::len).sum();
    (requests, tokens)
}

fn run_warm(workload: &SdfWorkload, threads: usize, repeats: usize) -> Row {
    let server = IpgServer::new(IpgSession::new(workload.grammar.clone()));
    server.warm();
    let (requests, tokens) = batch(workload, repeats);
    // Untimed warm-up pass, then best of three timed runs.
    server.parse_many(&requests[..requests.len().min(8)], threads);
    let mut best = f64::INFINITY;
    let allocs_before = allocations();
    for _ in 0..3 {
        let start = Instant::now();
        server.parse_many(&requests, threads);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let allocs = allocations() - allocs_before;
    Row {
        scenario: "warm",
        threads,
        requests: requests.len(),
        tokens,
        elapsed_s: best,
        modifications: 0,
        edit_mean_us: 0.0,
        edit_max_us: 0.0,
        allocs_per_request: allocs as f64 / (3 * requests.len()) as f64,
    }
}

/// Shared driver of the text scenarios: runs `requests` through `parse`
/// on `threads` workers (inline on the calling thread for `threads == 1`,
/// so the per-thread context pool and the allocation counter see a clean
/// steady state), returning (elapsed seconds, allocations).
fn drive_texts(
    server: &IpgServer,
    requests: &[&str],
    threads: usize,
    parse: impl Fn(&IpgServer, &str) + Sync,
) -> (f64, u64) {
    let allocs_before = allocations();
    let start = Instant::now();
    if threads <= 1 {
        for &text in requests {
            parse(server, text);
        }
    } else {
        let queue = AtomicUsize::new(0);
        thread::scope(|scope| {
            for _ in 0..threads {
                let queue = &queue;
                let parse = &parse;
                scope.spawn(move || loop {
                    let i = queue.fetch_add(1, Ordering::Relaxed);
                    let Some(&text) = requests.get(i) else { break };
                    parse(server, text);
                });
            }
        });
    }
    (start.elapsed().as_secs_f64(), allocations() - allocs_before)
}

/// A warm server with the workload's grammar and scanner.
fn warm_text_server(workload: &SdfWorkload) -> IpgServer {
    let server = IpgServer::new(IpgSession::new(workload.grammar.clone()))
        .with_scanner(workload.scanner.clone());
    server.warm();
    server
}

/// The inputs' raw texts cycled `repeats` times.
fn text_requests(workload: &SdfWorkload, repeats: usize) -> Vec<&'static str> {
    workload
        .inputs
        .iter()
        .map(|input| input.text)
        .cycle()
        .take(workload.inputs.len() * repeats)
        .collect()
}

/// The fused text path: `parse_text_pooled` scans straight into the GSS
/// driver through a recycled per-worker context.
fn parse_fused(server: &IpgServer, text: &str) {
    assert!(server.parse_text_pooled(text).expect("input scans").accepted());
}

/// The pre-fusion text path: tokenize into a token vector, then parse.
fn parse_split(workload: &SdfWorkload, server: &IpgServer, text: &str) {
    let tokens = server
        .read(|session| workload.scanner.tokenize_for(session.grammar(), text))
        .expect("input scans");
    assert!(server.parse(&tokens).accepted);
}

/// Shared body of the warm text scenarios: one warm server + scanner,
/// the inputs' raw texts cycled `repeats` times, an untimed warm-up over
/// every input, then best-of-3 timed runs (per-run minimum of the
/// allocation count too, so a one-off growth spike does not mask the
/// steady state). Both scenarios measure through exactly this code, so
/// the fused/split comparison can never drift methodologically.
fn run_text_scenario(
    workload: &SdfWorkload,
    scenario: &'static str,
    threads: usize,
    repeats: usize,
    parse: impl Fn(&IpgServer, &str) + Sync,
) -> Row {
    let server = warm_text_server(workload);
    let requests = text_requests(workload, repeats);
    let tokens: usize = workload.inputs.iter().map(|i| i.tokens.len()).sum::<usize>() * repeats;
    // Warm-up: materialise the DFA, the table rows and the context pools.
    for input in &workload.inputs {
        parse(&server, input.text);
    }
    let mut best = f64::INFINITY;
    let mut allocs = u64::MAX;
    for _ in 0..3 {
        let (elapsed, run_allocs) = drive_texts(&server, &requests, threads, &parse);
        best = best.min(elapsed);
        allocs = allocs.min(run_allocs);
    }
    Row {
        scenario,
        threads,
        requests: requests.len(),
        tokens,
        elapsed_s: best,
        modifications: 0,
        edit_mean_us: 0.0,
        edit_max_us: 0.0,
        allocs_per_request: allocs as f64 / requests.len() as f64,
    }
}

/// The fused end-to-end text path: `parse_text_pooled` scans straight into
/// the GSS driver through a recycled per-worker context — tokenize + parse
/// measured together, zero allocations per warm request.
fn run_warm_text(workload: &SdfWorkload, threads: usize, repeats: usize) -> Row {
    run_text_scenario(workload, "warm-text", threads, repeats, parse_fused)
}

/// The pre-fusion text path over identical inputs: tokenize the text into
/// a token vector (token structs, name strings and all), then parse it —
/// what `parse_text` did before the streaming rewrite. The `warm-text` /
/// `warm-text-split` ratio is the measured fusion win.
fn run_warm_text_split(workload: &SdfWorkload, threads: usize, repeats: usize) -> Row {
    run_text_scenario(
        workload,
        "warm-text-split",
        threads,
        repeats,
        |server, text| parse_split(workload, server, text),
    )
}

/// The dense-scanner ablation: the identical fused text path with the
/// byte-class table and skip loop switched off, so every character is
/// decoded and finds its alphabet class by binary search. The `warm-text` /
/// `warm-text-lazy` ratio is the measured dense-scanner win, taken in-run
/// on the same host.
fn run_warm_text_lazy(workload: &SdfWorkload, threads: usize, repeats: usize) -> Row {
    workload.scanner.set_dense_scanning(false);
    let row = run_text_scenario(workload, "warm-text-lazy", threads, repeats, parse_fused);
    workload.scanner.set_dense_scanning(true);
    row
}

/// Rounds of the interleaved ratio measurement.
const RATIO_ROUNDS: usize = 7;

/// Fastest single-thread pass of each side of the two gated text ratios,
/// in seconds over the same requests.
struct TextRatioTimes {
    fused: f64,
    split: f64,
    lazy: f64,
}

/// Measures the gated ratios side by side: each of `RATIO_ROUNDS` rounds
/// times one single-thread pass of the fused path, the tokenize-then-parse
/// path and the fused path with the dense scanner switched off, back to
/// back on one warm server, and each side keeps its fastest round. The
/// host's speed drifts over seconds, so sides timed minutes apart (the
/// table rows) can differ by more than the effect being gated; min-of-N
/// over interleaved rounds compares like with like.
fn interleaved_text_ratios(workload: &SdfWorkload, repeats: usize) -> TextRatioTimes {
    let server = warm_text_server(workload);
    let requests = text_requests(workload, repeats);
    let split = |server: &IpgServer, text: &str| parse_split(workload, server, text);
    let epoch = server.current_epoch();
    let scanner = epoch.scanner().expect("text server has a scanner");
    for input in &workload.inputs {
        parse_fused(&server, input.text);
        split(&server, input.text);
    }
    let mut best = TextRatioTimes {
        fused: f64::INFINITY,
        split: f64::INFINITY,
        lazy: f64::INFINITY,
    };
    for _ in 0..RATIO_ROUNDS {
        best.fused = best.fused.min(drive_texts(&server, &requests, 1, parse_fused).0);
        best.split = best.split.min(drive_texts(&server, &requests, 1, split).0);
        scanner.set_dense_scanning(false);
        best.lazy = best.lazy.min(drive_texts(&server, &requests, 1, parse_fused).0);
        scanner.set_dense_scanning(true);
    }
    best
}

/// Rounds of the cold-scanner measurement.
const SCANNER_COLD_ROUNDS: usize = 21;

/// Times one scan of `text` on the fused slot stream, as the text path
/// drives it.
fn scan_slots(scanner: &Scanner, text: &str) -> f64 {
    let start = Instant::now();
    let mut stream = scanner.stream(text);
    while stream.next_slot().expect("the input scans").is_some() {}
    start.elapsed().as_secs_f64()
}

/// The scanner's share of time to first parse: each round re-lazifies the
/// SDF scanner (untimed), times its first scan of `ASF.sdf` on the fused
/// slot stream, then times a scan of the same text on a warm scanner. Each
/// side keeps its fastest round. Returns the cold row (its allocations are
/// the lazy DFA's own) and the best warm scan in seconds.
fn run_scanner_cold(workload: &SdfWorkload) -> (Row, f64) {
    let asf = workload
        .inputs
        .iter()
        .find(|input| input.name == "ASF.sdf")
        .expect("ASF.sdf is a Fig. 7 input");
    let warm = workload.scanner.relazified();
    scan_slots(&warm, asf.text);
    let (mut cold_s, mut warm_s) = (f64::INFINITY, f64::INFINITY);
    let mut allocs = 0;
    for _ in 0..SCANNER_COLD_ROUNDS {
        let cold = workload.scanner.relazified();
        let allocs_before = allocations();
        cold_s = cold_s.min(scan_slots(&cold, asf.text));
        allocs += allocations() - allocs_before;
        warm_s = warm_s.min(scan_slots(&warm, asf.text));
    }
    let row = Row {
        scenario: "scanner-cold",
        threads: 1,
        requests: 1,
        tokens: asf.tokens.len(),
        elapsed_s: cold_s,
        modifications: 0,
        edit_mean_us: 0.0,
        edit_max_us: 0.0,
        allocs_per_request: allocs as f64 / SCANNER_COLD_ROUNDS as f64,
    };
    (row, warm_s)
}

/// Cold start of the wide 5000-production synthetic grammar: time
/// `warm_parallel(threads)` — bulk `EXPAND` fan-out plus one batch row
/// publication — on a fresh server. No parses; the measured quantity is
/// time-to-first-full-table. Best of two runs; returns the 4-thread run's
/// graph counters so the warm fan-out counters can be printed.
fn run_cold_start(grammar: &Grammar, threads: usize) -> (Row, GenStats) {
    let mut best = f64::INFINITY;
    let mut stats = GenStats::default();
    let runs = 2;
    let allocs_before = allocations();
    for _ in 0..runs {
        let server = IpgServer::new(IpgSession::new(grammar.clone()));
        let start = Instant::now();
        server.warm_parallel(threads);
        best = best.min(start.elapsed().as_secs_f64());
        stats = server.stats().graph;
    }
    let allocs = allocations() - allocs_before;
    let row = Row {
        scenario: "cold-start",
        threads,
        requests: runs,
        tokens: 0,
        elapsed_s: best,
        modifications: 0,
        edit_mean_us: 0.0,
        edit_max_us: 0.0,
        allocs_per_request: allocs as f64 / runs as f64,
    };
    (row, stats)
}

fn run_cold(workload: &SdfWorkload, threads: usize, repeats: usize) -> Row {
    let (requests, tokens) = batch(workload, repeats);
    // The cold run includes lazy generation racing across threads; a fresh
    // server per run, best of three.
    let mut best = f64::INFINITY;
    let allocs_before = allocations();
    for _ in 0..3 {
        let server = IpgServer::new(IpgSession::new(workload.grammar.clone()));
        let start = Instant::now();
        server.parse_many(&requests, threads);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let allocs = allocations() - allocs_before;
    Row {
        scenario: "cold",
        threads,
        requests: requests.len(),
        tokens,
        elapsed_s: best,
        modifications: 0,
        edit_mean_us: 0.0,
        edit_max_us: 0.0,
        allocs_per_request: allocs as f64 / (3 * requests.len()) as f64,
    }
}

fn run_with_modify(workload: &SdfWorkload, threads: usize, repeats: usize) -> Row {
    let server = IpgServer::new(IpgSession::new(workload.grammar.clone()));
    server.warm();
    let (requests, tokens) = batch(workload, repeats);
    let (lhs, rhs) = workload.modification.clone();
    let done = AtomicBool::new(false);
    let mut modifications = 0usize;
    let mut elapsed_s = 0.0f64;
    let mut latencies: Vec<f64> = Vec::new();
    let allocs_before = allocations();
    thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // The §7 ADD-RULE/DELETE-RULE cycle, applied continuously while
            // the parse batch drains — each publication timed individually,
            // like `modify-concurrent` does.
            let mut applied = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let edit = Instant::now();
                server.modify(|s| {
                    s.add_rule(lhs, rhs.clone());
                });
                applied.push(edit.elapsed().as_secs_f64());
                let edit = Instant::now();
                server.modify(|s| {
                    s.remove_rule(lhs, &rhs).expect("rule was just added");
                });
                applied.push(edit.elapsed().as_secs_f64());
                thread::yield_now();
            }
            applied
        });
        let start = Instant::now();
        server.parse_many(&requests, threads);
        elapsed_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        latencies = writer.join().expect("writer thread panicked");
        modifications = latencies.len();
    });
    let allocs = allocations() - allocs_before;
    let (edit_mean_us, edit_max_us) = mean_max_us(&latencies);
    Row {
        scenario: "warm+modify",
        threads,
        requests: requests.len(),
        tokens,
        elapsed_s,
        modifications,
        edit_mean_us,
        edit_max_us,
        allocs_per_request: allocs as f64 / requests.len() as f64,
    }
}

/// The epoch scenario: `threads` workers loop the *largest* input (the
/// longest-running parses the workload has) while the main thread times
/// each `MODIFY` publication. With `threads == 0` the same edits run on an
/// idle server — the baseline that the loaded latencies are compared
/// against.
fn run_modify_concurrent(workload: &SdfWorkload, threads: usize, edits: usize) -> Row {
    let server = IpgServer::new(IpgSession::new(workload.grammar.clone()));
    server.warm();
    let (lhs, rhs) = workload.modification.clone();
    let slow_tokens = &workload.largest().tokens;
    let stop = AtomicBool::new(false);
    let mut latencies: Vec<f64> = Vec::with_capacity(edits);
    let mut requests = 0usize;
    let mut elapsed_s = 0.0f64;
    let allocs_before = allocations();
    thread::scope(|scope| {
        // The throughput window covers the workers' whole lifetime (spawn
        // to join), so the req/s / tokens/s columns divide matching
        // quantities; the edit latencies are timed per edit inside it.
        let run_start = Instant::now();
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            workers.push(scope.spawn(|| {
                let mut count = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    server.parse(slow_tokens);
                    count += 1;
                }
                count
            }));
        }
        if threads > 0 {
            // Let the long parses get airborne before timing edits.
            thread::sleep(Duration::from_millis(20));
        }
        for i in 0..edits {
            let edit_start = Instant::now();
            if i % 2 == 0 {
                server.modify(|s| {
                    s.add_rule(lhs, rhs.clone());
                });
            } else {
                server.modify(|s| {
                    s.remove_rule(lhs, &rhs).expect("rule was just added");
                });
            }
            latencies.push(edit_start.elapsed().as_secs_f64());
            thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for worker in workers {
            requests += worker.join().expect("worker thread panicked");
        }
        elapsed_s = run_start.elapsed().as_secs_f64();
    });
    let allocs = allocations() - allocs_before;
    let (edit_mean_us, edit_max_us) = mean_max_us(&latencies);
    Row {
        scenario: "modify-concurrent",
        threads,
        requests,
        tokens: requests * slow_tokens.len(),
        elapsed_s,
        modifications: edits,
        edit_mean_us,
        edit_max_us,
        // Measured per *operation*: the parses plus the edits, since each
        // edit's structurally shared fork is the dominant allocator here
        // (and the idle row serves no parses at all).
        allocs_per_request: allocs as f64 / (requests + edits).max(1) as f64,
    }
}

fn main() {
    let workload = SdfWorkload::load();
    let repeats = 50; // 50 × 4 inputs = 200 requests per run
    let thread_counts = [1usize, 2, 4, 8];
    let edits = 40;

    let mut rows = Vec::new();
    for &threads in &thread_counts {
        rows.push(run_warm(&workload, threads, repeats));
    }
    for &threads in &thread_counts {
        rows.push(run_warm_text(&workload, threads, repeats));
    }
    for &threads in &thread_counts {
        rows.push(run_warm_text_split(&workload, threads, repeats));
    }
    // The dense-scanner ablation only needs the single-thread row: the
    // ratio against `warm-text` at 1 thread is the in-run dense win.
    rows.push(run_warm_text_lazy(&workload, 1, repeats));
    for &threads in &thread_counts {
        rows.push(run_cold(&workload, threads, repeats));
    }
    let (scanner_cold, scanner_warm_s) = run_scanner_cold(&workload);
    let scanner_cold_s = scanner_cold.elapsed_s;
    rows.push(scanner_cold);
    // Cold start of the wide synthetic grammar: bulk expansion with the
    // parallel warm fan-out at 1/2/4 threads.
    let wide = wide_synthetic_workload(5000);
    let mut warm_stats = GenStats::default();
    for &threads in &[1usize, 2, 4] {
        let (row, stats) = run_cold_start(&wide.grammar, threads);
        if threads == 4 {
            warm_stats = stats;
        }
        rows.push(row);
    }
    for &threads in &thread_counts {
        rows.push(run_with_modify(&workload, threads, repeats));
    }
    // Edit latency on an idle server, then with 1..8 threads of long
    // parses in flight.
    rows.push(run_modify_concurrent(&workload, 0, edits));
    for &threads in &thread_counts {
        rows.push(run_modify_concurrent(&workload, threads, edits));
    }

    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("Shared-table serving throughput (Fig. 7 SDF workload, 200 requests/run, host: {cores} core(s))");
    println!("scenario          | threads |   req/s |  tokens/s | allocs/req | modifications");
    for row in &rows {
        // Rows using more parse threads than the host has cores measure OS
        // timeslicing on top of the serving layer (the ROADMAP caveat).
        let scheduler_bound = row.threads > cores;
        println!(
            "{:<17} | {:>7} | {:>7.0} | {:>9.0} | {:>10.2} | {:>5}{}",
            row.scenario,
            row.threads,
            row.requests_per_sec(),
            row.tokens_per_sec(),
            row.allocs_per_request,
            row.modifications,
            if scheduler_bound {
                "  [threads > cores: scheduler-bound]"
            } else {
                ""
            },
        );
    }

    // Counter probe: the scenario servers are dropped with their epochs,
    // so run one fused pass over every input on a fresh warm server to
    // surface the scanner-side counters through `IpgServer::stats`.
    let scanner_counters = {
        let server = IpgServer::new(IpgSession::new(workload.grammar.clone()))
            .with_scanner(workload.scanner.clone());
        server.warm();
        for input in &workload.inputs {
            assert!(server.parse_text_pooled(input.text).expect("input scans").accepted());
        }
        server.stats().graph
    };

    let row_of = |scenario: &str, threads: usize| -> &Row {
        rows.iter()
            .find(|r| r.scenario == scenario && r.threads == threads)
            .expect("measured configuration")
    };
    let fused = row_of("warm-text", 1);
    let split = row_of("warm-text-split", 1);
    // The gated ratios come from interleaved rounds, not from the rows.
    let ratio_times = interleaved_text_ratios(&workload, repeats);
    let fusion_speedup = ratio_times.split / ratio_times.fused;
    println!(
        "\nlexer→parser fusion (1 thread, best of {RATIO_ROUNDS} interleaved rounds): fused \
         {:.2} ms vs tokenize-then-parse {:.2} ms ({fusion_speedup:.2}x), {:.2} vs {:.2} \
         allocs/request",
        ratio_times.fused * 1e3,
        ratio_times.split * 1e3,
        fused.allocs_per_request,
        split.allocs_per_request,
    );
    let scanner_dense_speedup = ratio_times.lazy / ratio_times.fused;
    println!(
        "dense byte-class scanner (1 thread, best of {RATIO_ROUNDS} interleaved rounds): dense \
         {:.2} ms vs decoded chars {:.2} ms ({scanner_dense_speedup:.2}x)",
        ratio_times.fused * 1e3,
        ratio_times.lazy * 1e3,
    );
    let scanner_cold_to_warm_ratio = scanner_cold_s / scanner_warm_s;
    println!(
        "scanner time to first scan (ASF.sdf, re-lazified, best of {SCANNER_COLD_ROUNDS} \
         interleaved rounds): cold {:.1} µs vs warm {:.1} µs ({scanner_cold_to_warm_ratio:.2}x)",
        scanner_cold_s * 1e6,
        scanner_warm_s * 1e6,
    );
    let cold_start_s = |threads: usize| row_of("cold-start", threads).elapsed_s;
    let cold_start_speedup_4 = cold_start_s(1) / cold_start_s(4);
    println!(
        "cold start (wide 5000-production grammar): {:.3}s at 1 thread, {:.3}s at 2, {:.3}s at 4 \
         ({cold_start_speedup_4:.2}x at 4 threads)",
        cold_start_s(1),
        cold_start_s(2),
        cold_start_s(4),
    );
    println!(
        "scanner/warm counters: dense_rows_built {}, dense_bytes {}, skip_loop_bytes {}, \
         warm_threads_used {}, warm_batches_published {}",
        scanner_counters.dense_rows_built,
        scanner_counters.dense_bytes,
        scanner_counters.skip_loop_bytes,
        warm_stats.warm_threads_used,
        warm_stats.warm_batches_published,
    );
    println!(
        "residency (warm probe server, modeled): resident {} KiB, high-water {} KiB \
         (graph chunks + published snapshot + rule arena + scanner DFA)",
        scanner_counters.resident_bytes / 1024,
        scanner_counters.resident_high_water / 1024,
    );

    let speedup = |scenario: &str, threads: usize| -> f64 {
        let of = |t: usize| {
            rows.iter()
                .find(|r| r.scenario == scenario && r.threads == t)
                .expect("measured configuration")
                .tokens_per_sec()
        };
        of(threads) / of(1)
    };
    let warm4 = speedup("warm", 4);
    println!("\nwarm-table speedups vs 1 thread:");
    for &t in &thread_counts[1..] {
        println!("  {t} threads: {:.2}x", speedup("warm", t));
    }
    println!("cold-table 4-thread speedup: {:.2}x", speedup("cold", 4));

    println!("\nMODIFY publication latency (epochs; {edits} edits per configuration):");
    let idle_mean = rows
        .iter()
        .find(|r| r.scenario == "modify-concurrent" && r.threads == 0)
        .map(|r| r.edit_mean_us)
        .unwrap_or(0.0);
    for row in rows.iter().filter(|r| r.scenario == "modify-concurrent") {
        let label = if row.threads == 0 {
            "idle server".to_owned()
        } else {
            format!("{} parse threads in flight", row.threads)
        };
        println!(
            "  {label:<27}: mean {:>8.1} µs, max {:>8.1} µs{}",
            row.edit_mean_us,
            row.edit_max_us,
            if row.threads > 0 && idle_mean > 0.0 {
                format!(" ({:.2}x idle mean)", row.edit_mean_us / idle_mean)
            } else {
                String::new()
            }
        );
    }
    for row in rows.iter().filter(|r| r.scenario == "warm+modify") {
        println!(
            "  warm+modify, {} parse threads : mean {:>8.1} µs, max {:>8.1} µs over {} edits",
            row.threads, row.edit_mean_us, row.edit_max_us, row.modifications
        );
    }
    println!(
        "  (edits publish new epochs: latency tracks the structurally shared fork, not the longest parse)"
    );
    if cores < thread_counts[thread_counts.len() - 1] {
        println!(
            "  note: host has {cores} core(s); with more parse threads than cores the \
             writer thread is starved by the scheduler, so those rows measure OS \
             timeslicing, not epoch publication (compare the ≤{cores}-thread rows)."
        );
    }

    // The loaded-latency summary only considers configurations the host
    // can actually schedule in parallel (threads <= cores); oversubscribed
    // rows measure OS timeslicing, not epoch publication (see the printed
    // note), and would otherwise dominate the trend series.
    let loaded_mean = rows
        .iter()
        .filter(|r| r.scenario == "modify-concurrent" && r.threads >= 1 && r.threads <= cores)
        .map(|r| r.edit_mean_us)
        .fold(0.0f64, f64::max);
    // The host's core count rides along in the header and per row, so
    // trend consumers can tell real publication latency from scheduler
    // noise.
    let json = json::object(|doc| {
        doc.string("benchmark", "serving")
            .string("workload", "fig7-sdf")
            .field("host_cores", cores)
            .objects("rows", &rows, |o, row| {
                o.string("scenario", row.scenario)
                    .field("threads", row.threads)
                    .field("requests", row.requests)
                    .field("tokens", row.tokens)
                    .field("elapsed_s", format_args!("{:.6}", row.elapsed_s))
                    .field("tokens_per_sec", format_args!("{:.1}", row.tokens_per_sec()))
                    .field("requests_per_sec", format_args!("{:.1}", row.requests_per_sec()))
                    .field("modifications", row.modifications)
                    .field("edit_mean_us", format_args!("{:.2}", row.edit_mean_us))
                    .field("edit_max_us", format_args!("{:.2}", row.edit_max_us))
                    .field("allocs_per_request", format_args!("{:.2}", row.allocs_per_request))
                    .field("scheduler_bound", row.threads > cores);
            })
            .field("warm_speedup_4_threads", format_args!("{warm4:.3}"))
            .field("warm_speedup_8_threads", format_args!("{:.3}", speedup("warm", 8)))
            .field("warm_text_fused_speedup", format_args!("{fusion_speedup:.3}"))
            .field("warm_text_allocs_per_request", format_args!("{:.2}", fused.allocs_per_request))
            .field("scanner_dense_speedup", format_args!("{scanner_dense_speedup:.3}"))
            .field("scanner_cold_first_scan_us", format_args!("{:.1}", scanner_cold_s * 1e6))
            .field("scanner_warm_scan_us", format_args!("{:.1}", scanner_warm_s * 1e6))
            .field("scanner_cold_to_warm_ratio", format_args!("{scanner_cold_to_warm_ratio:.3}"))
            .field("cold_start_1_thread_s", format_args!("{:.3}", cold_start_s(1)))
            .field("cold_start_speedup_4_threads", format_args!("{cold_start_speedup_4:.3}"))
            .field("resident_bytes", scanner_counters.resident_bytes)
            .field("resident_high_water", scanner_counters.resident_high_water)
            .field("modify_concurrent_idle_mean_us", format_args!("{idle_mean:.2}"))
            .field("modify_concurrent_loaded_mean_us", format_args!("{loaded_mean:.2}"));
    });
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json");

    // Scaling is only observable with real cores; on a single-core host the
    // interesting number is the (near-zero) locking overhead instead.
    println!("host parallelism: {cores} core(s)");

    // Hard gates (alongside the publish-scaling gate in CI): the warm
    // fused text path must not allocate per request — the single-threaded
    // warm-text row runs inline on this thread against recycled contexts,
    // so any allocation is a regression of the allocation-free request
    // path — and fusion must actually beat tokenize-then-parse.
    let mut failed = false;
    if fused.allocs_per_request > 0.0 {
        eprintln!(
            "FAIL: warm fused parse_text allocated {:.2} times per request (expected 0)",
            fused.allocs_per_request
        );
        failed = true;
    }
    if fusion_speedup < 1.0 {
        eprintln!(
            "FAIL: fused warm-text ({:.2} ms) is slower than tokenize-then-parse ({:.2} ms), \
             best of {RATIO_ROUNDS} interleaved rounds",
            ratio_times.fused * 1e3,
            ratio_times.split * 1e3
        );
        failed = true;
    }
    // The byte-class table and skip loop must not lose to decoding every
    // character — an in-run, same-host ratio, so it holds everywhere.
    if scanner_dense_speedup < 1.0 {
        eprintln!(
            "FAIL: dense scanner ({:.2} ms) is slower than decoding every character ({:.2} ms), \
             best of {RATIO_ROUNDS} interleaved rounds",
            ratio_times.fused * 1e3,
            ratio_times.lazy * 1e3
        );
        failed = true;
    }
    // A miss must cost one subset-construction step and nothing else: the
    // re-lazified first scan may cost at most 2.5x a warm one. An in-run,
    // same-host ratio, so it holds everywhere.
    if scanner_cold_to_warm_ratio > 2.5 {
        eprintln!(
            "FAIL: the re-lazified first scan of ASF.sdf ({:.1} µs) costs \
             {scanner_cold_to_warm_ratio:.2}x a warm scan ({:.1} µs), above 2.5x, best of \
             {SCANNER_COLD_ROUNDS} interleaved rounds",
            scanner_cold_s * 1e6,
            scanner_warm_s * 1e6
        );
        failed = true;
    }
    // Warm parse scaling is a hard gate wherever the cores exist (hosted
    // CI runners have >= 4): N warm readers over one shared graph must
    // actually run in parallel, or the read path has re-grown a lock.
    if cores >= 4 && warm4 < 2.5 {
        eprintln!(
            "FAIL: 4-thread warm speedup {warm4:.2}x below the 2.5x target on a {cores}-core host"
        );
        failed = true;
    }
    // Parallel cold start is only a meaningful gate where the cores exist:
    // hosted CI runners have ≥4, dev containers with 1 core record the
    // (ungated) row so the trend is still visible.
    if cores >= 4 && cold_start_speedup_4 < 3.0 {
        eprintln!(
            "FAIL: cold-start 4-thread speedup {cold_start_speedup_4:.2}x below the 3x target on a \
             {cores}-core host"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
