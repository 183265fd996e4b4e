//! The repository benchmark: three seeded workloads driven over TCP into an
//! in-process `ipg_frontend::Frontend`, reporting end-to-end metrics (or,
//! with `--trace 1`, per-layer metrics from in-memory spans).
//!
//! ```text
//! perfbench --workload serve-mix|design-loop|doc-edit --seed N --seconds S \
//!           --trace 0|1 [--trace-out DIR]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. A
//! wrong verdict, a counter mismatch or a late load generator makes the run
//! exit with status 1; bad arguments or I/O failures with status 2.

mod affinity;
mod conn;
mod design_loop;
mod doc_edit;
mod layers;
mod measure;
mod report;
mod serve_mix;
mod stack;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{count_allocations, peak_rss_mb, CountingAlloc, Trace};
use report::{Checks, Metrics};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Equal time slices of a timed loop; its metrics are medians over slices
/// (`measure::Windowed`).
pub const WINDOWS: usize = 10;
/// Share of a run spent on each probe phase (cold parses, opens) where
/// the probes are not interleaved with the timed loop (`serve-mix`).
pub const PROBE_SHARE: f64 = 0.05;
/// Share of a run given to a closed loop's timed time; its interleaved
/// probes come on top.
pub const RUN_SHARE: f64 = 0.8;
/// In-process repetitions of the traced run's cold and open probes.
pub const TRACE_PROBE_REPS: usize = 10;

/// One run's settings.
#[derive(Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// The measured time budget of the run.
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: PathBuf,
}

impl Config {
    /// A share of the run's measured time.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// What a workload hands back: its end-to-end numbers, or its traced run.
pub enum Outcome {
    EndToEnd(EndToEnd),
    Traced(Box<layers::Layers>, Trace),
}

/// The end-to-end metrics every workload reports.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub throughput_rps: f64,
    pub cold_parse_p50_us: f64,
    pub open_doc_p50_us: f64,
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = PathBuf::from("perfbench-traces");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds must be a number")?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            "--trace-out" => trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = affinity::init() {
        eprintln!("perfbench: choosing CPUs: {e}");
        return ExitCode::from(2);
    }
    if config.trace {
        count_allocations();
    }
    let mut checks = Checks::default();
    let outcome = match config.workload.as_str() {
        "serve-mix" => serve_mix::run(&config, &mut checks),
        "design-loop" => design_loop::run(&config, &mut checks),
        "doc-edit" => doc_edit::run(&config, &mut checks),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", config.workload);
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    match outcome {
        Outcome::EndToEnd(e) => {
            metrics.put("setup_s", e.setup_s, "s");
            metrics.put("p50_us", e.p50_us, "us");
            metrics.put("p99_us", e.p99_us, "us");
            metrics.put("throughput_rps", e.throughput_rps, "1/s");
            metrics.put("cold_parse_p50_us", e.cold_parse_p50_us, "us");
            metrics.put("open_doc_p50_us", e.open_doc_p50_us, "us");
            metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
        }
        Outcome::Traced(layers, trace) => {
            layers.emit(&mut metrics);
            let path = config
                .trace_out
                .join(format!("{}-seed{}.jsonl", config.workload, config.seed));
            if let Err(e) = trace.write(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "{} seed {} ({} s, trace {}): {} checked, {} failed",
        config.workload,
        config.seed,
        config.seconds,
        config.trace as u8,
        checks.attempted,
        checks.failed
    );
    print!("{}", metrics.table());
    println!("{}", metrics.result_line(&checks));
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
