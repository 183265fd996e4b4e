//! # ipg-bench
//!
//! The benchmark harness of the IPG reproduction. It contains the shared
//! workload definitions and measurement code used by
//!
//! * the Criterion benches (`benches/fig7_generators.rs`,
//!   `benches/ablation.rs`, `benches/parsing_throughput.rs`), and
//! * the figure-report binaries (`fig2_comparison`, `fig4_table`,
//!   `fig5_lazy`, `fig6_incremental`, `lazy_fraction`, `fig7_report`)
//!   that print the paper's tables and figures from fresh measurements.
//!
//! Each binary prints its own results; the committed `BENCH_*.json` files
//! at the repository root record the gated benches' last runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fig7;
pub mod workload;

pub use fig7::{measure, measure_all, render, Fig7Row, GeneratorKind};
pub use workload::{
    synthetic_workload, wide_synthetic_workload, PreLexedInput, SdfWorkload, SyntheticWorkload,
    WideSyntheticWorkload,
};

/// Mean and max of a set of latencies in seconds, reported in
/// microseconds — the aggregation every latency-measuring bench bin
/// (`serving`, `publish-scaling`) prints and emits into its JSON.
pub fn mean_max_us(latencies: &[f64]) -> (f64, f64) {
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let max = latencies.iter().cloned().fold(0.0f64, f64::max);
    (mean * 1e6, max * 1e6)
}
