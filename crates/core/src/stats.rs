//! Counters describing how much work the lazy/incremental generator has
//! done. These back the paper's §5.2 observation ("only 60 percent of the
//! parse table had to be generated to parse the SDF definition of SDF
//! itself") and the §7 measurements — plus the serving-layer latency
//! histograms and overload counters the network frontend reports through
//! its STATS verb.

use std::fmt;
use std::time::Duration;

/// Number of fixed histogram buckets (see [`LatencyHistogram`]).
pub const HISTOGRAM_BUCKETS: usize = 128;

/// A fixed-bucket latency histogram: values 0–7 µs get exact buckets,
/// everything above is bucketed at quarter-octave (≤ 25 %) resolution up
/// to ~2 hours. Recording is allocation-free and branch-light — one index
/// computation and two increments — so it can sit on the serving hot path;
/// the structure is `Copy`, so it rides inside [`GenStats`] through every
/// aggregation.
///
/// Merging two histograms (bucket-wise addition, max of maxima) is exact:
/// unlike a `(mean, max)` pair, no quantile information is lost when
/// histograms are folded into an aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per bucket (see [`LatencyHistogram::bucket_index`]).
    counts: [u64; HISTOGRAM_BUCKETS],
    /// Total samples recorded.
    count: u64,
    /// Sum of all recorded values in microseconds (for the mean).
    sum_us: u64,
    /// Largest recorded value in microseconds (exact, not bucketed).
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket index of a value in microseconds: exact below 8 µs, then
    /// four sub-buckets per power of two, saturating in the last bucket.
    fn bucket_index(us: u64) -> usize {
        if us < 8 {
            return us as usize;
        }
        let b = 63 - us.leading_zeros() as u64; // floor(log2(us)), >= 3
        let sub = (us >> (b - 2)) & 3;
        (((b - 3) * 4 + sub) as usize + 8).min(HISTOGRAM_BUCKETS - 1)
    }

    /// The lower bound (µs) of the bucket with the given index — what the
    /// quantile estimators report, so estimates err low, never high, by at
    /// most one bucket width (≤ 25 %).
    fn bucket_floor(index: usize) -> u64 {
        if index < 8 {
            return index as u64;
        }
        let k = (index - 8) as u64 / 4;
        let sub = (index - 8) as u64 % 4;
        (1 << (k + 3)) + sub * (1 << (k + 1))
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: Duration) {
        let us = sample.as_micros().min(u64::MAX as u128) as u64;
        self.counts[Self::bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Folds `other` into `self`. Exact: bucket-wise addition plus max of
    /// the maxima — no quantile or high-water information is lost.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded values in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Largest recorded value in microseconds (exact).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in microseconds: the floor of the
    /// bucket holding the `ceil(q · count)`-th smallest sample. Returns 0
    /// when empty; `q >= 1` returns the exact maximum.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max_us;
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_floor(index);
            }
        }
        self.max_us
    }

    /// Convenience: the (p50, p99, p999) triple in microseconds.
    pub fn percentiles_us(&self) -> (u64, u64, u64) {
        (
            self.quantile_us(0.50),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
        )
    }
}

/// The value of one counter, read off a [`GenStats`] and tagged with how
/// [`GenStats::merge`] folds it.
#[derive(Clone, Copy, Debug)]
pub enum CounterValue<'a> {
    /// A cumulative count: summed.
    Sum(usize),
    /// A high-water mark or a point-in-time gauge: max-merged. Summing
    /// the copies an aggregate folds would fabricate depths, thread counts
    /// or bytes nobody observed (gauges of shared state would double-count
    /// it).
    Max(usize),
    /// A latency histogram in microseconds: merged bucket-wise, exact for
    /// every quantile.
    Histogram(&'a LatencyHistogram),
}

impl CounterValue<'_> {
    /// Whether nothing was recorded.
    fn is_zero(&self) -> bool {
        match self {
            CounterValue::Sum(n) | CounterValue::Max(n) => *n == 0,
            CounterValue::Histogram(h) => h.count() == 0,
        }
    }
}

/// One row of the counter table with its value in one [`GenStats`] (see
/// [`GenStats::counters`]).
#[derive(Clone, Copy, Debug)]
pub struct Counter<'a> {
    /// The field name, which is also the counter's JSON key (with a `_us`
    /// suffix for histograms, whose values are microseconds).
    pub name: &'static str,
    /// The `Display` label.
    pub label: &'static str,
    /// The current value.
    pub value: CounterValue<'a>,
}

/// Declares the counter table: each row is `doc, name: kind = "label"`.
/// One row generates the `GenStats` field, its merge, its `Display` line
/// and its JSON key (through [`GenStats::counters`]).
macro_rules! counters {
    (@type Histogram) => { LatencyHistogram };
    (@type $kind:ident) => { usize };
    (@merge Sum, $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@merge Max, $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@merge Histogram, $mine:expr, $theirs:expr) => { $mine.merge(&$theirs) };
    (@value Histogram, $value:expr) => { CounterValue::Histogram(&$value) };
    (@value $kind:ident, $value:expr) => { CounterValue::$kind($value) };
    (@fill Histogram, $value:expr, $n:expr) => {
        $value.record(Duration::from_micros($n as u64))
    };
    (@fill $kind:ident, $value:expr, $n:expr) => { $value = $n };
    ($($(#[$doc:meta])* $name:ident: $kind:ident = $label:literal,)*) => {
        /// Work counters, shared by the item-set graph, the serving layer,
        /// the registry and the network frontend; each layer fills the
        /// rows it owns and leaves the rest zero. Graph counters are
        /// cumulative over the lifetime of the graph (grammar
        /// modifications do not reset them).
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct GenStats {
            $($(#[$doc])* pub $name: counters!(@type $kind),)*
        }

        impl GenStats {
            /// Folds `other` into `self` by each counter's kind:
            /// counts sum, high-water marks and gauges take the maximum,
            /// histograms merge bucket-wise. Every aggregation
            /// ([`crate::ServerStats::merged`], the registry's totals) goes
            /// through this one function, so no path can diverge.
            pub fn merge(&mut self, other: &GenStats) {
                $(counters!(@merge $kind, self.$name, other.$name);)*
            }

            /// Every counter, in table order, with its value here.
            pub fn counters(&self) -> impl Iterator<Item = Counter<'_>> {
                [$(Counter {
                    name: stringify!($name),
                    label: $label,
                    value: counters!(@value $kind, self.$name),
                },)*]
                .into_iter()
            }

            /// Stats with every counter at `n` (histograms hold one
            /// `n` µs sample), for tests that drive every row.
            #[cfg(test)]
            fn filled(n: usize) -> GenStats {
                let mut stats = GenStats::default();
                $(counters!(@fill $kind, stats.$name, n);)*
                stats
            }
        }
    };
}

counters! {
    // --- the item-set graph (§5, §6) ---
    /// Item sets created (initial or otherwise).
    nodes_created: Sum = "item sets created",
    /// `EXPAND` operations on initial item sets.
    expansions: Sum = "expansions",
    /// `RE-EXPAND` operations on dirty item sets.
    re_expansions: Sum = "re-expansions",
    /// Closures computed (one per (re-)expansion).
    closures: Sum = "closures",
    /// Calls to `ACTION` (through the lazy tables).
    action_calls: Sum = "ACTION calls",
    /// Calls to `GOTO` (through the lazy tables).
    goto_calls: Sum = "GOTO calls",
    /// Grammar modifications processed (`ADD-RULE` + `DELETE-RULE`).
    modifications: Sum = "grammar modifications",
    /// Item sets invalidated by modifications (made initial/dirty).
    invalidations: Sum = "item sets invalidated",
    /// Item sets reclaimed by reference-count garbage collection.
    nodes_collected: Sum = "collected (refcount)",
    /// Item sets reclaimed by mark-and-sweep collection.
    nodes_swept: Sum = "collected (sweep)",
    /// Mark-and-sweep passes run.
    sweeps: Sum = "sweep passes",
    /// Dense action rows built (once per node per structural change; a
    /// steady-state parse builds none).
    rows_built: Sum = "action rows built",
    // --- the serving layer ---
    /// Requests served: parses by the serving layer, requests executed by
    /// the network frontend. Zero for counters read directly off a graph.
    parses: Sum = "parses served",
    /// Grammar epochs published by the serving layer (`MODIFY`, scanner
    /// changes, GC — each builds a successor table state and publishes it
    /// without draining in-flight parses). Zero for counters read
    /// directly off a graph.
    epochs_published: Sum = "epochs published",
    /// Epochs retired: replaced as current but kept alive until their
    /// last pinned reader left.
    epochs_retired: Sum = "epochs retired",
    /// Retired epochs actually reclaimed: their item-set storage, dense
    /// rows and DFA snapshots freed when the epoch's last pin was dropped.
    epochs_reclaimed: Sum = "epochs reclaimed",
    /// Storage chunks of the persistent item-set store copied on write
    /// because they were still shared with another fork (epoch) — the
    /// observable cost of structural sharing: a `MODIFY` publication pays
    /// one of these per chunk holding an invalidated state, instead of a
    /// deep copy of the whole graph.
    chunks_cowed: Sum = "chunks copied (COW)",
    /// Lazy-DFA states carried over across lexical definition changes
    /// instead of being rebuilt from scratch (reported by the serving
    /// layer from the current epoch's scanner; zero for counters read
    /// directly off a graph or for servers without a scanner).
    dfa_states_carried: Sum = "DFA states carried",
    /// Requests served from a recycled per-thread parse context (all
    /// scratch — GSS pools, forest arena, scan buffer — reused; the warm,
    /// allocation-free path). Counted by the serving layer.
    ctx_reused: Sum = "contexts recycled",
    /// Requests that had to build a fresh parse context (first request of
    /// a thread, a nested checkout, or the one after a quarantine).
    /// Counted by the serving layer.
    ctx_fresh: Sum = "contexts built",
    /// Service-latency histogram of served requests (one sample per
    /// request in the serving layer; the network frontend records its
    /// end-to-end admit→reply latencies into its own copy).
    latency: Histogram = "latency (µs)",
    // --- the network frontend ---
    /// Requests shed with an immediate `OVERLOADED` reply because the
    /// admission queue was full.
    shed_overload: Sum = "shed (overloaded)",
    /// Requests shed with `DEADLINE_EXCEEDED` because their deadline had
    /// already passed at dequeue or at epoch-pin time.
    shed_deadline: Sum = "shed (deadline)",
    /// Requests shed with `SHUTTING_DOWN` during graceful drain.
    shed_shutdown: Sum = "shed (shutting down)",
    /// Frames rejected as malformed (bad length, unknown verb, garbage) —
    /// each also poisons exactly the connection that sent it.
    rejected_malformed: Sum = "malformed frames",
    /// Connections dropped by slow-client protection: a read or write on
    /// the socket exceeded its timeout mid-frame.
    io_timeouts: Sum = "slow-client timeouts",
    /// **High-water mark**: the deepest the admission queue ever got.
    queue_depth_high_water: Max = "queue depth (max)",
    /// **High-water mark**: the largest number of worker threads that
    /// actually ran concurrently — the *effective* parallelism.
    /// [`crate::IpgServer::parse_many`] records the worker count it really
    /// used after clamping to the request count; the network frontend
    /// records its worker-pool size.
    effective_workers: Max = "effective workers",
    // --- the scanner (mirrors of its `DfaStats`; zero without one) ---
    /// Scanner DFA state rows initialised.
    dense_rows_built: Sum = "dense rows built",
    /// ASCII bytes scanned through the byte-class table.
    dense_bytes: Sum = "dense bytes scanned",
    /// Characters swallowed by the scanner's self-transition skip loop.
    skip_loop_bytes: Sum = "skip-loop bytes",
    // --- parallel warms ---
    /// **High-water mark**: the widest worker fan-out any parallel warm
    /// ([`crate::IpgSession::expand_all_parallel`]) was asked for on this
    /// graph.
    warm_threads_used: Max = "warm threads used",
    /// Frontier batches committed by (serial or parallel) full warms: one
    /// per batch-synchronous expansion round.
    warm_batches_published: Sum = "warm batches",
    // --- document sessions ---
    /// Document edits served incrementally (bounded re-lex + GSS resume
    /// from the damaged frontier).
    reparse_incremental: Sum = "reparse incremental",
    /// Document edits that fell back to a full re-lex + re-parse (stale
    /// pinned epoch, or a session desynchronised by a scan error).
    reparse_full: Sum = "reparse full",
    /// Token records actually re-scanned by incremental edits, each a
    /// token with its leading layout folded in (a re-scanned final record
    /// of trailing layout counts too; retained and shifted records do
    /// not).
    tokens_relexed: Sum = "tokens re-lexed",
    /// GSS nodes re-created by incremental re-parses — the re-run portion
    /// of the graph (a cold parse would have built the whole graph), up to
    /// the convergence point when the re-run converged.
    states_rerun: Sum = "GSS states re-run",
    /// Incremental re-parses whose re-run converged with the recorded
    /// parse before the end of the document and kept its suffix.
    reparse_converged: Sum = "reparse converged",
    // --- residency and the registry ---
    /// **Gauge**: modeled resident bytes of the derived parser state —
    /// node chunks, published snapshot chunks, grammar rule arena and DFA
    /// row chunks — sampled from the per-chunk accounting at stats time.
    /// A registry overwrites this with its cross-tenant *deduplicated*
    /// total (shared chunks counted once).
    resident_bytes: Max = "resident bytes",
    /// **High-water mark**: the largest resident-bytes gauge observed at
    /// any sampling point (every stats read, and every registry
    /// budget-enforcement pass).
    resident_high_water: Max = "resident high water",
    /// Chunks of derived state (node chunks, snapshot chunks, DFA row
    /// chunks) discarded by registry eviction / re-lazification.
    chunks_evicted: Sum = "chunks evicted",
    /// Chunks rebuilt on demand by the lazy expander after the tenant
    /// holding them was evicted and then retouched.
    chunks_relazified: Sum = "chunks re-lazified",
    /// **Gauge**: tenants attached to the owning
    /// [`crate::GrammarRegistry`]; zero outside a registry.
    tenants_active: Max = "tenants active",
    // --- containment ---
    /// Parses cut off mid-flight because their wall-clock deadline expired
    /// (cooperative cancellation — the budget's `Deadline` axis), plus
    /// requests answered `CANCELLED` after an explicit client cancel.
    parses_cancelled: Sum = "parses cancelled",
    /// Parses cut off mid-flight by a resource cap (step fuel, GSS-pool or
    /// forest-arena byte caps) — answered `RESOURCE_EXHAUSTED` on the wire.
    parses_exhausted: Sum = "parses exhausted",
    /// Request contexts dropped instead of recycled: a budget-killed or
    /// panicking parse leaves its pools in an untrusted (possibly
    /// cap-sized) state, so the context is quarantined and the next
    /// checkout builds a fresh one.
    ctx_quarantined: Sum = "contexts quarantined",
    /// Worker-thread panics caught at the request boundary
    /// (`catch_unwind`): the request is answered `ERROR`, the context is
    /// quarantined, and the worker keeps serving.
    worker_panics: Sum = "worker panics caught",
}

/// Prints every nonzero counter, one per line, as its label padded to 22
/// columns and its value.
impl fmt::Display for GenStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for counter in self.counters().filter(|c| !c.value.is_zero()) {
            let pad = 21usize.saturating_sub(counter.label.chars().count());
            write!(f, "{}:{:pad$}", counter.label, "")?;
            match counter.value {
                CounterValue::Sum(n) | CounterValue::Max(n) => writeln!(f, "{n}")?,
                CounterValue::Histogram(h) => {
                    let (p50, p99, p999) = h.percentiles_us();
                    writeln!(f, "p50 {p50}, p99 {p99}, p999 {p999}, max {}", h.max_us())?;
                }
            }
        }
        Ok(())
    }
}

/// A snapshot of the graph's size, used to measure how much of the full
/// parse table has been generated (the §5.2 coverage numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphSize {
    /// Live item sets of any kind.
    pub total: usize,
    /// Live item sets that are complete (expanded).
    pub complete: usize,
    /// Live item sets that are initial (never expanded, or invalidated
    /// without history).
    pub initial: usize,
    /// Live item sets that are dirty (invalidated, history retained).
    pub dirty: usize,
    /// Live transitions out of complete and dirty item sets.
    pub transitions: usize,
}

impl GraphSize {
    /// Fraction of live item sets that have actually been expanded.
    pub fn expanded_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.complete as f64 / self.total as f64
        }
    }

    /// Coverage of this (lazily generated) graph relative to the state
    /// count of a fully generated automaton: the paper's "only 60 percent
    /// of the parse table had to be generated".
    pub fn coverage_of(&self, full_states: usize) -> f64 {
        if full_states == 0 {
            0.0
        } else {
            self.complete as f64 / full_states as f64
        }
    }
}

impl fmt::Display for GraphSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} item sets ({} complete, {} initial, {} dirty), {} transitions",
            self.total, self.complete, self.initial, self.dirty, self.transitions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let stats = GenStats {
            nodes_collected: 3,
            nodes_swept: 2,
            expansions: 5,
            re_expansions: 4,
            ..Default::default()
        };
        assert_eq!(stats.total_collected(), 5);
        assert_eq!(stats.total_expansions(), 9);
        let text = stats.to_string();
        assert!(text.contains("re-expansions:        4"));
        assert!(!text.contains("grammar modifications"), "zero rows are not printed");
    }

    #[test]
    fn graph_size_fractions() {
        let size = GraphSize {
            total: 10,
            complete: 6,
            initial: 3,
            dirty: 1,
            transitions: 20,
        };
        assert!((size.expanded_fraction() - 0.6).abs() < 1e-9);
        assert!((size.coverage_of(12) - 0.5).abs() < 1e-9);
        assert!(size.to_string().contains("6 complete"));
    }

    #[test]
    fn empty_sizes_do_not_divide_by_zero() {
        let size = GraphSize::default();
        assert_eq!(size.expanded_fraction(), 0.0);
        assert_eq!(size.coverage_of(0), 0.0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_bounded() {
        let mut last = 0;
        for us in 0..100_000u64 {
            let index = LatencyHistogram::bucket_index(us);
            assert!(index >= last, "bucket index regressed at {us} µs");
            assert!(index < HISTOGRAM_BUCKETS);
            // The bucket's floor never exceeds the value it holds.
            assert!(LatencyHistogram::bucket_floor(index) <= us);
            last = index;
        }
        // Absurd values saturate instead of indexing out of bounds.
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_err_low_by_at_most_a_bucket() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max_us(), 1000);
        let (p50, p99, p999) = h.percentiles_us();
        // Quarter-octave buckets: the estimate is the bucket floor, so it
        // sits within 25 % below the true quantile.
        assert!((375..=500).contains(&p50), "p50 = {p50}");
        assert!((742..=990).contains(&p99), "p99 = {p99}");
        assert!((750..=1000).contains(&p999), "p999 = {p999}");
        assert!((h.mean_us() - 500.5).abs() < 1.0);
        assert_eq!(h.quantile_us(1.0), 1000);
        assert_eq!(LatencyHistogram::default().quantile_us(0.5), 0);
    }

    #[test]
    fn merge_sums_counters_but_maxes_high_water_fields() {
        let mut a = GenStats::filled(1);
        let b = GenStats::filled(2);
        a.merge(&b);
        let (ones, twos) = (GenStats::filled(1), GenStats::filled(2));
        let rows = a.counters().zip(ones.counters().zip(twos.counters()));
        let text = a.to_string();
        for (merged, (one, two)) in rows {
            match (merged.value, one.value, two.value) {
                (CounterValue::Sum(n), _, _) => assert_eq!(n, 3, "{} sums", merged.name),
                // High-water marks and gauges are maxed, never summed:
                // merging cannot fabricate a depth nobody observed.
                (CounterValue::Max(n), _, _) => assert_eq!(n, 2, "{} maxes", merged.name),
                (
                    CounterValue::Histogram(h),
                    CounterValue::Histogram(x),
                    CounterValue::Histogram(y),
                ) => {
                    // Exact: both samples, the true global maximum.
                    let mut expected = *x;
                    expected.merge(y);
                    assert_eq!(*h, expected, "{} merges exactly", merged.name);
                    assert_eq!((h.count(), h.max_us()), (2, 2));
                }
                _ => unreachable!("rows line up"),
            }
            assert!(text.contains(&format!("{}:", merged.label)), "{} displayed", merged.name);
        }
        // Zero rows are left out of the display.
        assert_eq!(GenStats::default().to_string(), "");
    }
}
