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
/// the structure is `Copy`, so it rides inside [`GenStats`] through the
/// existing per-thread aggregation.
///
/// Merging two histograms (bucket-wise addition, max of maxima) is exact:
/// unlike a `(mean, max)` pair, no quantile information is lost when
/// per-thread histograms are folded into an aggregate — including the
/// serving layer's bounded-thread-map *overflow* aggregate.
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
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
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

/// Work counters of an item-set graph. All counters are cumulative over the
/// lifetime of the graph (they are not reset by grammar modifications).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Item sets created (initial or otherwise).
    pub nodes_created: usize,
    /// `EXPAND` operations on initial item sets.
    pub expansions: usize,
    /// `RE-EXPAND` operations on dirty item sets.
    pub re_expansions: usize,
    /// Closures computed (one per (re-)expansion).
    pub closures: usize,
    /// Calls to `ACTION` (through the lazy tables).
    pub action_calls: usize,
    /// Calls to `GOTO` (through the lazy tables).
    pub goto_calls: usize,
    /// Grammar modifications processed (`ADD-RULE` + `DELETE-RULE`).
    pub modifications: usize,
    /// Item sets invalidated by modifications (made initial/dirty).
    pub invalidations: usize,
    /// Item sets reclaimed by reference-count garbage collection.
    pub nodes_collected: usize,
    /// Item sets reclaimed by mark-and-sweep collection.
    pub nodes_swept: usize,
    /// Mark-and-sweep passes run.
    pub sweeps: usize,
    /// Dense action rows built (once per node per structural change; a
    /// steady-state parse builds none).
    pub rows_built: usize,
    /// Parses served (counted by the serving layer's per-thread
    /// aggregation; zero for counters read directly off a graph).
    pub parses: usize,
    /// Grammar epochs published by the serving layer (`MODIFY`, scanner
    /// changes, GC — each builds a successor table state and publishes it
    /// without draining in-flight parses). Zero for counters read
    /// directly off a graph.
    pub epochs_published: usize,
    /// Epochs retired: replaced as current but kept alive until their
    /// last pinned reader left.
    pub epochs_retired: usize,
    /// Retired epochs actually reclaimed (their item-set storage, dense
    /// rows and DFA snapshots freed) by the deferred sweep that runs once
    /// the epoch's last reader leaves.
    pub epochs_reclaimed: usize,
    /// Storage chunks of the persistent item-set store copied on write
    /// because they were still shared with another fork (epoch) — the
    /// observable cost of structural sharing: a `MODIFY` publication pays
    /// one of these per chunk holding an invalidated state, instead of a
    /// deep copy of the whole graph.
    pub chunks_cowed: usize,
    /// Lazy-DFA states carried over across lexical definition changes
    /// instead of being rebuilt from scratch (reported by the serving
    /// layer from the current epoch's scanner; zero for counters read
    /// directly off a graph or for servers without a scanner).
    pub dfa_states_carried: usize,
    /// Requests served from a recycled per-thread parse context (all
    /// scratch — GSS pools, forest arena, scan buffer — reused; the warm,
    /// allocation-free path). Counted by the serving layer.
    pub ctx_reused: usize,
    /// Requests that had to build a fresh parse context (first request of
    /// a thread, or a nested checkout). Counted by the serving layer.
    pub ctx_fresh: usize,
    /// Service-latency histogram of served requests (one sample per
    /// `parse*`/`recognize` in the serving layer; the network frontend
    /// records its end-to-end admit→reply latencies into its own copy).
    /// Merged exactly across threads — see [`GenStats::merge`].
    pub latency: LatencyHistogram,
    /// Requests shed with an immediate `OVERLOADED` reply because the
    /// admission queue was full. Counted by the network frontend.
    pub shed_overload: usize,
    /// Requests shed with `DEADLINE_EXCEEDED` because their deadline had
    /// already passed at dequeue or at epoch-pin time.
    pub shed_deadline: usize,
    /// Requests shed with `SHUTTING_DOWN` during graceful drain.
    pub shed_shutdown: usize,
    /// Frames rejected as malformed (bad length, unknown verb, garbage) —
    /// each also poisons exactly the connection that sent it.
    pub rejected_malformed: usize,
    /// Connections dropped by slow-client protection: a read or write on
    /// the socket exceeded its timeout mid-frame.
    pub io_timeouts: usize,
    /// **High-water mark** (max-merged, not summed): the deepest the
    /// admission queue ever got.
    pub queue_depth_high_water: usize,
    /// **High-water mark** (max-merged, not summed): the largest number of
    /// worker threads that actually ran concurrently — the *effective*
    /// parallelism. [`crate::IpgServer::parse_many`] records the worker
    /// count it really used after clamping to the request count, so
    /// callers and benches can see configured vs actual parallelism; the
    /// network frontend records its worker-pool size.
    pub effective_workers: usize,
    /// Scanner DFA state rows initialised (mirrors the scanner's
    /// `DfaStats::dense_rows_built`; zero for servers without a scanner).
    pub dense_rows_built: usize,
    /// ASCII bytes scanned through the byte-class table (mirrors
    /// `DfaStats::dense_bytes`).
    pub dense_bytes: usize,
    /// Characters swallowed by the scanner's self-transition skip loop
    /// (mirrors `DfaStats::skip_loop_bytes`).
    pub skip_loop_bytes: usize,
    /// **High-water mark** (max-merged, not summed): the widest worker
    /// fan-out any parallel warm ([`crate::IpgSession::expand_all_parallel`])
    /// was asked for on this graph.
    pub warm_threads_used: usize,
    /// Frontier batches committed by (serial or parallel) full warms: one
    /// per batch-synchronous expansion round.
    pub warm_batches_published: usize,
    /// Document edits served incrementally (bounded re-lex + GSS resume
    /// from the damaged frontier).
    pub reparse_incremental: usize,
    /// Document edits that fell back to a full re-lex + re-parse (stale
    /// pinned epoch, or a session desynchronised by a scan error).
    pub reparse_full: usize,
    /// Token records actually re-scanned by incremental edits, each a
    /// token with its leading layout folded in (a re-scanned final record
    /// of trailing layout counts too; retained and shifted records do
    /// not).
    pub tokens_relexed: usize,
    /// GSS nodes re-created by incremental re-parses — the re-run portion
    /// of the graph (a cold parse would have built the whole graph), up to
    /// the convergence point when the re-run converged.
    pub states_rerun: usize,
    /// Incremental re-parses whose re-run converged with the recorded
    /// parse before the end of the document and kept its suffix.
    pub reparse_converged: usize,
    /// **Gauge** (max-merged, not summed): modeled resident bytes of the
    /// derived parser state — node chunks, published snapshot chunks,
    /// grammar rule arena and DFA row chunks — sampled from the
    /// per-chunk accounting at stats time. A registry overwrites this
    /// with its cross-tenant *deduplicated* total (shared chunks counted
    /// once).
    pub resident_bytes: usize,
    /// **High-water mark** (max-merged): the largest `resident_bytes`
    /// observed at any sampling point (every stats read, and every
    /// registry budget-enforcement pass).
    pub resident_high_water: usize,
    /// Chunks of derived state (node chunks, snapshot chunks, DFA row
    /// chunks) discarded by registry eviction / re-lazification.
    pub chunks_evicted: usize,
    /// Chunks rebuilt on demand by the lazy expander after the tenant
    /// holding them was evicted and then retouched.
    pub chunks_relazified: usize,
    /// **Gauge** (max-merged): tenants currently attached and not evicted
    /// in the owning [`crate::GrammarRegistry`]; zero outside a registry.
    pub tenants_active: usize,
    /// Parses cut off mid-flight because their wall-clock deadline expired
    /// (cooperative cancellation — the budget's `Deadline` axis), plus
    /// requests answered `CANCELLED` after an explicit client cancel.
    pub parses_cancelled: usize,
    /// Parses cut off mid-flight by a resource cap (step fuel, GSS-pool or
    /// forest-arena byte caps) — answered `RESOURCE_EXHAUSTED` on the wire.
    pub parses_exhausted: usize,
    /// Request contexts dropped instead of recycled: a budget-killed or
    /// panicking parse leaves its pools in an untrusted (possibly
    /// cap-sized) state, so the context is quarantined and the next
    /// checkout builds a fresh one (`ctx_fresh`).
    pub ctx_quarantined: usize,
    /// Worker-thread panics caught at the request boundary
    /// (`catch_unwind`): the request is answered `ERROR`, the context is
    /// quarantined, and the worker keeps serving.
    pub worker_panics: usize,
}

impl GenStats {
    /// Total number of item sets reclaimed by any garbage collector.
    pub fn total_collected(&self) -> usize {
        self.nodes_collected + self.nodes_swept
    }

    /// Total number of expansion operations (lazy + re-expansions).
    pub fn total_expansions(&self) -> usize {
        self.expansions + self.re_expansions
    }

    /// Total requests shed without parsing (overload + deadline + drain).
    pub fn total_shed(&self) -> usize {
        self.shed_overload + self.shed_deadline + self.shed_shutdown
    }

    /// Folds `other` into `self`, field-aware and **non-lossy**: plain
    /// counters are summed, the latency histogram is merged bucket-wise
    /// (exact for every quantile), and high-water fields
    /// (`queue_depth_high_water`, `effective_workers`, the histogram's
    /// max) take the maximum — summing them would fabricate depths and
    /// thread counts nobody ever observed. Every aggregation in the
    /// serving layer (per-thread map, the bounded map's overflow
    /// aggregate, [`crate::ServerStats`] totals) goes through this one
    /// function, so the overflow path cannot silently diverge from the
    /// tracked path.
    pub fn merge(&mut self, other: &GenStats) {
        let GenStats {
            nodes_created,
            expansions,
            re_expansions,
            closures,
            action_calls,
            goto_calls,
            modifications,
            invalidations,
            nodes_collected,
            nodes_swept,
            sweeps,
            rows_built,
            parses,
            epochs_published,
            epochs_retired,
            epochs_reclaimed,
            chunks_cowed,
            dfa_states_carried,
            ctx_reused,
            ctx_fresh,
            latency,
            shed_overload,
            shed_deadline,
            shed_shutdown,
            rejected_malformed,
            io_timeouts,
            queue_depth_high_water,
            effective_workers,
            dense_rows_built,
            dense_bytes,
            skip_loop_bytes,
            warm_threads_used,
            warm_batches_published,
            reparse_incremental,
            reparse_full,
            tokens_relexed,
            states_rerun,
            reparse_converged,
            resident_bytes,
            resident_high_water,
            chunks_evicted,
            chunks_relazified,
            tenants_active,
            parses_cancelled,
            parses_exhausted,
            ctx_quarantined,
            worker_panics,
        } = other;
        self.nodes_created += nodes_created;
        self.expansions += expansions;
        self.re_expansions += re_expansions;
        self.closures += closures;
        self.action_calls += action_calls;
        self.goto_calls += goto_calls;
        self.modifications += modifications;
        self.invalidations += invalidations;
        self.nodes_collected += nodes_collected;
        self.nodes_swept += nodes_swept;
        self.sweeps += sweeps;
        self.rows_built += rows_built;
        self.parses += parses;
        self.epochs_published += epochs_published;
        self.epochs_retired += epochs_retired;
        self.epochs_reclaimed += epochs_reclaimed;
        self.chunks_cowed += chunks_cowed;
        self.dfa_states_carried += dfa_states_carried;
        self.ctx_reused += ctx_reused;
        self.ctx_fresh += ctx_fresh;
        self.latency.merge(latency);
        self.shed_overload += shed_overload;
        self.shed_deadline += shed_deadline;
        self.shed_shutdown += shed_shutdown;
        self.rejected_malformed += rejected_malformed;
        self.io_timeouts += io_timeouts;
        self.queue_depth_high_water = self.queue_depth_high_water.max(*queue_depth_high_water);
        self.effective_workers = self.effective_workers.max(*effective_workers);
        self.dense_rows_built += dense_rows_built;
        self.dense_bytes += dense_bytes;
        self.skip_loop_bytes += skip_loop_bytes;
        self.warm_threads_used = self.warm_threads_used.max(*warm_threads_used);
        self.warm_batches_published += warm_batches_published;
        self.reparse_incremental += reparse_incremental;
        self.reparse_full += reparse_full;
        self.tokens_relexed += tokens_relexed;
        self.states_rerun += states_rerun;
        self.reparse_converged += reparse_converged;
        // Residency gauges are point-in-time samples of (possibly shared)
        // state: summing per-thread copies would double-count chunks, so
        // merging keeps the largest sample.
        self.resident_bytes = self.resident_bytes.max(*resident_bytes);
        self.resident_high_water = self.resident_high_water.max(*resident_high_water);
        self.chunks_evicted += chunks_evicted;
        self.chunks_relazified += chunks_relazified;
        self.tenants_active = self.tenants_active.max(*tenants_active);
        self.parses_cancelled += parses_cancelled;
        self.parses_exhausted += parses_exhausted;
        self.ctx_quarantined += ctx_quarantined;
        self.worker_panics += worker_panics;
    }
}

impl fmt::Display for GenStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "item sets created:    {}", self.nodes_created)?;
        writeln!(f, "expansions:           {}", self.expansions)?;
        writeln!(f, "re-expansions:        {}", self.re_expansions)?;
        writeln!(f, "ACTION calls:         {}", self.action_calls)?;
        writeln!(f, "GOTO calls:           {}", self.goto_calls)?;
        writeln!(f, "grammar modifications:{}", self.modifications)?;
        writeln!(f, "item sets invalidated:{}", self.invalidations)?;
        writeln!(f, "collected (refcount): {}", self.nodes_collected)?;
        writeln!(f, "collected (sweep):    {}", self.nodes_swept)?;
        writeln!(f, "action rows built:    {}", self.rows_built)?;
        if self.parses > 0 {
            writeln!(f, "parses served:        {}", self.parses)?;
        }
        if self.epochs_published > 0 {
            writeln!(f, "epochs published:     {}", self.epochs_published)?;
            writeln!(f, "epochs retired:       {}", self.epochs_retired)?;
            writeln!(f, "epochs reclaimed:     {}", self.epochs_reclaimed)?;
        }
        if self.chunks_cowed > 0 {
            writeln!(f, "chunks copied (COW):  {}", self.chunks_cowed)?;
        }
        if self.dfa_states_carried > 0 {
            writeln!(f, "DFA states carried:   {}", self.dfa_states_carried)?;
        }
        if self.ctx_reused + self.ctx_fresh > 0 {
            writeln!(f, "contexts recycled:    {}", self.ctx_reused)?;
            writeln!(f, "contexts built:       {}", self.ctx_fresh)?;
        }
        if self.latency.count() > 0 {
            let (p50, p99, p999) = self.latency.percentiles_us();
            writeln!(
                f,
                "latency (µs):         p50 {p50}, p99 {p99}, p999 {p999}, max {}",
                self.latency.max_us()
            )?;
        }
        if self.total_shed() > 0 {
            writeln!(f, "shed (overloaded):    {}", self.shed_overload)?;
            writeln!(f, "shed (deadline):      {}", self.shed_deadline)?;
            writeln!(f, "shed (shutting down): {}", self.shed_shutdown)?;
        }
        if self.rejected_malformed > 0 {
            writeln!(f, "malformed frames:     {}", self.rejected_malformed)?;
        }
        if self.io_timeouts > 0 {
            writeln!(f, "slow-client timeouts: {}", self.io_timeouts)?;
        }
        if self.queue_depth_high_water > 0 {
            writeln!(f, "queue depth (max):    {}", self.queue_depth_high_water)?;
        }
        if self.effective_workers > 0 {
            writeln!(f, "effective workers:    {}", self.effective_workers)?;
        }
        if self.dense_rows_built > 0 {
            writeln!(f, "dense rows built:     {}", self.dense_rows_built)?;
        }
        if self.dense_bytes + self.skip_loop_bytes > 0 {
            writeln!(f, "dense bytes scanned:  {}", self.dense_bytes)?;
            writeln!(f, "skip-loop bytes:      {}", self.skip_loop_bytes)?;
        }
        if self.warm_threads_used > 0 {
            writeln!(f, "warm threads used:    {}", self.warm_threads_used)?;
        }
        if self.warm_batches_published > 0 {
            writeln!(f, "warm batches:         {}", self.warm_batches_published)?;
        }
        if self.reparse_incremental + self.reparse_full > 0 {
            writeln!(f, "reparse incremental:  {}", self.reparse_incremental)?;
            writeln!(f, "reparse full:         {}", self.reparse_full)?;
            writeln!(f, "tokens re-lexed:      {}", self.tokens_relexed)?;
            writeln!(f, "GSS states re-run:    {}", self.states_rerun)?;
            writeln!(f, "reparse converged:    {}", self.reparse_converged)?;
        }
        if self.resident_bytes > 0 {
            writeln!(f, "resident bytes:       {}", self.resident_bytes)?;
            writeln!(f, "resident high water:  {}", self.resident_high_water)?;
        }
        if self.chunks_evicted + self.chunks_relazified > 0 {
            writeln!(f, "chunks evicted:       {}", self.chunks_evicted)?;
            writeln!(f, "chunks re-lazified:   {}", self.chunks_relazified)?;
        }
        if self.parses_cancelled + self.parses_exhausted > 0 {
            writeln!(f, "parses cancelled:     {}", self.parses_cancelled)?;
            writeln!(f, "parses exhausted:     {}", self.parses_exhausted)?;
        }
        if self.ctx_quarantined + self.worker_panics > 0 {
            writeln!(f, "contexts quarantined: {}", self.ctx_quarantined)?;
            writeln!(f, "worker panics caught: {}", self.worker_panics)?;
        }
        if self.tenants_active > 0 {
            writeln!(f, "tenants active:       {}", self.tenants_active)?;
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
        let mut a = GenStats {
            parses: 3,
            action_calls: 10,
            shed_overload: 2,
            queue_depth_high_water: 7,
            effective_workers: 4,
            ..Default::default()
        };
        a.latency.record(Duration::from_micros(100));
        let mut b = GenStats {
            parses: 5,
            action_calls: 1,
            shed_deadline: 1,
            queue_depth_high_water: 3,
            effective_workers: 8,
            ..Default::default()
        };
        b.latency.record(Duration::from_micros(9_000));
        a.merge(&b);
        assert_eq!(a.parses, 8);
        assert_eq!(a.action_calls, 11);
        assert_eq!(a.shed_overload, 2);
        assert_eq!(a.shed_deadline, 1);
        assert_eq!(a.total_shed(), 3);
        // High-water marks are maxed, never summed: merging cannot
        // fabricate a queue depth or worker count nobody observed.
        assert_eq!(a.queue_depth_high_water, 7);
        assert_eq!(a.effective_workers, 8);
        // Histogram merge is exact: both samples, true global max.
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.latency.max_us(), 9_000);
        assert_eq!(a.latency.quantile_us(1.0), 9_000);
        let text = a.to_string();
        assert!(text.contains("effective workers:    8"));
        assert!(text.contains("queue depth (max):    7"));
        assert!(text.contains("shed (overloaded):    2"));
    }
}
