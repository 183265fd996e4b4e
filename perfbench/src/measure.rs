//! Measurement primitives: raw-sample percentiles, a seeded generator,
//! an allocation counter, in-memory spans and the process's peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Raw samples with exact percentiles (no bucketing: a histogram's bucket
/// edges make a percentile jump between identical runs).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// An empty sample whose buffer already holds `capacity` values' worth
    /// of resident memory, so recording up to that many moves neither the
    /// heap nor the resident set.
    pub fn touched(capacity: usize) -> Samples {
        let mut values = Vec::with_capacity(capacity);
        values.resize(capacity, 0.0);
        values.clear();
        Samples {
            values,
            sorted: false,
        }
    }

    fn clear(&mut self) {
        self.values.clear();
        self.sorted = false;
    }

    /// The `q` quantile, interpolated linearly between the two closest
    /// ranks; 0 for an empty sample.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = q.clamp(0.0, 1.0) * (self.values.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        self.values[lo] + (self.values[hi] - self.values[lo]) * (rank - lo as f64)
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }
}

/// Samples of a timed loop, cut into `windows` equal slices of its timed
/// duration. Each slice's p50, p99 and sample rate are exact over its raw
/// samples; the run reports the median over slices, so a stall of the host
/// moves one slice's figure, not the run's. Only the current slice is kept,
/// in a buffer sized and touched up front: the benchmark's own bookkeeping
/// does not grow with the program's throughput.
#[derive(Debug)]
pub struct Windowed {
    slice: Duration,
    last: usize,
    index: usize,
    current: Samples,
    p50s: Samples,
    p99s: Samples,
    counts: Samples,
    count: usize,
}

/// Samples one slice can hold before its buffer has to grow.
const SLICE_CAPACITY: usize = 1 << 16;

impl Windowed {
    pub fn new(duration: Duration, windows: usize) -> Windowed {
        let windows = windows.max(1);
        Windowed {
            slice: duration / windows as u32,
            last: windows - 1,
            index: 0,
            current: Samples::touched(SLICE_CAPACITY),
            p50s: Samples::default(),
            p99s: Samples::default(),
            counts: Samples::default(),
            count: 0,
        }
    }

    /// Records `value`, taken `at` into the loop's timed duration (samples
    /// past the end belong to the last slice).
    pub fn push(&mut self, value: f64, at: Duration) {
        let index = ((at.as_secs_f64() / self.slice.as_secs_f64()) as usize).min(self.last);
        if index != self.index {
            self.close_slice();
            self.index = index;
        }
        self.current.push(value);
        self.count += 1;
    }

    fn close_slice(&mut self) {
        if !self.current.is_empty() {
            self.counts.push(self.current.len() as f64);
            self.p50s.push(self.current.p50());
            self.p99s.push(self.current.p99());
            self.current.clear();
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `(p50, p99)`: the medians over slices of each slice's percentile.
    pub fn percentiles(&mut self) -> (f64, f64) {
        self.close_slice();
        (self.p50s.p50(), self.p99s.p50())
    }

    /// Samples per second: the median over slices.
    pub fn rate(&mut self) -> f64 {
        self.close_slice();
        self.counts.p50() / self.slice.as_secs_f64()
    }
}

/// Microseconds of a duration, with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// SplitMix64: small, seedable, and identical on every host.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F1B6)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded stream of values drawn in shuffled blocks that each hold every
/// stratum exactly once: the seed decides the order, while every run sees
/// nearly the same mix. That keeps percentiles of a mixed workload from
/// moving with the luck of the draw.
#[derive(Debug)]
pub struct Strata {
    rng: Rng,
    strata: usize,
    block: Vec<usize>,
}

impl Strata {
    pub fn new(seed: u64, strata: usize) -> Strata {
        Strata {
            rng: Rng::new(seed),
            strata,
            block: Vec::new(),
        }
    }

    pub fn next_stratum(&mut self) -> usize {
        if self.block.is_empty() {
            self.block = (0..self.strata).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }
}

/// Counts heap allocations once `count_allocations` has been called (the
/// traced run only): a process-wide total plus a per-thread tally, so a
/// client thread can subtract its own allocations from the total. Until
/// then every allocation pays one relaxed load and nothing else, so the
/// untraced run's latencies do not include the counting.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Starts counting allocations, for the rest of the process.
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged; counting touches only an atomic and a const-
// initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: as above; `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(process-wide, calling thread)` allocation counts so far (both 0 unless
/// counting was started).
pub fn allocations() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        THREAD_ALLOCATIONS.with(Cell::get),
    )
}

/// One recorded span: a call into a layer, timed by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Spans kept in memory for the whole run and written out at its end.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a span and returns its id (for children to name as parent).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let result = f();
        let id = self.record(name, request, parent, start, Instant::now());
        (result, id)
    }

    /// The request id span `id` belongs to.
    pub fn request_of(&self, id: usize) -> u64 {
        self.spans[id].request
    }

    /// Duration of span `id` in nanoseconds.
    pub fn span_ns(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        (span.end - span.start).as_secs_f64() * 1e9
    }

    /// Durations and self times (µs) of the spans called `name`; with
    /// `decomposed`, only of those that have children. A self time is the
    /// span's duration minus its children's, never below zero. Children are
    /// linked by `parent`, not by time, because the benchmark replays a
    /// request's layer calls after the request itself.
    pub fn times(&self, name: &str, decomposed: bool) -> (Samples, Samples) {
        let mut children: HashMap<usize, f64> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += us(span.end - span.start);
            }
        }
        let (mut total, mut own) = (Samples::default(), Samples::default());
        for (id, span) in self.spans.iter().enumerate() {
            let child = children.get(&id).copied();
            if span.name != name || (decomposed && child.is_none()) {
                continue;
            }
            let duration = us(span.end - span.start);
            total.push(duration);
            own.push((duration - child.unwrap_or(0.0)).max(0.0));
        }
        (total, own)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name,
                span.request,
                (span.start - self.origin).as_nanos(),
                (span.end - self.origin).as_nanos(),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn windowed_percentile_ignores_stalled_windows() {
        let mut w = Windowed::new(Duration::from_secs(10), 10);
        for i in 0..100u64 {
            let value = if (40..60).contains(&i) { 1000.0 } else { 1.0 };
            w.push(value, Duration::from_millis(i * 100 + 50));
        }
        assert_eq!(w.count(), 100);
        assert_eq!(w.percentiles(), (1.0, 1.0));
        assert_eq!(w.rate(), 10.0);
    }

    #[test]
    fn late_samples_fall_into_the_last_window() {
        let mut w = Windowed::new(Duration::from_secs(2), 2);
        w.push(1.0, Duration::from_millis(500));
        w.push(3.0, Duration::from_millis(1500));
        w.push(5.0, Duration::from_secs(9));
        // Slices [1] and [3, 5]: p50s 1 and 4, rates 1/s and 2/s.
        assert_eq!(w.percentiles().0, 2.5);
        assert_eq!(w.rate(), 1.5);
    }

    #[test]
    fn strata_cover_every_stratum_per_block() {
        let mut strata = Strata::new(7, 4);
        let mut seen: Vec<usize> = (0..4).map(|_| strata.next_stratum()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::new();
        let t0 = Instant::now();
        let root = trace.record("a", 1, None, t0, t0 + Duration::from_micros(10));
        trace.record("b", 1, Some(root), t0, t0 + Duration::from_micros(4));
        let (total, mut own) = trace.times("a", true);
        assert_eq!(total.len(), 1);
        assert!((own.p50() - 6.0).abs() < 1e-9);
        assert!(trace.times("b", true).0.is_empty());
    }
}
