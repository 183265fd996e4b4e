//! Lazy subset construction: the scanner-generator analogue of the lazy
//! parser generator.
//!
//! The companion report \[HKR87a\] applies the same laziness to lexical
//! scanners (ISG): instead of determinising the NFA up front, DFA states
//! (sets of NFA states) and their transitions are created the first time
//! the scanner needs them and memoised for later use. Scanning text that
//! exercises only part of the lexical syntax therefore only ever builds
//! that part of the DFA — and after a change to the token definitions, the
//! DFA cache is simply discarded while the (cheap) NFA is rebuilt, so new
//! DFA states again appear by need.
//!
//! ## Shared scanning
//!
//! Like the item-set graph, the lazy DFA follows the read/expand split:
//! [`LazyDfa::step`] and [`LazyDfa::longest_match`] take `&self`, so any
//! number of threads can scan against one DFA at the same time — and like
//! the parser's `ACTION`/`GOTO`, the hot path is served from **pinned
//! snapshots**: the writer publishes an immutable [`DfaSnapshot`]
//! (`Arc`-shared) whenever it materialises a state or transition, a
//! scanner pins one snapshot per `tokenize` call, and every step is served
//! from immutable data with no locks or atomics at all. Only a miss (one
//! subset-construction step) takes the writer's lock, republishes, and
//! refreshes the pin.
//!
//! ## Scanning UTF-8 in place
//!
//! A scan walks the bytes of the `&str` it is given, and every position it
//! takes or returns — match lengths, examined extents — is a byte offset
//! into that text. Each published snapshot state carries two views of the
//! same memoised transitions:
//!
//! * **Dense byte rows** — a `state × 256` table indexed by the raw byte,
//!   so ASCII source text is a single array load per byte. Only ASCII
//!   entries are ever filled: a byte `≥ 0x80` always reads "unknown". A
//!   bitmask of the bytes that transition a state back to itself
//!   additionally powers a memchr-style **skip loop**: whitespace,
//!   identifier tails and literal bodies are swallowed as whole runs, with
//!   the longest-match candidate updated once per run instead of once per
//!   byte.
//! * **The lazy `char` map** — the path for non-ASCII characters and for
//!   any ASCII byte whose transition has not been materialised yet (a
//!   dense entry of "unknown" means exactly "absent from the map"). At a
//!   non-ASCII lead byte the scanner decodes that one `char`, steps it
//!   through the map and advances by its UTF-8 width.
//!
//! The dense rows are a *cache of the cache*: they are derived from the
//! memoised map whenever a snapshot state is (re)published, so laziness is
//! untouched — unknown entries still funnel into the one-step
//! subset-construction writer, which republishes the touched state with a
//! refreshed row. Definition changes keep the selective carry-over: states
//! whose published view survives an edit keep their dense rows verbatim
//! (they share the same per-state `Arc`), and only invalidated states are
//! re-derived — and re-densified — by need.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::nfa::{Nfa, TokenId};
use crate::regex::Regex;

/// Work counters of a lazy DFA; the interesting quantity is how few states
/// and transitions are materialised compared to the full subset
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DfaStats {
    /// DFA states materialised so far.
    pub states: usize,
    /// Distinct `(state, character)` transitions memoised so far.
    pub transitions: usize,
    /// Transition-cache hits during scanning.
    pub cache_hits: usize,
    /// Transition-cache misses (each one ran a subset-construction step).
    pub cache_misses: usize,
    /// Materialised DFA states carried over across token-definition
    /// changes instead of being discarded and re-derived (cumulative over
    /// all [`LazyDfa::add_token`] / [`LazyDfa::remove_token`] calls).
    pub carried_over: usize,
    /// Materialised DFA states invalidated by token-definition changes
    /// (their NFA sets intersected a changed fragment, or they were the
    /// start state, whose closure every definition change affects).
    pub invalidated: usize,
    /// Dense `state × 256` byte rows built while publishing snapshot
    /// states (one per snapshot-state construction; carried-over states
    /// keep their row and are not recounted).
    pub dense_rows_built: usize,
    /// Bytes consumed through the dense byte-row fast path (single
    /// array-indexed steps).
    pub dense_bytes: usize,
    /// Bytes consumed by the self-transition skip loop (whitespace /
    /// identifier / literal runs swallowed without per-byte state
    /// re-dispatch).
    pub skip_loop_bytes: usize,
}

#[derive(Clone, Debug)]
struct LazyDfaState {
    /// The NFA states this DFA state represents (sorted).
    nfa_states: Vec<usize>,
    /// Memoised transitions, per character actually encountered.
    transitions: HashMap<char, Option<usize>>,
    /// Highest-priority token accepted in this state.
    accept: Option<TokenId>,
    /// `true` once a definition change invalidated this state. Dead slots
    /// are never stepped into again (transitions of carried-over states
    /// cannot target them — see [`LazyDfa::remove_token`]); they linger as
    /// garbage until the owner rebuilds.
    dead: bool,
}

/// The lock-guarded, lazily materialised part of the DFA.
#[derive(Clone, Debug)]
struct DfaCache {
    states: Vec<LazyDfaState>,
    index: HashMap<Vec<usize>, usize>,
    /// Counters updated under the write lock (misses, states,
    /// transitions); cache hits are counted in the atomic outside.
    stats: DfaStats,
    /// Dead state slots (see `LazyDfaState::dead`).
    garbage: usize,
}

/// Dense byte-row encoding: `0` = not yet materialised (fall through to
/// the miss path), `1` = the dead state, `n ≥ 2` = transition to DFA state
/// `n - 2`.
const DENSE_UNKNOWN: u32 = 0;
const DENSE_DEAD: u32 = 1;

/// The published read-view of one DFA state: its memoised transitions and
/// accept token, immutable and `Arc`-shared between the cache and any
/// number of pinned snapshots.
///
/// Alongside the `char`-keyed map, every snapshot state carries a **dense
/// byte row**: a `256`-entry table indexed directly by the text's raw
/// byte, so an ASCII step is one array load instead of a hash-map probe.
/// The row is a dense *cache of the map* — entry `0` means "not memoised
/// yet", exactly the map's missing-key case — so laziness is preserved:
/// unknown bytes still funnel into the subset-construction miss path,
/// which republishes this state with a refreshed row. Only ASCII entries
/// are filled; a byte `≥ 0x80` is part of a multi-byte character, which
/// the map serves. A bitmask of the bytes that transition back to this
/// same state additionally powers the skip loop in
/// [`LazyDfa::longest_match_pinned`].
#[derive(Debug)]
struct SnapshotState {
    /// Dense byte transitions, filled for ASCII bytes only (see
    /// [`DENSE_UNKNOWN`] / [`DENSE_DEAD`]); non-ASCII characters use the
    /// `transitions` map.
    dense: Box<[u32; 256]>,
    /// Bitmask (4 × 64 bits) of the bytes whose dense transition loops
    /// back to this state — the self-transition runs the skip loop eats.
    self_mask: [u64; 4],
    /// Memoised transitions (`None` = the dead state). A character absent
    /// from the map has simply not been stepped on yet — a *miss*, not a
    /// dead transition.
    transitions: HashMap<char, Option<usize>>,
    /// Highest-priority token accepted in this state.
    accept: Option<TokenId>,
}

impl SnapshotState {
    /// Builds the published view of state `id`, materialising its dense
    /// byte row and self-transition mask from the memoised transitions.
    fn build(id: usize, transitions: &HashMap<char, Option<usize>>, accept: Option<TokenId>) -> Self {
        let mut dense = Box::new([DENSE_UNKNOWN; 256]);
        let mut self_mask = [0u64; 4];
        for (&c, &target) in transitions {
            if c.is_ascii() {
                let b = c as u32;
                dense[b as usize] = match target {
                    None => DENSE_DEAD,
                    Some(next) => next as u32 + 2,
                };
                if target == Some(id) {
                    self_mask[(b >> 6) as usize] |= 1u64 << (b & 63);
                }
            }
        }
        SnapshotState {
            dense,
            self_mask,
            transitions: transitions.clone(),
            accept,
        }
    }

    /// Whether byte `b` self-transitions here (never for `b ≥ 0x80`).
    #[inline]
    fn self_loops(&self, b: u8) -> bool {
        self.self_mask[usize::from(b >> 6)] & (1u64 << (b & 63)) != 0
    }

    /// Modeled resident bytes of this published state: its `Arc`
    /// allocation, the dense 256-entry byte row, and the memoised `char`
    /// map (per-entry constant folding in the hash-table overhead). Like
    /// the parser-side accounting, the model is self-consistent rather
    /// than allocator-exact.
    fn bytes(&self) -> usize {
        16 // Arc header (strong + weak counts)
            + std::mem::size_of::<SnapshotState>()
            + 256 * std::mem::size_of::<u32>()
            + self.transitions.len()
                * (std::mem::size_of::<(char, Option<usize>)>() + 16)
    }
}

/// An immutable snapshot of every materialised DFA state — the scanner
/// analogue of the parser's published table snapshot. A reader pins one
/// `Arc<DfaSnapshot>` per `tokenize` call and serves every per-character
/// step from it without locking; misses funnel into the cache's writer,
/// which republishes, and the reader refreshes its pin.
///
/// Pinned reads stay sound because the materialised part of a DFA only
/// ever *grows*: a definition change does not mutate the cache, it
/// replaces the whole [`LazyDfa`] (the scanner rebuilds), so a pinned
/// snapshot can be stale only in the sense of missing entries — never in
/// the sense of wrong ones.
#[derive(Debug, Default)]
pub struct DfaSnapshot {
    states: Vec<Arc<SnapshotState>>,
}

impl DfaSnapshot {
    /// Number of DFA states visible in this snapshot.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// `(storage address, modeled bytes)` of every published state.
    /// Scanners that share carried-over states across epochs report the
    /// *same* address for them, so a registry can sum resident bytes
    /// deduplicated by pointer identity.
    pub fn state_accounting(&self) -> Vec<(usize, usize)> {
        self.states
            .iter()
            .map(|s| (Arc::as_ptr(s) as usize, s.bytes()))
            .collect()
    }

    /// Total modeled resident bytes of this snapshot's states.
    pub fn resident_bytes(&self) -> usize {
        self.states.iter().map(|s| s.bytes()).sum()
    }
}

/// A lazily determinised DFA over an [`Nfa`], shareable across threads.
#[derive(Debug)]
pub struct LazyDfa {
    nfa: Nfa,
    cache: RwLock<DfaCache>,
    /// The current published snapshot; replaced (copy-on-write over the
    /// per-state `Arc`s) on every cache miss.
    published: RwLock<Arc<DfaSnapshot>>,
    /// Cache hits are flushed here once per `longest_match`/`step` call
    /// (not per character), so the pinned hot path touches no atomics.
    cache_hits: AtomicUsize,
    /// Characters consumed through the dense byte rows; flushed once per
    /// `longest_match` call like `cache_hits`.
    dense_bytes: AtomicUsize,
    /// Characters consumed by the self-transition skip loop; flushed once
    /// per `longest_match` call like `cache_hits`.
    skip_loop_bytes: AtomicUsize,
    /// Measurement knob: when set, `longest_match_pinned` ignores the
    /// dense rows and runs the lazy `char`-map path for every character,
    /// so benches can report the dense speedup on identical hardware.
    dense_disabled: AtomicBool,
}

impl Clone for LazyDfa {
    fn clone(&self) -> Self {
        let mut cache = self.cache.read().unwrap().clone();
        let published = Self::snapshot_of(&mut cache);
        LazyDfa {
            nfa: self.nfa.clone(),
            cache: RwLock::new(cache),
            published: RwLock::new(published),
            cache_hits: AtomicUsize::new(self.cache_hits.load(Ordering::Relaxed)),
            dense_bytes: AtomicUsize::new(self.dense_bytes.load(Ordering::Relaxed)),
            skip_loop_bytes: AtomicUsize::new(self.skip_loop_bytes.load(Ordering::Relaxed)),
            dense_disabled: AtomicBool::new(self.dense_disabled.load(Ordering::Relaxed)),
        }
    }
}

impl LazyDfa {
    /// Wraps an NFA; only the start DFA state is created.
    pub fn new(nfa: Nfa) -> Self {
        let mut cache = DfaCache {
            states: Vec::new(),
            index: HashMap::new(),
            stats: DfaStats::default(),
            garbage: 0,
        };
        let start_set = nfa.epsilon_closure(&[nfa.start()]);
        Self::intern(&nfa, &mut cache, start_set);
        let published = Self::snapshot_of(&mut cache);
        LazyDfa {
            nfa,
            cache: RwLock::new(cache),
            published: RwLock::new(published),
            cache_hits: AtomicUsize::new(0),
            dense_bytes: AtomicUsize::new(0),
            skip_loop_bytes: AtomicUsize::new(0),
            dense_disabled: AtomicBool::new(false),
        }
    }

    /// Builds a full published snapshot of a cache (used at construction
    /// and by `Clone`; misses update the current snapshot incrementally).
    fn snapshot_of(cache: &mut DfaCache) -> Arc<DfaSnapshot> {
        cache.stats.dense_rows_built += cache.states.len();
        Arc::new(DfaSnapshot {
            states: cache
                .states
                .iter()
                .enumerate()
                .map(|(i, s)| Arc::new(SnapshotState::build(i, &s.transitions, s.accept)))
                .collect(),
        })
    }

    /// The current published snapshot. Pin one per scan and serve every
    /// per-character step from it; refresh on a miss (see
    /// [`LazyDfa::longest_match_pinned`]).
    pub fn snapshot(&self) -> Arc<DfaSnapshot> {
        self.published.read().unwrap().clone()
    }

    /// Republishes the snapshot after a miss materialised new entries:
    /// copy the per-state `Arc` vector, append any newly interned states,
    /// and replace the one state whose transition map grew. Called with
    /// the cache write lock held, so publications are serialized.
    fn republish_locked(&self, cache: &mut DfaCache, touched: usize) {
        let mut published = self.published.write().unwrap();
        let mut states = published.states.clone();
        let appended = cache.states.len() - states.len();
        for (i, state) in cache.states.iter().enumerate().skip(states.len()) {
            states.push(Arc::new(SnapshotState::build(i, &state.transitions, state.accept)));
        }
        states[touched] = Arc::new(SnapshotState::build(
            touched,
            &cache.states[touched].transitions,
            cache.states[touched].accept,
        ));
        cache.stats.dense_rows_built += appended + 1;
        *published = Arc::new(DfaSnapshot { states });
    }

    // ------------------------------------------------------------------
    // Incremental definition changes (DFA carry-over)
    // ------------------------------------------------------------------
    //
    // The ISG of the paper discards the whole DFA cache on a definition
    // change and re-materialises by need. Here the change is *selective*,
    // mirroring the parser's §6 invalidation: fragments of different
    // tokens never share NFA states (only the global start has epsilon
    // edges into fragment entries), so a DFA state whose NFA set is
    // disjoint from the changed fragment — and which is not the start
    // state, whose closure every change affects — behaves identically on
    // every character and keeps its memoised transitions. Its targets are
    // equally disjoint, so carried-over transitions can never lead into an
    // invalidated slot. This implementation memoises transitions per
    // character rather than per character class, so the class partition is
    // implicit; the rebuild fallback below plays the role of "the
    // partition itself changed" — when removals have turned too much of
    // the NFA into garbage, the owner recompiles from scratch.

    /// Adds a token definition to the live DFA. Only the start state is
    /// re-derived (its closure gains the new fragment's entry); every
    /// other materialised state is carried over. Returns the new token id.
    pub fn add_token(&mut self, regex: &Regex) -> TokenId {
        let id = self.nfa.add_token(regex);
        let cache = self.cache.get_mut().unwrap();
        let carried = cache.states.len() - 1 - cache.garbage;
        cache.stats.carried_over += carried;
        cache.stats.invalidated += 1;
        Self::reset_start(&self.nfa, cache);
        self.republish_after_edit(&[0]);
        id
    }

    /// Removes a token definition from the live DFA. Invalidates exactly
    /// the materialised states whose NFA sets intersect the removed
    /// fragment (plus the start state); everything else is carried over.
    /// Returns `true` if the token was active.
    pub fn remove_token(&mut self, id: TokenId) -> bool {
        // Unknown or already-removed ids answer `false`, they don't panic:
        // a stale id is an expected input after a compacting rebuild.
        if !self.nfa.is_token_active(id) {
            return false;
        }
        let range = self.nfa.fragment_range(id);
        if !self.nfa.remove_token(id) {
            return false;
        }
        let cache = self.cache.get_mut().unwrap();
        let mut touched: Vec<usize> = vec![0];
        for (i, state) in cache.states.iter().enumerate().skip(1) {
            if state.dead {
                continue;
            }
            // `nfa_states` is sorted: binary-search the fragment bounds.
            let from = state.nfa_states.partition_point(|&s| s < range.start);
            if state.nfa_states.get(from).is_some_and(|&s| s < range.end) {
                touched.push(i);
            }
        }
        let live_before = cache.states.len() - cache.garbage;
        for &i in touched.iter().skip(1) {
            let state = &mut cache.states[i];
            if cache.index.get(&state.nfa_states) == Some(&i) {
                cache.index.remove(&state.nfa_states);
            }
            state.nfa_states = Vec::new();
            state.transitions = HashMap::new();
            state.accept = None;
            state.dead = true;
            cache.garbage += 1;
        }
        cache.stats.carried_over += live_before - touched.len();
        cache.stats.invalidated += touched.len();
        Self::reset_start(&self.nfa, cache);
        self.republish_after_edit(&touched);
        true
    }

    /// Re-derives the start DFA state (id 0) from the current NFA: its
    /// epsilon closure is the one set every definition change affects.
    fn reset_start(nfa: &Nfa, cache: &mut DfaCache) {
        let old = std::mem::take(&mut cache.states[0].nfa_states);
        if cache.index.get(&old) == Some(&0) {
            cache.index.remove(&old);
        }
        let closure = nfa.epsilon_closure(&[nfa.start()]);
        cache.states[0] = LazyDfaState {
            nfa_states: closure.clone(),
            transitions: HashMap::new(),
            accept: nfa.accepting_token(&closure),
            dead: false,
        };
        // The closure contains the global start state, which no other DFA
        // state's set can, so this cannot collide with a live entry.
        cache.index.insert(closure, 0);
    }

    /// Rebuilds the published snapshot after a definition change, reusing
    /// the per-state `Arc`s of every carried-over state and re-deriving
    /// only the touched ones.
    fn republish_after_edit(&mut self, touched: &[usize]) {
        let cache = self.cache.get_mut().unwrap();
        let published = self.published.get_mut().unwrap();
        let mut states = Vec::with_capacity(cache.states.len());
        for (i, state) in cache.states.iter().enumerate() {
            match published.states.get(i) {
                // Carried-over states keep their dense rows (and the rest
                // of their published view) — only touched ones re-derive.
                Some(prev) if !touched.contains(&i) => states.push(prev.clone()),
                _ => {
                    cache.stats.dense_rows_built += 1;
                    states.push(Arc::new(SnapshotState::build(i, &state.transitions, state.accept)));
                }
            }
        }
        *published = Arc::new(DfaSnapshot { states });
    }

    /// Fraction of materialised DFA states (and underlying NFA states)
    /// that definition removals have turned into garbage. Owners rebuild
    /// from the active definitions when this gets large.
    pub fn garbage_fraction(&self) -> f64 {
        let cache = self.cache.read().unwrap();
        let dfa_fraction = if cache.states.is_empty() {
            0.0
        } else {
            cache.garbage as f64 / cache.states.len() as f64
        };
        dfa_fraction.max(self.nfa.dead_fraction())
    }

    /// The underlying NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// Work counters.
    pub fn stats(&self) -> DfaStats {
        let mut stats = self.cache.read().unwrap().stats;
        stats.cache_hits += self.cache_hits.load(Ordering::Relaxed);
        stats.dense_bytes += self.dense_bytes.load(Ordering::Relaxed);
        stats.skip_loop_bytes += self.skip_loop_bytes.load(Ordering::Relaxed);
        stats
    }

    /// Measurement knob: disable (or re-enable) the dense byte-row fast
    /// path. With it off, every character goes through the lazy `char`-map
    /// path, so benches can measure the dense speedup on one host.
    pub fn set_dense_scanning(&self, enabled: bool) {
        self.dense_disabled.store(!enabled, Ordering::Relaxed);
    }

    /// Number of DFA states materialised so far.
    pub fn num_states(&self) -> usize {
        self.cache.read().unwrap().states.len()
    }

    fn intern(nfa: &Nfa, cache: &mut DfaCache, nfa_states: Vec<usize>) -> usize {
        if let Some(&id) = cache.index.get(&nfa_states) {
            return id;
        }
        let accept = nfa.accepting_token(&nfa_states);
        let id = cache.states.len();
        cache.index.insert(nfa_states.clone(), id);
        cache.states.push(LazyDfaState {
            nfa_states,
            transitions: HashMap::new(),
            accept,
            dead: false,
        });
        cache.stats.states += 1;
        id
    }

    /// The miss path: run one subset-construction step under the write
    /// lock, memoise it, republish the snapshot, and return the target
    /// state together with its accept token.
    fn materialise_step(&self, state: usize, c: char) -> Option<(usize, Option<TokenId>)> {
        let mut cache = self.cache.write().unwrap();
        // Double-check: another thread may have filled the entry (and
        // republished) while we were waiting for the write lock.
        if let Some(&cached) = cache.states[state].transitions.get(&c) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return cached.map(|next| (next, cache.states[next].accept));
        }
        cache.stats.cache_misses += 1;
        let next_set = self.nfa.step(&cache.states[state].nfa_states, c);
        let result = if next_set.is_empty() {
            None
        } else {
            Some(Self::intern(&self.nfa, &mut cache, next_set))
        };
        cache.states[state].transitions.insert(c, result);
        cache.stats.transitions += 1;
        self.republish_locked(&mut cache, state);
        result.map(|next| (next, cache.states[next].accept))
    }

    /// The transition from DFA state `state` on character `c`, together
    /// with the token accepted in the *target* state, served from the
    /// caller's pinned snapshot when memoised (no locks), computed and
    /// memoised through the writer otherwise (the pin is refreshed).
    fn step_with_accept_pinned(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        hits: &mut usize,
        state: usize,
        c: char,
    ) -> Option<(usize, Option<TokenId>)> {
        if let Some(entry) = pin.states.get(state) {
            if let Some(&cached) = entry.transitions.get(&c) {
                *hits += 1;
                return cached.map(|next| (next, pin.states[next].accept));
            }
        }
        let stepped = self.materialise_step(state, c);
        *pin = self.snapshot();
        stepped
    }

    /// The transition from DFA state `state` on character `c`, computing
    /// and memoising it if necessary. `None` is the dead state. Pins a
    /// fresh snapshot per call; scanners stepping many characters should
    /// hold their own pin and use [`LazyDfa::longest_match_pinned`].
    pub fn step(&self, state: usize, c: char) -> Option<usize> {
        let mut pin = self.snapshot();
        let mut hits = 0usize;
        let result = self
            .step_with_accept_pinned(&mut pin, &mut hits, state, c)
            .map(|(next, _)| next);
        if hits > 0 {
            self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        result
    }

    /// The token accepted in `state`, if any.
    pub fn accept(&self, state: usize) -> Option<TokenId> {
        self.cache.read().unwrap().states[state].accept
    }

    /// The longest prefix of `input[start..]` that matches a token, as its
    /// length in bytes with the token id — served from the caller's pinned
    /// snapshot. `start` must be a char boundary of `input`. ASCII bytes
    /// step through the dense byte rows (one array load), with
    /// self-transition runs (whitespace, identifier tails, literal bodies)
    /// swallowed by a mask-test skip loop that re-derives `best` once per
    /// run instead of once per byte. A non-ASCII character, and an ASCII
    /// byte whose dense entry is not filled yet, takes the lazy `char`-map
    /// path. Every step against already-materialised entries is a plain
    /// read of immutable data: no locks, no atomics (counters are tallied
    /// locally and flushed once on return). A miss takes the writer,
    /// republishes and refreshes `pin` in place, so the caller's next
    /// token starts from the enriched snapshot.
    pub fn longest_match_pinned(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        input: &str,
        start: usize,
    ) -> Option<(usize, TokenId)> {
        self.longest_match_pinned_examined(pin, input, start).0
    }

    /// [`LazyDfa::longest_match_pinned`] plus the *examined extent*: the
    /// second component is one past the byte that stopped the scan —
    /// `input.len() + 1` when the match was terminated by running out of
    /// input (an end-sensitive match: text appended at the end can change
    /// it). When a multi-byte character stops the scan, the extent covers
    /// its first byte, so an edit at a char boundary that touches anything
    /// the DFA read starts before the extent. Incremental re-lexing uses the
    /// extent to decide which earlier matches an edit can influence.
    pub fn longest_match_pinned_examined(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        input: &str,
        start: usize,
    ) -> (Option<(usize, TokenId)>, usize) {
        let dense_enabled = !self.dense_disabled.load(Ordering::Relaxed);
        let bytes = input.as_bytes();
        let mut state = 0usize;
        let mut hits = 0usize;
        let mut dense_bytes = 0usize;
        let mut skip_bytes = 0usize;
        let mut best = pin
            .states
            .first()
            .and_then(|s| s.accept)
            .map(|t| (0usize, t));
        let mut pos = start;
        while let Some(&b) = bytes.get(pos) {
            let mut code = DENSE_UNKNOWN;
            if dense_enabled {
                if let Some(entry) = pin.states.get(state) {
                    if entry.self_loops(b) {
                        // Skip loop: the state does not change across the
                        // run, so `best` needs one update at the end, not
                        // one per byte.
                        let run_start = pos;
                        pos += 1;
                        while bytes.get(pos).is_some_and(|&b2| entry.self_loops(b2)) {
                            pos += 1;
                        }
                        let run = pos - run_start;
                        skip_bytes += run;
                        hits += run;
                        if let Some(t) = entry.accept {
                            best = Some((pos - start, t));
                        }
                        continue;
                    }
                    code = entry.dense[usize::from(b)];
                }
            }
            if code >= 2 {
                state = (code - 2) as usize;
                pos += 1;
                dense_bytes += 1;
                hits += 1;
                if let Some(t) = pin.states[state].accept {
                    best = Some((pos - start, t));
                }
                continue;
            }
            if code == DENSE_DEAD {
                break;
            }
            // DENSE_UNKNOWN: a non-ASCII character, the dense path
            // disabled, or a genuinely unmaterialised byte — the lazy
            // fallback resolves all three (and only the last one is a
            // cache miss).
            let c = if b.is_ascii() {
                char::from(b)
            } else {
                input[pos..].chars().next().expect("a char starts at a scan position")
            };
            match self.step_with_accept_pinned(pin, &mut hits, state, c) {
                Some((next, accept)) => {
                    state = next;
                    pos += c.len_utf8();
                    if let Some(t) = accept {
                        best = Some((pos - start, t));
                    }
                }
                None => break,
            }
        }
        if hits > 0 {
            self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if dense_bytes > 0 {
            self.dense_bytes.fetch_add(dense_bytes, Ordering::Relaxed);
        }
        if skip_bytes > 0 {
            self.skip_loop_bytes.fetch_add(skip_bytes, Ordering::Relaxed);
        }
        // At loop exit `pos` indexes the first byte of the character that
        // killed the scan (dead transition) or equals the input length (ran
        // out of text), so `pos + 1` uniformly covers everything read —
        // including the virtual end-of-input position.
        (best, pos + 1)
    }

    /// The longest prefix of `input[start..]` that matches a token, as its
    /// length in bytes with the token id. Pins a fresh snapshot per call;
    /// see [`LazyDfa::longest_match_pinned`] for the hot-loop form.
    pub fn longest_match(&self, input: &str, start: usize) -> Option<(usize, TokenId)> {
        let mut pin = self.snapshot();
        self.longest_match_pinned(&mut pin, input, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn sample_dfa() -> LazyDfa {
        let ident = Regex::parse("[a-zA-Z] [a-zA-Z0-9_]*").unwrap();
        let number = Regex::parse("[0-9]+").unwrap();
        let kw_if = Regex::literal("if");
        LazyDfa::new(Nfa::build(&[kw_if, ident, number]))
    }

    #[test]
    fn starts_with_a_single_state() {
        let dfa = sample_dfa();
        assert_eq!(dfa.num_states(), 1);
        assert_eq!(dfa.stats().transitions, 0);
    }

    #[test]
    fn matches_agree_with_the_nfa_reference() {
        let dfa = sample_dfa();
        for text in ["if", "iffy", "x1_y", "42", "007 agent", "+nope", ""] {
            assert_eq!(
                dfa.longest_match(text, 0),
                dfa.nfa().clone().longest_match(&chars(text)),
                "input `{text}`"
            );
        }
    }

    #[test]
    fn states_and_transitions_materialise_on_demand() {
        let dfa = sample_dfa();
        dfa.longest_match("abc", 0);
        let after_ident = dfa.num_states();
        assert!(after_ident >= 2);
        let transitions_after_ident = dfa.stats().transitions;
        // Scanning digits needs new states/transitions...
        dfa.longest_match("123", 0);
        assert!(dfa.num_states() > 0);
        assert!(dfa.stats().transitions > transitions_after_ident);
        // ...but re-scanning the same kind of text hits the cache.
        let misses = dfa.stats().cache_misses;
        dfa.longest_match("abc", 0);
        assert_eq!(dfa.stats().cache_misses, misses);
        assert!(dfa.stats().cache_hits > 0);
    }

    #[test]
    fn longest_match_respects_start_offset() {
        let dfa = sample_dfa();
        let input = "xy 42";
        assert_eq!(dfa.longest_match(input, 3), Some((2, 2)));
        assert_eq!(dfa.longest_match(input, 2), None); // space matches nothing
    }

    #[test]
    fn keyword_beats_identifier_on_equal_length() {
        let dfa = sample_dfa();
        assert_eq!(dfa.longest_match("if(", 0), Some((2, 0)));
        assert_eq!(dfa.longest_match("ifx", 0), Some((3, 1)));
    }

    #[test]
    fn pinned_snapshots_serve_stale_reads_and_refresh_on_miss() {
        let dfa = sample_dfa();
        let mut pin = dfa.snapshot();
        assert_eq!(pin.num_states(), 1);
        // Someone else expands the DFA; the pin is now stale but still
        // answers (its entries can only be missing, never wrong).
        dfa.longest_match("4281", 0);
        assert!(dfa.num_states() > pin.num_states());
        // A miss through the pin materialises, republishes and refreshes.
        assert_eq!(dfa.longest_match_pinned(&mut pin, "abc", 0), Some((3, 1)));
        assert_eq!(pin.num_states(), dfa.num_states());
        // Steady state: the refreshed pin serves without further misses.
        let misses = dfa.stats().cache_misses;
        assert_eq!(dfa.longest_match_pinned(&mut pin, "abc", 0), Some((3, 1)));
        assert_eq!(dfa.stats().cache_misses, misses);
    }

    #[test]
    fn add_token_carries_over_all_but_the_start_state() {
        let mut dfa = sample_dfa();
        dfa.longest_match("abc", 0);
        dfa.longest_match("4281", 0);
        let states_before = dfa.num_states();
        assert!(states_before > 2);
        let id = dfa.add_token(&Regex::literal("%"));
        // Everything except the start state survived the change.
        assert_eq!(dfa.stats().carried_over, states_before - 1);
        assert_eq!(dfa.stats().invalidated, 1);
        // The new token scans, and the automaton still agrees with direct
        // NFA simulation everywhere.
        assert_eq!(dfa.longest_match("%", 0), Some((1, id)));
        for text in ["if", "iffy", "x1_y", "42", "a%b", "%%"] {
            assert_eq!(
                dfa.longest_match(text, 0),
                dfa.nfa().clone().longest_match(&chars(text)),
                "input `{text}`"
            );
        }
        // Re-scanning previously materialised text re-derives only the
        // steps out of the start state, not the whole path.
        let misses_before = dfa.stats().cache_misses;
        dfa.longest_match("abc", 0);
        dfa.longest_match("abc", 0);
        let new_misses = dfa.stats().cache_misses - misses_before;
        assert!(new_misses <= 1, "only the start step was re-derived, got {new_misses}");
    }

    #[test]
    fn remove_token_of_unknown_or_removed_ids_is_graceful() {
        let mut dfa = sample_dfa();
        assert!(!dfa.remove_token(999), "out-of-range id answers false");
        assert!(dfa.remove_token(2));
        assert!(!dfa.remove_token(2), "second removal answers false");
    }

    #[test]
    fn remove_token_invalidates_only_intersecting_states() {
        let mut dfa = sample_dfa();
        dfa.longest_match("abc", 0); // identifier path
        dfa.longest_match("4281", 0); // number path
        let states_before = dfa.num_states();
        // Remove the number token (id 2).
        assert!(dfa.remove_token(2));
        assert!(!dfa.remove_token(2), "already removed");
        assert!(dfa.stats().carried_over > 0);
        assert!(dfa.stats().carried_over < states_before);
        // Numbers no longer scan; identifiers and keywords still agree
        // with the (updated) NFA reference.
        assert_eq!(dfa.longest_match("42", 0), None);
        for text in ["if", "iffy", "x1_y", "a42"] {
            assert_eq!(
                dfa.longest_match(text, 0),
                dfa.nfa().clone().longest_match(&chars(text)),
                "input `{text}`"
            );
        }
        assert!(dfa.garbage_fraction() > 0.0);
    }

    #[test]
    fn rescans_run_on_dense_rows_and_the_skip_loop() {
        let dfa = sample_dfa();
        let input = "abcdefgh 42";
        dfa.longest_match(input, 0); // materialise the identifier path
        dfa.longest_match(input, 9); // materialise the number path
        let before = dfa.stats();
        assert!(before.dense_rows_built > 0);
        assert_eq!(dfa.longest_match(input, 0), Some((8, 1)));
        let after = dfa.stats();
        assert_eq!(after.cache_misses, before.cache_misses, "no new subset steps");
        assert!(
            after.skip_loop_bytes > before.skip_loop_bytes,
            "the identifier tail is a self-transition run"
        );
        assert!(after.dense_bytes + after.skip_loop_bytes > before.dense_bytes + before.skip_loop_bytes);
    }

    #[test]
    fn disabling_dense_scanning_matches_the_dense_results() {
        let dfa = sample_dfa();
        for text in ["if", "iffy", "x1_y", "42", "007 agent"] {
            let dense = dfa.longest_match(text, 0);
            dfa.set_dense_scanning(false);
            let lazy_bytes = dfa.stats().dense_bytes;
            assert_eq!(dfa.longest_match(text, 0), dense, "input `{text}`");
            assert_eq!(dfa.stats().dense_bytes, lazy_bytes, "lazy path counts no dense bytes");
            dfa.set_dense_scanning(true);
        }
    }

    #[test]
    fn non_latin1_characters_use_the_lazy_fallback() {
        let mut dfa = sample_dfa();
        let id = dfa.add_token(&Regex::literal("λx"));
        let input = "λx";
        assert_eq!(dfa.longest_match(input, 0), Some((input.len(), id)));
        let before = dfa.stats();
        assert_eq!(dfa.longest_match(input, 0), Some((input.len(), id)));
        let after = dfa.stats();
        assert_eq!(after.cache_misses, before.cache_misses, "memoised in the char map");
        assert!(after.cache_hits > before.cache_hits);
        assert!(after.dense_bytes <= before.dense_bytes + 1, "only `x` can step densely");
    }

    #[test]
    fn concurrent_scans_share_one_lazily_built_dfa() {
        let dfa = sample_dfa();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for text in ["if", "iffy", "x1_y", "42", "agent 007"] {
                        assert_eq!(
                            dfa.longest_match(text, 0),
                            dfa.nfa().clone().longest_match(&chars(text)),
                            "input `{text}`"
                        );
                    }
                });
            }
        });
        // All threads materialised one shared cache.
        assert!(dfa.stats().cache_hits > 0);
        let clone = dfa.clone();
        assert_eq!(clone.num_states(), dfa.num_states());
    }
}
