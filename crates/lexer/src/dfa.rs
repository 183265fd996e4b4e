//! Lazy subset construction: the scanner-generator analogue of the lazy
//! parser generator.
//!
//! The companion report \[HKR87a\] applies the same laziness to lexical
//! scanners (ISG): instead of determinising the NFA up front, DFA states
//! (sets of NFA states) and their transitions are created the first time
//! the scanner needs them and memoised for later use. Scanning text that
//! exercises only part of the lexical syntax therefore only ever builds
//! that part of the DFA — and after a change to the token definitions only
//! the states the change affects are re-derived, again by need.
//!
//! ## Alphabet classes
//!
//! Transitions are memoised per *alphabet class*, not per character. The
//! classes partition all characters by the NFA's character classes: two
//! characters of one alphabet class lead every NFA state to the same
//! successors, so one subset-construction step fills the transition for
//! the whole class, as RE2's lazy DFA memoises per byte class (Cox,
//! *Regular Expression Matching in the Wild*, 2010). An ASCII byte finds
//! its class in a 128-entry table; any other character by binary search
//! over the partition's boundaries.
//!
//! ## Write-once rows
//!
//! Each DFA state owns a row of `AtomicU32` cells: its accept token, a
//! mask of the ASCII bytes whose transition loops back to the state, and
//! one transition entry per alphabet class. Rows live in chunks that never
//! move (eight rows each), and an entry only ever goes from
//! "unknown" to its final value. A miss takes the writer lock, runs one
//! subset-construction step, appends the target state if it is new (its
//! row initialised and its accept token set) and then stores the entry
//! with `Release`. Readers load entries with `Acquire` — a plain load on
//! x86 — so a scan needs nothing but the **chunk directory**, the
//! [`DfaSnapshot`] it pins once; the directory is republished only when a
//! miss appends a chunk. Any number of threads scan one DFA through
//! [`LazyDfa::longest_match_pinned`] (`&self`) without taking a lock
//! between misses.
//!
//! ## Scanning UTF-8 in place
//!
//! A scan walks the bytes of the `&str` it is given, and every position it
//! takes or returns — match lengths, examined extents — is a byte offset
//! into that text. An ASCII byte steps through the byte-class table and
//! one row entry. Runs of bytes whose transition loops back to the current
//! state (whitespace, identifier tails, literal bodies) are swallowed by a
//! **skip loop** over the state's mask, with the longest-match candidate
//! updated once per run instead of once per byte. At a non-ASCII lead byte
//! the scanner decodes that one `char`, finds its class by the partition
//! search and advances by its UTF-8 width. The
//! [`LazyDfa::set_dense_scanning`] ablation bypasses the byte table and the
//! skip loop: every `char` is decoded and goes through the search.
//!
//! ## Definition changes
//!
//! [`LazyDfa::add_token`] and [`LazyDfa::remove_token`] carry the
//! unaffected states over (the ISG analogue of the parser's §6
//! invalidation). An added token refines the partition; a carried-over row
//! copies its entry for a split class to the new part, which is exact
//! because carried states are disjoint from the new fragment. Both changes
//! take `&mut self`, so no scan is running: they copy the rows into fresh
//! chunks. A pin taken before a change still reads the automaton as it
//! was and must not be used with the changed one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::charclass::{Alphabet, CharClass};
use crate::nfa::{Nfa, NfaScratch, NfaState, TokenId};
use crate::regex::Regex;

/// Work counters of a lazy DFA; the interesting quantity is how few states
/// and transitions are materialised compared to the full subset
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DfaStats {
    /// DFA states materialised so far.
    pub states: usize,
    /// `(state, alphabet class)` transitions memoised so far; each one
    /// took one miss.
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
    /// State rows initialised: one per materialised state and one per
    /// start state a definition change reset. Carried-over rows are copied
    /// and not recounted.
    pub dense_rows_built: usize,
    /// ASCII bytes stepped through the byte-class table.
    pub dense_bytes: usize,
    /// Bytes consumed by the self-transition skip loop (whitespace /
    /// identifier / literal runs swallowed without per-byte state
    /// re-dispatch).
    pub skip_loop_bytes: usize,
}

/// Scan counters tallied by one scan — a token stream, a `tokenize` call
/// or a re-lex — without touching shared memory, and added to the DFA's
/// counters once when it ends ([`LazyDfa::flush`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanTally {
    hits: usize,
    dense_bytes: usize,
    skip_loop_bytes: usize,
}

#[derive(Clone, Debug)]
struct LazyDfaState {
    /// The NFA states this DFA state represents (sorted), shared with the
    /// interning index.
    nfa_states: Arc<[usize]>,
    /// `true` once a definition change invalidated this state. Dead slots
    /// are never stepped into again (transitions of carried-over states
    /// cannot target them — see [`LazyDfa::remove_token`]); they linger as
    /// garbage until the owner rebuilds.
    dead: bool,
}

/// The writer's part of the DFA, behind its lock.
#[derive(Clone, Debug)]
struct DfaCache {
    states: Vec<LazyDfaState>,
    index: HashMap<Arc<[usize]>, usize>,
    /// Counters updated under the write lock (misses, states,
    /// transitions); scan counters are added to the atomics outside.
    stats: DfaStats,
    /// Dead state slots (see `LazyDfaState::dead`).
    garbage: usize,
    /// The successor set of the miss at hand and the NFA's working space,
    /// kept so that a miss to an existing state allocates nothing.
    next: Vec<usize>,
    scratch: NfaScratch,
}

/// Row cell holding the state's accept token plus one (0: none).
const ACCEPT: usize = 0;
/// First of the four row cells holding the 128-bit mask of the ASCII bytes
/// whose transition loops back to the state.
const MASK: usize = 1;
/// Row cells before the transition entries; entry `k` is cell `HEADER + k`.
const HEADER: usize = 5;
/// Transition entry not memoised yet. Other entries are [`DEAD`] or the
/// target state plus 2.
const UNKNOWN: u32 = 0;
/// Transition entry into the dead state.
const DEAD: u32 = 1;
/// Rows per chunk, as a power of two. Small chunks keep a cold DFA small
/// and make finding a row a shift and a mask; a miss that appends one
/// copies the directory's `Arc`s, one per eight states.
const CHUNK_BITS: u32 = 3;

/// The chunk holding `state`'s row and the row's index within it.
#[inline]
fn locate(state: usize) -> (usize, usize) {
    (state >> CHUNK_BITS, state & ((1 << CHUNK_BITS) - 1))
}

/// The accept token stored in a row.
#[inline]
fn accept_of(row: &[AtomicU32]) -> Option<TokenId> {
    match row[ACCEPT].load(Ordering::Relaxed) {
        0 => None,
        t => Some(t as TokenId - 1),
    }
}

/// Whether byte `b`'s transition loops back to the row's state (never for
/// `b ≥ 0x80`). A mask bit is set after its entry is stored, so a reader
/// that sees it may skip the entry.
#[inline]
fn loops_on(row: &[AtomicU32], b: u8) -> bool {
    b < 0x80 && row[MASK + usize::from(b >> 5)].load(Ordering::Relaxed) & (1 << (b & 31)) != 0
}

/// The chunk directory of a DFA: the alphabet partition and every chunk of
/// state rows. A scanner pins one `Arc<DfaSnapshot>` and serves every step
/// from it without locking. Misses write their entries into the pinned
/// chunks in place, so the pin only needs refreshing when a miss appends a
/// chunk, and stepping into a state whose row lies past the pinned chunks
/// does that.
#[derive(Debug)]
pub struct DfaSnapshot {
    alphabet: Arc<Alphabet>,
    /// Cells per row: the header plus one entry per alphabet class.
    stride: usize,
    chunks: Vec<Arc<[AtomicU32]>>,
}

impl DfaSnapshot {
    /// An empty table over `alphabet` with room for `states` rows (at
    /// least one chunk).
    fn with_capacity(alphabet: Arc<Alphabet>, states: usize) -> Self {
        let mut table = DfaSnapshot {
            stride: HEADER + alphabet.len(),
            alphabet,
            chunks: Vec::new(),
        };
        while table.chunks.is_empty() || table.capacity() < states {
            table.push_chunk();
        }
        table
    }

    fn push_chunk(&mut self) {
        let rows = 1usize << CHUNK_BITS;
        self.chunks
            .push((0..rows * self.stride).map(|_| AtomicU32::new(0)).collect());
    }

    /// This directory plus one more (empty) chunk.
    fn grown(&self) -> Self {
        let mut chunks = Vec::with_capacity(self.chunks.len() + 1);
        chunks.extend(self.chunks.iter().cloned());
        let mut grown = DfaSnapshot {
            alphabet: self.alphabet.clone(),
            stride: self.stride,
            chunks,
        };
        grown.push_chunk();
        grown
    }

    /// State `state`'s row, or `None` when it lies past the pinned chunks.
    #[inline]
    fn row(&self, state: usize) -> Option<&[AtomicU32]> {
        self.rows().row(state)
    }

    #[inline]
    fn rows(&self) -> Rows<'_> {
        Rows {
            alphabet: &self.alphabet,
            stride: self.stride,
            chunks: &self.chunks,
        }
    }

    /// A copy of the first `states` rows into fresh chunks over `alphabet`,
    /// which refines this table's alphabet by `splits`: a split class's
    /// new part takes the entry of the class it split from. The rows of
    /// states for which `keep` is false start empty.
    fn copied(
        &self,
        alphabet: Arc<Alphabet>,
        splits: &[(usize, usize)],
        states: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Self {
        let copy = DfaSnapshot::with_capacity(alphabet, states);
        for state in (0..states).filter(|&s| keep(s)) {
            let (from, to) = (self.row(state).expect("a state has a row"), copy.row(state).expect("allocated"));
            for (cell, old) in to.iter().zip(from) {
                cell.store(old.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            for &(parent, child) in splits {
                to[HEADER + child].store(to[HEADER + parent].load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
        copy
    }

    /// Rows the pinned chunks hold, materialised or not.
    pub fn capacity(&self) -> usize {
        self.chunks.len() << CHUNK_BITS
    }

    /// `(storage address, modeled bytes)` of every chunk of rows, plus one
    /// row for the alphabet partition. A registry sums resident bytes
    /// deduplicated by these addresses.
    pub fn state_accounting(&self) -> Vec<(usize, usize)> {
        let alphabet = (
            Arc::as_ptr(&self.alphabet) as usize,
            16 + std::mem::size_of::<Alphabet>() + 8 * self.alphabet.runs() + 4 * self.alphabet.len(),
        );
        self.chunks
            .iter()
            .map(|c| (Arc::as_ptr(c) as *const u8 as usize, 16 + 4 * c.len()))
            .chain([alphabet])
            .collect()
    }

    /// Total modeled resident bytes of this directory's chunks and
    /// alphabet.
    pub fn resident_bytes(&self) -> usize {
        self.state_accounting().iter().map(|&(_, b)| b).sum()
    }
}

/// A directory's fields as plain copies: the scan loop keeps them in
/// registers across its `Acquire` loads, which would otherwise make it
/// reload them from the directory at every step.
#[derive(Clone, Copy)]
struct Rows<'a> {
    alphabet: &'a Alphabet,
    stride: usize,
    chunks: &'a [Arc<[AtomicU32]>],
}

impl<'a> Rows<'a> {
    #[inline]
    fn row(self, state: usize) -> Option<&'a [AtomicU32]> {
        let (chunk, at) = locate(state);
        self.chunks.get(chunk)?.get(at * self.stride..(at + 1) * self.stride)
    }
}

/// Why [`LazyDfa::longest_match_pinned_examined`] left its inner loop.
enum Halt {
    /// The scan is over: the input ended or a transition died.
    End,
    /// Entry `class` of the current state is not memoised yet; `c` is the
    /// character at the scan position.
    Miss(usize, char),
    /// The next state's row lies past the pinned chunks.
    Refresh,
}

/// A lazily determinised DFA over an [`Nfa`], shareable across threads.
#[derive(Debug)]
pub struct LazyDfa {
    nfa: Nfa,
    cache: Mutex<DfaCache>,
    /// The current chunk directory; replaced only when a miss appends a
    /// chunk or a definition change rebuilds the rows.
    published: RwLock<Arc<DfaSnapshot>>,
    /// Scan counters, added once per scan from a [`ScanTally`].
    cache_hits: AtomicUsize,
    dense_bytes: AtomicUsize,
    skip_loop_bytes: AtomicUsize,
    /// Measurement knob: when set, scans bypass the byte-class table and
    /// the skip loop and decode every character, so benches can report the
    /// dense speedup on identical hardware.
    dense_disabled: AtomicBool,
}

impl Clone for LazyDfa {
    fn clone(&self) -> Self {
        let cache = self.cache.lock().unwrap();
        let snap = self.snapshot();
        let rows = snap.copied(snap.alphabet.clone(), &[], cache.states.len(), |_| true);
        LazyDfa {
            nfa: self.nfa.clone(),
            cache: Mutex::new(cache.clone()),
            published: RwLock::new(Arc::new(rows)),
            cache_hits: AtomicUsize::new(self.cache_hits.load(Ordering::Relaxed)),
            dense_bytes: AtomicUsize::new(self.dense_bytes.load(Ordering::Relaxed)),
            skip_loop_bytes: AtomicUsize::new(self.skip_loop_bytes.load(Ordering::Relaxed)),
            dense_disabled: AtomicBool::new(self.dense_disabled.load(Ordering::Relaxed)),
        }
    }
}

/// Every character class on an NFA transition among `states`.
fn classes_of(states: &[NfaState]) -> impl Iterator<Item = &CharClass> {
    states.iter().flat_map(|s| s.transitions.iter().map(|(class, _)| class))
}

impl LazyDfa {
    /// Wraps an NFA; only the start DFA state is created.
    pub fn new(nfa: Nfa) -> Self {
        let mut alphabet = Alphabet::new();
        alphabet.refine(classes_of(nfa.states()));
        Self::over(nfa, Arc::new(alphabet))
    }

    /// A copy with every materialised state discarded but the start state:
    /// the NFA is cloned and the alphabet partition shared, since only the
    /// rows are derived from scanning. Scan counters start at zero.
    pub(crate) fn relazified(&self) -> Self {
        Self::over(self.nfa.clone(), self.snapshot().alphabet.clone())
    }

    /// A DFA over `nfa` whose transitions are memoised per class of
    /// `alphabet`, a partition that refines every class on an NFA edge.
    fn over(nfa: Nfa, alphabet: Arc<Alphabet>) -> Self {
        let dfa = LazyDfa {
            nfa,
            cache: Mutex::new(DfaCache {
                states: Vec::new(),
                index: HashMap::new(),
                stats: DfaStats::default(),
                garbage: 0,
                next: Vec::new(),
                scratch: NfaScratch::default(),
            }),
            published: RwLock::new(Arc::new(DfaSnapshot::with_capacity(alphabet, 1))),
            cache_hits: AtomicUsize::new(0),
            dense_bytes: AtomicUsize::new(0),
            skip_loop_bytes: AtomicUsize::new(0),
            dense_disabled: AtomicBool::new(false),
        };
        let start_set = dfa.nfa.epsilon_closure(&[dfa.nfa.start()]);
        dfa.intern(&mut dfa.cache.lock().unwrap(), &mut dfa.snapshot(), &start_set);
        dfa
    }

    /// The current chunk directory. Pin one per scan and serve every step
    /// from it (see [`LazyDfa::longest_match_pinned`]).
    pub fn snapshot(&self) -> Arc<DfaSnapshot> {
        self.published.read().unwrap().clone()
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
    // invalidated slot. An added fragment may split alphabet classes; the
    // carried rows copy the split class's entry to its new part. A removal
    // keeps the finer partition. When removals have turned too much of the
    // NFA into garbage, the owner recompiles from scratch, which also
    // recomputes the partition from the active definitions.

    /// Adds a token definition to the live DFA. Only the start state is
    /// re-derived (its closure gains the new fragment's entry); every
    /// other materialised state is carried over. Returns the new token id.
    pub fn add_token(&mut self, regex: &Regex) -> TokenId {
        let id = self.nfa.add_token(regex);
        let mut alphabet = (*self.snapshot().alphabet).clone();
        let splits = alphabet.refine(classes_of(&self.nfa.states()[self.nfa.fragment_range(id)]));
        let cache = self.cache.get_mut().unwrap();
        let carried = cache.states.len() - 1 - cache.garbage;
        cache.stats.carried_over += carried;
        cache.stats.invalidated += 1;
        self.rebuild_rows(Arc::new(alphabet), &splits);
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
        let live_before = cache.states.len() - cache.garbage;
        let mut touched = 1;
        for state in cache.states.iter_mut().skip(1).filter(|s| !s.dead) {
            // `nfa_states` is sorted: binary-search the fragment bounds.
            let from = state.nfa_states.partition_point(|&s| s < range.start);
            if state.nfa_states.get(from).is_some_and(|&s| s < range.end) {
                let set = std::mem::take(&mut state.nfa_states);
                cache.index.remove(&set);
                state.dead = true;
                cache.garbage += 1;
                touched += 1;
            }
        }
        cache.stats.carried_over += live_before - touched;
        cache.stats.invalidated += touched;
        let alphabet = self.snapshot().alphabet.clone();
        self.rebuild_rows(alphabet, &[]);
        true
    }

    /// Copies the rows of every carried-over state into fresh chunks over
    /// `alphabet` (refined by `splits`) and re-derives the start state
    /// (id 0) from the current NFA: its epsilon closure is the one set
    /// every definition change affects. Its row and the dead rows start
    /// empty.
    fn rebuild_rows(&mut self, alphabet: Arc<Alphabet>, splits: &[(usize, usize)]) {
        let cache = self.cache.get_mut().unwrap();
        let published = self.published.get_mut().unwrap();
        let states = &cache.states;
        let rows = published.copied(alphabet, splits, states.len(), |s| s > 0 && !states[s].dead);
        let old = std::mem::take(&mut cache.states[0].nfa_states);
        if cache.index.get(&old) == Some(&0) {
            cache.index.remove(&old);
        }
        let closure: Arc<[usize]> = self.nfa.epsilon_closure(&[self.nfa.start()]).into();
        let accept = self.nfa.accepting_token(&closure);
        rows.row(0).expect("the start row")[ACCEPT].store(accept.map_or(0, |t| t as u32 + 1), Ordering::Relaxed);
        cache.stats.dense_rows_built += 1;
        // The closure contains the global start state, which no other DFA
        // state's set can, so this cannot collide with a live entry.
        cache.index.insert(closure.clone(), 0);
        cache.states[0].nfa_states = closure;
        *published = Arc::new(rows);
    }

    /// Fraction of materialised DFA states (and underlying NFA states)
    /// that definition removals have turned into garbage. Owners rebuild
    /// from the active definitions when this gets large.
    pub fn garbage_fraction(&self) -> f64 {
        let cache = self.cache.lock().unwrap();
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
        let mut stats = self.cache.lock().unwrap().stats;
        stats.cache_hits += self.cache_hits.load(Ordering::Relaxed);
        stats.dense_bytes += self.dense_bytes.load(Ordering::Relaxed);
        stats.skip_loop_bytes += self.skip_loop_bytes.load(Ordering::Relaxed);
        stats
    }

    /// Adds a finished scan's counters to the DFA's and clears the tally.
    pub fn flush(&self, tally: &mut ScanTally) {
        let ScanTally {
            hits,
            dense_bytes,
            skip_loop_bytes,
        } = std::mem::take(tally);
        for (counter, n) in [
            (&self.cache_hits, hits),
            (&self.dense_bytes, dense_bytes),
            (&self.skip_loop_bytes, skip_loop_bytes),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Measurement knob: disable (or re-enable) the byte-class table and
    /// the skip loop. With them off, every character is decoded and finds
    /// its class by the partition search, so benches can measure the dense
    /// speedup on one host.
    pub fn set_dense_scanning(&self, enabled: bool) {
        self.dense_disabled.store(!enabled, Ordering::Relaxed);
    }

    /// Number of DFA states materialised so far.
    pub fn num_states(&self) -> usize {
        self.cache.lock().unwrap().states.len()
    }

    /// Interns `nfa_states` as a DFA state, appending it — with a chunk, if
    /// its row lies past `table`'s chunks — when it is new. Called with
    /// the writer lock held; `table` is the published directory.
    fn intern(&self, cache: &mut DfaCache, table: &mut Arc<DfaSnapshot>, nfa_states: &[usize]) -> usize {
        if let Some(&id) = cache.index.get(nfa_states) {
            return id;
        }
        let id = cache.states.len();
        if table.row(id).is_none() {
            *table = Arc::new(table.grown());
            *self.published.write().unwrap() = table.clone();
        }
        let accept = self.nfa.accepting_token(nfa_states);
        let row = table.row(id).expect("the chunk was appended");
        row[ACCEPT].store(accept.map_or(0, |t| t as u32 + 1), Ordering::Relaxed);
        let nfa_states: Arc<[usize]> = nfa_states.into();
        cache.index.insert(nfa_states.clone(), id);
        cache.states.push(LazyDfaState {
            nfa_states,
            dead: false,
        });
        cache.stats.states += 1;
        cache.stats.dense_rows_built += 1;
        id
    }

    /// The miss path: one subset-construction step from `state` on `c`,
    /// the character at hand of alphabet class `class`, under the writer
    /// lock. Returns the memoised entry.
    fn materialise(&self, state: usize, class: usize, c: char, tally: &mut ScanTally) -> u32 {
        let mut cache = self.cache.lock().unwrap();
        let mut table = self.snapshot();
        // Another thread may have filled the entry while we waited.
        let known = table.row(state).expect("a stepped state has a row")[HEADER + class].load(Ordering::Acquire);
        if known != UNKNOWN {
            tally.hits += 1;
            return known;
        }
        cache.stats.cache_misses += 1;
        cache.stats.transitions += 1;
        let cache = &mut *cache;
        let mut next = std::mem::take(&mut cache.next);
        self.nfa
            .step_into(&cache.states[state].nfa_states, c, &mut next, &mut cache.scratch);
        let entry = if next.is_empty() {
            DEAD
        } else {
            self.intern(cache, &mut table, &next) as u32 + 2
        };
        cache.next = next;
        let row = table.row(state).expect("a stepped state has a row");
        row[HEADER + class].store(entry, Ordering::Release);
        if entry == state as u32 + 2 {
            for b in table.alphabet.ascii_bytes(class) {
                row[MASK + usize::from(b >> 5)].fetch_or(1 << (b & 31), Ordering::Relaxed);
            }
        }
        entry
    }

    /// The transition from DFA state `state` on character `c`, computing
    /// and memoising it if necessary. `None` is the dead state.
    pub fn step(&self, state: usize, c: char) -> Option<usize> {
        let table = self.snapshot();
        let class = table.alphabet.class_of(c);
        let mut tally = ScanTally::default();
        let entry = match table.row(state).expect("a materialised state")[HEADER + class].load(Ordering::Acquire) {
            UNKNOWN => self.materialise(state, class, c, &mut tally),
            known => {
                tally.hits += 1;
                known
            }
        };
        self.flush(&mut tally);
        (entry != DEAD).then(|| (entry - 2) as usize)
    }

    /// The token accepted in `state`, if any.
    pub fn accept(&self, state: usize) -> Option<TokenId> {
        accept_of(self.snapshot().row(state)?)
    }

    /// The longest prefix of `input[start..]` that matches a token, as its
    /// length in bytes with the token id — served from the caller's pinned
    /// chunk directory, with the scan's counters added to `tally`. `start`
    /// must be a char boundary of `input`. An ASCII byte steps through the
    /// byte-class table and one row entry, and self-transition runs
    /// (whitespace, identifier tails, literal bodies) are swallowed by a
    /// mask-test skip loop that updates `best` once per run. A non-ASCII
    /// character finds its class by the partition search. Steps against
    /// memoised entries take no lock and write no shared memory. A miss
    /// takes the writer; `pin` is refreshed only when a state's row lies
    /// past its chunks.
    pub fn longest_match_pinned(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        tally: &mut ScanTally,
        input: &str,
        start: usize,
    ) -> Option<(usize, TokenId)> {
        self.longest_match_pinned_examined(pin, tally, input, start).0
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
        tally: &mut ScanTally,
        input: &str,
        start: usize,
    ) -> (Option<(usize, TokenId)>, usize) {
        let dense = !self.dense_disabled.load(Ordering::Relaxed);
        let bytes = input.as_bytes();
        let mut state = 0usize;
        let mut pos = start;
        let mut best = accept_of(pin.row(0).expect("chunk 0 is always pinned")).map(|t| (0, t));
        let (mut hits, mut dense_bytes, mut skip_loop_bytes) = (0, 0, 0);
        loop {
            let rows = pin.rows();
            let Some(mut row) = rows.row(state) else {
                *pin = self.snapshot();
                continue;
            };
            let halt = loop {
                let Some(&b) = bytes.get(pos) else {
                    break Halt::End;
                };
                let (class, c) = if dense && b.is_ascii() {
                    if loops_on(row, b) {
                        // Skip loop: the state does not change across the
                        // run, so `best` needs one update at the end, not
                        // one per byte.
                        let mask: [u32; 4] = std::array::from_fn(|w| row[MASK + w].load(Ordering::Relaxed));
                        let run_start = pos;
                        pos += 1;
                        while bytes
                            .get(pos)
                            .is_some_and(|&b| b < 0x80 && mask[usize::from(b >> 5)] & (1 << (b & 31)) != 0)
                        {
                            pos += 1;
                        }
                        skip_loop_bytes += pos - run_start;
                        hits += pos - run_start;
                        if let Some(t) = accept_of(row) {
                            best = Some((pos - start, t));
                        }
                        continue;
                    }
                    (rows.alphabet.ascii_class(b), char::from(b))
                } else {
                    let c = input[pos..].chars().next().expect("a char starts at a scan position");
                    (rows.alphabet.class_of(c), c)
                };
                let next = match row[HEADER + class].load(Ordering::Acquire) {
                    UNKNOWN => break Halt::Miss(class, c),
                    DEAD => break Halt::End,
                    entry => (entry - 2) as usize,
                };
                let Some(next_row) = rows.row(next) else {
                    break Halt::Refresh;
                };
                (state, row) = (next, next_row);
                pos += c.len_utf8();
                hits += 1;
                dense_bytes += usize::from(dense && b.is_ascii());
                if let Some(t) = accept_of(row) {
                    best = Some((pos - start, t));
                }
            };
            match halt {
                Halt::End => break,
                Halt::Refresh => *pin = self.snapshot(),
                Halt::Miss(class, c) => {
                    let entry = self.materialise(state, class, c, tally);
                    if entry == DEAD {
                        break;
                    }
                    state = (entry - 2) as usize;
                    pos += c.len_utf8();
                    if pin.row(state).is_none() {
                        *pin = self.snapshot();
                    }
                    if let Some(t) = accept_of(pin.row(state).expect("a materialised state")) {
                        best = Some((pos - start, t));
                    }
                }
            }
        }
        tally.hits += hits;
        tally.dense_bytes += dense_bytes;
        tally.skip_loop_bytes += skip_loop_bytes;
        // At loop exit `pos` indexes the first byte of the character that
        // killed the scan (dead transition) or equals the input length (ran
        // out of text), so `pos + 1` uniformly covers everything read —
        // including the virtual end-of-input position.
        (best, pos + 1)
    }

    /// The longest prefix of `input[start..]` that matches a token, as its
    /// length in bytes with the token id. Pins the directory and flushes
    /// the counters per call; see [`LazyDfa::longest_match_pinned`] for the
    /// hot-loop form.
    pub fn longest_match(&self, input: &str, start: usize) -> Option<(usize, TokenId)> {
        let mut tally = ScanTally::default();
        let found = self.longest_match_pinned(&mut self.snapshot(), &mut tally, input, start);
        self.flush(&mut tally);
        found
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
    fn pins_see_entries_written_in_place_and_refresh_only_for_new_chunks() {
        let dfa = LazyDfa::new(Nfa::build(&[Regex::literal("abcdefghijkl")]));
        let mut pin = dfa.snapshot();
        let mut tally = ScanTally::default();
        assert_eq!(pin.capacity(), 8);
        assert_eq!(dfa.longest_match_pinned(&mut pin, &mut tally, "abcd", 0), None);
        assert!(Arc::ptr_eq(&pin, &dfa.snapshot()), "no chunk appended, nothing republished");
        // Another scan fills entries of the pinned chunk in place; the old
        // pin serves them without a miss.
        dfa.longest_match("abcdef", 0);
        let misses = dfa.stats().cache_misses;
        assert_eq!(dfa.longest_match_pinned(&mut pin, &mut tally, "abcdef", 0), None);
        assert_eq!(dfa.stats().cache_misses, misses);
        // The whole literal needs 13 states: rows 8.. lie in a second
        // chunk, which the pin picks up by refreshing.
        assert_eq!(dfa.longest_match_pinned(&mut pin, &mut tally, "abcdefghijkl", 0), Some((12, 0)));
        assert_eq!(dfa.num_states(), 13);
        assert_eq!(pin.capacity(), 16);
        assert!(Arc::ptr_eq(&pin, &dfa.snapshot()));
        // The counters reach the DFA when the tally is flushed.
        let hits = dfa.stats().cache_hits;
        dfa.flush(&mut tally);
        assert!(dfa.stats().cache_hits > hits);
    }

    #[test]
    fn one_miss_fills_a_whole_alphabet_class() {
        let dfa = sample_dfa();
        dfa.longest_match("a", 0);
        let misses = dfa.stats().cache_misses;
        // `b`..`h` and `A`..`Z` share `a`'s class: no keyword and no
        // class of the NFA tells them apart.
        for text in ["b", "h", "Q", "z"] {
            assert_eq!(dfa.longest_match(text, 0), Some((1, 1)), "input `{text}`");
        }
        assert_eq!(dfa.stats().cache_misses, misses);
        // `i` starts the keyword, so it is a class of its own.
        dfa.longest_match("i", 0);
        assert_eq!(dfa.stats().cache_misses, misses + 1);
        // Characters outside every class share one class too, ASCII or not.
        assert_eq!(dfa.longest_match("+", 0), None);
        let misses = dfa.stats().cache_misses;
        for text in ["%", "λ", "❄", "\u{10FFFF}"] {
            assert_eq!(dfa.longest_match(text, 0), None, "input `{text}`");
        }
        assert_eq!(dfa.stats().cache_misses, misses);
    }

    #[test]
    fn add_token_splits_classes_and_carried_rows_copy_their_entries() {
        let mut dfa = LazyDfa::new(Nfa::build(&[Regex::parse("[a-z] [a-z]").unwrap()]));
        assert_eq!(dfa.longest_match("ab", 0), Some((2, 0)));
        let classes = dfa.snapshot().alphabet.len();
        // `x` splits the letters: `x` becomes a class of its own.
        let x = dfa.add_token(&Regex::literal("x"));
        assert_eq!(dfa.snapshot().alphabet.len(), classes + 1);
        let misses = dfa.stats().cache_misses;
        // Past the re-derived start step, the carried state after one
        // letter serves `x` from the entry copied from the letters' class.
        assert_eq!(dfa.longest_match("ax", 0), Some((2, 0)));
        assert_eq!(dfa.stats().cache_misses, misses + 1, "only the start step re-derived");
        assert_eq!(dfa.longest_match("x", 0), Some((1, x)));
        assert!(dfa.remove_token(0));
        assert_eq!(dfa.longest_match("x", 0), Some((1, x)));
        assert_eq!(dfa.longest_match("ab", 0), None);
        assert_eq!(dfa.snapshot().alphabet.len(), classes + 1, "removal keeps the finer partition");
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
        assert_eq!(after.cache_misses, before.cache_misses, "memoised for their class");
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
