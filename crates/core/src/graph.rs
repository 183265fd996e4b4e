//! The lazily generated, incrementally maintained graph of item sets — the
//! heart of IPG (§5 and §6 of the paper) — in a **shared-table** design:
//! any number of parser threads may *read* the graph concurrently while
//! expansion and `MODIFY` remain serialized writes.
//!
//! Every set of items lives in an arena and goes through the life cycle
//!
//! ```text
//! initial --EXPAND--> complete --MODIFY--> initial            (no GC)
//! initial --EXPAND--> complete --MODIFY--> dirty --RE-EXPAND--> complete   (refcount GC)
//! ```
//!
//! * `EXPAND` (§4/§5) computes the closure of the kernel, creates successor
//!   kernels and records transitions and reductions;
//! * `MODIFY` (§6.1) adds or deletes a grammar rule and invalidates exactly
//!   the complete item sets that had a transition on the rule's left-hand
//!   side (plus the start item set when the rule defines `START`);
//! * reference-count garbage collection (§6.2) reclaims item sets that are
//!   no longer referenced after a re-expansion; an optional mark-and-sweep
//!   pass (suggested by the paper as future work) handles cycles.
//!
//! ## Concurrency design
//!
//! Node storage is a **persistent chunk store**: node `id` lives in slot
//! `id % 512` of chunk `id / 512`, and each chunk is an immutable-once-shared
//! `Arc<NodeChunk>`. The steady-state read path (the lazy tables) never
//! touches the store at all — it reads the published `TableSnapshot` —
//! while the accessor methods (`try_node`, `size`, …) take one store-wide
//! `RwLock` read.
//!
//! The published snapshot is a directory of chunks that never move, one
//! **write-once cell** per state. A miss expands the state and sets its
//! cell in place, built straight from the node; a reader pays one
//! `Acquire` load per cell and needs no refresh to see it. The directory
//! itself is republished only when a chunk is appended or copied, and a
//! set cell is never cleared in place: retraction (`MODIFY`, sweep,
//! refcount GC) copies the affected chunks with those cells empty.
//!
//! All structural mutation (EXPAND / RE-EXPAND / cell publication /
//! MODIFY / GC) is funnelled through one internal `Mutex` (the *writer*),
//! which additionally owns the kernel index, the work counters, the
//! snapshot-chunk ownership flags and the reusable scratch buffers; node
//! writes go through the store's write lock and **copy a chunk on write**
//! only when it is still shared with another fork. Lock order is always
//! inner mutex → store lock → published lock, so writers serialize among
//! themselves and cannot deadlock.
//!
//! ## Bulk expansion (parallel warm)
//!
//! Steady-state misses and `MODIFY` keep the serialized writer above —
//! one state at a time, latency-bound. Bulk cold-start expansion
//! ([`ItemSetGraph::expand_all_parallel`]) instead splits each expansion
//! into its **read-only half** — clone the kernel, compute the closure,
//! partition successors, collect reductions (`compute_expansion`) — and
//! its **write half** — intern successor kernels, bump refcounts, write
//! the node (`commit_expansion_locked`). Warm then runs *pipelined
//! rounds*: the pending frontier is collected in id order and its kernels
//! are cloned out of the store, the read-only halves fan out over N
//! worker threads (pure functions of grammar + kernel, no graph locks),
//! and the committer consumes results in frontier order *as they arrive*
//! (`RoundQueue`), so interning overlaps with the remaining closures
//! instead of waiting for the whole round. Because closure depends only
//! on the grammar and the kernel, and kernels are interned in exactly the
//! order the serial loop would have used, the resulting graph — state
//! numbering, kernel index, rows — is **bit-identical** to a serial warm
//! (property-tested). Cell publication parallelises per snapshot chunk:
//! the chunks to fill are made owned (one directory republish at most),
//! then workers set the cells of disjoint chunks, reading the node store
//! and never writing it. The whole warm holds the writer mutex, so it serializes with
//! `MODIFY` like any other writer; frontiers smaller than
//! `PARALLEL_EXPAND_MIN_BATCH` expand inline, so chain-shaped grammars
//! never pay a spawn.
//!
//! ## Forking (epoch publication)
//!
//! `Clone` forks the graph *structurally shared*: it clones O(#chunks)
//! `Arc`s (the chunk pointers, the sharded kernel index, the published
//! snapshot), not the nodes. The §6 invalidation pass of a `MODIFY`
//! running on the fork then copies-on-write exactly the chunks that hold
//! invalidated states — publication cost is O(invalidated states) plus
//! O(#chunks) pointer bumps, independent of how large the graph has
//! grown. Retired epochs keep the old chunk `Arc`s alive until their last
//! reader leaves, at which point only the chunks *not* shared with any
//! live epoch are freed (chunk-granular reclamation).
//!
//! Snapshot chunks follow an **ownership rule**. A state that is `Initial`
//! in both epochs may expand differently under their two grammars, so
//! neither may set a cell in a chunk the other still reads. The writer
//! keeps an "owned" flag per snapshot chunk; a fork clears every flag on
//! both the parent and the fork, and the first write into a chunk that is
//! not owned copies it. Each shared chunk is thus copied at most once per
//! epoch, and a miss into an owned chunk copies nothing.
//!
//! To find the states to invalidate without scanning every node, each
//! chunk carries a conservative summary of the symbols on which its live
//! complete nodes have transitions; `MODIFY` consults the summaries and
//! descends only into chunks that may contain the edited left-hand side.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock, Weak};

use ipg_grammar::{Grammar, GrammarError, RuleId, SymbolId};
use ipg_lr::itemset::{closure, completed_items, partition_by_next_symbol, start_kernel, ItemSet};
use ipg_lr::{Item, StateId};

use crate::stats::{GenStats, GraphSize};

/// The life-cycle stage of a set of items (the paper's `type` field).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemSetKind {
    /// The kernel is known but transitions and reductions have not been
    /// computed yet.
    Initial,
    /// The item set was complete, but a grammar modification invalidated
    /// it. Its *old* transitions are retained so that reference counts can
    /// be adjusted when it is re-expanded (§6.2).
    Dirty,
    /// Transitions and reductions are valid for the current grammar.
    Complete,
}

/// Garbage-collection policy for item sets that become unreachable after
/// grammar modifications.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GcPolicy {
    /// §6.1: invalidated item sets become `Initial`; nothing is ever
    /// reclaimed ("when everything is retained, we end up with too much
    /// garbage").
    Retain,
    /// §6.2: invalidated item sets become `Dirty`; reference counting
    /// reclaims item sets whose count drops to zero after re-expansion.
    #[default]
    RefCount,
    /// Reference counting plus a mark-and-sweep pass whenever the fraction
    /// of dirty/garbage item sets exceeds the given percentage (0–100) of
    /// the graph — the paper's suggested remedy for cyclic references.
    RefCountWithSweep {
        /// Sweep when `100 * (live - reachable) / live` exceeds this value.
        threshold_percent: u8,
    },
}

/// Frontier rounds smaller than this are expanded inline even when the
/// caller asked for a parallel warm: spawning workers costs more than a
/// handful of closures, and chain-shaped grammars (whose frontier is one
/// or two kernels wide per round) should warm exactly like the serial
/// path.
const PARALLEL_EXPAND_MIN_BATCH: usize = 8;

/// The result of the read-only half of `EXPAND` (closure, successor
/// partition, reduction analysis), computed without touching the writer
/// state. Workers of the parallel warm produce these concurrently; the
/// serial commit step interns the successor kernels and writes the node.
/// The closure itself is not kept: it is recomputable from the kernel, and
/// nothing reads it once it has been partitioned.
struct ComputedExpansion {
    successors: BTreeMap<SymbolId, ItemSet>,
    reductions: Vec<RuleId>,
    accepting: bool,
}

/// The read-only half of `EXPAND` as a pure function of the grammar and a
/// kernel: closure, successor partition and reduction analysis. The
/// parallel warm clones the frontier's kernels out of the store up front
/// and hands them to workers through this function, so the fan-out touches
/// no graph locks at all.
fn compute_expansion_of(grammar: &Grammar, kernel: &ItemSet) -> ComputedExpansion {
    let closed = closure(grammar, kernel);
    let successors = partition_by_next_symbol(grammar, &closed);

    let mut reductions = Vec::new();
    let mut accepting = false;
    for item in completed_items(grammar, &closed) {
        // A completed item of a rule that has been deleted from the
        // grammar must not be reported as a reduction; such items can
        // linger in the kernels of stale (unreachable) item sets.
        if !grammar.is_active(item.rule) {
            continue;
        }
        if grammar.rule(item.rule).lhs == grammar.start_symbol() {
            accepting = true;
        } else {
            reductions.push(item.rule);
        }
    }
    reductions.sort();
    reductions.dedup();
    ComputedExpansion {
        successors,
        reductions,
        accepting,
    }
}

/// Hand-off queue of one parallel-warm round: workers deposit the computed
/// expansion of frontier slot `i` as soon as it is ready, and the committer
/// consumes the slots strictly in frontier order, blocking only when the
/// next slot in line has not been produced yet. This pipelines the serial
/// commit (kernel interning, refcount bumps, node writes) with the
/// concurrent closure computation — round wall-clock is
/// `max(compute / workers, commit)` instead of their sum.
struct RoundQueue {
    cursor: AtomicUsize,
    slots: Mutex<Vec<Option<ComputedExpansion>>>,
    ready: Condvar,
}

impl RoundQueue {
    fn new(len: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(len, || None);
        RoundQueue {
            cursor: AtomicUsize::new(0),
            slots: Mutex::new(slots),
            ready: Condvar::new(),
        }
    }

    /// Claims the next unclaimed frontier index, or `None` when every
    /// index of the round has been handed out.
    fn claim(&self, len: usize) -> Option<usize> {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < len).then_some(i)
    }

    fn deposit(&self, i: usize, computed: ComputedExpansion) {
        let mut slots = self.slots.lock().unwrap();
        slots[i] = Some(computed);
        self.ready.notify_all();
    }

    /// Blocks until slot `i` has been deposited, then takes it.
    fn take(&self, i: usize) -> ComputedExpansion {
        let mut slots = self.slots.lock().unwrap();
        loop {
            if let Some(computed) = slots[i].take() {
                return computed;
            }
            slots = self.ready.wait(slots).unwrap();
        }
    }
}

/// Errors reported by the public node accessors of the shared graph.
///
/// A server that hands `StateId`s across grammar modifications can end up
/// holding stale ids; resolving them must be an error, not a panic that
/// poisons the shared graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The id does not name any node of this graph.
    UnknownState(StateId),
    /// The node existed but has been reclaimed by garbage collection.
    CollectedState(StateId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownState(id) => write!(f, "state {id} does not exist in this graph"),
            GraphError::CollectedState(id) => {
                write!(f, "state {id} has been reclaimed by garbage collection")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A dense, symbol-indexed copy of a complete item set's transitions —
/// the action row of the lazy tables (the §5.1 `ACTION`/`GOTO` hot path).
/// One `u32` per interned symbol maps the symbol to its shift/GOTO target
/// (`0` = no edge), so a steady-state table query is a single array load
/// instead of a `BTreeMap` walk, with zero heap allocation.
///
/// A row exists only inside a published state cell: it is built once, on the
/// first query (or batch warm) after the node becomes `Complete`, and
/// retracted with its cell the moment `MODIFY`, a sweep or refcount GC
/// makes the expansion it copies invalid (§6 semantics).
#[derive(Clone, Debug)]
pub struct ActionRow {
    /// Grammar version at build time (diagnostic; validity is structural).
    version: u64,
    /// `symbol index -> target state + 1`, `0` meaning no transition.
    targets: Vec<u32>,
}

impl ActionRow {
    /// The shift/GOTO target recorded for `symbol`, if any. Symbols
    /// interned after the row was built read as "no transition", which is
    /// correct: the node cannot have grown an edge on them without being
    /// re-expanded (which retracts the row).
    #[inline]
    pub fn target(&self, symbol: SymbolId) -> Option<StateId> {
        match self.targets.get(symbol.index()) {
            Some(&t) if t != 0 => Some(StateId(t - 1)),
            _ => None,
        }
    }

    /// The grammar version the row was built against.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The immutable, published read-view of one complete state: its dense
/// row, reduce set and accept flag, built straight from the node's
/// `transitions`, `reductions` and `accepting` when its cell is first
/// written. The `Arc` lets a chunk copy share the entries it carries over.
#[derive(Debug)]
pub(crate) struct PublishedState {
    pub(crate) row: ActionRow,
    pub(crate) reductions: Vec<RuleId>,
    pub(crate) accepting: bool,
}

/// One write-once cell of the published snapshot.
type SnapCell = OnceLock<Arc<PublishedState>>;

/// One chunk of the published snapshot: the cells of [`CHUNK_SIZE`]
/// consecutive state ids. A chunk never moves and a cell is set at most
/// once; retraction copies the chunk with the retracted cells empty.
type SnapChunk = [SnapCell];

fn empty_snap_chunk() -> Arc<SnapChunk> {
    (0..CHUNK_SIZE).map(|_| OnceLock::new()).collect()
}

/// Publishes a complete node into its (empty) cell. Returns the entry's
/// modeled bytes, or `None` when the cell was already set. Free function so
/// the batch warm can fill disjoint chunks on worker threads.
fn publish_cell(
    cell: &SnapCell,
    node: &ItemSetNode,
    num_symbols: usize,
    version: u64,
) -> Option<usize> {
    if cell.get().is_some() {
        return None;
    }
    let mut targets = vec![0u32; num_symbols];
    for (&symbol, &target) in &node.transitions {
        targets[symbol.index()] = target.0 + 1;
    }
    let entry = PublishedState {
        row: ActionRow { version, targets },
        reductions: node.reductions.clone(),
        accepting: node.accepting,
    };
    let bytes = published_state_bytes(&entry);
    cell.set(Arc::new(entry)).ok().map(|()| bytes)
}

/// The published snapshot: a directory of chunks of write-once cells,
/// indexed by state id.
///
/// This is the *epoch* half of the read/expand split. Each `LazyTables`
/// handle pins one directory and serves its steady-state queries from it
/// with no locks: a query is one `Acquire` load of the state's cell. A
/// miss sets the cell *in place* under the writer mutex, so a reader
/// pinned to the same directory sees the entry without refreshing; the
/// writer republishes the directory only when it appends a chunk or copies
/// one. Pinning is sound because everything that could make a published
/// entry *wrong* — `MODIFY`, mark-and-sweep — requires `&mut ItemSetGraph`,
/// which the borrow checker refuses while any handle (a `&` borrow) is
/// alive. The one `&self` writer that retracts entries, refcount GC
/// during re-expansion, only collects states unreachable under the
/// current grammar — a parse in flight holds published predecessors
/// (whose refcounts pin their successors), so it can never be directed
/// into a collected state — and it retracts by copying the chunk, so
/// pinned readers never see a cell change once set.
///
/// **Ownership.** Successor epochs share snapshot chunks, and a state that
/// is `Initial` in two epochs may expand differently under their grammars.
/// An epoch therefore writes in place only into the chunks it owns (see
/// `GraphInner::snap_owned`): appended chunks and its own copies. A fork
/// clears ownership on both sides, so the first write into a shared chunk
/// copies it — once per chunk per epoch, not once per miss.
#[derive(Debug, Default)]
pub(crate) struct TableSnapshot {
    chunks: Vec<Arc<SnapChunk>>,
}

impl TableSnapshot {
    #[inline]
    pub(crate) fn get(&self, id: StateId) -> Option<&PublishedState> {
        let chunk = self.chunks.get(id.index() >> CHUNK_BITS)?;
        chunk[id.index() & (CHUNK_SIZE - 1)].get().map(|entry| &**entry)
    }
}

/// One set of items in the graph.
#[derive(Clone, Debug)]
pub struct ItemSetNode {
    /// Identity of the node (index in the arena; stable for the lifetime of
    /// the graph, even across garbage collection).
    pub id: StateId,
    /// The kernel: the dotted rules that are potentially being recognised.
    pub kernel: ItemSet,
    /// Life-cycle stage.
    pub kind: ItemSetKind,
    /// Outgoing edges (valid when `Complete`; the *old* edges when `Dirty`).
    pub transitions: BTreeMap<SymbolId, StateId>,
    /// Rules that may be reduced in this state (valid when `Complete`).
    pub reductions: Vec<RuleId>,
    /// Whether this state has the `($ accept)` transition.
    pub accepting: bool,
    /// Number of transitions from live item sets that point here.
    pub refcount: usize,
    /// `false` once the node has been reclaimed by a garbage collector.
    pub alive: bool,
}

impl ItemSetNode {
    fn new(id: StateId, kernel: ItemSet) -> Self {
        ItemSetNode {
            id,
            kernel,
            kind: ItemSetKind::Initial,
            transitions: BTreeMap::new(),
            reductions: Vec::new(),
            accepting: false,
            refcount: 0,
            alive: true,
        }
    }

    /// `true` when the node still needs (re-)expansion before its
    /// transitions and reductions may be consulted.
    pub fn needs_expansion(&self) -> bool {
        self.kind != ItemSetKind::Complete
    }
}

/// log2 of the nodes-per-chunk count.
const CHUNK_BITS: usize = 9;
/// Nodes per storage chunk. The trade: a fork (and a retired epoch's
/// drop) costs one `Arc` refcount touch per chunk, while an invalidated
/// state costs one chunk copy-on-write — item-set nodes are small (a few
/// one-node B-trees), so copying a 512-node chunk is ~1µs. 512 keeps the
/// per-edit `Arc`-traffic term flat far past the 5000-production mark the
/// `publish-scaling` bench tracks, while a `MODIFY` still copies only the
/// chunks its invalidations land in.
pub const CHUNK_SIZE: usize = 1 << CHUNK_BITS;

#[inline]
fn chunk_of(id: StateId) -> usize {
    (id.0 as usize) >> CHUNK_BITS
}

#[inline]
fn slot_of(id: StateId) -> usize {
    (id.0 as usize) & (CHUNK_SIZE - 1)
}

// ----------------------------------------------------------------------
// Byte accounting (the residency model)
//
// Every storage chunk carries a cached byte count, and the graph one for
// its published entries, so a registry can enforce a global budget without
// walking nodes.
// The model is *self-consistent*, not allocator-exact: collection
// overheads are folded into per-entry constants, and `Vec` spare
// capacity is ignored. What the accounting guarantees — and what the
// exactness test holds it to — is that the incrementally maintained
// counters equal a fresh walk of the same model over the live
// structures, after any sequence of EXPAND / MODIFY / GC / publication.
// ----------------------------------------------------------------------

/// Modeled bytes of one `BTreeSet<Item>` entry: the item plus amortized
/// tree-node overhead.
const ITEM_ENTRY_BYTES: usize = std::mem::size_of::<Item>() + 16;
/// Modeled bytes of one `BTreeMap<SymbolId, StateId>` entry.
const MAP_ENTRY_BYTES: usize = std::mem::size_of::<(SymbolId, StateId)>() + 16;
/// Modeled bytes of an `Arc` allocation header (strong + weak counts).
const ARC_HEADER_BYTES: usize = 16;

/// Modeled resident bytes of one node: its inline slot plus every heap
/// allocation hanging off it. O(1) — only lengths are consulted.
fn node_heap_bytes(node: &ItemSetNode) -> usize {
    std::mem::size_of::<ItemSetNode>()
        + node.kernel.len() * ITEM_ENTRY_BYTES
        + node.transitions.len() * MAP_ENTRY_BYTES
        + node.reductions.len() * std::mem::size_of::<RuleId>()
}

/// Fresh (non-cached) walk of one chunk's modeled bytes — the oracle the
/// incrementally maintained `NodeChunk::bytes` is tested against.
fn chunk_bytes_of(chunk: &NodeChunk) -> usize {
    chunk.nodes.iter().map(node_heap_bytes).sum()
}

/// Modeled resident bytes of one published entry (its `Arc` allocation).
fn published_state_bytes(entry: &PublishedState) -> usize {
    ARC_HEADER_BYTES
        + std::mem::size_of::<PublishedState>()
        + entry.row.targets.len() * 4
        + entry.reductions.len() * std::mem::size_of::<RuleId>()
}

/// Fresh walk of one snapshot chunk's modeled bytes.
fn snap_chunk_bytes(chunk: &SnapChunk) -> usize {
    chunk.iter().filter_map(OnceLock::get).map(|e| published_state_bytes(e)).sum()
}

/// One `Arc`-shared storage chunk: up to [`CHUNK_SIZE`] consecutive nodes
/// plus a conservative summary of their outgoing transition symbols.
#[derive(Clone, Debug, Default)]
struct NodeChunk {
    nodes: Vec<ItemSetNode>,
    /// Sorted superset of the symbol ids on which some live *complete*
    /// node of this chunk has a transition. `MODIFY` consults it to skip
    /// chunks that cannot contain invalidation candidates. Conservative:
    /// merged on expansion, rebuilt exactly whenever the chunk is copied
    /// on write, so stale entries only cost a false-positive scan of one
    /// chunk, never a missed invalidation.
    out_symbols: Vec<u32>,
    /// Cached modeled bytes of this chunk's nodes (see the byte-accounting
    /// section above). Maintained incrementally at every node mutation, so
    /// residency queries are O(#chunks), never O(#nodes).
    bytes: usize,
}

impl NodeChunk {
    fn rebuild_summary(&mut self) {
        self.out_symbols.clear();
        for node in &self.nodes {
            if node.alive && node.kind == ItemSetKind::Complete {
                self.out_symbols
                    .extend(node.transitions.keys().map(|s| s.index() as u32));
            }
        }
        self.out_symbols.sort_unstable();
        self.out_symbols.dedup();
    }

    fn summary_may_contain(&self, symbol: SymbolId) -> bool {
        self.out_symbols
            .binary_search(&(symbol.index() as u32))
            .is_ok()
    }

    fn merge_summary(&mut self, symbols: impl Iterator<Item = SymbolId>) {
        for s in symbols {
            let v = s.index() as u32;
            if let Err(pos) = self.out_symbols.binary_search(&v) {
                self.out_symbols.insert(pos, v);
            }
        }
    }
}

/// A strong, opaque handle to one storage chunk. Exposed so tests and
/// tools can observe **chunk-granular reclamation**: a chunk shared
/// between epochs stays alive as long as any live epoch uses it, while a
/// chunk owned only by a retired epoch is freed with that epoch.
#[derive(Clone, Debug)]
pub struct ChunkHandle(Arc<NodeChunk>);

impl ChunkHandle {
    /// A weak observer of this chunk's lifetime.
    pub fn observer(&self) -> ChunkObserver {
        ChunkObserver(Arc::downgrade(&self.0))
    }

    /// `true` when both handles point at the same chunk storage.
    pub fn ptr_eq(&self, other: &ChunkHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A weak observer of one storage chunk (see [`ChunkHandle`]).
#[derive(Clone, Debug)]
pub struct ChunkObserver(Weak<NodeChunk>);

impl ChunkObserver {
    /// `true` while some graph (epoch) still holds the chunk.
    pub fn is_alive(&self) -> bool {
        self.0.strong_count() > 0
    }
}

/// Number of shards of the kernel index. The index maps kernels to state
/// ids; sharding bounds the copy-on-write cost of the first post-fork
/// interning to `O(#states / 64)` instead of the whole index.
const KERNEL_SHARDS: usize = 64;

/// The kernel → state index, sharded into `Arc`'d hash maps so a fork
/// clones 64 pointers and writes copy only the shard they touch.
#[derive(Clone, Debug)]
struct KernelIndex {
    shards: Vec<Arc<HashMap<ItemSet, StateId>>>,
}

impl KernelIndex {
    fn new() -> Self {
        KernelIndex {
            shards: (0..KERNEL_SHARDS)
                .map(|_| Arc::new(HashMap::new()))
                .collect(),
        }
    }

    /// Deterministic shard choice (stable across forks, which share the
    /// shard vector).
    fn shard_of(kernel: &ItemSet) -> usize {
        let mut hasher = DefaultHasher::new();
        kernel.hash(&mut hasher);
        (hasher.finish() as usize) % KERNEL_SHARDS
    }

    fn get(&self, kernel: &ItemSet) -> Option<StateId> {
        self.shards[Self::shard_of(kernel)].get(kernel).copied()
    }

    fn insert(&mut self, kernel: ItemSet, id: StateId) {
        let shard = Self::shard_of(&kernel);
        Arc::make_mut(&mut self.shards[shard]).insert(kernel, id);
    }

    /// Removes the entry for `kernel` if it still maps to `id` (a newer
    /// live node may have reused the kernel). Avoids copying the shard
    /// when there is nothing to remove.
    fn remove_if(&mut self, kernel: &ItemSet, id: StateId) {
        let shard = Self::shard_of(kernel);
        if self.shards[shard].get(kernel) == Some(&id) {
            Arc::make_mut(&mut self.shards[shard]).remove(kernel);
        }
    }

    fn unshare(&mut self) {
        for shard in &mut self.shards {
            *shard = Arc::new((**shard).clone());
        }
    }
}

/// Writer-owned state: everything only structural mutation touches.
#[derive(Debug)]
struct GraphInner {
    /// Total number of nodes ever created (dense id space).
    len: usize,
    /// Kernel → node index for all *live* nodes; used by `EXPAND` to share
    /// item sets ("if a set of items with kernel kernel' does not yet
    /// exist, it is generated").
    kernel_index: KernelIndex,
    /// Work counters (query counters live outside, see `ItemSetGraph`).
    stats: GenStats,
    grammar_version: u64,
    /// Scratch for `RE-EXPAND`'s old-target snapshot (reused, not
    /// reallocated per re-expansion).
    scratch_targets: Vec<StateId>,
    /// Scratch for `expand_all`'s pending list.
    scratch_pending: Vec<StateId>,
    /// Scratch work-stack for iterative `DECR-REFCOUNT`.
    gc_stack: Vec<StateId>,
    /// Scratch for the states whose published cells one `MODIFY`, sweep
    /// or re-expansion retracts (invalidated, swept or collected).
    scratch_retract: Vec<StateId>,
    /// Per snapshot chunk: `true` when this graph alone holds the chunk,
    /// so its empty cells may be set in place. Appended chunks and copies
    /// start owned; a fork clears every flag on both sides (see
    /// [`TableSnapshot`]).
    snap_owned: Vec<bool>,
}

impl GraphInner {
    fn new(grammar_version: u64) -> Self {
        GraphInner {
            len: 0,
            kernel_index: KernelIndex::new(),
            stats: GenStats::default(),
            grammar_version,
            scratch_targets: Vec::new(),
            scratch_pending: Vec::new(),
            gc_stack: Vec::new(),
            scratch_retract: Vec::new(),
            snap_owned: Vec::new(),
        }
    }

    /// Fork-time clone: shares the kernel-index shards (`Arc` bumps),
    /// starts the fork with fresh, empty scratch buffers, and makes both
    /// sides treat every snapshot chunk as shared.
    fn fork(&mut self) -> Self {
        self.snap_owned.fill(false);
        GraphInner {
            len: self.len,
            kernel_index: self.kernel_index.clone(),
            stats: self.stats,
            snap_owned: self.snap_owned.clone(),
            ..GraphInner::new(self.grammar_version)
        }
    }
}

/// The lazily generated, concurrently readable graph of item sets.
///
/// All read-path methods take `&self` and may be called from any number of
/// threads; the expansion entry points ([`ItemSetGraph::ensure_expanded`],
/// [`ItemSetGraph::ensure_state`], [`ItemSetGraph::expand_all`]) also take
/// `&self` but serialize internally
/// as writers. Grammar modifications (`add_rule` / `remove_rule` /
/// `mark_and_sweep`) keep `&mut self`: they change the *language* the graph
/// answers for, so callers must hold exclusive access. The `IpgServer`
/// satisfies this without draining readers by *forking*: `Clone` produces
/// a **structurally shared** copy — O(#chunks) `Arc` bumps taken under the
/// internal writer mutex, no node is copied — `MODIFY` runs on the private
/// fork and copies-on-write only the chunks holding invalidated states,
/// and the fork is published as a new grammar epoch while parses in
/// flight keep reading the original. Publication is therefore
/// O(invalidated states), independent of graph size; a retired epoch's
/// chunks are freed individually once no live epoch shares them.
#[derive(Debug)]
pub struct ItemSetGraph {
    /// The persistent chunk store (see [`NodeChunk`]).
    store: RwLock<Vec<Arc<NodeChunk>>>,
    inner: Mutex<GraphInner>,
    /// The current published snapshot (see [`TableSnapshot`]). Readers
    /// clone the `Arc` once per handle refresh, not per query.
    published: RwLock<Arc<TableSnapshot>>,
    /// Cached modeled bytes of every published entry, maintained at each
    /// cell write and retraction (see the byte-accounting section above).
    published_bytes: AtomicUsize,
    /// `ACTION` query count, aggregated from the per-handle counters of the
    /// lazy tables (relaxed; flushed once per table handle, not per query).
    action_calls: AtomicUsize,
    /// `GOTO` query count (see `action_calls`).
    goto_calls: AtomicUsize,
    /// Storage chunks copied on write because they were shared with
    /// another fork — the observable cost of structural sharing.
    chunks_cowed: AtomicUsize,
    start: StateId,
    gc: GcPolicy,
}

impl Clone for ItemSetGraph {
    /// Forks the graph by cloning chunk pointers: O(#chunks), however many
    /// states the graph holds. Taken under the writer mutex, so the fork
    /// is a consistent snapshot; from here on neither side writes a
    /// snapshot cell in place until it has copied that chunk.
    fn clone(&self) -> Self {
        let mut inner = self.inner.lock().unwrap();
        ItemSetGraph {
            store: RwLock::new(self.store.read().unwrap().clone()),
            inner: Mutex::new(inner.fork()),
            published: RwLock::new(self.published.read().unwrap().clone()),
            published_bytes: AtomicUsize::new(self.published_bytes.load(Ordering::Relaxed)),
            action_calls: AtomicUsize::new(self.action_calls.load(Ordering::Relaxed)),
            goto_calls: AtomicUsize::new(self.goto_calls.load(Ordering::Relaxed)),
            chunks_cowed: AtomicUsize::new(self.chunks_cowed.load(Ordering::Relaxed)),
            start: self.start,
            gc: self.gc,
        }
    }
}

/// Derived totals of the graph's counters.
impl GenStats {
    /// Total number of item sets reclaimed by any garbage collector.
    pub fn total_collected(&self) -> usize {
        self.nodes_collected + self.nodes_swept
    }

    /// Total number of expansion operations (lazy + re-expansions).
    pub fn total_expansions(&self) -> usize {
        self.expansions + self.re_expansions
    }
}

impl ItemSetGraph {
    /// The paper's lazy `GENERATE-PARSER` (§5.1): creates only the start
    /// item set, as an initial set of items.
    pub fn new(grammar: &Grammar) -> Self {
        Self::with_policy(grammar, GcPolicy::default())
    }

    /// Like [`ItemSetGraph::new`] with an explicit garbage-collection
    /// policy.
    pub fn with_policy(grammar: &Grammar, gc: GcPolicy) -> Self {
        let graph = ItemSetGraph {
            store: RwLock::new(Vec::new()),
            published: RwLock::new(Arc::new(TableSnapshot::default())),
            published_bytes: AtomicUsize::new(0),
            inner: Mutex::new(GraphInner::new(grammar.version())),
            action_calls: AtomicUsize::new(0),
            goto_calls: AtomicUsize::new(0),
            chunks_cowed: AtomicUsize::new(0),
            start: StateId(0),
            gc,
        };
        {
            let mut inner = graph.inner.lock().unwrap();
            let start = graph.intern_kernel_locked(&mut inner, start_kernel(grammar));
            debug_assert_eq!(start, StateId(0));
        }
        graph
    }

    /// The state in which parsing starts.
    pub fn start_state(&self) -> StateId {
        self.start
    }

    /// The garbage-collection policy in force.
    pub fn gc_policy(&self) -> GcPolicy {
        self.gc
    }

    /// The grammar version the graph currently corresponds to. Updated by
    /// [`ItemSetGraph::add_rule`] / [`ItemSetGraph::remove_rule`].
    pub fn grammar_version(&self) -> u64 {
        self.inner.lock().unwrap().grammar_version
    }

    /// A snapshot of the work counters. `resident_bytes` is sampled live
    /// from the chunk accounting (a gauge, not a counter).
    pub fn stats(&self) -> GenStats {
        let mut stats = self.inner.lock().unwrap().stats;
        stats.action_calls += self.action_calls.load(Ordering::Relaxed);
        stats.goto_calls += self.goto_calls.load(Ordering::Relaxed);
        stats.chunks_cowed += self.chunks_cowed.load(Ordering::Relaxed);
        stats.resident_bytes = self.resident_bytes();
        stats.resident_high_water = stats.resident_high_water.max(stats.resident_bytes);
        stats
    }

    /// A snapshot of a node, or an error for ids that were never handed out
    /// by this graph or whose node has been garbage-collected. This is the
    /// accessor server-side callers should use: a stale [`StateId`] must
    /// not be able to crash (or poison) a graph shared by many parsers.
    pub fn try_node(&self, id: StateId) -> Result<ItemSetNode, GraphError> {
        let store = self.store.read().unwrap();
        match store
            .get(chunk_of(id))
            .and_then(|chunk| chunk.nodes.get(slot_of(id)))
        {
            None => Err(GraphError::UnknownState(id)),
            Some(node) if !node.alive => Err(GraphError::CollectedState(id)),
            Some(node) => Ok(node.clone()),
        }
    }

    /// The life-cycle stage of a node, without cloning it — the cheap
    /// accessor for callers (and tests) that only need the kind.
    pub fn node_kind(&self, id: StateId) -> Result<ItemSetKind, GraphError> {
        let store = self.store.read().unwrap();
        match store
            .get(chunk_of(id))
            .and_then(|chunk| chunk.nodes.get(slot_of(id)))
        {
            None => Err(GraphError::UnknownState(id)),
            Some(node) if !node.alive => Err(GraphError::CollectedState(id)),
            Some(node) => Ok(node.kind),
        }
    }

    /// A snapshot of a node (dead nodes remain accessible for
    /// post-mortems).
    ///
    /// # Panics
    /// Panics with a descriptive message when `id` is out of range; use
    /// [`ItemSetGraph::try_node`] when the id may be stale.
    pub fn node(&self, id: StateId) -> ItemSetNode {
        let store = self.store.read().unwrap();
        store
            .get(chunk_of(id))
            .and_then(|chunk| chunk.nodes.get(slot_of(id)))
            .unwrap_or_else(|| panic!("{}", GraphError::UnknownState(id)))
            .clone()
    }

    /// A point-in-time snapshot of the live nodes, in id order.
    pub fn live_nodes(&self) -> impl Iterator<Item = ItemSetNode> {
        let store = self.store.read().unwrap();
        let nodes: Vec<ItemSetNode> = store
            .iter()
            .flat_map(|chunk| chunk.nodes.iter())
            .filter(|n| n.alive)
            .cloned()
            .collect();
        nodes.into_iter()
    }

    /// Number of live nodes.
    pub fn num_live(&self) -> usize {
        let store = self.store.read().unwrap();
        store
            .iter()
            .map(|chunk| chunk.nodes.iter().filter(|n| n.alive).count())
            .sum()
    }

    /// Size snapshot of the graph.
    pub fn size(&self) -> GraphSize {
        let mut size = GraphSize::default();
        let store = self.store.read().unwrap();
        for node in store
            .iter()
            .flat_map(|chunk| chunk.nodes.iter())
            .filter(|n| n.alive)
        {
            size.total += 1;
            match node.kind {
                ItemSetKind::Initial => size.initial += 1,
                ItemSetKind::Dirty => size.dirty += 1,
                ItemSetKind::Complete => size.complete += 1,
            }
            if node.kind != ItemSetKind::Initial {
                size.transitions += node.transitions.len();
            }
        }
        size
    }

    /// An exclusive borrow of chunk `c`, copying it on write when it is
    /// still shared with another fork (the copy rebuilds the chunk's
    /// transition-symbol summary exactly).
    fn chunk_mut<'a>(&self, store: &'a mut [Arc<NodeChunk>], c: usize) -> &'a mut NodeChunk {
        let arc = &mut store[c];
        if Arc::get_mut(arc).is_none() {
            let mut copy = (**arc).clone();
            copy.rebuild_summary();
            *arc = Arc::new(copy);
            self.chunks_cowed.fetch_add(1, Ordering::Relaxed);
        }
        Arc::get_mut(arc).expect("chunk was just made unique")
    }

    /// Runs `f` on a shared borrow of the node.
    fn with_node<R>(&self, id: StateId, f: impl FnOnce(&ItemSetNode) -> R) -> R {
        let store = self.store.read().unwrap();
        f(&store[chunk_of(id)].nodes[slot_of(id)])
    }

    /// Runs `f` on an exclusive borrow of the node (copy-on-write at chunk
    /// granularity). The chunk's cached byte count is adjusted by whatever
    /// size change `f` causes, keeping the residency accounting exact.
    fn with_node_mut<R>(&self, id: StateId, f: impl FnOnce(&mut ItemSetNode) -> R) -> R {
        let mut store = self.store.write().unwrap();
        let chunk = self.chunk_mut(&mut store, chunk_of(id));
        let slot = slot_of(id);
        let before = node_heap_bytes(&chunk.nodes[slot]);
        let result = f(&mut chunk.nodes[slot]);
        chunk.bytes = chunk.bytes - before + node_heap_bytes(&chunk.nodes[slot]);
        result
    }

    fn intern_kernel_locked(&self, inner: &mut GraphInner, kernel: ItemSet) -> StateId {
        if let Some(id) = inner.kernel_index.get(&kernel) {
            return id;
        }
        let id = StateId::from_index(inner.len);
        inner.len += 1;
        inner.kernel_index.insert(kernel.clone(), id);
        let mut store = self.store.write().unwrap();
        if chunk_of(id) == store.len() {
            store.push(Arc::new(NodeChunk::default()));
        }
        let chunk = self.chunk_mut(&mut store, chunk_of(id));
        debug_assert_eq!(chunk.nodes.len(), slot_of(id));
        chunk.nodes.push(ItemSetNode::new(id, kernel));
        chunk.bytes += node_heap_bytes(chunk.nodes.last().expect("just pushed"));
        inner.stats.nodes_created += 1;
        id
    }

    // ------------------------------------------------------------------
    // Read path (`&self`, pinned snapshots — no locks per query)
    // ------------------------------------------------------------------

    /// The current published snapshot. A `LazyTables` handle pins one of
    /// these and refreshes it only when a miss's cell is not visible
    /// through the pin; a steady-state query is one `Acquire` load of a
    /// write-once cell.
    pub(crate) fn published_snapshot(&self) -> Arc<TableSnapshot> {
        self.published.read().unwrap().clone()
    }

    /// `true` when `id` names a live node. Must be consulted *under the
    /// inner mutex* before materialising anything for `id`: refcount GC
    /// runs on the `&self` writer path (re-expansion of dirty nodes), so
    /// a lock-free liveness check could race a collection and resurrect a
    /// dead node into the published snapshot.
    fn is_live_locked(&self, inner: &GraphInner, id: StateId) -> bool {
        id.index() < inner.len && self.with_node(id, |n| n.alive)
    }

    /// The `ACTION` miss path: materialise and publish `state` if it is a
    /// real, live state. Returns `false` for stale ids (out of range, or
    /// reclaimed by GC), which read as error cells. The liveness check
    /// happens under the writer mutex, so a concurrent collection cannot
    /// slip between the check and the (re-)publication.
    pub(crate) fn ensure_state_checked(&self, grammar: &Grammar, id: StateId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if !self.is_live_locked(&inner, id) {
            return false;
        }
        self.ensure_expanded_locked(&mut inner, grammar, id);
        self.publish_locked(&mut inner, grammar, id);
        true
    }

    /// The `GOTO` miss path. Appendix A proves `GOTO` is only called with
    /// complete item sets, so no expansion is performed — a non-complete
    /// (or stale) state reads as an error entry after a debug assertion;
    /// for a complete state the cell is published so the caller can read
    /// the target.
    pub(crate) fn prepare_goto(&self, grammar: &Grammar, id: StateId) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if !self.is_live_locked(&inner, id) {
            return false;
        }
        let kind = self.with_node(id, |n| n.kind);
        debug_assert_eq!(
            kind,
            ItemSetKind::Complete,
            "Appendix A invariant violated: GOTO called on a non-complete item set"
        );
        if kind != ItemSetKind::Complete {
            return false;
        }
        self.publish_locked(&mut inner, grammar, id);
        true
    }

    /// Flush per-handle query counters into the graph-wide aggregates
    /// (called when a lazy-tables handle is dropped).
    pub(crate) fn record_queries(&self, action_calls: usize, goto_calls: usize) {
        if action_calls > 0 {
            self.action_calls.fetch_add(action_calls, Ordering::Relaxed);
        }
        if goto_calls > 0 {
            self.goto_calls.fetch_add(goto_calls, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Write path (serialized on the inner mutex)
    // ------------------------------------------------------------------

    /// Ensures the node's transitions and reductions are valid for the
    /// current grammar: the lazy `ACTION`'s "if state.type = initial then
    /// EXPAND(state)", extended with `RE-EXPAND` for dirty nodes.
    pub fn ensure_expanded(&self, grammar: &Grammar, id: StateId) {
        let mut inner = self.inner.lock().unwrap();
        self.ensure_expanded_locked(&mut inner, grammar, id);
    }

    /// Ensures the node is expanded *and* its cell is published — the
    /// single writer entry point behind the lazy tables' read path.
    pub fn ensure_state(&self, grammar: &Grammar, id: StateId) {
        let mut inner = self.inner.lock().unwrap();
        self.ensure_expanded_locked(&mut inner, grammar, id);
        self.publish_locked(&mut inner, grammar, id);
    }

    fn ensure_expanded_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        match self.with_node(id, |n| n.kind) {
            ItemSetKind::Complete => {}
            ItemSetKind::Initial => self.expand_locked(inner, grammar, id),
            ItemSetKind::Dirty => self.re_expand_locked(inner, grammar, id),
        }
    }

    /// The paper's `EXPAND`: transform an initial set of items into a
    /// complete one.
    fn expand_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        inner.stats.expansions += 1;
        self.expand_common_locked(inner, grammar, id);
    }

    /// The paper's `RE-EXPAND` (§6.2): expand a dirty set of items, then
    /// release the references its old transitions held.
    fn re_expand_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        let computed = self.compute_expansion(grammar, id);
        self.re_commit_expansion_locked(inner, id, computed);
    }

    /// The write half of `RE-EXPAND`: commit a precomputed expansion over
    /// a dirty node and release the references its old transitions held.
    fn re_commit_expansion_locked(
        &self,
        inner: &mut GraphInner,
        id: StateId,
        computed: ComputedExpansion,
    ) {
        inner.stats.re_expansions += 1;
        let mut old_targets = std::mem::take(&mut inner.scratch_targets);
        old_targets.clear();
        self.with_node(id, |n| {
            old_targets.extend(n.transitions.values().copied());
        });
        self.commit_expansion_locked(inner, id, computed);
        if self.refcounting() {
            let mut collected = std::mem::take(&mut inner.scratch_retract);
            collected.clear();
            for &target in &old_targets {
                self.decr_refcount_locked(inner, target, &mut collected);
            }
            self.retract_locked(inner, &collected);
            inner.scratch_retract = collected;
        }
        inner.scratch_targets = old_targets;
    }

    fn expand_common_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        let computed = self.compute_expansion(grammar, id);
        self.commit_expansion_locked(inner, id, computed);
    }

    /// The read-only half of `EXPAND` for one resident node: clones the
    /// node's (immutable-within-a-write) kernel and runs the pure
    /// `compute_expansion_of` on it. The steady-state miss path and small
    /// warm rounds use this; the parallel warm's fan-out
    /// ([`ItemSetGraph::expand_all_parallel`]) clones whole frontiers of
    /// kernels up front and calls `compute_expansion_of` directly so its
    /// workers never touch the store.
    fn compute_expansion(&self, grammar: &Grammar, id: StateId) -> ComputedExpansion {
        let kernel = self.with_node(id, |n| n.kernel.clone());
        compute_expansion_of(grammar, &kernel)
    }

    /// The write half of `EXPAND`: intern the successor kernels (in symbol
    /// order, so state numbering is deterministic and identical to the
    /// fully serial expansion) and publish the node as complete.
    fn commit_expansion_locked(
        &self,
        inner: &mut GraphInner,
        id: StateId,
        computed: ComputedExpansion,
    ) {
        inner.stats.closures += 1;
        let mut transitions = BTreeMap::new();
        for (symbol, succ_kernel) in computed.successors {
            let target = self.intern_kernel_locked(inner, succ_kernel);
            transitions.insert(symbol, target);
            if self.refcounting() {
                self.with_node_mut(target, |n| n.refcount += 1);
            }
        }

        let mut store = self.store.write().unwrap();
        let chunk = self.chunk_mut(&mut store, chunk_of(id));
        // Keep the chunk's MODIFY summary a superset of its live complete
        // nodes' transition symbols.
        chunk.merge_summary(transitions.keys().copied());
        let slot = slot_of(id);
        let before = node_heap_bytes(&chunk.nodes[slot]);
        let node = &mut chunk.nodes[slot];
        node.transitions = transitions;
        node.reductions = computed.reductions;
        node.accepting = computed.accepting;
        node.kind = ItemSetKind::Complete;
        chunk.bytes = chunk.bytes - before + node_heap_bytes(&chunk.nodes[slot]);
    }

    /// Publishes a complete node's cell if it is still empty: builds the
    /// [`PublishedState`] from the node and sets the cell in place. Only
    /// the first write into a chunk this graph does not own (appended, or
    /// shared with another epoch) republishes the directory.
    fn publish_locked(&self, inner: &mut GraphInner, grammar: &Grammar, id: StateId) {
        debug_assert_eq!(
            self.with_node(id, |n| n.kind),
            ItemSetKind::Complete,
            "published cells only hold complete item sets"
        );
        if self.published_snapshot().get(id).is_some() {
            return;
        }
        let snapshot = self.owned_snapshot_locked(inner, &[chunk_of(id)]);
        let cell = &snapshot.chunks[chunk_of(id)][slot_of(id)];
        let (num_symbols, version) = (grammar.symbols().len(), grammar.version());
        let published = self.with_node(id, |node| publish_cell(cell, node, num_symbols, version));
        if let Some(bytes) = published {
            self.published_bytes.fetch_add(bytes, Ordering::Relaxed);
            inner.stats.rows_built += 1;
        }
    }

    /// The published directory, with every chunk in `chunks` present and
    /// owned by this graph so its cells can be set in place. Missing
    /// chunks are appended empty; a chunk shared with another epoch is
    /// copied, once per epoch. The directory is republished only when one
    /// of the two happened.
    fn owned_snapshot_locked(
        &self,
        inner: &mut GraphInner,
        chunks: &[usize],
    ) -> Arc<TableSnapshot> {
        if chunks.iter().all(|&c| inner.snap_owned.get(c) == Some(&true)) {
            return self.published_snapshot();
        }
        let mut published = self.published.write().unwrap();
        let mut dir = published.chunks.clone();
        for &c in chunks {
            while dir.len() <= c {
                dir.push(empty_snap_chunk());
                inner.snap_owned.push(true);
            }
            if !inner.snap_owned[c] {
                dir[c] = Arc::from(&dir[c][..]);
                inner.snap_owned[c] = true;
            }
        }
        *published = Arc::new(TableSnapshot { chunks: dir });
        published.clone()
    }

    /// Retracts the published cells of `ids` in one batch: each snapshot
    /// chunk holding one of them is copied with those cells empty (pinned
    /// readers keep the chunk they hold), and the directory is republished
    /// once. The companion of every path that invalidates or reclaims a
    /// state — `MODIFY`, the sweep, refcount GC — and O(retracted), not
    /// O(published).
    fn retract_locked(&self, inner: &mut GraphInner, ids: &[StateId]) {
        if ids.is_empty() {
            return;
        }
        let published = self.published_snapshot();
        let mut dir = published.chunks.clone();
        let mut freed = 0;
        for &id in ids {
            let c = chunk_of(id);
            let Some(entry) = dir.get(c).and_then(|chunk| chunk[slot_of(id)].get()) else {
                continue;
            };
            freed += published_state_bytes(entry);
            if Arc::ptr_eq(&dir[c], &published.chunks[c]) {
                dir[c] = Arc::from(&dir[c][..]);
                inner.snap_owned[c] = true;
            }
            Arc::get_mut(&mut dir[c]).expect("a fresh copy")[slot_of(id)].take();
        }
        if freed > 0 {
            self.published_bytes.fetch_sub(freed, Ordering::Relaxed);
            *self.published.write().unwrap() = Arc::new(TableSnapshot { chunks: dir });
        }
    }

    /// The dense action row published for a node, if the node is complete
    /// and its cell has been written since its last expansion.
    pub fn action_row(&self, id: StateId) -> Option<ActionRow> {
        self.published_snapshot().get(id).map(|entry| entry.row.clone())
    }

    fn refcounting(&self) -> bool {
        !matches!(self.gc, GcPolicy::Retain)
    }

    /// The paper's `DECR-REFCOUNT`: release one reference to `id`; if the
    /// count drops to zero the node is reclaimed and the references *it*
    /// holds are released in turn. Iterative over a reused work stack, so
    /// deep release chains neither recurse nor allocate in steady state.
    /// Reclaimed ids are appended to `collected` for the caller to retract.
    fn decr_refcount_locked(
        &self,
        inner: &mut GraphInner,
        id: StateId,
        collected: &mut Vec<StateId>,
    ) {
        let mut stack = std::mem::take(&mut inner.gc_stack);
        debug_assert!(stack.is_empty());
        stack.push(id);
        while let Some(id) = stack.pop() {
            if id == self.start {
                continue; // the start item set is never collected
            }
            // Peek first so a node that merely loses one of several
            // references does not force a chunk copy-on-write of anything
            // beyond the refcount cell.
            let (alive, refcount) = self.with_node(id, |n| (n.alive, n.refcount));
            if !alive {
                continue;
            }
            if refcount > 1 {
                self.with_node_mut(id, |n| n.refcount -= 1);
                continue;
            }
            let (kernel, targets) = self.with_node_mut(id, |node| {
                node.refcount = 0;
                node.alive = false;
                let targets: Vec<StateId> = if node.kind != ItemSetKind::Initial {
                    node.transitions.values().copied().collect()
                } else {
                    Vec::new()
                };
                (std::mem::take(&mut node.kernel), targets)
            });
            inner.stats.nodes_collected += 1;
            // Only remove the index entry if it still points at this node
            // (a newer live node may have reused the kernel).
            inner.kernel_index.remove_if(&kernel, id);
            stack.extend(targets);
            collected.push(id);
        }
        inner.gc_stack = stack;
    }

    /// Adds `lhs ::= rhs` to the grammar and updates the graph — the
    /// paper's `ADD-RULE`.
    ///
    /// `MODIFY` requires exclusive access (`&mut self`): it changes the
    /// language the graph answers for, so no parse may be in flight.
    pub fn add_rule(&mut self, grammar: &mut Grammar, lhs: SymbolId, rhs: Vec<SymbolId>) -> RuleId {
        let rule = grammar.add_rule(lhs, rhs);
        let mut inner = self.inner.lock().unwrap();
        self.modify_locked(&mut inner, grammar, lhs, rule, true);
        rule
    }

    /// Deletes `lhs ::= rhs` from the grammar and updates the graph — the
    /// paper's `DELETE-RULE`. Exclusive for the same reason as
    /// [`ItemSetGraph::add_rule`].
    pub fn remove_rule(
        &mut self,
        grammar: &mut Grammar,
        lhs: SymbolId,
        rhs: &[SymbolId],
    ) -> Result<RuleId, GrammarError> {
        let rule = grammar.remove_rule_matching(lhs, rhs)?;
        let mut inner = self.inner.lock().unwrap();
        self.modify_locked(&mut inner, grammar, lhs, rule, false);
        Ok(rule)
    }

    /// The paper's `MODIFY`: after the grammar has been updated, invalidate
    /// every complete item set whose expansion is no longer correct. These
    /// are exactly the complete item sets with a transition on the rule's
    /// left-hand side, plus the start item set when the rule defines
    /// `START`.
    ///
    /// Cost: O(invalidated states) chunk copies plus an O(#chunks) summary
    /// scan — the §6 "cost proportional to what the edit invalidates"
    /// property, independent of how many states the graph holds. Chunks
    /// without an invalidated state stay shared with the pre-edit fork.
    fn modify_locked(
        &self,
        inner: &mut GraphInner,
        grammar: &Grammar,
        lhs: SymbolId,
        rule: RuleId,
        added: bool,
    ) {
        inner.stats.modifications += 1;
        inner.grammar_version = grammar.version();
        let invalidated_kind = if self.refcounting() {
            ItemSetKind::Dirty
        } else {
            ItemSetKind::Initial
        };
        let mut invalidated = std::mem::take(&mut inner.scratch_retract);
        invalidated.clear();

        if lhs == grammar.start_symbol() {
            // The start item set's kernel is derived from the START rules;
            // keep it in sync and re-expand it lazily.
            let start = self.start;
            let (was_complete, old_kernel, new_kernel) = self.with_node_mut(start, |node| {
                let old_kernel = node.kernel.clone();
                let item = Item::start(rule);
                if added {
                    node.kernel.insert(item);
                } else {
                    node.kernel.remove(&item);
                }
                let was_complete = node.kind == ItemSetKind::Complete;
                if was_complete {
                    node.kind = invalidated_kind;
                }
                (was_complete, old_kernel, node.kernel.clone())
            });
            if was_complete {
                inner.stats.invalidations += 1;
                invalidated.push(start);
            }
            // Keep the kernel index in sync with the changed kernel —
            // targeted: the start node's previous kernel is its only
            // possible entry.
            inner.kernel_index.remove_if(&old_kernel, start);
            inner.kernel_index.insert(new_kernel, start);
        } else {
            // Invalidate through the chunk summaries: only chunks whose
            // summary may contain `lhs` are inspected, and only chunks
            // with an actual hit are copied on write.
            let mut store = self.store.write().unwrap();
            for c in 0..store.len() {
                if !store[c].summary_may_contain(lhs) {
                    continue;
                }
                let hits: Vec<usize> = store[c]
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| {
                        n.alive
                            && n.kind == ItemSetKind::Complete
                            && n.transitions.contains_key(&lhs)
                    })
                    .map(|(slot, _)| slot)
                    .collect();
                if hits.is_empty() {
                    continue;
                }
                let chunk = self.chunk_mut(&mut store, c);
                for slot in hits {
                    let before = node_heap_bytes(&chunk.nodes[slot]);
                    let node = &mut chunk.nodes[slot];
                    node.kind = invalidated_kind;
                    invalidated.push(node.id);
                    inner.stats.invalidations += 1;
                    chunk.bytes = chunk.bytes - before + node_heap_bytes(&chunk.nodes[slot]);
                }
            }
        }

        // Retract the invalidated and any swept states' cells in one batch.
        self.maybe_sweep_locked(inner, &mut invalidated);
        self.retract_locked(inner, &invalidated);
        inner.scratch_retract = invalidated;
    }

    /// Runs a mark-and-sweep pass if the policy asks for one and the
    /// garbage fraction exceeds its threshold, appending the swept ids to
    /// `swept`.
    fn maybe_sweep_locked(&self, inner: &mut GraphInner, swept: &mut Vec<StateId>) {
        let GcPolicy::RefCountWithSweep { threshold_percent } = self.gc else {
            return;
        };
        let live = self.num_live();
        if live == 0 {
            return;
        }
        let reachable = self.reachable_from_start_locked(inner);
        let garbage = live.saturating_sub(reachable.len());
        if garbage * 100 > threshold_percent as usize * live {
            self.mark_and_sweep_locked(inner, swept);
        }
    }

    fn reachable_from_start_locked(&self, inner: &GraphInner) -> Vec<StateId> {
        let mut marked = vec![false; inner.len];
        let mut stack = vec![self.start];
        marked[self.start.index()] = true;
        let mut targets: Vec<StateId> = Vec::new();
        while let Some(id) = stack.pop() {
            targets.clear();
            self.with_node(id, |node| {
                if node.kind != ItemSetKind::Initial {
                    targets.extend(node.transitions.values().copied());
                }
            });
            for &target in &targets {
                if !marked[target.index()] && self.with_node(target, |n| n.alive) {
                    marked[target.index()] = true;
                    stack.push(target);
                }
            }
        }
        marked
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| StateId::from_index(i))
            .collect()
    }

    /// Mark-and-sweep collection: reclaims every live item set that is not
    /// reachable from the start item set, and recomputes reference counts.
    /// This is the paper's proposed answer to cyclic references that
    /// reference counting alone cannot reclaim. Exclusive, like `MODIFY`.
    pub fn mark_and_sweep(&mut self, _grammar: &Grammar) {
        let mut inner = self.inner.lock().unwrap();
        let mut swept = std::mem::take(&mut inner.scratch_retract);
        swept.clear();
        self.mark_and_sweep_locked(&mut inner, &mut swept);
        self.retract_locked(&mut inner, &swept);
        inner.scratch_retract = swept;
    }

    /// The sweep itself; appends the reclaimed ids to `swept` for the
    /// caller to retract.
    fn mark_and_sweep_locked(&self, inner: &mut GraphInner, swept_ids: &mut Vec<StateId>) {
        inner.stats.sweeps += 1;
        let reachable = self.reachable_from_start_locked(inner);
        let mut keep = vec![false; inner.len];
        for id in &reachable {
            keep[id.index()] = true;
        }
        // Sweep the unreachable nodes and zero the reference counts, one
        // chunk at a time (each chunk is copied on write at most once; a
        // sweep is inherently a whole-graph pass).
        let mut store = self.store.write().unwrap();
        let mut swept: Vec<(ItemSet, StateId)> = Vec::new();
        for c in 0..store.len() {
            let chunk = self.chunk_mut(&mut store, c);
            let mut freed = 0;
            for node in &mut chunk.nodes {
                if node.alive && !keep[node.id.index()] {
                    let before = node_heap_bytes(node);
                    node.alive = false;
                    inner.stats.nodes_swept += 1;
                    swept_ids.push(node.id);
                    swept.push((std::mem::take(&mut node.kernel), node.id));
                    freed += before - node_heap_bytes(node);
                }
                node.refcount = 0;
            }
            chunk.bytes -= freed;
        }
        for (kernel, id) in swept {
            inner.kernel_index.remove_if(&kernel, id);
        }
        // Recompute reference counts over the surviving graph.
        let mut targets: Vec<StateId> = Vec::new();
        for chunk in store.iter() {
            for node in &chunk.nodes {
                if node.alive && node.kind != ItemSetKind::Initial {
                    targets.extend(node.transitions.values().copied());
                }
            }
        }
        for id in targets {
            let chunk = self.chunk_mut(&mut store, chunk_of(id));
            let node = &mut chunk.nodes[slot_of(id)];
            if node.alive {
                node.refcount += 1;
            }
        }
    }

    /// Forces the complete expansion of the graph (every reachable item
    /// set). Afterwards the graph is equivalent to the conventionally
    /// generated automaton — useful for tests, for the "PG via IPG"
    /// comparison, and for warming a served table before taking traffic.
    pub fn expand_all(&self, grammar: &Grammar) {
        self.expand_all_parallel(grammar, 1);
    }

    /// [`ItemSetGraph::expand_all`] with the frontier fanned out over
    /// `threads` worker threads.
    ///
    /// The expansion runs in **pipelined rounds**: each round collects the
    /// pending frontier in id order (exactly the serial scan) and clones
    /// its kernels out of the store, workers compute the read-only half of
    /// every expansion concurrently (closure, successor partition,
    /// reductions — the bulk of the work, touching no graph locks), and
    /// the committer consumes the results *in frontier order as they
    /// arrive*, interning successor kernels in symbol order while the
    /// workers keep computing. Because interning order is identical to the
    /// serial expansion, the resulting graph is **bit-identical** to
    /// `expand_all(grammar)`: same state ids, same kernel index, same rows
    /// (the parallel-warm equivalence proptest holds this to 256
    /// randomized grammars). Pipelining keeps the serial commit off the
    /// critical path: round wall-clock is `max(compute / threads, commit)`
    /// rather than their sum.
    ///
    /// The whole warm holds the writer mutex, so it serializes with
    /// steady-state misses and `MODIFY` like any other write — the
    /// parallel fan-out is internal to the bulk path and does not change
    /// the locking story. Rounds smaller than a handful of kernels are
    /// expanded inline (no worker threads), so chain-shaped frontiers pay
    /// no spawn overhead.
    pub fn expand_all_parallel(&self, grammar: &Grammar, threads: usize) {
        let threads = threads.max(1);
        let mut inner = self.inner.lock().unwrap();
        inner.stats.warm_threads_used = inner.stats.warm_threads_used.max(threads);
        let mut pending = std::mem::take(&mut inner.scratch_pending);
        let mut kernels: Vec<ItemSet> = Vec::new();
        loop {
            pending.clear();
            for i in 0..inner.len {
                let id = StateId::from_index(i);
                if self.with_node(id, |n| n.alive && n.needs_expansion()) {
                    pending.push(id);
                }
            }
            if pending.is_empty() {
                break;
            }
            if threads <= 1 || pending.len() < PARALLEL_EXPAND_MIN_BATCH {
                // Small rounds expand inline, exactly like the serial path.
                for &id in &pending {
                    // Re-check before committing: a re-expansion committed
                    // earlier in this round may have collected the node.
                    match self.with_node(id, |n| (n.alive, n.kind)) {
                        (true, ItemSetKind::Initial) => {
                            inner.stats.expansions += 1;
                            let computed = self.compute_expansion(grammar, id);
                            self.commit_expansion_locked(&mut inner, id, computed);
                        }
                        (true, ItemSetKind::Dirty) => {
                            let computed = self.compute_expansion(grammar, id);
                            self.re_commit_expansion_locked(&mut inner, id, computed);
                        }
                        _ => {}
                    }
                }
            } else {
                // Pipelined round: clone the frontier's kernels out of the
                // store up front so the workers run lock-free, then commit
                // each result in frontier order as soon as it is deposited
                // — interning overlaps with the remaining closures.
                kernels.clear();
                kernels.extend(
                    pending
                        .iter()
                        .map(|&id| self.with_node(id, |n| n.kernel.clone())),
                );
                let round = RoundQueue::new(pending.len());
                std::thread::scope(|scope| {
                    for _ in 0..threads.min(pending.len()) {
                        let round = &round;
                        let kernels = &kernels;
                        scope.spawn(move || {
                            while let Some(i) = round.claim(kernels.len()) {
                                round.deposit(i, compute_expansion_of(grammar, &kernels[i]));
                            }
                        });
                    }
                    for (i, &id) in pending.iter().enumerate() {
                        let computed = round.take(i);
                        // Re-check under the still-held writer: a
                        // re-expansion committed earlier in this round may
                        // have collected the node (its precomputed result
                        // is then simply dropped).
                        match self.with_node(id, |n| (n.alive, n.kind)) {
                            (true, ItemSetKind::Initial) => {
                                inner.stats.expansions += 1;
                                self.commit_expansion_locked(&mut inner, id, computed);
                            }
                            (true, ItemSetKind::Dirty) => {
                                self.re_commit_expansion_locked(&mut inner, id, computed);
                            }
                            _ => {}
                        }
                    }
                });
            }
            inner.stats.warm_batches_published += 1;
        }
        inner.scratch_pending = pending;
    }

    /// Publishes the cell of every live complete node — used together with
    /// [`ItemSetGraph::expand_all`] to fully warm a served table.
    pub fn publish_all_rows(&self, grammar: &Grammar) {
        self.publish_all_rows_parallel(grammar, 1);
    }

    /// [`ItemSetGraph::publish_all_rows`] with the cell fill fanned out
    /// over `threads` workers, one snapshot chunk at a time. The chunks to
    /// fill are made owned first (one directory republish at most); the
    /// workers then only set cells, and never write the node store.
    /// Results are identical to the serial path.
    pub fn publish_all_rows_parallel(&self, grammar: &Grammar, threads: usize) {
        let mut inner = self.inner.lock().unwrap();
        let store = self.store.read().unwrap();
        let current = self.published_snapshot();
        let todo: Vec<usize> = (0..store.len())
            .filter(|&c| {
                store[c].nodes.iter().any(|n| {
                    n.alive && n.kind == ItemSetKind::Complete && current.get(n.id).is_none()
                })
            })
            .collect();
        let snapshot = self.owned_snapshot_locked(&mut inner, &todo);
        let (num_symbols, version) = (grammar.symbols().len(), grammar.version());
        let fill = |c: usize| {
            let cells = &snapshot.chunks[c];
            store[c]
                .nodes
                .iter()
                .filter(|n| n.alive && n.kind == ItemSetKind::Complete)
                .filter_map(|n| publish_cell(&cells[slot_of(n.id)], n, num_symbols, version))
                .fold((0, 0), |(rows, bytes), b| (rows + 1, bytes + b))
        };
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut total = (0, 0);
            while let Some(&c) = todo.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let (rows, bytes) = fill(c);
                total = (total.0 + rows, total.1 + bytes);
            }
            total
        };
        let workers = threads.clamp(1, todo.len().max(1));
        let (rows, bytes) = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold(worker(), |a, b| (a.0 + b.0, a.1 + b.1))
        });
        inner.stats.rows_built += rows;
        self.published_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Renders the live part of the graph in the style of the paper's item
    /// set diagrams.
    pub fn render(&self, grammar: &Grammar) -> String {
        let mut out = String::new();
        for node in self.live_nodes() {
            let kind = match node.kind {
                ItemSetKind::Initial => "initial",
                ItemSetKind::Dirty => "dirty",
                ItemSetKind::Complete => "complete",
            };
            out.push_str(&format!("item set {} ({kind}, rc={}):\n", node.id, node.refcount));
            for item in &node.kernel {
                out.push_str(&format!("    {}\n", item.display(grammar)));
            }
            if node.kind == ItemSetKind::Complete {
                for (&sym, &target) in &node.transitions {
                    out.push_str(&format!("    --{}--> {}\n", grammar.name(sym), target));
                }
                for &rule in &node.reductions {
                    out.push_str(&format!(
                        "    reduce {}\n",
                        grammar.rule(rule).display(grammar.symbols())
                    ));
                }
                if node.accepting {
                    out.push_str("    --$--> accept\n");
                }
            }
        }
        out
    }

    /// Declares that the grammar changed in a way that does not affect the
    /// graph (e.g. new symbols were interned but no rule was added or
    /// removed). Rule modifications must go through
    /// [`ItemSetGraph::add_rule`] / [`ItemSetGraph::remove_rule`] instead.
    pub fn acknowledge_non_structural_change(&mut self, grammar: &Grammar) {
        self.inner.lock().unwrap().grammar_version = grammar.version();
    }

    // ------------------------------------------------------------------
    // Structural sharing (observability + benchmark support)
    // ------------------------------------------------------------------

    /// Number of storage chunks currently allocated.
    pub fn num_chunks(&self) -> usize {
        self.store.read().unwrap().len()
    }

    /// The index of the storage chunk that holds state `id`.
    pub fn chunk_of_state(id: StateId) -> usize {
        chunk_of(id)
    }

    /// Per-chunk sharing with `other`: entry `c` is `true` when chunk `c`
    /// of both graphs is the *same* storage (`Arc::ptr_eq`), i.e. the two
    /// forks structurally share it. Compared up to the shorter graph.
    pub fn shared_chunks_with(&self, other: &ItemSetGraph) -> Vec<bool> {
        let mine = self.store.read().unwrap();
        let theirs = other.store.read().unwrap();
        mine.iter()
            .zip(theirs.iter())
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect()
    }

    /// The modeled resident bytes of this graph's derived parser state:
    /// node chunks (kernels, transitions, reductions) plus the published
    /// entries (action rows). Served from the incrementally
    /// maintained per-chunk counters — O(#chunks), never O(#nodes).
    ///
    /// The sharded kernel index is deliberately excluded: its entries are
    /// clones of node kernels, so it is bounded by (and proportional to)
    /// the node bytes already counted, and it is not evictable derived
    /// state — re-lazification rebuilds it from scratch anyway.
    pub fn resident_bytes(&self) -> usize {
        let store_bytes: usize = self.store.read().unwrap().iter().map(|c| c.bytes).sum();
        store_bytes + self.published_bytes.load(Ordering::Relaxed)
    }

    /// Recomputes [`ItemSetGraph::resident_bytes`] with a fresh walk over
    /// every node and published entry, bypassing the cached per-chunk
    /// counters. The accounting-exactness test holds the cached value to
    /// this oracle after arbitrary EXPAND / MODIFY / GC histories.
    pub fn recompute_resident_bytes(&self) -> usize {
        let store_bytes: usize = self
            .store
            .read()
            .unwrap()
            .iter()
            .map(|c| chunk_bytes_of(c))
            .sum();
        let published = self.published_snapshot();
        let snap_bytes: usize = published.chunks.iter().map(|c| snap_chunk_bytes(c)).sum();
        store_bytes + snap_bytes
    }

    /// `(storage address, modeled bytes)` of every resident chunk — node
    /// chunks first, snapshot chunks after. Forks that structurally share
    /// a chunk report the *same* address, so a registry can sum bytes
    /// across tenants deduplicated by pointer identity (shared base chunks
    /// are counted once, not per dialect).
    pub fn chunk_accounting(&self) -> Vec<(usize, usize)> {
        let mut rows: Vec<(usize, usize)> = self
            .store
            .read()
            .unwrap()
            .iter()
            .map(|c| (Arc::as_ptr(c) as usize, c.bytes))
            .collect();
        let published = self.published_snapshot();
        rows.extend(
            published
                .chunks
                .iter()
                .map(|c| (Arc::as_ptr(c) as *const u8 as usize, snap_chunk_bytes(c))),
        );
        rows
    }

    /// Strong handles to every storage chunk, in chunk order. Tests and
    /// tools downgrade these to [`ChunkObserver`]s to verify that
    /// reclamation is chunk-granular: a retired epoch frees exactly the
    /// chunks no live epoch shares.
    pub fn chunk_handles(&self) -> Vec<ChunkHandle> {
        self.store
            .read()
            .unwrap()
            .iter()
            .map(|chunk| ChunkHandle(chunk.clone()))
            .collect()
    }

    /// Forces every structurally shared piece of this graph — node chunks,
    /// kernel-index shards, published snapshot chunks — to be uniquely
    /// owned, copying whatever is still shared with other forks. This
    /// reproduces the cost profile of the pre-persistent *deep* fork and
    /// exists for benchmark comparison (`publish-scaling`), not for
    /// serving.
    pub fn unshare_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        {
            let mut store = self.store.write().unwrap();
            for chunk in store.iter_mut() {
                *chunk = Arc::new((**chunk).clone());
            }
        }
        inner.kernel_index.unshare();
        let mut published = self.published.write().unwrap();
        let chunks = published.chunks.iter().map(|chunk| Arc::from(&chunk[..])).collect();
        *published = Arc::new(TableSnapshot { chunks });
        inner.snap_owned.fill(true);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use ipg_grammar::fixtures;

    #[test]
    fn new_graph_contains_only_the_initial_start_state() {
        // Fig. 5.1(a): after (lazy) generation the graph consists of the
        // start item set only, with type initial.
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        assert_eq!(graph.num_live(), 1);
        let start = graph.node(graph.start_state());
        assert_eq!(start.kind, ItemSetKind::Initial);
        assert_eq!(start.kernel.len(), 1);
        assert!(start.needs_expansion());
    }

    #[test]
    fn expanding_the_start_state_matches_fig_51b() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.ensure_expanded(&g, graph.start_state());
        // Fig. 5.1(b): the start state plus three initial successors
        // (on B, true, false).
        assert_eq!(graph.num_live(), 4);
        let start = graph.node(graph.start_state());
        assert_eq!(start.kind, ItemSetKind::Complete);
        assert_eq!(start.transitions.len(), 3);
        assert_eq!(graph.stats().expansions, 1);
        let size = graph.size();
        assert_eq!(size.complete, 1);
        assert_eq!(size.initial, 3);
    }

    #[test]
    fn full_expansion_matches_conventional_automaton() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let conventional = ipg_lr::Lr0Automaton::build(&g);
        assert_eq!(graph.num_live(), conventional.num_states());
        // Every kernel of the conventional automaton exists in the graph.
        for state in conventional.states() {
            assert!(
                graph.live_nodes().any(|n| n.kernel == state.kernel),
                "kernel missing: {:?}",
                state.kernel
            );
        }
    }

    #[test]
    fn add_rule_invalidates_states_with_transition_on_lhs() {
        // §6.1 / Fig. 6.4: adding `B ::= unknown` makes the item sets with
        // a transition on B initial/dirty again (states 0, 4, 5 in the
        // paper's numbering).
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let before = graph.num_live();
        let b = g.symbol("B").unwrap();
        let unknown = g.terminal("unknown");
        graph.add_rule(&mut g, b, vec![unknown]);
        let invalidated = graph
            .live_nodes()
            .filter(|n| n.kind != ItemSetKind::Complete)
            .count();
        assert_eq!(invalidated, 3, "exactly the three states with a B transition");
        assert_eq!(graph.num_live(), before, "nothing is thrown away yet");
        assert_eq!(graph.stats().invalidations, 3);
    }

    #[test]
    fn re_expansion_after_addition_reconnects_and_extends_the_graph() {
        // Fig. 6.5: re-expanding item set 0 re-establishes its old
        // connections and creates the new `B ::= unknown .` item set.
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let unknown = g.terminal("unknown");
        graph.add_rule(&mut g, b, vec![unknown]);
        graph.ensure_expanded(&g, graph.start_state());
        let start = graph.node(graph.start_state());
        assert_eq!(start.kind, ItemSetKind::Complete);
        assert!(start.transitions.contains_key(&unknown));
        assert_eq!(start.transitions.len(), 4);
        // The old successors were re-used, not regenerated.
        assert!(graph.stats().re_expansions >= 1);
    }

    #[test]
    fn start_rule_modification_updates_the_start_kernel() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        // Add `START ::= E` (with E ::= id so the grammar stays valid).
        let e = g.nonterminal("E");
        let id = g.terminal("id");
        graph.add_rule(&mut g, e, vec![id]);
        let start_sym = g.start_symbol();
        graph.add_rule(&mut g, start_sym, vec![e]);
        let start = graph.node(graph.start_state());
        assert_eq!(start.kernel.len(), 2);
        assert!(start.needs_expansion());
        graph.ensure_expanded(&g, graph.start_state());
        assert!(graph.node(graph.start_state()).transitions.contains_key(&e));
    }

    #[test]
    fn delete_rule_then_reexpand_drops_the_transition() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let fa = g.symbol("false").unwrap();
        graph.remove_rule(&mut g, b, &[fa]).unwrap();
        graph.ensure_expanded(&g, graph.start_state());
        let start = graph.node(graph.start_state());
        assert!(!start.transitions.contains_key(&fa));
        assert_eq!(start.transitions.len(), 2);
    }

    #[test]
    fn deleting_a_missing_rule_is_an_error_and_leaves_the_graph_intact() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let or = g.symbol("or").unwrap();
        let before = graph.stats().modifications;
        assert!(graph.remove_rule(&mut g, b, &[or]).is_err());
        assert_eq!(graph.stats().modifications, before);
        assert!(graph.live_nodes().all(|n| n.kind == ItemSetKind::Complete));
    }

    #[test]
    fn refcount_gc_reclaims_unreachable_states() {
        // Deleting `B ::= B and B` and re-expanding everything reachable
        // leaves the `and`-successor states unreferenced; with refcount GC
        // they are reclaimed once their referrers are re-expanded.
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::RefCount);
        graph.expand_all(&g);
        let full = graph.num_live();
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        assert!(graph.stats().nodes_collected > 0, "GC reclaimed something");
        assert!(graph.num_live() < full);
    }

    #[test]
    fn retain_policy_keeps_everything() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::Retain);
        graph.expand_all(&g);
        let full = graph.num_live();
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        assert_eq!(graph.stats().nodes_collected, 0);
        assert!(graph.num_live() >= full);
    }

    #[test]
    fn mark_and_sweep_reclaims_unreachable_states() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::Retain);
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        let before_sweep = graph.num_live();
        graph.mark_and_sweep(&g);
        assert!(graph.num_live() < before_sweep);
        assert!(graph.stats().nodes_swept > 0);
        assert_eq!(graph.stats().sweeps, 1);
    }

    #[test]
    fn fig62_addition_is_handled_like_fig63() {
        // §6: adding `A ::= b` to the grammar of Fig. 6.2 invalidates item
        // set 3 (the one with a transition on A); re-expansion replaces its
        // `b`-successor by a new item set with kernel {B ::= b ., A ::= b .}
        // while the old `B ::= b .` item set survives for the other branch.
        let mut g = fixtures::fig62();
        let mut graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let a_sym = g.symbol("A").unwrap();
        let b_tok = g.symbol("b").unwrap();
        let rule_b = g.symbol("B").unwrap();
        graph.add_rule(&mut g, a_sym, vec![b_tok]);
        // Only the state with a transition on A is invalidated.
        let invalidated: Vec<_> = graph
            .live_nodes()
            .filter(|n| n.kind != ItemSetKind::Complete)
            .collect();
        assert_eq!(invalidated.len(), 1);
        assert!(invalidated[0].transitions.contains_key(&a_sym));
        graph.expand_all(&g);
        // There is now an item set whose kernel holds both completed rules
        // `B ::= b .` and `A ::= b .`.
        let double = graph.live_nodes().find(|n| {
            n.kernel.len() == 2
                && n.kernel
                    .iter()
                    .all(|i| i.is_complete(&g) && g.rule(i.rule).rhs == vec![b_tok])
        });
        assert!(double.is_some(), "merged b-successor item set exists");
        // And the plain `B ::= b .` item set still exists for the other branch.
        let single = graph.live_nodes().any(|n| {
            n.kernel.len() == 1
                && n.kernel.iter().all(|i| {
                    i.is_complete(&g) && g.rule(i.rule).lhs == rule_b && g.rule(i.rule).rhs == vec![b_tok]
                })
        });
        assert!(single, "original B ::= b . item set survives");
    }

    #[test]
    fn sweep_policy_reclaims_garbage() {
        let mut g = fixtures::booleans();
        let mut graph =
            ItemSetGraph::with_policy(&g, GcPolicy::RefCountWithSweep { threshold_percent: 10 });
        graph.expand_all(&g);
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        let or = g.symbol("or").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.remove_rule(&mut g, b, &[b, or, b]).unwrap();
        graph.expand_all(&g);
        assert!(graph.stats().total_collected() > 0);
        // A final sweep reduces the live graph to exactly the automaton of
        // the reduced grammar (reference counting alone may leave cyclic
        // garbage behind, which is precisely why the paper suggests the
        // sweep).
        graph.mark_and_sweep(&g);
        let conventional = ipg_lr::Lr0Automaton::build(&g);
        assert_eq!(graph.num_live(), conventional.num_states());
        assert!(graph.live_nodes().all(|n| n.refcount > 0 || n.id == graph.start_state()));
    }

    #[test]
    fn render_mentions_kinds_and_transitions() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.ensure_expanded(&g, graph.start_state());
        let text = graph.render(&g);
        assert!(text.contains("complete"));
        assert!(text.contains("initial"));
        assert!(text.contains("--true-->"));
    }

    #[test]
    fn try_node_reports_stale_ids_as_errors() {
        let mut g = fixtures::booleans();
        let mut graph = ItemSetGraph::with_policy(&g, GcPolicy::RefCount);
        graph.expand_all(&g);
        assert!(graph.try_node(graph.start_state()).is_ok());
        let bogus = StateId::from_index(9999);
        assert_eq!(graph.try_node(bogus).map(|_| ()), Err(GraphError::UnknownState(bogus)));
        assert!(GraphError::UnknownState(bogus).to_string().contains("9999"));
        // Collect something, then resolve its id.
        let b = g.symbol("B").unwrap();
        let and = g.symbol("and").unwrap();
        graph.remove_rule(&mut g, b, &[b, and, b]).unwrap();
        graph.expand_all(&g);
        let dead = (0..graph.stats().nodes_created)
            .map(StateId::from_index)
            .find(|&id| !graph.node(id).alive)
            .expect("refcount GC collected a node");
        assert_eq!(graph.try_node(dead).map(|_| ()), Err(GraphError::CollectedState(dead)));
        assert!(GraphError::CollectedState(dead).to_string().contains("reclaimed"));
    }

    #[test]
    fn concurrent_readers_share_one_lazily_expanded_graph() {
        use ipg_glr::GssParser;
        use ipg_lr::tokenize_names;

        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        let sentences = ["true and true", "false or true", "true or false and true"];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let parser = GssParser::new(&g);
                    for sentence in sentences {
                        let tokens = tokenize_names(&g, sentence).unwrap();
                        let tables = crate::tables::LazyTables::new(&g, &graph).unwrap();
                        assert!(parser.recognize(&tables, &tokens), "`{sentence}`");
                    }
                });
            }
        });
        // All threads drove the same graph; it expanded each state once.
        let full = ipg_lr::Lr0Automaton::build(&g).num_states();
        assert!(graph.stats().expansions <= full);
        assert!(graph.size().complete > 0);
    }

    #[test]
    fn graph_clone_is_independent_via_cow() {
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.ensure_expanded(&g, graph.start_state());
        let clone = graph.clone();
        assert_eq!(clone.num_live(), graph.num_live());
        // The fork shares every chunk until one side writes.
        assert!(clone.shared_chunks_with(&graph).iter().all(|&s| s));
        let before = graph.num_live();
        clone.expand_all(&g);
        assert!(clone.num_live() > before);
        assert_eq!(graph.num_live(), before, "original untouched by the fork");
        // Writing copied the shared chunk on write.
        assert!(clone.shared_chunks_with(&graph).iter().all(|&s| !s));
        assert!(clone.stats().chunks_cowed > 0);
    }

    #[test]
    fn modify_on_a_fork_copies_only_chunks_with_invalidated_states() {
        // Build a graph spanning several chunks, fork it, apply the §6
        // invalidation on the fork, and check chunk-granular sharing:
        // exactly the chunks holding an invalidated state were copied.
        let g = fixtures::booleans();
        let graph = ItemSetGraph::new(&g);
        graph.expand_all(&g);
        let mut fork = graph.clone();
        let mut g2 = g.clone();
        let b = g.symbol("B").unwrap();
        let unknown = g2.terminal("unknown");
        fork.add_rule(&mut g2, b, vec![unknown]);
        let dirty_chunks: std::collections::BTreeSet<usize> = fork
            .live_nodes()
            .filter(|n| n.kind != ItemSetKind::Complete)
            .map(|n| ItemSetGraph::chunk_of_state(n.id))
            .collect();
        assert!(!dirty_chunks.is_empty());
        let shared = fork.shared_chunks_with(&graph);
        for (c, &is_shared) in shared.iter().enumerate() {
            assert_eq!(
                is_shared,
                !dirty_chunks.contains(&c),
                "chunk {c}: shared iff it holds no invalidated state"
            );
        }
        // The original graph still answers for the old grammar.
        assert!(graph.live_nodes().all(|n| n.kind == ItemSetKind::Complete));
        assert_eq!(graph.grammar_version(), g.version());
    }
}
