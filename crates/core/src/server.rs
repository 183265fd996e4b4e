//! `IpgServer`: the epoch-versioned shared-table serving layer.
//!
//! The paper amortises table generation across parses (§5); this module
//! amortises it across *parsers*. One lazily generated item-set graph — and
//! optionally one lazily determinised scanner — serves parse requests from
//! any number of threads, while grammar modifications are applied under
//! load with the paper's `MODIFY` invalidation semantics (§6) and **never
//! drain in-flight parses**.
//!
//! ## Grammar epochs
//!
//! The server's unit of consistency is the [`GrammarEpoch`]: an immutable
//! bundle of one grammar version's table state (an [`IpgSession`] holding
//! the grammar plus its item-set graph, whose published snapshot of
//! write-once ACTION/GOTO cells the lazy tables pin) and the scanner whose
//! lazily determinised DFA snapshot belongs to the same version. Epochs
//! move through four stages:
//!
//! ```text
//!        pin                         publish
//! parse ----> epoch k  ...  MODIFY ---------> epoch k+1 becomes current
//!                                |
//!                                v                      reclaim
//!                        epoch k is retired -----------------------> freed
//!                        (the server drops its Arc)   (its last pin
//!                                                      is dropped)
//! ```
//!
//! * **pin** — every parse clones the current `Arc<GrammarEpoch>` once and
//!   runs entirely against it: ACTION/GOTO from the epoch's pinned table
//!   snapshot, `tokenize` from the epoch's pinned DFA snapshot. No lock is
//!   held while parsing.
//! * **publish** — `MODIFY` (`ADD-RULE`/`DELETE-RULE`), scanner-definition
//!   changes and GC each *fork* the current epoch's state, apply the change
//!   privately (the paper's §6 invalidation runs on the fork), and swap the
//!   result in as the new current epoch. The fork is **structurally
//!   shared**: grammar and item-set graph are persistent chunk stores, so
//!   forking clones O(#chunks) `Arc`s and the invalidation pass
//!   copies-on-write only the chunks holding invalidated states. The two
//!   epochs then share snapshot chunks: each copies a shared chunk once,
//!   on its first lazy miss there, and writes cells in place from then
//!   on, so neither can see the other's expansions.
//!   Publication cost is therefore O(invalidated states) — independent of
//!   graph size *and* of how long any in-flight parse still runs (the
//!   `publish-scaling` bench tracks the former, `modify-concurrent` the
//!   latter). Scanner edits likewise **carry over** the still-valid lazy
//!   DFA states instead of rebuilding the scanner from zero.
//! * **retire** — the publication swaps the new epoch in and drops the
//!   server's `Arc` to the replaced one. Parses that pinned it keep
//!   reading it; they observe the grammar version they started with, end
//!   to end.
//! * **reclaim** — the `Arc` is an epoch's only owner, so whoever drops
//!   the last pin frees it on the spot: a parse or `read` ending, a
//!   document closing or re-pinning, a dropped
//!   [`IpgServer::current_epoch`] handle, or the publication itself when
//!   nobody pinned the epoch. A retired epoch counts `epochs_reclaimed` in
//!   its own `Drop`; no list, sweep or lock is involved, and nobody can
//!   still query the storage when it goes.
//!   Reclamation is **chunk-granular**: dropping a retired epoch frees
//!   exactly the storage chunks (item sets, published cells, DFA row chunks)
//!   that no live epoch still shares — the chunks the epoch
//!   inherited from (or bequeathed to) its neighbours live on with them.
//!
//! ## The request path: checkout → parse → return
//!
//! Epochs make the *table* side of a request allocation-free; the
//! per-request scratch is recycled the same way. Every request checks a
//! [`RequestCtx`] out of a **per-thread context pool slot** (lock-free: a
//! `Cell` swap in thread-local storage), runs entirely inside it — GSS
//! node/edge pools, dense frontiers, reduction buffers, the forest arena
//! and the token buffer all live in the context and keep their capacity
//! from request to request (the scanner needs no buffer: it reads the
//! request text's bytes in place) — and returns it when done:
//!
//! ```text
//! request --> checkout ctx --> pin epoch --> parse --> drop pin --> return ctx
//!             (TLS slot,                                           (TLS slot)
//!              reset O(live))
//! ```
//!
//! A document session ([`IpgServer::open_document`]) checks its context
//! out at open, keeps its match records, tokens, GSS state and checkpoint
//! history in it while the document is open, and checks it
//! back in at close, so document memory is recycled the same way.
//!
//! Every request takes **one path**: a stateless [`Request`] goes through
//! [`IpgServer::serve`] (checkout, pin, run), and document opens and edits
//! run the same path on the session's own epoch and memory. It runs the
//! GSS, notes the request exactly once — also when it fails before
//! parsing — and maps a budget kill to `parses_cancelled` or
//! `parses_exhausted`. The named parse methods are one-line adapters over
//! `serve`; the owned ones copy the forest out of its [`PooledParse`].
//!
//! On a warm server a pooled request ([`IpgServer::serve`],
//! [`IpgServer::parse_text_pooled`], [`IpgServer::parse_pooled`],
//! [`IpgServer::recognize`]) performs **zero heap allocations** end to
//! end — enforced by a counting-allocator gate in the serving bench and
//! the `alloc_free` regression suite. The owned conveniences
//! ([`IpgServer::parse`], [`IpgServer::parse_text`]) cost exactly one
//! forest copy on top.
//!
//! ## The wire path (`ipg-frontend`)
//!
//! The network frontend (the `ipg-frontend` crate) slots straight onto
//! this layer: each of its worker threads maps 1:1 onto a per-thread
//! context-pool slot, so serving a network request *is* a context
//! checkout. The full path of one `PARSE-TEXT` frame:
//!
//! ```text
//! accept --> read frame --> admit ----------------> worker dequeues
//!            (size-capped,   │ queue full?               │ deadline dead?
//!             timeouts       └--> OVERLOADED             └--> DEADLINE_EXCEEDED
//!             classified)
//!        --> checkout ctx --> pin epoch --> scan+parse --> reply --> return ctx
//!                             │ deadline dead at pin?      (reused buffer)
//!                             └--> DEADLINE_EXCEEDED
//! ```
//!
//! Everything left of "checkout" is the frontend's admission control: a
//! bounded queue is the only backlog, and whatever it cannot hold is
//! answered immediately instead of buffered. The shed/deadline semantics,
//! in one table (every admitted or shed request gets **exactly one**
//! reply):
//!
//! | situation                          | reply                | counted in `GenStats` |
//! |------------------------------------|----------------------|-----------------------|
//! | admission queue full               | `OVERLOADED`         | `shed_overload`       |
//! | deadline expired in the queue      | `DEADLINE_EXCEEDED`  | `shed_deadline`       |
//! | deadline expired at epoch-pin time | `DEADLINE_EXCEEDED`  | `shed_deadline`       |
//! | deadline expires *after* the pin   | `DEADLINE_EXCEEDED` — the GSS loop observes it at the next budget stride and cancels cooperatively | `parses_cancelled`, `ctx_quarantined` |
//! | parse exceeds a resource cap (step fuel, GSS/forest byte caps) | `RESOURCE_EXHAUSTED` | `parses_exhausted`, `ctx_quarantined` |
//! | client cancelled a queued request  | `CANCELLED`          | `parses_cancelled`    |
//! | request panics inside a worker     | `ERROR` (exactly once); the worker survives | `worker_panics`, `ctx_quarantined` |
//! | frame arrives while draining       | `SHUTTING_DOWN`      | `shed_shutdown`       |
//! | malformed frame (bad length/verb)  | `MALFORMED` if the id was decodable, then the connection closes | `rejected_malformed` |
//! | peer stalls mid-frame / never reads replies | none — only that connection is poisoned | `io_timeouts` |
//!
//! ## Per-request budgets and context quarantine
//!
//! Every request carries an [`ipg_glr::ParseBudget`] — deadline instant,
//! step fuel, byte caps on the GSS pools and forest arena — into the GSS
//! driver, which checks it every few dozen work units (amortized: an
//! unlimited budget costs one counter bump per unit, so the zero-alloc
//! warm path is untouched). [`IpgServer::serve`] and the `_budgeted`
//! names take it explicitly; the other text and document methods use the
//! server's **default budget** ([`IpgServer::set_default_budget`] — per
//! tenant when servers live in a registry); the token and sentence
//! conveniences (`parse`, `parse_versioned`, `parse_pooled`, `recognize`,
//! `parse_sentence`, `parse_many`) run unlimited. The frontend tightens
//! the wire deadline into the effective budget, which is what makes
//! `DEADLINE_EXCEEDED` fire *mid-parse* instead of only at admission.
//!
//! **Quarantine lifecycle:** a budget-killed parse returns
//! [`ServerError::Exhausted`] and its pooled [`RequestCtx`] is *dropped*
//! instead of recycled — the pools just proved they can balloon to the cap,
//! so the next checkout rebuilds fresh (`ctx_quarantined`, then
//! `ctx_fresh`). A panicking parse quarantines implicitly: the context
//! unwinds out of the per-thread slot and is freed with the stack. Either
//! way the worker thread itself is preserved at full pool strength.
//!
//! Grammar edits over the wire (`ADD-RULE`/`DELETE-RULE`) go through
//! [`IpgServer::add_rule_text`]/[`IpgServer::remove_rule_text`] like any
//! library caller — non-draining epoch publication, never blocked behind
//! parses.
//!
//! Text requests are additionally **fused**: [`IpgServer::parse_text`]
//! streams scanner matches from the epoch's pinned DFA snapshot directly
//! into the GSS driver (token-id slots resolved to terminals through a
//! per-epoch precomputed map), so no token vector, token structs or name
//! strings are ever materialised.
//!
//! ## Document sessions (incremental re-parse)
//!
//! The editor/IDE workload keeps a *document* open and edits it: the
//! per-request model above would re-lex and re-parse the whole text on
//! every keystroke. A document session keeps the full pipeline state
//! alive between edits instead:
//!
//! ```text
//! open_document(text) --> doc id      (full lex + recorded parse,
//!                                      epoch pinned in the session)
//! apply_edit(id, byte_range, repl) -->
//!     epoch still current?  ──no──> re-pin + full re-lex + re-parse
//!     │ yes                          (`reparse_full`)
//!     └─> splice text, re-lex only the damaged match region
//!         (examined-extent damage tracking + boundary resync),
//!         re-run the GSS only from the leftmost damaged token
//!         (checkpointed frontiers; retained forest subtrees are reused),
//!         and for a same-length edit only until it converges with the
//!         recorded parse (`reparse_incremental`, `reparse_converged`)
//! close_document(id) --> session dropped with its epoch pin
//! ```
//!
//! The session owns a private `ParseCtx` (GSS pools + forest arena), the
//! lexer's match records and the GSS `ParseHistory`, so an edit that
//! converges costs O(damage), not O(document); an edit that changes the
//! token count still replays the GSS to the end. **Epoch staleness
//! rule:** a session pins the epoch it last parsed under; if any
//! `MODIFY`/`modify_scanner`/GC published a newer epoch since, the next
//! edit detects the stale pin
//! (one atomic compare), re-pins the current epoch and rebuilds from
//! scratch — retained forests and histories are never spliced across
//! epochs. The incremental path is digest-equivalent to a cold
//! [`IpgServer::parse_text`] of the spliced text by construction (the
//! rollback restores the exact cold-parse state), and the
//! `incremental_reparse` proptest harness enforces it, edit script by
//! edit script. See [`crate::document`] for the session internals.
//!
//! ## Residency and re-lazification (multi-tenant serving)
//!
//! Everything an epoch holds resident is *derived* state — item-set
//! chunks, published ACTION/GOTO rows, materialised DFA row chunks —
//! rebuildable on demand from the cheap persistent grammar by the lazy
//! expander. That makes eviction safe by construction:
//! [`IpgServer::relazify`] publishes a **cold epoch** (same grammar, fresh
//! lazily-expanded graph, re-lazified scanner) and the next parses rebuild
//! exactly what they touch. In-flight parses are, as always, unaffected:
//! they pinned the warm epoch and keep it alive until they finish.
//!
//! The byte accounting behind the eviction decision is chunk-granular
//! ([`IpgServer::resident_bytes`] / [`IpgServer::chunk_accounting`]; byte
//! model in [`crate::graph::ItemSetGraph::resident_bytes`]) and
//! pointer-keyed, so chunks structurally shared between servers forked
//! from one base are counted once. [`crate::registry::GrammarRegistry`]
//! stacks many `IpgServer` tenants under one global byte budget on these
//! primitives; its module docs carry the full tenancy lifecycle
//! (attach → serve → cool → evict → re-lazify) and the residency/eviction
//! semantics table.
//!
//! ## What serializes with what
//!
//! | operation                  | parses (readers)  | other writers |
//! |----------------------------|-------------------|---------------|
//! | `parse*`, `recognize`      | fully concurrent  | never blocked by writers (pin the old epoch) |
//! | context checkout/return    | thread-local, lock-free | not shared across threads |
//! | `MODIFY`, `modify_scanner`, `collect_garbage` | do **not** wait for parses | serialize among themselves |
//! | epoch swap                 | nanoseconds (pointer swap) | under the writer lock |
//! | `stats`, `retired_epochs`  | fully concurrent  | never wait for a publication |
//!
//! ```
//! use ipg::IpgServer;
//!
//! let server = IpgServer::from_bnf(r#"
//!     B ::= "true" | "false" | B "or" B | B "and" B
//!     START ::= B
//! "#).unwrap();
//!
//! // Threads parse one shared, lazily generated graph...
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         scope.spawn(|| {
//!             assert!(server.parse_sentence("true and true").unwrap().accepted);
//!         });
//!     }
//! });
//!
//! // ...and the language designer modifies the grammar under load: the
//! // edit is published as a new epoch without draining running parses.
//! server.add_rule_text(r#"B ::= "unknown""#).unwrap();
//! assert!(server.parse_sentence("true or unknown").unwrap().accepted);
//! ```

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread;
use std::time::Instant;

use ipg_glr::{
    ExhaustReason, Forest, GssParseResult, GssParser, GssRun, GssStats, ParseBudget, ParseCtx,
    ParseHistory, ParseOutcome, SliceTokens, TokenEdit, TokenSource,
};
use ipg_grammar::{RuleId, SymbolId};
use ipg_lexer::{MatchRec, ScanError, Scanner, TokenStream};

use crate::session::{IpgSession, SessionError};
use crate::stats::GenStats;
use crate::tables::LazyTables;

/// Errors returned by [`IpgServer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// An error from the underlying session (unknown token, BNF, grammar).
    Session(SessionError),
    /// An error from the shared scanner while lexing request text.
    Scan(ScanError),
    /// [`IpgServer::parse_text`] was called on a server without a scanner.
    NoScanner,
    /// A document operation named a document id that is not open (never
    /// opened, or already closed).
    UnknownDocument(u64),
    /// An edit's byte range does not fit the document (out of bounds,
    /// inverted, or not on UTF-8 character boundaries).
    InvalidRange {
        /// Start of the offending byte range.
        start: usize,
        /// End of the offending byte range.
        end: usize,
        /// The document's length in bytes.
        len: usize,
    },
    /// Opening or editing a document would make its text longer than a
    /// document session holds ([`ipg_lexer::MAX_TEXT_BYTES`], just under
    /// 4 GiB). Nothing was changed.
    DocumentTooLarge {
        /// The length in bytes the text would have had.
        bytes: usize,
    },
    /// The parse was cancelled mid-flight by its [`ParseBudget`]: the
    /// request's deadline passed (`Deadline` — surfaced as
    /// `DEADLINE_EXCEEDED` on the wire) or a resource cap tripped
    /// (`RESOURCE_EXHAUSTED`). The request context was quarantined.
    Exhausted(ExhaustReason),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Session(e) => write!(f, "{e}"),
            ServerError::Scan(e) => write!(f, "scan error: {e}"),
            ServerError::NoScanner => write!(f, "this server was built without a scanner"),
            ServerError::UnknownDocument(id) => write!(f, "unknown document id {id}"),
            ServerError::InvalidRange { start, end, len } => {
                write!(f, "invalid edit range {start}..{end} in a document of {len} bytes")
            }
            ServerError::DocumentTooLarge { bytes } => write!(
                f,
                "a document of {bytes} bytes exceeds the {} byte limit of a document session",
                ipg_lexer::MAX_TEXT_BYTES
            ),
            ServerError::Exhausted(reason) => {
                write!(f, "parse budget exhausted ({reason})")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SessionError> for ServerError {
    fn from(e: SessionError) -> Self {
        ServerError::Session(e)
    }
}

impl From<ScanError> for ServerError {
    fn from(e: ScanError) -> Self {
        ServerError::Scan(e)
    }
}

/// One immutable grammar epoch: the table state of one grammar version
/// plus the scanner whose DFA snapshot matches it.
///
/// Epochs are handed out as `Arc<GrammarEpoch>` by
/// [`IpgServer::current_epoch`] and pinned internally by every parse; the
/// `Arc` is an epoch's only owner, so the last pin dropped frees it. The
/// bundled [`IpgSession`] is only ever *read* once the epoch is published
/// (its item-set graph still grows lazily under its own internal writer,
/// which is sound — lazy expansion adds entries, it never changes what an
/// existing entry means); all `MODIFY`-style mutation happens on a private
/// fork before the successor epoch is published.
#[derive(Debug)]
pub struct GrammarEpoch {
    /// Monotonic epoch number (0 for the epoch the server was built with).
    number: u64,
    /// The epoch's grammar + item-set graph. `Arc`-shared so a
    /// scanner-only epoch can reuse the table state of its predecessor.
    session: Arc<IpgSession>,
    /// The epoch's scanner (lexical syntax + lazily determinised DFA).
    scanner: Option<Arc<Scanner>>,
    /// Lazily built `token-id slot -> grammar terminal` map for the fused
    /// text path: both the scanner's slot table and the grammar are
    /// immutable within one epoch, so the (per-token string) name lookup
    /// is paid once per epoch instead of once per token.
    terminal_slots: OnceLock<Vec<Option<SymbolId>>>,
    /// Work counters carried over from the epochs a re-lazification
    /// replaced ([`IpgServer::relazify`]), so every `Sum` counter stays
    /// monotone across eviction.
    carried: GenStats,
    /// Set when a publication replaces this epoch, before the server
    /// drops its `Arc`; the last `Arc` dropped synchronizes with every
    /// earlier one, so `Drop` sees the flag.
    retired: AtomicBool,
    /// The server's count of reclaimed epochs, which a retired epoch's
    /// `Drop` bumps.
    reclaimed: Arc<AtomicUsize>,
}

impl Drop for GrammarEpoch {
    fn drop(&mut self) {
        // Only a retired epoch counts: not the current epoch of a dropped
        // server, nor the one `IpgServer::with_scanner` replaces in place.
        if *self.retired.get_mut() {
            self.reclaimed.fetch_add(1, Ordering::Release);
        }
    }
}

impl GrammarEpoch {
    /// The epoch number (increments on every publication).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The epoch's session: grammar plus item-set graph.
    pub fn session(&self) -> &IpgSession {
        &self.session
    }

    /// The grammar version this epoch serves.
    pub fn grammar_version(&self) -> u64 {
        self.session.grammar().version()
    }

    /// The epoch's scanner, if the server was built with one.
    pub fn scanner(&self) -> Option<&Scanner> {
        self.scanner.as_deref()
    }

    /// The epoch that replaces this one: the next number, this epoch's
    /// carried counters and the server's reclamation count.
    fn successor(&self, session: Arc<IpgSession>, scanner: Option<Arc<Scanner>>) -> Self {
        GrammarEpoch {
            number: self.number + 1,
            session,
            scanner,
            terminal_slots: OnceLock::new(),
            carried: self.carried,
            retired: AtomicBool::new(false),
            reclaimed: self.reclaimed.clone(),
        }
    }

    /// The epoch's work counters: its graph's and its scanner's (whose
    /// materialised DFA also joins the residency gauge), plus the counters
    /// carried from the epochs a re-lazification replaced.
    fn stats(&self) -> GenStats {
        let mut stats = self.session.stats();
        if let Some(scanner) = self.scanner() {
            stats.dfa_states_carried = scanner.carried_states();
            let dfa = scanner.dfa_stats();
            stats.dense_rows_built = dfa.dense_rows_built;
            stats.dense_bytes = dfa.dense_bytes;
            stats.skip_loop_bytes = dfa.skip_loop_bytes;
            stats.resident_bytes += scanner.resident_bytes();
            stats.resident_high_water = stats.resident_high_water.max(stats.resident_bytes);
        }
        stats.merge(&self.carried);
        stats
    }

    /// The `token-id slot -> terminal` map of this epoch (empty for
    /// servers without a scanner). Layout slots and slots whose token name
    /// has no terminal in this epoch's grammar map to `None`.
    pub(crate) fn terminal_slots(&self) -> &[Option<SymbolId>] {
        self.terminal_slots.get_or_init(|| {
            let Some(scanner) = self.scanner.as_deref() else {
                return Vec::new();
            };
            let grammar = self.session.grammar();
            (0..scanner.num_slots())
                .map(|id| {
                    scanner
                        .slot(id)
                        .filter(|def| !def.layout)
                        .and_then(|def| grammar.symbol(&def.name))
                        .filter(|&s| grammar.is_terminal(s))
                })
                .collect()
        })
    }
}

/// The fused lexer→parser token source: pulls the next scanner match from
/// the epoch's pinned DFA snapshot and maps its slot to a grammar terminal
/// through the epoch's precomputed slot table — no token vector, no
/// per-token strings.
struct EpochTokenSource<'a> {
    stream: TokenStream<'a>,
    slots: &'a [Option<SymbolId>],
    scanner: &'a Scanner,
    /// The request budget's deadline, re-checked every
    /// [`TOKEN_DEADLINE_STRIDE`] tokens so a scanner grinding through a
    /// pathological lexical input (long skip loops, dense fallback) cannot
    /// outlive its deadline between GSS-side budget checks.
    deadline: Option<Instant>,
    ticks: u32,
}

/// Tokens between deadline re-checks in the fused token source.
const TOKEN_DEADLINE_STRIDE: u32 = 32;

impl TokenSource for EpochTokenSource<'_> {
    type Error = ServerError;

    fn next_token(&mut self) -> Result<Option<SymbolId>, ServerError> {
        if let Some(deadline) = self.deadline {
            self.ticks += 1;
            if self.ticks >= TOKEN_DEADLINE_STRIDE {
                self.ticks = 0;
                if Instant::now() >= deadline {
                    return Err(ServerError::Exhausted(ExhaustReason::Deadline));
                }
            }
        }
        let Some(slot) = self.stream.next_slot()? else {
            return Ok(None);
        };
        match self.slots.get(slot).copied().flatten() {
            Some(symbol) => Ok(Some(symbol)),
            None => Err(ServerError::Scan(ScanError::UnknownTerminal {
                name: self
                    .scanner
                    .slot(slot)
                    .map(|def| def.name.clone())
                    .unwrap_or_default(),
            })),
        }
    }
}

/// A reusable per-worker request context: everything one request needs as
/// scratch — the GSS driver's [`ParseCtx`] (node/edge pools, frontiers,
/// forest arena) and a token buffer — and the rest of a document session's
/// memory: its checkpoint history and match records.
///
/// Contexts are recycled through a per-thread pool slot (see the module
/// docs): a warm request checks one out, parses, and returns it, touching
/// the allocator not at all. A document session holds its context from
/// open to close.
#[derive(Debug, Default)]
pub struct RequestCtx {
    /// The parse driver's scratch (forest arena included).
    pub(crate) glr: ParseCtx,
    /// A document's per-token parse checkpoints.
    pub(crate) history: ParseHistory,
    /// A document's token-anchored match records.
    pub(crate) recs: Vec<MatchRec>,
    /// A sentence request's tokens, or a document's terminal sequence,
    /// one per token record.
    pub(crate) tokens: Vec<SymbolId>,
}

thread_local! {
    /// The per-thread context pool slot, lock-free by construction:
    /// checkout and return are plain `Cell` swaps with no cross-thread
    /// traffic. One slot suffices because a thread runs one request at a
    /// time; a nested checkout (reentrant parse) simply builds a fresh
    /// context, and the last return wins the slot.
    static CTX_SLOT: Cell<Option<Box<RequestCtx>>> = const { Cell::new(None) };
}

/// Takes the calling thread's pooled context, or builds a fresh one.
/// Returns whether the context was recycled (for the stats counters).
pub(crate) fn checkout_ctx() -> (Box<RequestCtx>, bool) {
    match CTX_SLOT.try_with(Cell::take).ok().flatten() {
        Some(ctx) => (ctx, true),
        None => (Box::default(), false),
    }
}

/// Returns a context to the calling thread's pool slot. The last return
/// wins the slot: if it is occupied (overlapping pooled results returned
/// out of order), the previously resident context is dropped so exactly
/// one stays pooled. `try_with` covers returns during thread teardown,
/// where the context is simply dropped.
pub(crate) fn checkin_ctx(ctx: Box<RequestCtx>) {
    let _ = CTX_SLOT.try_with(|slot| slot.set(Some(ctx)));
}

/// A parse result that *borrows* the pooled context it was produced in —
/// the zero-allocation counterpart of [`GssParseResult`].
///
/// The forest lives in the context's arena and is read in place through
/// [`PooledParse::forest`]; dropping the result returns the context (arena
/// capacity and all) to the per-thread pool. Convert with
/// [`PooledParse::into_result`] when an owned, `'static` result is worth
/// one forest copy.
#[derive(Debug)]
pub struct PooledParse {
    /// Always `Some` until dropped.
    ctx: Option<Box<RequestCtx>>,
    outcome: ParseOutcome,
}

impl PooledParse {
    /// Whether the input is a sentence of the language.
    pub fn accepted(&self) -> bool {
        self.outcome.accepted()
    }

    /// Work counters of the parse.
    pub fn stats(&self) -> GssStats {
        self.outcome.stats()
    }

    /// The grammar version the parse ran against.
    pub fn grammar_version(&self) -> u64 {
        self.outcome.grammar_version()
    }

    /// The shared parse forest, read in place from the pooled context.
    pub fn forest(&self) -> &Forest {
        self.ctx
            .as_ref()
            .expect("context present until drop")
            .glr
            .forest()
    }

    /// Copies the borrowed result into an owned [`GssParseResult`] (one
    /// forest clone); the context still returns to the pool with its
    /// capacity intact.
    pub fn into_result(self) -> GssParseResult {
        self.outcome.into_result(self.forest().clone())
    }
}

impl Drop for PooledParse {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            checkin_ctx(ctx);
        }
    }
}

/// A stateless request, served by [`IpgServer::serve`].
#[derive(Clone, Copy, Debug)]
pub enum Request<'a> {
    /// Text, scanned by the pinned epoch's scanner as the parse pulls
    /// terminals.
    Text(&'a str),
    /// A whitespace-separated sentence of terminal names, tokenized
    /// against the pinned epoch's grammar.
    Sentence(&'a str),
    /// A token sentence.
    Tokens(&'a [SymbolId]),
    /// A token sentence, recognised without building a forest.
    Recognize(&'a [SymbolId]),
}

/// What one request runs on the GSS ([`IpgServer::run_request`]): a
/// stateless request, or a document's parse of the tokens in its context.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Work<'a> {
    Request(Request<'a>),
    /// A recorded parse: a document open, or a full rebuild (`rebuild`,
    /// counted in `reparse_full`).
    Record { rebuild: bool },
    /// An incremental document edit that re-lexed `relexed` records: a
    /// resumed parse after `edit`, or — when the edit left every terminal
    /// as it was — none, and the `last` outcome stands.
    Edit {
        edit: Option<TokenEdit>,
        last: ParseOutcome,
        relexed: usize,
    },
}

/// A server's statistics, as [`IpgServer::stats`] reports them.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// The current epoch's work counters — graph (expansions,
    /// invalidations, GC, rows built, flushed query counts; carried forward
    /// across epochs by the fork and across eviction by re-lazification)
    /// and scanner — plus the server's epoch counters
    /// (`epochs_published` / `epochs_retired` / `epochs_reclaimed`).
    pub graph: GenStats,
    /// What the server's requests recorded, from every thread: parses
    /// served, `ACTION`/`GOTO` queries issued, latency, context reuse.
    pub served: GenStats,
    /// Epochs retired but not yet reclaimed: still pinned by at least one
    /// in-flight parse (or an externally held [`IpgServer::current_epoch`]
    /// handle).
    pub retired_epochs: usize,
}

impl ServerStats {
    /// Total parses served across all threads.
    pub fn total_parses(&self) -> usize {
        self.served.parses
    }

    /// One [`GenStats`] folding the epoch's and the requests' counters
    /// together through [`GenStats::merge`]: counters sum, latency
    /// histograms merge exactly, high-water marks take the maximum. This
    /// is what the network frontend's STATS verb reports.
    pub fn merged(&self) -> GenStats {
        let mut total = self.graph;
        total.merge(&self.served);
        total
    }
}

/// A multi-reader serving layer over epoch-versioned [`IpgSession`]s.
///
/// `&IpgServer` is `Sync`: share it across threads (scoped threads, a
/// thread pool, an async runtime's blocking pool) and call the parse
/// methods freely. Modification methods publish new epochs and therefore
/// never wait for in-flight parses; they serialize only among themselves.
#[derive(Debug)]
pub struct IpgServer {
    /// The current epoch. Readers hold this lock only long enough to
    /// clone the `Arc`; the writer holds it only for the pointer swap.
    current: RwLock<Arc<GrammarEpoch>>,
    /// Shadow of `current`'s epoch number, so a document can detect a
    /// stale pin with one atomic load instead of a lock. Each publication
    /// adds one, so it also counts the epochs published and retired.
    current_number: AtomicU64,
    /// Retired epochs freed so far; shared with every epoch, whose `Drop`
    /// counts its own reclamation.
    reclaimed: Arc<AtomicUsize>,
    /// Serializes publications.
    writer: Mutex<()>,
    /// The counters requests record into, once per request (not per
    /// query).
    served: Mutex<GenStats>,
    /// Open document sessions (see [`crate::document`]): incremental
    /// re-parse state keyed by document id.
    pub(crate) documents: crate::document::DocRegistry,
    /// The default per-request [`ParseBudget`] of the text and document
    /// paths (unlimited unless configured). Read per request, written
    /// rarely (tenant attach / admin), hence the `RwLock`.
    budget: RwLock<ParseBudget>,
}

impl IpgServer {
    /// Wraps a session for serving (epoch 0).
    pub fn new(session: IpgSession) -> Self {
        let reclaimed = Arc::new(AtomicUsize::new(0));
        IpgServer {
            current: RwLock::new(Arc::new(GrammarEpoch {
                number: 0,
                session: Arc::new(session),
                scanner: None,
                terminal_slots: OnceLock::new(),
                carried: GenStats::default(),
                retired: AtomicBool::new(false),
                reclaimed: reclaimed.clone(),
            })),
            current_number: AtomicU64::new(0),
            reclaimed,
            writer: Mutex::new(()),
            served: Mutex::new(GenStats::default()),
            documents: crate::document::DocRegistry::default(),
            budget: RwLock::new(ParseBudget::UNLIMITED),
        }
    }

    /// Creates a server from the textual BNF notation.
    pub fn from_bnf(text: &str) -> Result<Self, SessionError> {
        Ok(Self::new(IpgSession::from_bnf(text)?))
    }

    /// Attaches a shared scanner, enabling [`IpgServer::parse_text`]. A
    /// construction-time convenience: the scanner joins the current epoch
    /// in place (no publication, retirement or reclamation is counted).
    pub fn with_scanner(self, scanner: Scanner) -> Self {
        {
            let mut current = self.current.write().unwrap();
            *current = Arc::new(GrammarEpoch {
                number: current.number,
                session: current.session.clone(),
                scanner: Some(Arc::new(scanner)),
                terminal_slots: OnceLock::new(),
                carried: current.carried,
                retired: AtomicBool::new(false),
                reclaimed: self.reclaimed.clone(),
            });
        }
        self
    }

    /// Builder: sets the default per-request budget (see
    /// [`IpgServer::set_default_budget`]).
    pub fn with_default_budget(self, budget: ParseBudget) -> Self {
        self.set_default_budget(budget);
        self
    }

    /// The default per-request [`ParseBudget`] of the text and document
    /// paths without an explicit budget ([`IpgServer::parse_text`],
    /// [`IpgServer::parse_text_pooled`], document opens/edits). Unlimited
    /// unless configured.
    pub fn default_budget(&self) -> ParseBudget {
        *self.budget.read().unwrap()
    }

    /// Sets the default per-request budget. Takes effect for requests that
    /// start after the call; in-flight parses keep the budget they started
    /// with. A [`crate::GrammarRegistry`] uses this as the per-tenant
    /// default (dialect forks inherit the base tenant's budget).
    pub fn set_default_budget(&self, budget: ParseBudget) {
        *self.budget.write().unwrap() = budget;
    }

    // ------------------------------------------------------------------
    // Epoch lifecycle
    // ------------------------------------------------------------------

    /// Pins the current epoch: clones the `Arc` under a momentary read
    /// lock. Everything a parse needs afterwards comes from the pin.
    pub(crate) fn acquire(&self) -> Arc<GrammarEpoch> {
        self.current.read().unwrap().clone()
    }

    /// The current epoch, pinned. Public for observability (tests, tools
    /// that want to tag work with an epoch); dropping the `Arc` ends the
    /// pin, and if the epoch was retired meanwhile and this was its last
    /// pin, the epoch's storage is freed right there.
    pub fn current_epoch(&self) -> Arc<GrammarEpoch> {
        self.acquire()
    }

    /// The current epoch number (0 until the first publication).
    pub fn epoch_number(&self) -> u64 {
        self.current_number.load(Ordering::Acquire)
    }

    /// Number of retired epochs still pinned by readers.
    pub fn retired_epochs(&self) -> usize {
        let (retired, reclaimed) = self.epoch_counts();
        retired - reclaimed
    }

    /// `(retired, reclaimed)`: the epochs published so far, each of which
    /// retired its predecessor, and the retired epochs freed so far. The
    /// reclamations are read first, so every epoch they count was retired
    /// by a publication the second read sees.
    fn epoch_counts(&self) -> (usize, usize) {
        let reclaimed = self.reclaimed.load(Ordering::Acquire);
        (self.epoch_number() as usize, reclaimed)
    }

    /// Publishes `next` as the current epoch and retires its predecessor:
    /// the server drops its `Arc`, and the predecessor is freed with its
    /// last pin (the caller's own, if no reader holds one). The caller
    /// holds the writer lock.
    fn install(&self, next: GrammarEpoch) {
        self.current_number.store(next.number, Ordering::Release);
        let old = std::mem::replace(&mut *self.current.write().unwrap(), Arc::new(next));
        old.retired.store(true, Ordering::Release);
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Runs `f` on the current epoch's session (a pinned read: writers
    /// publishing new epochs neither wait for `f` nor invalidate what it
    /// sees).
    pub fn read<R>(&self, f: impl FnOnce(&IpgSession) -> R) -> R {
        f(&self.acquire().session)
    }

    /// The grammar version currently being served.
    pub fn grammar_version(&self) -> u64 {
        self.read(|s| s.grammar().version())
    }

    /// Warms the shared table: fully expands the current epoch's item-set
    /// graph and publishes every cell, so subsequent parses are pure
    /// reads.
    pub fn warm(&self) {
        self.read(|s| s.expand_all());
    }

    /// [`IpgServer::warm`] with the cold-start expansion fanned out over
    /// `threads` worker threads (see
    /// [`IpgSession::expand_all_parallel`]). The warmed table is identical
    /// to the serial warm's; steady-state misses and `MODIFY` keep their
    /// serialized writer regardless of how the table was warmed.
    pub fn warm_parallel(&self, threads: usize) {
        self.read(|s| s.expand_all_parallel(threads));
    }

    /// Converts a whitespace-separated sentence of terminal names into
    /// symbol ids against the current grammar.
    pub fn tokens(&self, sentence: &str) -> Result<Vec<SymbolId>, SessionError> {
        self.read(|s| s.tokens(sentence))
    }

    /// Serves one stateless request under `budget` on the one request
    /// path: checks a context out of the per-thread pool, pins the current
    /// epoch and runs the request there. The GSS checks the budget every
    /// few dozen work units and a text request's scanner re-checks the
    /// deadline, so a pathological request is cut off *mid-parse*. The
    /// result borrows the context, which returns to the pool when the
    /// result is dropped; a failed request returns it at once, and a
    /// budget-killed one ([`ServerError::Exhausted`]) quarantines it.
    pub fn serve(
        &self,
        request: Request<'_>,
        budget: ParseBudget,
    ) -> Result<PooledParse, ServerError> {
        let started = Instant::now();
        let (mut ctx, reused) = checkout_ctx();
        let epoch = self.acquire();
        ipg_glr::fault::point("post-pin");
        let work = Ok(Work::Request(request));
        let outcome = self.run_request(&epoch, &mut ctx, work, budget, started, Some(reused));
        match outcome {
            Ok(outcome) => Ok(PooledParse { ctx: Some(ctx), outcome }),
            Err(e) => Err(self.discard_ctx(ctx, e)),
        }
    }

    /// The one request path: runs `work` on the pinned `epoch` in `ctx`
    /// under `budget`, and notes the request exactly once, whatever its
    /// result: its table query counts, its latency since `started`, and —
    /// when `checkout` says it checked `ctx` out of the pool — whether the
    /// context was recycled. `work` is an error when the request failed
    /// before reaching the parser (an unknown token, a scan error); that
    /// request still counts.
    ///
    /// A run cut off by its budget returns [`ServerError::Exhausted`],
    /// counted in `parses_cancelled` for the deadline and in
    /// `parses_exhausted` for a resource cap. The context then holds a
    /// partial parse; the caller quarantines or desynchronises it.
    pub(crate) fn run_request(
        &self,
        epoch: &GrammarEpoch,
        ctx: &mut RequestCtx,
        work: Result<Work<'_>, ServerError>,
        budget: ParseBudget,
        started: Instant,
        checkout: Option<bool>,
    ) -> Result<ParseOutcome, ServerError> {
        let tables = epoch.session.tables();
        let result = work.and_then(|work| {
            let outcome = Self::run_gss(epoch, &tables, ctx, work, budget)?;
            match outcome.exhausted() {
                Some(reason) => Err(ServerError::Exhausted(reason)),
                None => Ok((outcome, work)),
            }
        });
        let (action_calls, goto_calls) = tables.query_counts();
        let latency = started.elapsed();
        self.note(|s| {
            s.parses += 1;
            s.action_calls += action_calls;
            s.goto_calls += goto_calls;
            if let Some(reused) = checkout {
                s.ctx_reused += usize::from(reused);
                s.ctx_fresh += usize::from(!reused);
            }
            match &result {
                Ok((_, Work::Request(_))) => {}
                Ok((_, Work::Record { rebuild })) => s.reparse_full += usize::from(*rebuild),
                Ok((outcome, Work::Edit { edit, relexed, .. })) => {
                    s.reparse_incremental += 1;
                    s.tokens_relexed += relexed;
                    if edit.is_some() {
                        s.states_rerun += outcome.stats().nodes;
                        s.reparse_converged += usize::from(ctx.glr.converged_at().is_some());
                    }
                }
                Err(ServerError::Exhausted(ExhaustReason::Deadline)) => s.parses_cancelled += 1,
                Err(ServerError::Exhausted(_)) => s.parses_exhausted += 1,
                Err(_) => {}
            }
            s.latency.record(latency);
        });
        result.map(|(outcome, _)| outcome)
    }

    /// The GSS run of one piece of work. Text is **fused**: scanner
    /// matches stream from the epoch's pinned DFA snapshot straight into
    /// the driver, with slots resolved to terminals through the epoch's
    /// precomputed map. A sentence is tokenized into the context's token
    /// buffer; a document's recorded and resumed parses read the tokens
    /// already there.
    fn run_gss(
        epoch: &GrammarEpoch,
        tables: &LazyTables<'_>,
        ctx: &mut RequestCtx,
        work: Work<'_>,
        budget: ParseBudget,
    ) -> Result<ParseOutcome, ServerError> {
        let parser = GssParser::new(epoch.session.grammar());
        let RequestCtx {
            glr,
            history,
            tokens,
            ..
        } = ctx;
        let run = match work {
            Work::Request(Request::Text(input)) => {
                let scanner = epoch.scanner().ok_or(ServerError::NoScanner)?;
                let source = EpochTokenSource {
                    stream: scanner.stream(input),
                    slots: epoch.terminal_slots(),
                    scanner,
                    deadline: budget.deadline,
                    ticks: 0,
                };
                return parser.run(glr, tables, GssRun::parse(source).budget(budget));
            }
            Work::Request(Request::Sentence(sentence)) => {
                epoch.session.tokens_into(sentence, tokens)?;
                GssRun::parse(SliceTokens::new(tokens))
            }
            Work::Request(Request::Tokens(tokens)) => GssRun::parse(SliceTokens::new(tokens)),
            Work::Request(Request::Recognize(tokens)) => GssRun::recognize(SliceTokens::new(tokens)),
            Work::Record { .. } => GssRun::record(tokens, history),
            Work::Edit { edit: Some(edit), .. } => GssRun::resume(tokens, history, edit),
            Work::Edit { edit: None, last, .. } => return Ok(last),
        };
        let Ok(outcome) = parser.run(glr, tables, run.budget(budget));
        Ok(outcome)
    }

    /// Returns the context of a request that failed with `error`: a
    /// budget-killed one is quarantined (its pools just proved they can
    /// balloon to the cap); any other goes back to the pool.
    pub(crate) fn discard_ctx(&self, ctx: Box<RequestCtx>, error: ServerError) -> ServerError {
        match error {
            ServerError::Exhausted(_) => self.quarantine_ctx(ctx),
            _ => checkin_ctx(ctx),
        }
        error
    }

    /// Quarantines a request context: drops it (the next checkout builds
    /// fresh) and counts `ctx_quarantined`.
    pub(crate) fn quarantine_ctx(&self, ctx: Box<RequestCtx>) {
        drop(ctx);
        self.note(|s| s.ctx_quarantined += 1);
    }

    /// Parses a token sentence against the shared graph, unbudgeted.
    /// Concurrent with other parses *and* with modifications (which publish
    /// new epochs; this parse completes on the epoch it pinned).
    pub fn parse(&self, tokens: &[SymbolId]) -> GssParseResult {
        self.parse_pooled(tokens).into_result()
    }

    /// Like [`IpgServer::parse`], also returning the grammar version the
    /// parse ran against — the version tag of the pinned epoch, which the
    /// result's own `grammar_version` field repeats, so the pair stays
    /// consistent however many epochs writers publish meanwhile.
    pub fn parse_versioned(&self, tokens: &[SymbolId]) -> (u64, GssParseResult) {
        let result = self.parse(tokens);
        (result.grammar_version, result)
    }

    /// Like [`IpgServer::parse`], but the result *borrows* the pooled
    /// context it was produced in: the forest is read in place and nothing
    /// is copied or allocated on the warm path. Drop the result to return
    /// the context to the pool.
    pub fn parse_pooled(&self, tokens: &[SymbolId]) -> PooledParse {
        self.serve(Request::Tokens(tokens), ParseBudget::UNLIMITED)
            .expect("an unlimited token parse cannot fail")
    }

    /// Recognises a token sentence, unbudgeted (no forest construction;
    /// zero allocations on the warm path).
    pub fn recognize(&self, tokens: &[SymbolId]) -> bool {
        self.serve(Request::Recognize(tokens), ParseBudget::UNLIMITED)
            .is_ok_and(|parsed| parsed.accepted())
    }

    /// Convenience: [`IpgServer::parse`] on a whitespace-separated sentence
    /// of terminal names (tokenized — into the context's reusable token
    /// buffer — and parsed against one pinned epoch, so the sentence is
    /// interpreted by the same grammar version it is parsed with).
    pub fn parse_sentence(&self, sentence: &str) -> Result<GssParseResult, SessionError> {
        match self.parse_sentence_budgeted(sentence, ParseBudget::UNLIMITED) {
            Ok(result) => Ok(result),
            Err(ServerError::Session(e)) => Err(e),
            Err(e) => unreachable!("an unlimited sentence parse fails only to tokenize: {e}"),
        }
    }

    /// [`IpgServer::parse_sentence`] under an explicit [`ParseBudget`]. An
    /// exhausted parse returns [`ServerError::Exhausted`] and quarantines
    /// its context (see the module docs).
    pub fn parse_sentence_budgeted(
        &self,
        sentence: &str,
        budget: ParseBudget,
    ) -> Result<GssParseResult, ServerError> {
        self.serve(Request::Sentence(sentence), budget)
            .map(PooledParse::into_result)
    }

    /// Lexes `input` with the pinned epoch's scanner and parses the token
    /// stream — the full text-to-forest pipeline against one epoch, so
    /// lexical and context-free syntax can never be observed from two
    /// different versions within one request.
    ///
    /// Scanning is **fused** into the parse: the scanner's matches (served
    /// from its pinned, lock-free DFA snapshot) feed the GSS driver one
    /// terminal at a time, so no token vector, token structs or name
    /// strings are ever materialised. Fusion is lazy end to end — if every
    /// parallel parser dies early, the rest of the text is never scanned,
    /// so a lexical error *beyond* the point of rejection is not reported
    /// (the parse returns a plain rejection). See
    /// [`IpgServer::parse_text_pooled`] for the zero-copy form.
    pub fn parse_text(&self, input: &str) -> Result<GssParseResult, ServerError> {
        self.parse_text_pooled(input).map(PooledParse::into_result)
    }

    /// Like [`IpgServer::parse_text`], but the result borrows the pooled
    /// context: on a warm server (table expanded, DFA snapshot populated,
    /// context pools grown) a request through this path performs **zero
    /// heap allocations** end to end — scan, parse and forest all run in
    /// recycled memory. Drop the result to return the context.
    ///
    /// Runs under the server's default budget
    /// ([`IpgServer::default_budget`]); [`IpgServer::serve`] takes an
    /// explicit one.
    pub fn parse_text_pooled(&self, input: &str) -> Result<PooledParse, ServerError> {
        self.serve(Request::Text(input), self.default_budget())
    }

    // ------------------------------------------------------------------
    // Write path (epoch publication)
    // ------------------------------------------------------------------

    /// Runs `f` on a private fork of the current epoch's session and
    /// publishes the result as the next epoch — the `MODIFY` entry point
    /// for structural changes beyond the convenience methods below.
    ///
    /// Publication cost is the structurally shared fork (O(#chunks) `Arc`
    /// clones of grammar + item-set graph) plus whatever `f` invalidates
    /// (copied chunk-wise on write); it does **not** wait for in-flight
    /// parses, which keep reading the epoch they pinned, and it does not
    /// grow with the size of the graph.
    pub fn modify<R>(&self, f: impl FnOnce(&mut IpgSession) -> R) -> R {
        let _writer = self.writer.lock().unwrap();
        let cur = self.acquire();
        let mut session = (*cur.session).clone();
        let result = f(&mut session);
        self.install(cur.successor(Arc::new(session), cur.scanner.clone()));
        result
    }

    /// Runs `f` on a private fork of the current epoch's scanner and
    /// publishes the result as the next epoch (which shares the
    /// predecessor's table state — lexical edits do not fork the parser
    /// tables). Definition changes applied through `f` carry over the
    /// still-valid lazy-DFA states (see `ipg_lexer::Scanner`), so a
    /// lexical edit does not restart the scanner cold. In-flight
    /// `parse_text` calls finish on the DFA snapshot they pinned.
    pub fn modify_scanner<R>(&self, f: impl FnOnce(&mut Scanner) -> R) -> Result<R, ServerError> {
        let _writer = self.writer.lock().unwrap();
        let cur = self.acquire();
        let Some(scanner) = cur.scanner.as_deref() else {
            return Err(ServerError::NoScanner);
        };
        let mut scanner = scanner.clone();
        let result = f(&mut scanner);
        self.install(cur.successor(cur.session.clone(), Some(Arc::new(scanner))));
        Ok(result)
    }

    /// Adds a rule written in the textual BNF notation — the paper's
    /// `ADD-RULE`, published as a new epoch.
    pub fn add_rule_text(&self, text: &str) -> Result<RuleId, SessionError> {
        self.modify(|s| s.add_rule_text(text))
    }

    /// Deletes a rule written in the textual BNF notation — the paper's
    /// `DELETE-RULE`, published as a new epoch.
    pub fn remove_rule_text(&self, text: &str) -> Result<RuleId, SessionError> {
        self.modify(|s| s.remove_rule_text(text))
    }

    /// Runs a mark-and-sweep collection: like `MODIFY`, the collection
    /// happens on a private fork that is then published, so parses in
    /// flight keep their (uncollected) epoch until they finish, and the
    /// old storage goes with the last of their pins.
    pub fn collect_garbage(&self) {
        self.modify(|s| s.collect_garbage());
    }

    /// Evicts this server's derived state by publishing a **cold epoch**:
    /// the same grammar (and GC policy, and active token definitions) with
    /// a fresh, unexpanded item-set graph and a re-lazified scanner. The
    /// next parses rebuild exactly the chunks they touch through the lazy
    /// expander — the registry's evict → re-lazify cycle, and the paper's
    /// laziness applied to memory instead of cold-start time.
    ///
    /// Work counters — the graph's and the scanner's — are carried onto
    /// the cold epoch ("how much work has this tenant caused over its
    /// lifetime"), so every `Sum` counter stays monotone across eviction;
    /// the residency gauge drops to the cold working set while its
    /// high-water mark keeps the warm one. In-flight parses finish on the
    /// warm epoch they pinned, which is freed with the last of their pins.
    ///
    /// Returns the number of chunks evicted (node chunks, snapshot chunks
    /// and DFA row chunks the warm epoch held beyond the cold one).
    pub fn relazify(&self) -> usize {
        let _writer = self.writer.lock().unwrap();
        let cur = self.acquire();
        let warm_chunks = cur.session.chunk_accounting().len()
            + cur.scanner().map_or(0, |s| s.snapshot_accounting().len());
        let session = IpgSession::with_policy(
            cur.session.grammar().clone(),
            cur.session.graph().gc_policy(),
        );
        let scanner = cur.scanner().map(|s| Arc::new(s.relazified()));
        let cold_chunks = session.chunk_accounting().len()
            + scanner.as_deref().map_or(0, |s| s.snapshot_accounting().len());
        let mut next = cur.successor(Arc::new(session), scanner);
        // The re-lazified scanner keeps its own count of carried DFA
        // states, and the live residency is resampled from the cold stores.
        next.carried = GenStats {
            dfa_states_carried: 0,
            resident_bytes: 0,
            ..cur.stats()
        };
        self.install(next);
        let evicted = warm_chunks.saturating_sub(cold_chunks);
        self.note(|s| s.chunks_evicted += evicted);
        evicted
    }

    /// Modeled resident bytes of the current epoch: the session's stores
    /// (node chunks + published snapshot + rule arena) plus the scanner's
    /// materialised DFA snapshot. Retired-but-pinned epochs are not
    /// counted here; their storage is either shared with the current epoch
    /// (already counted) or reclaimed when their last reader leaves.
    pub fn resident_bytes(&self) -> usize {
        let epoch = self.acquire();
        epoch.session.resident_bytes() + epoch.scanner().map_or(0, |s| s.resident_bytes())
    }

    /// Pointer-keyed accounting rows `(Arc pointer as usize, modeled
    /// bytes)` over everything the current epoch holds resident. Servers
    /// forked from a common base share chunks by `Arc`; a registry summing
    /// residency across tenants dedupes these rows by pointer identity so
    /// each shared chunk is counted once.
    pub fn chunk_accounting(&self) -> Vec<(usize, usize)> {
        let epoch = self.acquire();
        let mut rows = epoch.session.chunk_accounting();
        if let Some(scanner) = epoch.scanner() {
            rows.extend(scanner.snapshot_accounting());
        }
        rows
    }

    // ------------------------------------------------------------------
    // Batch + statistics
    // ------------------------------------------------------------------

    /// Parses every request, fanned out over `threads` scoped worker
    /// threads pulling from a shared atomic work queue: each worker grabs
    /// the next unclaimed request index when it finishes its current one,
    /// so one slow request delays only the worker running it — not every
    /// request that a static striping would have assigned to the same
    /// lane. Results come back in request order. A convenience for
    /// benches, tests and batch callers; the network frontend
    /// (`ipg-frontend`) calls [`IpgServer::parse`] from its own worker
    /// pool instead.
    ///
    /// `threads` is a *request*: it is clamped to the number of requests
    /// (and to at least 1), and the count actually used is surfaced as the
    /// max-merged [`GenStats::effective_workers`] high-water mark — read
    /// it back through [`ServerStats::merged`] — so callers and
    /// benches report real, not configured, parallelism.
    pub fn parse_many(&self, requests: &[Vec<SymbolId>], threads: usize) -> Vec<GssParseResult> {
        let threads = threads.max(1).min(requests.len().max(1));
        self.note(|s| s.effective_workers = s.effective_workers.max(threads));
        let queue = AtomicUsize::new(0);
        let mut results: Vec<Option<GssParseResult>> = vec![None; requests.len()];
        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let queue = &queue;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = queue.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        out.push((i, self.parse(&requests[i])));
                    }
                    out
                }));
            }
            for handle in handles {
                for (i, result) in handle.join().expect("worker thread panicked") {
                    results[i] = Some(result);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every request was served"))
            .collect()
    }

    /// The aggregated statistics: the current epoch's work counters
    /// (carried forward across epochs), the server's epoch counters and
    /// the requests' counters. Never waits for a publication.
    pub fn stats(&self) -> ServerStats {
        let mut graph = self.acquire().stats();
        let (retired, reclaimed) = self.epoch_counts();
        graph.epochs_published = retired;
        graph.epochs_retired = retired;
        graph.epochs_reclaimed = reclaimed;
        ServerStats {
            graph,
            served: *self.served.lock().unwrap(),
            retired_epochs: retired - reclaimed,
        }
    }

    /// Records into the server's counters: `f` adds to them in place, as
    /// the frontend's recording does, so a request pays for the counters
    /// it touches and no more.
    pub(crate) fn note(&self, f: impl FnOnce(&mut GenStats)) {
        f(&mut self.served.lock().unwrap());
    }
}

// The whole point of the serving layer: one server instance may be shared
// across threads.
#[allow(dead_code)]
fn _assert_server_is_sync() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<IpgServer>();
    is_send_sync::<GrammarEpoch>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_grammar::fixtures;
    use ipg_lexer::simple_scanner;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    fn boolean_server() -> IpgServer {
        IpgServer::new(IpgSession::new(fixtures::booleans()))
    }

    #[test]
    fn serves_parses_from_many_threads() {
        let server = boolean_server();
        let sentences = ["true", "true and true", "false or true", "true or"];
        let expected = [true, true, true, false];
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (sentence, expect) in sentences.iter().zip(expected) {
                        let result = server.parse_sentence(sentence).unwrap();
                        assert_eq!(result.accepted, expect, "`{sentence}`");
                    }
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.total_parses(), 16);
        assert!(stats.merged().action_calls > 0);
        assert!(stats.graph.expansions > 0);
    }

    #[test]
    fn modification_under_load_keeps_every_parse_consistent() {
        let server = boolean_server();
        let base_version = server.grammar_version();
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let tokens = match server.tokens("unknown or true") {
                            Ok(tokens) => tokens,
                            // `unknown` not interned yet: pre-modification.
                            Err(_) => server.tokens("true or true").unwrap(),
                        };
                        // Whichever grammar version the parse ran against,
                        // the sentence was chosen to be in its language.
                        let (version, result) = server.parse_versioned(&tokens);
                        assert!(result.accepted, "grammar v{version}");
                    }
                });
            }
            scope.spawn(|| {
                server.add_rule_text(r#"B ::= "unknown""#).unwrap();
            });
        });
        assert!(server.grammar_version() > base_version);
        assert!(server.parse_sentence("unknown and false").unwrap().accepted);
    }

    #[test]
    fn parse_many_round_robins_and_preserves_order() {
        let server = boolean_server();
        server.warm();
        let requests: Vec<Vec<_>> = (0..17)
            .map(|i| {
                let sentence = if i % 3 == 0 { "true or false" } else { "true and" };
                server.tokens(sentence).unwrap()
            })
            .collect();
        let expansions_before = server.stats().graph.total_expansions();
        let results = server.parse_many(&requests, 4);
        assert_eq!(results.len(), 17);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.accepted, i % 3 == 0, "request {i}");
        }
        // Warm table: serving did not expand anything new.
        assert_eq!(server.stats().graph.total_expansions(), expansions_before);
    }

    #[test]
    fn text_pipeline_with_shared_scanner() {
        let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and"]));
        thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    assert!(server.parse_text("true or false -- comment\n").unwrap().accepted);
                    assert!(!server.parse_text("true or").unwrap().accepted);
                });
            }
        });
        assert!(matches!(
            server.parse_text("true $ false"),
            Err(ServerError::Scan(_))
        ));
        let err = boolean_server().parse_text("true").unwrap_err();
        assert_eq!(err, ServerError::NoScanner);
        assert!(err.to_string().contains("scanner"));
    }

    #[test]
    fn scanner_modifications_publish_a_new_epoch() {
        let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "or"]));
        let epoch_before = server.epoch_number();
        let version_before = server.grammar_version();
        assert!(server.parse_text("true % true").is_err());
        server
            .modify_scanner(|s| s.add_definition(ipg_lexer::TokenDef::keyword("%")))
            .unwrap();
        // A lexical edit publishes an epoch but shares the table state.
        assert_eq!(server.epoch_number(), epoch_before + 1);
        assert_eq!(server.grammar_version(), version_before);
        // `%` now scans but is not a grammar terminal: an unknown-terminal
        // scan error, not an unexpected-character one.
        assert!(matches!(
            server.parse_text("true % true"),
            Err(ServerError::Scan(ScanError::UnknownTerminal { .. }))
        ));
        assert!(boolean_server().modify_scanner(|_| ()).is_err());
    }

    #[test]
    fn read_and_modify_expose_the_session() {
        let server = boolean_server();
        let rules = server.read(|s| s.grammar().num_active_rules());
        assert_eq!(rules, 5);
        server.modify(|s| {
            s.add_rule_text(r#"B ::= "maybe""#).unwrap();
        });
        assert_eq!(server.read(|s| s.grammar().num_active_rules()), 6);
        server.collect_garbage();
        assert!(matches!(
            server.remove_rule_text(r#"B ::= "never""#),
            Err(SessionError::UnknownToken(_)) | Err(SessionError::Grammar(_))
        ));
    }

    #[test]
    fn modifications_retire_and_reclaim_epochs() {
        let server = boolean_server();
        server.warm();
        assert_eq!(server.epoch_number(), 0);
        let weak = Arc::downgrade(&server.current_epoch());
        server.add_rule_text(r#"B ::= "maybe""#).unwrap();
        assert_eq!(server.epoch_number(), 1);
        let stats = server.stats();
        assert_eq!(stats.graph.epochs_published, 1);
        assert_eq!(stats.graph.epochs_retired, 1);
        // No reader pinned epoch 0, so the publication dropped its last
        // pin: the item-set storage of the retired epoch is gone.
        assert_eq!(stats.graph.epochs_reclaimed, 1);
        assert_eq!(stats.retired_epochs, 0);
        assert!(weak.upgrade().is_none(), "retired epoch 0 was freed");
    }

    #[test]
    fn pinned_epoch_defers_reclamation_until_released() {
        let server = boolean_server();
        let pinned = server.current_epoch();
        let weak = Arc::downgrade(&pinned);
        server.add_rule_text(r#"B ::= "maybe""#).unwrap();
        // The pin keeps the retired epoch (and its storage) alive...
        assert_eq!(server.stats().retired_epochs, 1);
        assert!(weak.upgrade().is_some());
        // ...and the pinned state still answers for its own version.
        assert!(pinned.grammar_version() < server.grammar_version());
        drop(pinned);
        // Dropping the last pin reclaimed it.
        let stats = server.stats();
        assert_eq!(stats.retired_epochs, 0);
        assert!(weak.upgrade().is_none());
        assert_eq!(stats.graph.epochs_reclaimed, 1);
    }

    #[test]
    fn a_dropped_pin_frees_its_retired_epoch_at_once() {
        let server = boolean_server();
        let pinned = server.current_epoch();
        let weak = Arc::downgrade(&pinned);
        server.add_rule_text(r#"B ::= "maybe""#).unwrap();
        assert!(weak.upgrade().is_some());
        // The pin was the epoch's last owner: no later server call is
        // needed to free it.
        drop(pinned);
        assert!(weak.upgrade().is_none(), "the retired epoch was freed");
        assert_eq!(server.retired_epochs(), 0);
    }

    #[test]
    fn stats_do_not_wait_for_a_publication() {
        let server = &boolean_server();
        let inside = Barrier::new(2);
        let finish = Barrier::new(2);
        thread::scope(|scope| {
            scope.spawn(|| {
                server.modify(|s| {
                    inside.wait();
                    finish.wait();
                    s.add_rule_text(r#"B ::= "maybe""#).unwrap();
                })
            });
            inside.wait();
            // The publication is open: the writer holds its lock.
            let (sender, receiver) = mpsc::channel();
            scope.spawn(move || {
                let stats = server.stats();
                sender
                    .send((stats.retired_epochs, server.retired_epochs()))
                    .unwrap();
            });
            let read = receiver.recv_timeout(Duration::from_secs(5));
            finish.wait();
            assert_eq!(read, Ok((0, 0)), "stats waited for the publication");
        });
        assert_eq!(server.stats().graph.epochs_published, 1);
    }

    #[test]
    fn with_scanner_counts_no_retirement_or_reclamation() {
        let server = boolean_server();
        let scannerless = server.current_epoch();
        let server = server.with_scanner(simple_scanner(&["true", "false", "or", "and"]));
        drop(scannerless);
        let epochs = |stats: GenStats| {
            (
                stats.epochs_published,
                stats.epochs_retired,
                stats.epochs_reclaimed,
            )
        };
        let stats = server.stats();
        assert_eq!(epochs(stats.merged()), (0, 0, 0));
        assert_eq!(stats.retired_epochs, 0);
        server.add_rule_text(r#"B ::= "maybe""#).unwrap();
        let stats = server.stats();
        assert_eq!(epochs(stats.graph), (1, 1, 1));
        assert_eq!(epochs(stats.merged()), (1, 1, 1));
        assert_eq!(stats.retired_epochs, 0);
    }

    #[test]
    fn per_thread_tracking_is_bounded() {
        let server = boolean_server();
        server.warm();
        let tokens = server.tokens("true or false").unwrap();
        // Many short-lived threads, one parse each.
        let total = 72;
        for _ in 0..total {
            let server = &server;
            let tokens = &tokens;
            thread::scope(|scope| {
                scope.spawn(move || {
                    assert!(server.parse(tokens).accepted);
                });
            });
        }
        let stats = server.stats();
        // Every parse is accounted for, with one exact latency sample each.
        assert_eq!(stats.total_parses(), total);
        assert_eq!(stats.merged().latency.count() as usize, total);
        assert_eq!(stats.merged().parses, total);
    }

    #[test]
    fn parse_many_surfaces_the_effective_worker_count() {
        let server = boolean_server();
        let requests = vec![server.tokens("true or false").unwrap(); 2];
        // 8 threads requested, but only 2 requests exist: the clamp to the
        // request count must be visible, not silently applied.
        server.parse_many(&requests, 8);
        assert_eq!(server.stats().merged().effective_workers, 2);
        // A larger batch raises the high-water mark; a later smaller batch
        // does not lower it (max-merge, not last-write).
        let many = vec![server.tokens("true and true").unwrap(); 16];
        server.parse_many(&many, 4);
        assert_eq!(server.stats().merged().effective_workers, 4);
        server.parse_many(&requests, 8);
        assert_eq!(server.stats().merged().effective_workers, 4);
        // Zero threads and empty batches degrade to 1 worker, visibly.
        server.parse_many(&requests, 0);
        assert_eq!(server.stats().merged().effective_workers, 4);
    }

    #[test]
    fn serve_records_latency_samples() {
        let server = boolean_server();
        let tokens = server.tokens("true or false").unwrap();
        for _ in 0..5 {
            assert!(server.parse(&tokens).accepted);
        }
        let latency = server.stats().merged().latency;
        assert_eq!(latency.count(), 5);
        // Quantiles are served from the merged histogram without panicking
        // and respect ordering.
        let (p50, p99, p999) = latency.percentiles_us();
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p999 <= latency.max_us().max(1));
    }

    #[test]
    fn pooled_parses_reuse_the_thread_context() {
        let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and"]));
        server.warm();
        for _ in 0..8 {
            let parsed = server.parse_text_pooled("true or false and true").unwrap();
            assert!(parsed.accepted());
            assert!(parsed.stats().shifts > 0);
            assert_eq!(parsed.grammar_version(), server.grammar_version());
            assert!(!parsed.forest().roots().is_empty());
        }
        let stats = server.stats().merged();
        let (reused, fresh) = (stats.ctx_reused, stats.ctx_fresh);
        assert_eq!(reused + fresh, 8);
        // At most the first request on this thread built a context.
        assert!(reused >= 7, "contexts must be recycled: {reused} reused / {fresh} fresh");
    }

    #[test]
    fn pooled_and_owned_parse_text_agree() {
        let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and"]));
        for input in ["true or false", "true or true or true", "true or", ""] {
            let owned = server.parse_text(input).unwrap();
            let pooled = server.parse_text_pooled(input).unwrap();
            assert_eq!(pooled.accepted(), owned.accepted, "`{input}`");
            assert_eq!(
                pooled.forest().tree_count(100),
                owned.forest.tree_count(100),
                "`{input}`"
            );
            let copied = pooled.into_result();
            assert_eq!(copied.accepted, owned.accepted);
            assert_eq!(copied.grammar_version, owned.grammar_version);
        }
        // Error paths return the context to the pool and surface the error.
        assert!(matches!(
            server.parse_text_pooled("true $ false"),
            Err(ServerError::Scan(_))
        ));
        let tokens = server.tokens("true or false").unwrap();
        assert!(server.parse_pooled(&tokens).accepted());
    }

    #[test]
    fn fused_scanning_is_lazy_past_the_point_of_rejection() {
        let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and"]));
        // `true true` kills every parallel parser before `$` is scanned:
        // the fused pipeline reports a rejection, not a scan error.
        let result = server.parse_text("true true $").unwrap();
        assert!(!result.accepted);
        // With the parse still alive at the error, the scan error surfaces.
        assert!(matches!(
            server.parse_text("true or $"),
            Err(ServerError::Scan(ScanError::UnexpectedCharacter { .. }))
        ));
    }

    #[test]
    fn parse_many_with_more_threads_than_requests() {
        let server = boolean_server();
        let requests = vec![server.tokens("true or false").unwrap()];
        let results = server.parse_many(&requests, 8);
        assert_eq!(results.len(), 1);
        assert!(results[0].accepted);
        assert!(server.parse_many(&[], 4).is_empty());
    }

    #[test]
    fn relazify_publishes_a_cold_epoch_with_unchanged_behaviour() {
        let server = IpgServer::new(IpgSession::new(fixtures::booleans()))
            .with_scanner(simple_scanner(&["true", "false", "or", "and"]));
        server.warm();
        assert!(server.parse_text("true or false and true").unwrap().accepted);
        let warm_bytes = server.resident_bytes();
        let warm_expansions = server.stats().graph.total_expansions();
        let epoch_before = server.epoch_number();

        let evicted = server.relazify();
        assert!(evicted > 0, "a warmed server has derived chunks to evict");
        assert_eq!(server.epoch_number(), epoch_before + 1);
        // The grammar version is untouched: eviction is not an edit.
        assert!(server.resident_bytes() < warm_bytes, "cold epoch is smaller");
        // Work counters carried over (monotone across eviction)...
        let stats = server.stats();
        assert!(stats.graph.total_expansions() >= warm_expansions);
        assert_eq!(stats.merged().chunks_evicted, evicted);
        // ...and the high-water gauge remembers the warm working set.
        assert!(stats.graph.resident_high_water >= warm_bytes);

        // Re-lazification: parses rebuild exactly what they touch.
        assert!(server.parse_text("true or false and true").unwrap().accepted);
        assert!(!server.parse_text("true or").unwrap().accepted);
        assert!(server.stats().graph.total_expansions() > warm_expansions);
        // Accounting rows sum to the total (pointer-keyed, no double count).
        let rows = server.chunk_accounting();
        assert_eq!(
            rows.iter().map(|&(_, b)| b).sum::<usize>(),
            server.resident_bytes()
        );
    }

    #[test]
    fn server_error_display() {
        let e: ServerError = SessionError::UnknownToken("zzz".into()).into();
        assert!(e.to_string().contains("zzz"));
        let s: ServerError = ScanError::UnexpectedCharacter { offset: 1, character: '$' }.into();
        assert!(s.to_string().contains("scan error"));
    }
}
