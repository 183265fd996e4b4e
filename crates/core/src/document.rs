//! Document sessions: long-lived per-document parse state with
//! incremental re-lex and re-parse on edits.
//!
//! A document session (created by [`IpgServer::open_document`]) keeps
//! the whole text→forest pipeline warm between edits:
//!
//! * the text, which the re-lexer scans in place (every position is a
//!   byte offset into it);
//! * the lexer's token-anchored [`MatchRec`] list: record `i` is token `i`
//!   with the layout before it, and one final record holds the trailing
//!   layout (`ipg_lexer::relex`). Each record carries its examined extent,
//!   so an edit re-lexes only the damaged records and resynchronises at an
//!   old record start, which is a token end;
//! * the terminal sequence, one per token record;
//! * the parser's `ParseCtx` (GSS pools + flat forest arena) and
//!   `ParseHistory` (per-token checkpoints), so the GSS re-runs only from
//!   the leftmost damaged token — and, for edits that keep the token
//!   count, only until it converges with the recorded parse — reusing the
//!   retained forest;
//! * the pinned `Arc<GrammarEpoch>` and DFA snapshot the state was built
//!   against.
//!
//! All of this memory but the text is one [`RequestCtx`], checked out of
//! the per-thread context pool at open and checked back in at close, so a
//! document reuses the memory of the parses and documents before it. A
//! session closed while desynchronised (or after a panic poisoned it)
//! drops its context instead (`ctx_quarantined`), like a budget-killed
//! parse.
//!
//! [`IpgServer::apply_edit`] is the hot path:
//!
//! 1. splice the text, and re-lex only the damaged records.
//!    Record and token indices agree, so the record count changes exactly
//!    when the token count does: an edit that keeps the token count
//!    replaces its records in place, and a same-length one shifts no
//!    later record either;
//! 2. map the re-lexed token records 1:1 to terminals — a token-identical
//!    result (layout edits, renames within a token class) keeps the parse
//!    as is;
//! 3. resume the GSS at the first damaged record's index: it rewinds to
//!    that token's checkpoint and logs what it overwrites;
//! 4. for an edit that keeps the token count, the re-run stops where it
//!    converges with the recorded parse and splices the recorded suffix
//!    back (`reparse_converged`); other edits replay to the end.
//!
//! `tokens_relexed` counts the records the edit re-scanned (each a token
//! with its leading layout folded in); `states_rerun` counts the GSS nodes
//! the re-run built, up to the convergence point.
//!
//! The staleness rule is strict: if the server published any epoch since the session last
//! parsed (grammar `MODIFY`, scanner edit, GC), the edit re-pins the
//! current epoch and rebuilds everything from scratch (`reparse_full`) —
//! match records, token vectors, forests and histories are never spliced
//! across epochs. The same full rebuild covers sessions desynchronised by
//! a scan error (the text edit is applied even when the new text does not
//! lex; parse state catches up on the next lexable edit).
//!
//! A document's text is limited to [`ipg_lexer::MAX_TEXT_BYTES`] (records
//! store positions as `u32`): an open or edit past it fails with
//! [`ServerError::DocumentTooLarge`] and changes nothing.
//!
//! Correctness of the incremental path is proven, not assumed: the
//! `incremental_reparse` suite digest-compares every incremental result
//! against a cold parse of the spliced text over random grammars and edit
//! scripts, including edits raced with `MODIFY`.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ipg_glr::{GssParseResult, ParseBudget, ParseOutcome, TokenEdit};
use ipg_grammar::SymbolId;
use ipg_lexer::{relex, DfaSnapshot, MatchRec, ScanError, Scanner, MAX_TEXT_BYTES};

use crate::server::{
    checkin_ctx, checkout_ctx, GrammarEpoch, IpgServer, RequestCtx, ServerError, Work,
};

/// The state of one open document (see the module docs).
#[derive(Debug)]
struct DocumentSession {
    /// The epoch this session's parse state was built against. Pinned: a
    /// long-lived open document intentionally keeps its epoch's storage
    /// alive until the next edit re-pins (or the document closes).
    epoch: Arc<GrammarEpoch>,
    /// The pinned DFA snapshot re-lexing runs off (refreshed in place on
    /// cache misses, replaced when the epoch is re-pinned).
    pin: Arc<DfaSnapshot>,
    text: String,
    /// Records, terminals, GSS context and checkpoint history: a pooled
    /// context, held from open to close.
    mem: Box<RequestCtx>,
    /// Whether the state in `mem` describes `text`. False after a scan
    /// error applied the text edit but could not rebuild the parse state;
    /// the next edit rebuilds from scratch.
    synced: bool,
    /// The most recent successful parse outcome (its forest lives in
    /// `mem`).
    last: ParseOutcome,
}

/// The server's open-document registry. Lives in [`IpgServer`]; the
/// registry lock is held only to look up or insert the per-document
/// `Arc`, so edits to different documents run concurrently and only edits
/// to the *same* document serialize (on that document's own mutex).
#[derive(Debug, Default)]
pub(crate) struct DocRegistry {
    next: AtomicU64,
    map: Mutex<HashMap<u64, Arc<Mutex<DocumentSession>>>>,
}

impl DocRegistry {
    /// Locks the id→session map, recovering from poison: the map itself is
    /// only mutated by whole-entry insert/remove, so a panic elsewhere in a
    /// holder's critical section cannot leave it inconsistent.
    fn lock_map(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<Mutex<DocumentSession>>>> {
        match self.map.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.map.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    fn insert(&self, doc: DocumentSession) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.lock_map().insert(id, Arc::new(Mutex::new(doc)));
        id
    }

    fn get(&self, id: u64) -> Result<Arc<Mutex<DocumentSession>>, ServerError> {
        self.lock_map()
            .get(&id)
            .cloned()
            .ok_or(ServerError::UnknownDocument(id))
    }

    fn remove(&self, id: u64) -> Option<Arc<Mutex<DocumentSession>>> {
        self.lock_map().remove(&id)
    }

    fn len(&self) -> usize {
        self.lock_map().len()
    }
}

/// Locks one document session, recovering from a poisoned mutex: a panic
/// mid-edit (an injected fault, or a real bug unwinding out of the re-lex
/// or GSS resume) leaves the session's incremental state half-updated, so
/// recovery takes the data anyway (`PoisonError::into_inner`), marks the
/// session **desynchronised** — the next edit rebuilds text→tokens→forest
/// from scratch instead of trusting spliced state — and clears the poison
/// flag so the document stays usable instead of erroring forever.
fn lock_doc(doc: &Arc<Mutex<DocumentSession>>) -> std::sync::MutexGuard<'_, DocumentSession> {
    match doc.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            doc.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.synced = false;
            guard
        }
    }
}

/// Refuses a document text longer than the records can address.
fn check_document_len(bytes: usize) -> Result<(), ServerError> {
    if bytes > MAX_TEXT_BYTES {
        return Err(ServerError::DocumentTooLarge { bytes });
    }
    Ok(())
}

/// Appends the grammar terminals of token records `recs` to `tokens`,
/// through the epoch's slot→terminal map. On a record whose token has no
/// terminal, `tokens` is left as it was.
fn push_terminals(
    epoch: &GrammarEpoch,
    scanner: &Scanner,
    recs: &[MatchRec],
    tokens: &mut Vec<SymbolId>,
) -> Result<(), ScanError> {
    let old_len = tokens.len();
    let slots = epoch.terminal_slots();
    for rec in recs {
        let slot = rec.slot().expect("only token records map to terminals");
        let Some(symbol) = slots.get(slot).copied().flatten() else {
            tokens.truncate(old_len);
            return Err(ScanError::UnknownTerminal {
                name: scanner.slot(slot).map(|def| def.name.clone()).unwrap_or_default(),
            });
        };
        tokens.push(symbol);
    }
    Ok(())
}

/// A point-in-time description of an open document, for observability
/// (and the frontend's replies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DocumentInfo {
    /// Document length in bytes.
    pub bytes: usize,
    /// Number of (non-layout) tokens of the last synced lex.
    pub tokens: usize,
    /// The epoch number the session's parse state is pinned to.
    pub epoch: u64,
    /// Whether the last successful parse accepted the document.
    pub accepted: bool,
    /// Whether the parse state currently describes the text (false after
    /// a scan error until a later edit rebuilds).
    pub synced: bool,
}

impl IpgServer {
    /// Opens a document session: lexes and parses `text` against the
    /// current epoch with checkpoint recording, and registers the state
    /// for incremental edits. Returns the new document id.
    ///
    /// Requires a scanner ([`ServerError::NoScanner`] otherwise) and a
    /// text of at most [`ipg_lexer::MAX_TEXT_BYTES`] bytes
    /// ([`ServerError::DocumentTooLarge`]). A scan or unknown-terminal
    /// error creates no session.
    pub fn open_document(&self, text: &str) -> Result<u64, ServerError> {
        self.open_document_budgeted(text, self.default_budget())
    }

    /// [`IpgServer::open_document`] under an explicit [`ParseBudget`]. If
    /// the initial parse exhausts the budget no session is created, the
    /// context is quarantined and [`ServerError::Exhausted`] is returned.
    pub fn open_document_budgeted(
        &self,
        text: &str,
        budget: ParseBudget,
    ) -> Result<u64, ServerError> {
        let started = Instant::now();
        check_document_len(text.len())?;
        let (mut mem, reused) = checkout_ctx();
        let epoch = self.acquire();
        let mut pin = None;
        let lexed = lex_document(&epoch, text, &mut mem).map(|lexed| {
            pin = Some(lexed);
            Work::Record { rebuild: false }
        });
        match self.run_request(&epoch, &mut mem, lexed, budget, started, Some(reused)) {
            Ok(last) => Ok(self.documents.insert(DocumentSession {
                epoch,
                pin: pin.expect("a recorded parse follows a successful lex"),
                text: text.to_owned(),
                mem,
                synced: true,
                last,
            })),
            Err(e) => Err(self.discard_ctx(mem, e)),
        }
    }

    /// Applies one edit — replace bytes `range` of the document with
    /// `replacement` — and re-parses, incrementally when possible (see
    /// the module docs for the full decision ladder). Returns the parse
    /// outcome of the edited document; read the forest back with
    /// [`IpgServer::document_result`].
    ///
    /// On a scan error the text edit **is** applied (the document is the
    /// source of truth) but the parse state is marked desynchronised and
    /// rebuilt by the next edit; the error is returned. An invalid range,
    /// or an edit that would grow the text past
    /// [`ipg_lexer::MAX_TEXT_BYTES`], changes nothing.
    pub fn apply_edit(
        &self,
        id: u64,
        range: Range<usize>,
        replacement: &str,
    ) -> Result<ParseOutcome, ServerError> {
        self.apply_edit_budgeted(id, range, replacement, self.default_budget())
    }

    /// [`IpgServer::apply_edit`] under an explicit [`ParseBudget`]. A
    /// budget-killed re-parse leaves the text edit applied but the parse
    /// state desynchronised; the next edit rebuilds from scratch.
    pub fn apply_edit_budgeted(
        &self,
        id: u64,
        range: Range<usize>,
        replacement: &str,
        budget: ParseBudget,
    ) -> Result<ParseOutcome, ServerError> {
        let started = Instant::now();
        let doc = self.documents.get(id)?;
        let mut doc = lock_doc(&doc);
        let doc = &mut *doc;
        if range.start > range.end
            || range.end > doc.text.len()
            || !doc.text.is_char_boundary(range.start)
            || !doc.text.is_char_boundary(range.end)
        {
            return Err(ServerError::InvalidRange {
                start: range.start,
                end: range.end,
                len: doc.text.len(),
            });
        }
        check_document_len((doc.text.len() - range.len()).saturating_add(replacement.len()))?;

        // Staleness rule: any epoch published since this session last
        // parsed (grammar MODIFY, scanner edit, GC) forces a full rebuild
        // against a fresh pin — state is never spliced across epochs.
        let stale = doc.epoch.number() != self.epoch_number();
        if stale {
            doc.epoch = self.acquire();
        }
        let work = if stale || !doc.synced {
            doc.text.replace_range(range, replacement);
            lex_document(&doc.epoch, &doc.text, &mut doc.mem).map(|pin| {
                doc.pin = pin;
                Work::Record { rebuild: true }
            })
        } else {
            relex_edit(doc, range, replacement)
        };
        // The parse state lags the text until the re-parse lands; a failed
        // one leaves the session to rebuild from scratch on the next edit.
        doc.synced = false;
        let outcome = self.run_request(&doc.epoch, &mut doc.mem, work, budget, started, None)?;
        doc.synced = true;
        doc.last = outcome;
        Ok(outcome)
    }

    /// The last successful parse of the document, with an owned copy of
    /// its forest. After an edit that returned a scan error this is still
    /// the pre-error result (the parse state did not advance).
    pub fn document_result(&self, id: u64) -> Result<GssParseResult, ServerError> {
        let doc = self.documents.get(id)?;
        let doc = lock_doc(&doc);
        Ok(doc.last.into_result(doc.mem.glr.forest().clone()))
    }

    /// The document's current text (always reflects every applied edit,
    /// including ones whose re-parse failed).
    pub fn document_text(&self, id: u64) -> Result<String, ServerError> {
        Ok(lock_doc(&self.documents.get(id)?).text.clone())
    }

    /// A point-in-time description of an open document.
    pub fn document_info(&self, id: u64) -> Result<DocumentInfo, ServerError> {
        let doc = self.documents.get(id)?;
        let doc = lock_doc(&doc);
        Ok(DocumentInfo {
            bytes: doc.text.len(),
            tokens: doc.mem.tokens.len(),
            epoch: doc.epoch.number(),
            accepted: doc.last.accepted(),
            synced: doc.synced,
        })
    }

    /// Closes a document session and drops its epoch pin (a stale pinned
    /// epoch with no other pin is freed here). A synced session returns
    /// its memory to the calling thread's context pool; a desynchronised
    /// or poisoned one drops it (`ctx_quarantined`).
    pub fn close_document(&self, id: u64) -> Result<(), ServerError> {
        let doc = self
            .documents
            .remove(id)
            .ok_or(ServerError::UnknownDocument(id))?;
        let doc = match Arc::try_unwrap(doc) {
            Ok(mutex) => mutex.into_inner().unwrap_or_else(|poisoned| {
                let mut doc = poisoned.into_inner();
                doc.synced = false;
                doc
            }),
            // A concurrent reader still holds the session `Arc`; the
            // session (memory and pin) drops when it finishes.
            Err(_) => return Ok(()),
        };
        if doc.synced {
            checkin_ctx(doc.mem);
        } else {
            self.quarantine_ctx(doc.mem);
        }
        Ok(())
    }

    /// Number of currently open document sessions.
    pub fn open_documents(&self) -> usize {
        self.documents.len()
    }
}

/// Lexes a whole document text into `mem` with `epoch`'s scanner — token
/// records and terminals — and returns the DFA snapshot pin the records
/// were built against.
fn lex_document(
    epoch: &GrammarEpoch,
    text: &str,
    mem: &mut RequestCtx,
) -> Result<Arc<DfaSnapshot>, ServerError> {
    let scanner = epoch.scanner().ok_or(ServerError::NoScanner)?;
    let mut pin = scanner.dfa_snapshot();
    let RequestCtx { recs, tokens, .. } = mem;
    scanner.lex_records(&mut pin, text, recs)?;
    tokens.clear();
    let (_, token_recs) = recs
        .split_last()
        .expect("a record list ends in its final record");
    push_terminals(epoch, scanner, token_recs, tokens)?;
    Ok(pin)
}

/// Applies an edit to a synced session's text, records and terminals,
/// re-lexing only the damaged records, and returns what the GSS must
/// re-run. On a scan error the text edit stands and the rest of the state
/// is partial.
fn relex_edit(
    doc: &mut DocumentSession,
    range: Range<usize>,
    replacement: &str,
) -> Result<Work<'static>, ServerError> {
    let RequestCtx { recs, tokens, .. } = &mut *doc.mem;
    doc.text.replace_range(range.clone(), replacement);

    let scanner = doc
        .epoch
        .scanner()
        .expect("synced session implies a scanner-backed epoch");
    ipg_glr::fault::point("relex");
    let rel = scanner.relex_splice(&mut doc.pin, recs, &doc.text, range, replacement.len())?;
    debug_assert!(
        {
            let mut cold = Vec::new();
            let cold_scan = scanner.lex_records(&mut doc.pin.clone(), &doc.text, &mut cold);
            cold_scan.is_ok() && cold == *recs
        },
        "the re-lexed records differ from a cold scan of the edited text"
    );

    // Record `i` is token `i`: map the re-lexed token records to grammar
    // terminals, staged past the end of the token vector, and splice them
    // in at the same index.
    let damage = rel.first_damaged;
    let removed_end = damage + rel.old_tokens_removed;
    let old_len = tokens.len();
    push_terminals(&doc.epoch, scanner, &recs[damage..damage + rel.new_tokens], tokens)?;
    // A token-identical splice (layout-only edit, or a replacement lexing
    // to the very same terminals) keeps the parse — forest, history and
    // all — exact: nothing re-runs.
    let edit = if tokens[damage..removed_end] == tokens[old_len..] {
        tokens.truncate(old_len);
        None
    } else {
        relex::splice_staged(tokens, damage..removed_end, old_len);
        Some(TokenEdit {
            start: damage,
            old_len: rel.old_tokens_removed,
            new_len: rel.new_tokens,
        })
    };
    Ok(Work::Edit {
        edit,
        last: doc.last,
        relexed: rel.relexed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boolean_server() -> IpgServer {
        IpgServer::from_bnf(
            r#"
            B ::= "true" | "false" | B "or" B | B "and" B
            START ::= B
        "#,
        )
        .unwrap()
        .with_scanner(ipg_lexer::simple_scanner(&["true", "false", "or", "and"]))
    }

    /// Digest for exact comparison: acceptance, roots, tree count, first
    /// tree shape.
    fn digest(r: &GssParseResult) -> (bool, usize, usize, Option<String>) {
        (
            r.accepted,
            r.forest.roots().len(),
            r.forest.tree_count(64),
            r.forest.first_tree().map(|t| format!("{t:?}")),
        )
    }

    #[test]
    fn open_edit_close_lifecycle() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();
        assert_eq!(server.open_documents(), 1);
        let info = server.document_info(id).unwrap();
        assert!(info.accepted && info.synced);
        assert_eq!(info.tokens, 3);

        // `false` -> `true and true`.
        let outcome = server.apply_edit(id, 8..13, "true and true").unwrap();
        assert!(outcome.accepted());
        assert_eq!(server.document_text(id).unwrap(), "true or true and true");
        let cold = server.parse_text("true or true and true").unwrap();
        assert_eq!(digest(&server.document_result(id).unwrap()), digest(&cold));

        server.close_document(id).unwrap();
        assert_eq!(server.open_documents(), 0);
        assert!(matches!(
            server.document_result(id),
            Err(ServerError::UnknownDocument(_))
        ));
    }

    #[test]
    fn incremental_edits_are_counted_and_equivalent() {
        let server = boolean_server();
        let id = server.open_document("true or false and true").unwrap();
        for (range, repl) in [
            (8..13, "true"),     // replace a token
            (0..0, "false or "), // insert at front
            (5..6, "  "),        // whitespace-only edit
            (0..10, ""),         // delete the first clause again
        ] {
            server.apply_edit(id, range, repl).unwrap();
            let text = server.document_text(id).unwrap();
            let cold = server.parse_text(&text).unwrap();
            assert_eq!(
                digest(&server.document_result(id).unwrap()),
                digest(&cold),
                "text `{text}`"
            );
        }
        let stats = server.stats().merged();
        assert_eq!(stats.reparse_incremental, 4);
        assert_eq!(stats.reparse_full, 0);
        assert!(stats.tokens_relexed > 0);
        server.close_document(id).unwrap();
    }

    #[test]
    fn same_length_substitutions_converge_and_are_counted() {
        let server = IpgServer::from_bnf(
            r#"
            L ::= L "item" | L "atom" | "item" | "atom"
            START ::= L
        "#,
        )
        .unwrap()
        .with_scanner(ipg_lexer::simple_scanner(&["item", "atom"]));
        let text = vec!["item"; 40].join(" ");
        let id = server.open_document(&text).unwrap();
        for (at, repl) in [(50, "atom"), (0, "atom"), (50, "item"), (190, "atom")] {
            server.apply_edit(id, at..at + 4, repl).unwrap();
            let text = server.document_text(id).unwrap();
            let cold = server.parse_text(&text).unwrap();
            assert_eq!(digest(&server.document_result(id).unwrap()), digest(&cold), "text `{text}`");
        }
        let stats = server.stats().merged();
        assert_eq!(stats.reparse_incremental, 4);
        assert_eq!(stats.reparse_converged, 4, "every substitution converged");
        assert!(stats.states_rerun <= 4 * 4, "only a few states re-ran per edit");
        server.close_document(id).unwrap();
    }

    /// Sums the context-pool counters over the serving threads.
    fn pool_counters(server: &IpgServer) -> (usize, usize, usize) {
        let merged = server.stats().merged();
        (merged.ctx_reused, merged.ctx_fresh, merged.ctx_quarantined)
    }

    #[test]
    fn closed_documents_recycle_their_memory_through_the_pool() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();
        assert_eq!(
            pool_counters(&server),
            (0, 1, 0),
            "a new thread's first open builds"
        );
        server.apply_edit(id, 0..4, "false").unwrap();
        server.close_document(id).unwrap();
        let id = server.open_document("true and true").unwrap();
        assert_eq!(
            pool_counters(&server),
            (1, 1, 0),
            "the reopen reused the closed memory"
        );
        let text = server.document_text(id).unwrap();
        let cold = server.parse_text(&text).unwrap();
        assert_eq!(digest(&server.document_result(id).unwrap()), digest(&cold));
        server.close_document(id).unwrap();
    }

    #[test]
    fn closing_a_desynchronised_document_quarantines_its_memory() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();
        assert!(server.apply_edit(id, 4..4, "%").is_err());
        assert!(!server.document_info(id).unwrap().synced);
        server.close_document(id).unwrap();
        assert_eq!(pool_counters(&server), (0, 1, 1), "dropped, not recycled");
        let id = server.open_document("true").unwrap();
        assert_eq!(
            pool_counters(&server),
            (0, 2, 1),
            "the next open builds fresh"
        );
        server.close_document(id).unwrap();
    }

    #[test]
    fn texts_past_the_record_limit_are_refused() {
        assert_eq!(check_document_len(0), Ok(()));
        assert_eq!(check_document_len(MAX_TEXT_BYTES), Ok(()));
        for bytes in [MAX_TEXT_BYTES + 1, 4 << 30, usize::MAX] {
            assert_eq!(
                check_document_len(bytes),
                Err(ServerError::DocumentTooLarge { bytes })
            );
        }
    }

    #[test]
    fn stale_epoch_forces_full_reparse() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();
        server.add_rule_text(r#"B ::= "true" "true""#).unwrap();
        let outcome = server.apply_edit(id, 8..13, "true true").unwrap();
        assert!(outcome.accepted(), "new rule is visible after the fallback");
        let stats = server.stats().merged();
        assert_eq!(stats.reparse_full, 1);
        assert_eq!(stats.reparse_incremental, 0);
        assert_eq!(
            server.document_info(id).unwrap().epoch,
            server.epoch_number()
        );
        server.close_document(id).unwrap();
    }

    #[test]
    fn scan_error_then_fix_recovers_via_full_reparse() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();
        assert!(matches!(
            server.apply_edit(id, 4..4, "%"),
            Err(ServerError::Scan(ScanError::UnexpectedCharacter {
                character: '%',
                ..
            }))
        ));
        assert_eq!(server.document_text(id).unwrap(), "true% or false");
        assert!(!server.document_info(id).unwrap().synced);
        // The old result is still served.
        assert!(server.document_result(id).unwrap().accepted);
        // Removing the bad character rebuilds from scratch.
        let outcome = server.apply_edit(id, 4..5, "").unwrap();
        assert!(outcome.accepted());
        assert!(server.document_info(id).unwrap().synced);
        assert_eq!(server.stats().merged().reparse_full, 1);
        server.close_document(id).unwrap();
    }

    #[test]
    fn invalid_ranges_are_rejected_without_mutation() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();
        for (start, end) in [(5, 4), (0, 999), (999, 1000)] {
            assert!(matches!(
                server.apply_edit(id, start..end, "x"),
                Err(ServerError::InvalidRange { .. })
            ));
        }
        assert_eq!(server.document_text(id).unwrap(), "true or false");
        assert!(server.document_info(id).unwrap().synced);
        server.close_document(id).unwrap();
    }

    #[test]
    fn unknown_document_operations_error() {
        let server = boolean_server();
        assert!(matches!(
            server.apply_edit(7, 0..0, "x"),
            Err(ServerError::UnknownDocument(7))
        ));
        assert!(matches!(
            server.close_document(7),
            Err(ServerError::UnknownDocument(7))
        ));
        assert!(matches!(
            server.document_text(7),
            Err(ServerError::UnknownDocument(7))
        ));
    }

    #[test]
    fn open_document_without_scanner_errors() {
        let server = IpgServer::from_bnf(
            r#"
            B ::= "true"
            START ::= B
        "#,
        )
        .unwrap();
        assert_eq!(server.open_document("true"), Err(ServerError::NoScanner));
        assert_eq!(server.open_documents(), 0);
    }

    /// Every request that pins an epoch counts once, also when it fails
    /// after the pin: a failed open counts like a failed text parse.
    #[test]
    fn failed_opens_are_counted_like_failed_parses() {
        let parses = |server: &IpgServer| server.stats().merged().parses;
        let server = boolean_server();
        let before = parses(&server);
        assert!(matches!(server.open_document("true % false"), Err(ServerError::Scan(_))));
        assert_eq!(parses(&server) - before, 1, "a failed open");
        let before = parses(&server);
        assert!(matches!(server.parse_text("true % false"), Err(ServerError::Scan(_))));
        assert_eq!(parses(&server) - before, 1, "a failed text parse");
        assert_eq!(server.open_documents(), 0);

        let scannerless = IpgServer::from_bnf("B ::= \"true\"\nSTART ::= B").unwrap();
        assert_eq!(scannerless.open_document("true"), Err(ServerError::NoScanner));
        assert_eq!(parses(&scannerless), 1, "an open without a scanner");
    }

    #[test]
    fn closing_a_document_releases_its_stale_epoch() {
        let server = boolean_server();
        let id = server.open_document("true").unwrap();
        server.add_rule_text(r#"B ::= "maybe""#).unwrap();
        // The stale epoch is still pinned by the open session.
        assert_eq!(server.retired_epochs(), 1);
        server.close_document(id).unwrap();
        assert_eq!(server.retired_epochs(), 0, "close released the pin");
    }

    /// Satellite 1: a panic *while holding the document mutex* (injected
    /// into the re-lex) poisons the lock; the next edit must recover —
    /// desync + full rebuild — instead of erroring forever.
    #[test]
    fn poisoned_document_recovers_via_full_rebuild() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();

        ipg_glr::FaultPlan::new().fail("relex", 1).arm();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = server.apply_edit(id, 8..13, "true");
        }));
        ipg_glr::fault::disarm();
        assert!(panicked.is_err(), "injected fault should unwind");
        assert_eq!(ipg_glr::fault::injected(), 1);

        // The panic left the session mutex poisoned with half-spliced
        // state. Reads recover and report desync...
        assert!(!server.document_info(id).unwrap().synced);
        // ...and the next edit rebuilds from scratch and is equivalent to
        // a cold parse of the final text.
        let outcome = server.apply_edit(id, 0..4, "false").unwrap();
        assert!(outcome.accepted());
        let text = server.document_text(id).unwrap();
        let cold = server.parse_text(&text).unwrap();
        assert_eq!(digest(&server.document_result(id).unwrap()), digest(&cold));
        assert!(server.stats().merged().reparse_full >= 1);
        server.close_document(id).unwrap();
    }

    /// A budget-killed incremental re-parse desynchronises the session and
    /// the next (budgeted-enough) edit recovers with a full rebuild.
    #[test]
    fn exhausted_edit_desyncs_then_recovers() {
        let server = boolean_server();
        let id = server.open_document("true or false").unwrap();
        let starved = ParseBudget::default().with_fuel(1);
        let tail = "true and true or false and true or true and false or true";
        let err = server
            .apply_edit_budgeted(id, 8..13, tail, starved)
            .unwrap_err();
        assert!(matches!(err, ServerError::Exhausted(_)));
        // Text is the source of truth; parse state is behind.
        assert_eq!(server.document_text(id).unwrap(), format!("true or {tail}"));
        assert!(!server.document_info(id).unwrap().synced);
        let stats = server.stats().merged();
        assert_eq!(stats.parses_exhausted, 1);

        let outcome = server.apply_edit(id, 0..0, "false or ").unwrap();
        assert!(outcome.accepted());
        assert!(server.document_info(id).unwrap().synced);
        let text = server.document_text(id).unwrap();
        let cold = server.parse_text(&text).unwrap();
        assert_eq!(digest(&server.document_result(id).unwrap()), digest(&cold));
        server.close_document(id).unwrap();
    }
}
