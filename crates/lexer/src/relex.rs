//! Bounded incremental re-lexing with token-boundary resynchronisation.
//!
//! A document session keeps one [`MatchRec`] per lexed match (layout and
//! token alike), tiling the text. Each record carries the DFA's *examined
//! extent* — one past the last character the automaton read while deciding
//! that match (see `LazyDfa::longest_match_pinned_examined`). An edit can
//! only change matches whose examined extent reaches it, so the damage
//! start is found by binary search on the running maximum of the extents,
//! and re-lexing runs forward from there only until the new token
//! boundaries re-align with the old ones (a second binary search per
//! attempted position). Everything before the damage is kept verbatim;
//! everything after the resynchronisation point is kept shifted. The
//! result is bit-identical to a cold scan of the edited text, which the
//! equivalence tests assert record-for-record.

use std::sync::Arc;

use crate::dfa::DfaSnapshot;
use crate::nfa::TokenId;
use crate::scanner::{ScanError, Scanner};

/// One lexed match (token or layout) with the bookkeeping incremental
/// re-lexing needs. Records tile the text: each starts where the previous
/// one ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchRec {
    /// The token-id slot the match hit.
    pub slot: TokenId,
    /// Whether the slot is a layout definition (whitespace/comments —
    /// lexed but not fed to the parser).
    pub layout: bool,
    /// Start of the match in characters.
    pub char_start: usize,
    /// Length of the match in characters.
    pub char_len: usize,
    /// Start of the match in bytes.
    pub byte_start: usize,
    /// Length of the match in bytes.
    pub byte_len: usize,
    /// One past the last character index the DFA examined while deciding
    /// this match — `chars.len() + 1` when the decision depended on
    /// running out of input, so that appends at the end register as
    /// damage.
    pub examined_end: usize,
    /// Running maximum of `examined_end` over all records up to and
    /// including this one. Monotone, so the first record an edit can
    /// influence is found by binary search.
    pub examined_max: usize,
    /// Number of non-layout matches strictly before this record — the
    /// token-index coordinate the parser's damage position is derived
    /// from.
    pub tokens_before: u32,
}

/// An edit in both coordinate systems: characters `[char_start..char_end)`
/// (bytes `[byte_start..byte_end)`) of the old text were replaced by
/// `repl_chars` characters (`repl_bytes` bytes). Build one with
/// [`char_edit`] from a byte-range edit.
#[derive(Clone, Copy, Debug)]
pub struct CharEdit {
    /// Start of the replaced range in characters (old text).
    pub char_start: usize,
    /// End of the replaced range in characters (old text).
    pub char_end: usize,
    /// Start of the replaced range in bytes (old text).
    pub byte_start: usize,
    /// End of the replaced range in bytes (old text).
    pub byte_end: usize,
    /// Length of the replacement in characters.
    pub repl_chars: usize,
    /// Length of the replacement in bytes.
    pub repl_bytes: usize,
}

/// What one [`Scanner::relex_splice`] did, in record and token counts —
/// the numbers the serving layer turns into a token-vector splice and its
/// `tokens_relexed` counter.
#[derive(Clone, Copy, Debug)]
pub struct RelexOutcome {
    /// Index of the first replaced record; records before it were kept
    /// verbatim.
    pub first_damaged: usize,
    /// Number of records produced by actually running the DFA (the rest of
    /// the tail was kept, shifted).
    pub relexed: usize,
    /// Non-layout tokens before the damage — the parser's damage position.
    pub tokens_before_damage: usize,
    /// Non-layout tokens among the replaced records.
    pub old_tokens_removed: usize,
    /// Non-layout tokens among the re-lexed records.
    pub new_tokens: usize,
}

/// Converts a byte-range edit of `old_text` (replace `start..end` with
/// `replacement`) into [`CharEdit`] coordinates, using `recs` (the match
/// records of `old_text`) to count characters from the nearest record
/// boundary instead of from the start of the document.
pub fn char_edit(
    recs: &[MatchRec],
    old_text: &str,
    start: usize,
    end: usize,
    replacement: &str,
) -> CharEdit {
    let char_of = |byte: usize| -> usize {
        let j = recs.partition_point(|r| r.byte_start <= byte);
        match j.checked_sub(1).and_then(|j| recs.get(j)) {
            Some(r) => r.char_start + old_text[r.byte_start..byte].chars().count(),
            None => old_text[..byte].chars().count(),
        }
    };
    CharEdit {
        char_start: char_of(start),
        char_end: char_of(end),
        byte_start: start,
        byte_end: end,
        repl_chars: replacement.chars().count(),
        repl_bytes: replacement.len(),
    }
}

impl Scanner {
    /// Pins the scanner's current DFA snapshot — the pin a document
    /// session holds across [`Scanner::lex_records`] /
    /// [`Scanner::relex_splice`] calls (cache misses enrich and refresh it
    /// in place).
    pub fn dfa_snapshot(&self) -> Arc<DfaSnapshot> {
        self.dfa().snapshot()
    }

    /// Scans all of `chars` into `recs` (cleared first) — the cold start
    /// of a document session.
    pub fn lex_records(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        chars: &[char],
        recs: &mut Vec<MatchRec>,
    ) -> Result<(), ScanError> {
        recs.clear();
        let mut char_pos = 0usize;
        let mut byte_pos = 0usize;
        let mut examined_max = 0usize;
        let mut tokens = 0u32;
        while char_pos < chars.len() {
            let rec = self.scan_one(pin, chars, char_pos, byte_pos, &mut examined_max, tokens)?;
            char_pos += rec.char_len;
            byte_pos += rec.byte_len;
            tokens += u32::from(!rec.layout);
            recs.push(rec);
        }
        Ok(())
    }

    /// Re-lexes the damaged region of an edited document. `chars` is the
    /// *new* (already spliced) character sequence, `recs` the record list
    /// of the old text, `edit` the splice that produced `chars`. On
    /// success `recs` describes the new text exactly as
    /// [`Scanner::lex_records`] would, with only the damaged region having
    /// been re-scanned.
    ///
    /// On a scan error `recs` is left *unchanged* — it still describes the
    /// old text and no longer matches `chars`; the caller must mark the
    /// session desynchronised and rebuild from scratch once the text scans
    /// again.
    pub fn relex_splice(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        recs: &mut Vec<MatchRec>,
        chars: &[char],
        edit: CharEdit,
    ) -> Result<RelexOutcome, ScanError> {
        let delta_chars = edit.repl_chars as isize - (edit.char_end - edit.char_start) as isize;
        let delta_bytes = edit.repl_bytes as isize - (edit.byte_end - edit.byte_start) as isize;
        let total_tokens = recs
            .last()
            .map_or(0, |r| r.tokens_before + u32::from(!r.layout));

        // The first record whose examined extent reaches the edit; its
        // start is necessarily at or before the edit (records tile and the
        // previous record examined past its own end), so scanning starts
        // in the unshifted prefix where old and new coordinates agree.
        let j0 = recs.partition_point(|r| r.examined_max <= edit.char_start);
        let (mut char_pos, mut byte_pos, mut tokens) = match recs.get(j0) {
            Some(r) => (r.char_start, r.byte_start, r.tokens_before),
            // Only an empty record list reaches here: a scan of non-empty
            // text always examines through its own end.
            None => (0, 0, total_tokens),
        };
        let tokens_at_damage = tokens;
        let mut examined_max = match j0.checked_sub(1) {
            Some(j) => recs[j].examined_max,
            None => 0,
        };

        // From this new-text position on, every character maps 1:1 onto
        // the old suffix — the precondition for resynchronising.
        let edit_new_end = edit.char_start + edit.repl_chars;
        let mut scanned: Vec<MatchRec> = Vec::new();
        let mut resync: Option<usize> = None;
        loop {
            if char_pos >= edit_new_end {
                let old_pos = (char_pos as isize - delta_chars) as usize;
                if let Ok(rel) = recs[j0..].binary_search_by_key(&old_pos, |r| r.char_start) {
                    // An old match starts exactly here and sees the same
                    // suffix (equal content, equal distance to the end):
                    // it and everything after it re-lex identically.
                    resync = Some(j0 + rel);
                    break;
                }
            }
            if char_pos >= chars.len() {
                break;
            }
            let rec = self.scan_one(pin, chars, char_pos, byte_pos, &mut examined_max, tokens)?;
            char_pos += rec.char_len;
            byte_pos += rec.byte_len;
            tokens += u32::from(!rec.layout);
            scanned.push(rec);
        }

        let outcome = |old_tokens_removed: u32| RelexOutcome {
            first_damaged: j0,
            relexed: scanned.len(),
            tokens_before_damage: tokens_at_damage as usize,
            old_tokens_removed: old_tokens_removed as usize,
            new_tokens: (tokens - tokens_at_damage) as usize,
        };
        match resync {
            Some(jr) => {
                let out = outcome(recs[jr].tokens_before - tokens_at_damage);
                let token_delta = tokens as i64 - recs[jr].tokens_before as i64;
                let unshifted = delta_chars == 0 && delta_bytes == 0 && token_delta == 0;
                let mut running_max = examined_max;
                for r in &mut recs[jr..] {
                    // A same-length edit moves nothing: once the running
                    // examined maximum agrees with a record's, it agrees
                    // with every later one, so the rest of the suffix is
                    // already exact and the splice stays O(damage).
                    if unshifted && r.examined_max == running_max.max(r.examined_end) {
                        break;
                    }
                    r.char_start = (r.char_start as isize + delta_chars) as usize;
                    r.byte_start = (r.byte_start as isize + delta_bytes) as usize;
                    r.examined_end = (r.examined_end as isize + delta_chars) as usize;
                    r.tokens_before = (r.tokens_before as i64 + token_delta) as u32;
                    running_max = running_max.max(r.examined_end);
                    r.examined_max = running_max;
                }
                recs.splice(j0..jr, scanned);
                Ok(out)
            }
            None => {
                let out = outcome(total_tokens - tokens_at_damage);
                recs.truncate(j0);
                recs.extend(scanned);
                Ok(out)
            }
        }
    }

    fn scan_one(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        chars: &[char],
        char_start: usize,
        byte_start: usize,
        examined_max: &mut usize,
        tokens_before: u32,
    ) -> Result<MatchRec, ScanError> {
        let (m, examined_end) = self
            .dfa()
            .longest_match_pinned_examined(pin, chars, char_start);
        let (char_len, slot) = match m {
            Some((len, slot)) if len > 0 => (len, slot),
            _ => {
                return Err(ScanError::UnexpectedCharacter {
                    offset: byte_start,
                    character: chars[char_start],
                })
            }
        };
        let byte_len = chars[char_start..char_start + char_len]
            .iter()
            .map(|c| c.len_utf8())
            .sum();
        *examined_max = (*examined_max).max(examined_end);
        Ok(MatchRec {
            slot,
            layout: self.slot(slot).is_some_and(|d| d.layout),
            char_start,
            char_len,
            byte_start,
            byte_len,
            examined_end,
            examined_max: *examined_max,
            tokens_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::simple_scanner;

    fn records(scanner: &Scanner, text: &str) -> Vec<MatchRec> {
        let chars: Vec<char> = text.chars().collect();
        let mut pin = scanner.dfa_snapshot();
        let mut recs = Vec::new();
        scanner.lex_records(&mut pin, &chars, &mut recs).unwrap();
        recs
    }

    /// Applies `start..end -> replacement` incrementally and checks the
    /// record list is bit-identical to a cold scan of the edited text.
    /// Returns the outcome for extra assertions.
    fn check_splice(scanner: &Scanner, text: &str, start: usize, end: usize, repl: &str) -> RelexOutcome {
        let mut recs = records(scanner, text);
        let edit = char_edit(&recs, text, start, end, repl);
        let mut new_text = text.to_owned();
        new_text.replace_range(start..end, repl);
        let chars: Vec<char> = new_text.chars().collect();
        let mut pin = scanner.dfa_snapshot();
        let out = scanner
            .relex_splice(&mut pin, &mut recs, &chars, edit)
            .unwrap();
        assert_eq!(
            recs,
            records(scanner, &new_text),
            "`{text}` [{start}..{end}) -> `{repl}`"
        );
        out
    }

    fn test_scanner() -> Scanner {
        simple_scanner(&["if", "then", "else"])
    }

    #[test]
    fn splices_match_cold_scan() {
        let s = test_scanner();
        let text = "if alpha then beta42 else gamma -- tail comment\nnext 99";
        for (start, end, repl) in [
            (0, 0, "if "),              // insert at front
            (3, 8, "zz"),               // replace a word
            (3, 3, "x"),                // insert inside a word
            (2, 4, ""),                 // delete across a boundary
            (8, 9, ""),                 // delete a space: merges tokens
            (14, 14, " "),              // split a token
            (18, 20, "x y"),            // digits -> words
            (text.len(), text.len(), "9"), // append (EOF-sensitive)
            (text.len() - 2, text.len(), ""), // delete at end
            (34, 38, "still"),          // edit inside the comment
            (31, 32, "\n"),             // newline ends the comment early
            (0, text.len(), "then"),    // replace everything
            (5, 5, ""),                 // no-op edit
        ] {
            check_splice(&s, text, start, end, repl);
        }
    }

    #[test]
    fn whole_token_delete_resyncs_immediately() {
        let s = test_scanner();
        // Deleting `alpha ` on a whole-record boundary: the damage starts
        // at the preceding space (it examined into `alpha`), and the tail
        // re-aligns after at most that one re-scan.
        let out = check_splice(&s, "if alpha then beta", 3, 9, "");
        assert!(out.relexed <= 1, "relexed {} records", out.relexed);
        assert_eq!(out.old_tokens_removed, out.new_tokens + 1);
    }

    #[test]
    fn whitespace_only_edit_keeps_tokens() {
        let s = test_scanner();
        let out = check_splice(&s, "if alpha  then beta", 8, 10, " \t ");
        assert_eq!(out.old_tokens_removed, out.new_tokens);
        assert!(out.relexed <= 3);
    }

    #[test]
    fn edit_far_from_tail_leaves_tail_untouched() {
        let s = test_scanner();
        let text = "word ".repeat(200);
        let out = check_splice(&s, &text, 7, 9, "x");
        assert!(out.first_damaged <= 3);
        assert!(out.relexed <= 4, "relexed {} records", out.relexed);
    }

    #[test]
    fn unicode_edit_keeps_byte_offsets_consistent() {
        // Multibyte characters live in the comment (the identifier class
        // is ASCII); edits before, inside and after them must keep the
        // byte/char offset pairs in sync.
        let s = test_scanner();
        let text = "if abc then x -- äöü βeta\nelse 42";
        let comment = text.find("äöü").unwrap();
        check_splice(&s, text, comment, comment + "äöü".len(), "plain");
        check_splice(&s, text, comment + 2, comment + 2, "ß");
        let start = text.find("then").unwrap();
        check_splice(&s, text, start, start + 4, "else");
        let tail = text.find("else").unwrap();
        check_splice(&s, text, tail, tail + 4, "x");
    }

    #[test]
    fn scan_error_leaves_records_describing_old_text() {
        let s = test_scanner();
        let text = "if alpha then";
        let mut recs = records(&s, text);
        let before = recs.clone();
        let edit = char_edit(&recs, text, 3, 3, "%");
        let mut new_text = text.to_owned();
        new_text.replace_range(3..3, "%");
        let chars: Vec<char> = new_text.chars().collect();
        let mut pin = s.dfa_snapshot();
        let err = s.relex_splice(&mut pin, &mut recs, &chars, edit);
        assert!(matches!(
            err,
            Err(ScanError::UnexpectedCharacter { character: '%', .. })
        ));
        assert_eq!(recs, before);
    }

    #[test]
    fn empty_document_grows_and_shrinks() {
        let s = test_scanner();
        check_splice(&s, "", 0, 0, "if x");
        check_splice(&s, "if x", 0, 4, "");
    }
}
