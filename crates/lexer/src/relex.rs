//! Bounded incremental re-lexing over token-anchored records.
//!
//! A document session keeps one [`MatchRec`] per *token*: record `i` holds
//! the run of layout matches (whitespace, comments) before token `i` plus
//! the token itself, and one final record holds the layout after the last
//! token (empty when the text ends in a token; the empty document is that
//! final record alone). The record index therefore equals the token index,
//! the record count changes exactly when the token count does, and a
//! record starts where the previous record's token ended.
//!
//! Every position here is a byte offset into the UTF-8 text, the same
//! coordinate the DFA scans in and edits arrive in, so an edit needs no
//! conversion. Each record carries the DFA's *examined extent* — one past
//! the last byte the automaton read while deciding any of its matches (see
//! `LazyDfa::longest_match_pinned_examined`). An edit can only change
//! records whose examined extent reaches it, so the damage start is found
//! by binary search on the running maximum of the extents. Re-lexing runs
//! forward from there one record at a time, only until a record boundary
//! (a token end) lands on an old record start past the edit (a second
//! binary search per record). Everything before the damage is kept
//! verbatim, everything from the resynchronisation point on is kept
//! shifted, and an edit that keeps the token count replaces the damaged
//! records in place. The result is identical to a cold
//! [`Scanner::lex_records`] of the edited text, which the tests assert
//! record-for-record.
//!
//! A record also remembers where its last layout match starts and how far
//! the matches before that one examined. An edit at a token whose leading
//! layout is a long run of matches (an indented line start) then re-scans
//! only that last layout match and the token, not the whole run.
//!
//! Records store positions as `u32`, so the record functions take texts of
//! at most [`MAX_TEXT_BYTES`] bytes; callers check that bound first.

use std::ops::Range;
use std::sync::Arc;

use crate::dfa::{DfaSnapshot, ScanTally};
use crate::nfa::TokenId;
use crate::scanner::{unexpected_character, ScanError, Scanner};

/// The largest text, in bytes, the record functions accept. A record's
/// examined extent can be one past the end of the text, and it must still
/// fit a `u32`.
pub const MAX_TEXT_BYTES: usize = u32::MAX as usize - 1;

/// The `slot` of the final record, which holds no token.
const NO_TOKEN: u32 = u32::MAX;

/// One token-anchored record: a token with the layout before it, or the
/// final record's trailing layout. Records tile the text; a record's
/// length is the distance to the next record's start (or to the end of
/// the text for the final record).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchRec {
    /// The token's token-id slot, or `NO_TOKEN` for the final record.
    slot: u32,
    /// Start of the record (its leading layout) in bytes.
    start: u32,
    /// One past the last byte the DFA examined while deciding this
    /// record's matches. The final record's decision depends on running
    /// out of input, so its extent is `text.len() + 1`: an append at the
    /// end registers as damage.
    examined_end: u32,
    /// Running maximum of `examined_end` over all records up to and
    /// including this one. Monotone, so the first record an edit can
    /// influence is found by binary search.
    examined_max: u32,
    /// Offset in bytes from the record start to its last layout match,
    /// where a re-scan may resume; 0 when there is no such match past the
    /// start or the offsets do not fit 16 bits.
    tail_off: u16,
    /// The examined extent of the matches before the last layout match,
    /// as a byte offset from the record start: a re-scan may resume at
    /// `tail_off` when the edit starts at or after it.
    head_examined_off: u16,
}

const _: () = assert!(std::mem::size_of::<MatchRec>() <= 20);

impl MatchRec {
    /// The token's token-id slot; `None` for the final record.
    pub fn slot(&self) -> Option<TokenId> {
        (self.slot != NO_TOKEN).then_some(self.slot as TokenId)
    }

    /// Start of the record (its leading layout) in bytes.
    pub fn start(&self) -> usize {
        self.start as usize
    }
}

/// Converts a text position to its record form. The callers' texts are at
/// most [`MAX_TEXT_BYTES`] long, so this never fails for them.
fn pos32(pos: usize) -> u32 {
    u32::try_from(pos).expect("record text longer than MAX_TEXT_BYTES")
}

/// Shifts a stored position by an edit's length change.
fn shifted(pos: u32, delta: i64) -> u32 {
    pos32((i64::from(pos) + delta) as usize)
}

/// What one [`Scanner::relex_splice`] did. Record and token indices agree,
/// so these numbers are also the token-vector splice the serving layer
/// makes.
#[derive(Clone, Copy, Debug)]
pub struct RelexOutcome {
    /// Index of the first replaced record; records (and tokens) before it
    /// were kept verbatim. This is the parser's damage position.
    pub first_damaged: usize,
    /// Number of records produced by actually running the DFA (the rest of
    /// the tail was kept, shifted). Each holds one token with its leading
    /// layout, except a re-scanned final record.
    pub relexed: usize,
    /// Tokens among the replaced records.
    pub old_tokens_removed: usize,
    /// Tokens among the re-lexed records; they are the records
    /// `first_damaged..first_damaged + new_tokens`.
    pub new_tokens: usize,
}

/// What one run of the DFA over (the rest of) a record found.
struct Matched {
    /// The token's slot, or `NO_TOKEN` at the end of the text.
    slot: u32,
    /// Start of the last layout match, with the examined extent of the
    /// matches before it.
    tail: Option<(usize, usize)>,
    /// Where the scan ended, with the examined extent of all its matches.
    end: ScanFrom,
}

/// Where a record's scan begins: the record start, or a match boundary
/// inside it whose preceding matches are known to be unchanged.
#[derive(Clone, Copy)]
struct ScanFrom {
    pos: usize,
    /// The examined extent of the matches before `pos` (the record start
    /// itself when there are none).
    examined: usize,
}

impl Scanner {
    /// Pins the scanner's DFA chunk directory — the pin a document session
    /// holds across [`Scanner::lex_records`] / [`Scanner::relex_splice`]
    /// calls (cache misses write into its chunks in place and refresh it
    /// when they append one).
    pub fn dfa_snapshot(&self) -> Arc<DfaSnapshot> {
        self.dfa().snapshot()
    }

    /// Scans all of `text` into `recs` (cleared first) — the cold start of
    /// a document session. On success `recs` holds one record per token
    /// plus the final record. The text must be at most [`MAX_TEXT_BYTES`]
    /// bytes long.
    pub fn lex_records(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        text: &str,
        recs: &mut Vec<MatchRec>,
    ) -> Result<(), ScanError> {
        recs.clear();
        let mut tally = ScanTally::default();
        let (mut pos, mut examined_max) = (0, 0);
        let lexed = loop {
            match self.scan_record(pin, &mut tally, text, pos, None, &mut examined_max) {
                Ok((rec, end)) => {
                    recs.push(rec);
                    if rec.slot().is_none() {
                        break Ok(());
                    }
                    pos = end;
                }
                Err(e) => break Err(e),
            }
        };
        self.dfa().flush(&mut tally);
        lexed
    }

    /// Re-lexes the damaged region of an edited document. `text` is the
    /// *new* (already spliced) text, `recs` the record list of the old
    /// text, and the edit replaced the old text's bytes `range` with
    /// `repl_len` bytes. On success `recs` describes the new text exactly
    /// as [`Scanner::lex_records`] would, with only the damaged region
    /// having been re-scanned. The new text must be at most
    /// [`MAX_TEXT_BYTES`] bytes long.
    ///
    /// On a scan error `recs` is left *unchanged* — it still describes the
    /// old text and no longer matches `text`; the caller must mark the
    /// session desynchronised and rebuild from scratch once the text scans
    /// again.
    pub fn relex_splice(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        recs: &mut Vec<MatchRec>,
        text: &str,
        range: Range<usize>,
        repl_len: usize,
    ) -> Result<RelexOutcome, ScanError> {
        let delta = repl_len as i64 - range.len() as i64;

        // The first record whose examined extent reaches the edit. The
        // final record examined past the end of the old text, so there is
        // one; its start is at or before the edit (records tile, and the
        // previous record examined past its own end), so scanning starts
        // in the unshifted prefix where old and new positions agree.
        let j0 = recs.partition_point(|r| r.examined_max as usize <= range.start);
        let first = recs[j0];
        let mut pos = first.start();
        let mut examined_max = j0.checked_sub(1).map_or(0, |j| recs[j].examined_max);
        // Within that record, the matches before its last layout match are
        // unchanged when they examined nothing at or past the edit: the
        // first re-scan resumes at that match.
        let head_examined = pos + usize::from(first.head_examined_off);
        let mut resume = (first.tail_off > 0 && head_examined <= range.start).then(|| ScanFrom {
            pos: pos + usize::from(first.tail_off),
            examined: head_examined,
        });

        // From this new-text position on, every byte maps 1:1 onto the old
        // suffix — the precondition for resynchronising.
        let edit_new_end = range.start + repl_len;
        // Re-scanned records are staged past the old end of `recs`; a scan
        // error truncates them away again, leaving `recs` as it was.
        let old_len = recs.len();
        let mut tally = ScanTally::default();
        let resync = loop {
            if pos >= edit_new_end {
                let old_pos = (pos as i64 - delta) as usize;
                let old_recs = &recs[j0..old_len];
                if let Ok(rel) = old_recs.binary_search_by_key(&old_pos, MatchRec::start) {
                    // An old record starts exactly here and sees the same
                    // suffix (equal content, equal distance to the end):
                    // it and everything after it re-lex identically.
                    break Some(j0 + rel);
                }
            }
            let scanned = self.scan_record(pin, &mut tally, text, pos, resume.take(), &mut examined_max);
            let (rec, end) = match scanned {
                Ok(scanned) => scanned,
                Err(e) => {
                    self.dfa().flush(&mut tally);
                    recs.truncate(old_len);
                    return Err(e);
                }
            };
            recs.push(rec);
            if rec.slot().is_none() {
                break None;
            }
            pos = end;
        };

        self.dfa().flush(&mut tally);
        // Without a resynchronisation both the replaced range and the
        // re-scan end with a final record, which holds no token.
        let replaced_end = resync.unwrap_or(old_len);
        let relexed = recs.len() - old_len;
        let final_rescanned = usize::from(resync.is_none());
        let out = RelexOutcome {
            first_damaged: j0,
            relexed,
            old_tokens_removed: replaced_end - j0 - final_rescanned,
            new_tokens: relexed - final_rescanned,
        };
        if let Some(jr) = resync {
            let mut running_max = examined_max;
            for r in &mut recs[jr..old_len] {
                // A same-length edit moves nothing: once the running
                // examined maximum agrees with a record's, it agrees with
                // every later one, so the rest of the suffix is already
                // exact and the splice stays O(damage).
                if delta == 0 && r.examined_max == running_max.max(r.examined_end) {
                    break;
                }
                r.start = shifted(r.start, delta);
                r.examined_end = shifted(r.examined_end, delta);
                running_max = running_max.max(r.examined_end);
                r.examined_max = running_max;
            }
        }
        splice_staged(recs, j0..replaced_end, old_len);
        Ok(out)
    }

    /// Scans one record starting at `start` and returns it with the byte
    /// offset where it ends: layout matches up to and including the next
    /// token, or up to the end of the text for the final record. With
    /// `resume`, the scan starts at that match boundary instead; if it
    /// then finds no layout match, the record's last layout match lies
    /// before the resume point and the record is scanned again from its
    /// start, so the record always equals a cold scan's.
    fn scan_record(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        tally: &mut ScanTally,
        text: &str,
        start: usize,
        resume: Option<ScanFrom>,
        examined_max: &mut u32,
    ) -> Result<(MatchRec, usize), ScanError> {
        let resumed = match resume {
            Some(from) => Some(self.scan_matches(pin, tally, text, from)?).filter(|m| m.tail.is_some()),
            None => None,
        };
        let Matched { slot, tail, end } = match resumed {
            Some(matched) => matched,
            None => self.scan_matches(pin, tally, text, ScanFrom { pos: start, examined: start })?,
        };
        let (tail_off, head_examined_off) = tail
            .and_then(|(at, examined)| {
                Some((
                    u16::try_from(at - start).ok()?,
                    u16::try_from(examined - start).ok()?,
                ))
            })
            .unwrap_or((0, 0));
        let examined_end = pos32(end.examined);
        *examined_max = (*examined_max).max(examined_end);
        let rec = MatchRec {
            slot,
            start: pos32(start),
            examined_end,
            examined_max: *examined_max,
            tail_off,
            head_examined_off,
        };
        Ok((rec, end.pos))
    }

    /// Runs the DFA from `from` up to and including the next token (or to
    /// the end of the text).
    fn scan_matches(
        &self,
        pin: &mut Arc<DfaSnapshot>,
        tally: &mut ScanTally,
        text: &str,
        from: ScanFrom,
    ) -> Result<Matched, ScanError> {
        let ScanFrom {
            mut pos,
            mut examined,
        } = from;
        let mut tail = None;
        loop {
            if pos == text.len() {
                // The end of the record depends on running out of input.
                let end = ScanFrom {
                    pos,
                    examined: text.len() + 1,
                };
                return Ok(Matched {
                    slot: NO_TOKEN,
                    tail,
                    end,
                });
            }
            let (m, match_examined) = self.dfa().longest_match_pinned_examined(pin, tally, text, pos);
            let (len, slot) = match m {
                Some((len, slot)) if len > 0 => (len, slot),
                _ => return Err(unexpected_character(text, pos)),
            };
            let layout = self.slot(slot).is_some_and(|d| d.layout);
            if layout {
                tail = Some((pos, examined));
            }
            examined = examined.max(match_examined);
            pos += len;
            if !layout {
                return Ok(Matched {
                    slot: pos32(slot),
                    tail,
                    end: ScanFrom { pos, examined },
                });
            }
        }
    }
}

/// Replaces `v[range]` with the elements staged past `staged_from` (the
/// vector's length before they were pushed) and drops the staging area.
/// When both have the same length, as for an edit that keeps the token
/// count, this is a copy in place that moves nothing else.
pub fn splice_staged<T: Copy>(v: &mut Vec<T>, range: Range<usize>, staged_from: usize) {
    if v.len() - staged_from == range.len() {
        v.copy_within(staged_from.., range.start);
        v.truncate(staged_from);
    } else {
        let staged = v.split_off(staged_from);
        v.splice(range, staged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::simple_scanner;

    fn records(scanner: &Scanner, text: &str) -> Vec<MatchRec> {
        let mut pin = scanner.dfa_snapshot();
        let mut recs = Vec::new();
        scanner.lex_records(&mut pin, text, &mut recs).unwrap();
        recs
    }

    /// Applies `start..end -> replacement` incrementally and checks the
    /// record list is identical to a cold scan of the edited text.
    /// Returns the outcome and the new record count for extra assertions.
    fn check_splice(
        scanner: &Scanner,
        text: &str,
        start: usize,
        end: usize,
        repl: &str,
    ) -> (RelexOutcome, usize) {
        let mut recs = records(scanner, text);
        let mut new_text = text.to_owned();
        new_text.replace_range(start..end, repl);
        let mut pin = scanner.dfa_snapshot();
        let out = scanner
            .relex_splice(&mut pin, &mut recs, &new_text, start..end, repl.len())
            .unwrap();
        assert_eq!(
            recs,
            records(scanner, &new_text),
            "`{text}` [{start}..{end}) -> `{repl}`"
        );
        (out, recs.len())
    }

    fn test_scanner() -> Scanner {
        simple_scanner(&["if", "then", "else"])
    }

    #[test]
    fn records_are_token_anchored() {
        let s = test_scanner();
        for text in ["", "  ", "if", "if x", " if  x -- c\n", "-- only a comment"] {
            let recs = records(&s, text);
            let tokens = s.tokenize(text).unwrap();
            assert_eq!(recs.len(), tokens.len() + 1, "`{text}`");
            let slots: Vec<_> = recs.iter().map(MatchRec::slot).collect();
            let last = slots.len() - 1;
            assert!(slots[..last].iter().all(Option::is_some), "`{text}`");
            assert_eq!(
                slots[last], None,
                "`{text}`: the final record holds no token"
            );
            assert_eq!(recs[0].start(), 0);
        }
        assert_eq!(std::mem::size_of::<MatchRec>(), 20);
    }

    #[test]
    fn splices_match_cold_scan() {
        let s = test_scanner();
        let text = "if alpha then beta42 else gamma -- tail comment\nnext 99";
        for (start, end, repl) in [
            (0, 0, "if "),                    // insert at front
            (3, 8, "zz"),                     // replace a word
            (3, 3, "x"),                      // insert inside a word
            (2, 4, ""),                       // delete across a boundary
            (8, 9, ""),                       // delete a space: merges tokens
            (14, 14, " "),                    // split a token
            (18, 20, "x y"),                  // digits -> words
            (text.len(), text.len(), "9"),    // append (EOF-sensitive)
            (text.len() - 2, text.len(), ""), // delete at end
            (34, 38, "still"),                // edit inside the comment
            (31, 32, "\n"),                   // newline ends the comment early
            (0, text.len(), "then"),          // replace everything
            (5, 5, ""),                       // no-op edit
        ] {
            check_splice(&s, text, start, end, repl);
        }
    }

    #[test]
    fn layout_count_changes_keep_the_record_count() {
        let s = test_scanner();
        let text = "if alpha  then -- note\nbeta else x -- tail";
        let count = records(&s, text).len();
        for (start, end, repl) in [
            (2, 2, "   "),                  // whitespace insert between tokens
            (8, 9, ""),                     // whitespace delete between tokens
            (8, 10, " -- c\n "),            // whitespace becomes a comment
            (14, 23, "\t"),                 // a comment becomes whitespace
            (14, 23, " \t\n\n \t\n\n "),    // same length, fewer layout matches
            (0, 0, "  "),                   // layout before the first token
            (0, 0, "-- head\n"),            // comment before the first token
            (text.len(), text.len(), "\n"), // trailing layout grows at EOF
            (35, text.len(), ""),           // trailing layout removed at EOF
        ] {
            let (out, len) = check_splice(&s, text, start, end, repl);
            assert_eq!(
                len, count,
                "[{start}..{end}) -> `{repl:?}` keeps one record per token"
            );
            assert_eq!(out.old_tokens_removed, out.new_tokens);
        }
        // The empty document is one (final) record, with or without layout.
        for (text, start, end, repl) in [
            ("", 0, 0, "  -- c"),
            ("  -- c", 0, 6, ""),
            (" ", 1, 1, "\n"),
        ] {
            let (out, len) = check_splice(&s, text, start, end, repl);
            assert_eq!(len, 1, "`{text}` -> `{repl:?}`");
            assert_eq!((out.first_damaged, out.new_tokens), (0, 0));
        }
    }

    #[test]
    fn same_length_relayout_rescans_only_the_damaged_record() {
        let s = test_scanner();
        let text = format!("x   \n{}", "word ".repeat(200));
        let (out, _) = check_splice(&s, &text, 2, 5, "--\n");
        assert_eq!(
            out.first_damaged, 1,
            "the damage starts at the second token"
        );
        assert_eq!(
            out.relexed, 1,
            "one token record re-scanned with its layout"
        );
    }

    #[test]
    fn rescans_resume_at_the_last_layout_match() {
        let s = simple_scanner(&["-"]);
        // `y`'s record is ` `, `-- c`, `\n   `, `y`: an edit at `y`
        // resumes at `\n   `, after the comment.
        let text = "x -- c\n   y z";
        let recs = records(&s, text);
        assert_eq!((recs[1].start(), recs[1].tail_off), (1, 5));
        assert_eq!(
            recs[1].head_examined_off, 6,
            "the comment examined the newline"
        );
        for (start, end, repl) in [(10, 11, "w"), (10, 11, "  w"), (8, 11, "v"), (7, 10, "")] {
            check_splice(&s, text, start, end, repl);
        }
        // The final record ` `, `-- x`, `\n`, `-- c`: an edit inside the
        // last comment resumes at it, finds the token `-` instead of
        // layout, and re-scans the record from its start, whose last
        // layout match is then the newline.
        let text = "a -- x\n-- c";
        assert_eq!(records(&s, text)[1].tail_off, 6);
        check_splice(&s, text, 8, 9, "x");
        check_splice(&s, text, 8, 11, "- b");
    }

    #[test]
    fn whole_token_delete_resyncs_immediately() {
        let s = test_scanner();
        // Deleting `alpha ` on a whole-record boundary: the damage starts
        // at the record of `alpha` (its layout examined from the space
        // into it), and the tail re-aligns after at most that re-scan.
        let (out, _) = check_splice(&s, "if alpha then beta", 3, 9, "");
        assert!(out.relexed <= 1, "relexed {} records", out.relexed);
        assert_eq!(out.old_tokens_removed, out.new_tokens + 1);
    }

    #[test]
    fn whitespace_only_edit_keeps_tokens() {
        let s = test_scanner();
        let (out, _) = check_splice(&s, "if alpha  then beta", 8, 10, " \t ");
        assert_eq!(out.old_tokens_removed, out.new_tokens);
        assert!(out.relexed <= 2);
    }

    #[test]
    fn edit_far_from_tail_leaves_tail_untouched() {
        let s = test_scanner();
        let text = "word ".repeat(200);
        let (out, _) = check_splice(&s, &text, 7, 9, "x");
        assert!(out.first_damaged <= 2);
        assert!(out.relexed <= 2, "relexed {} records", out.relexed);
    }

    #[test]
    fn unicode_edit_keeps_byte_offsets_consistent() {
        // Multibyte characters live in the comment (the identifier class
        // is ASCII); edits before, inside and after them must keep the
        // byte offsets of the later records exact.
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
        let mut new_text = text.to_owned();
        new_text.replace_range(3..3, "%");
        let mut pin = s.dfa_snapshot();
        let err = s.relex_splice(&mut pin, &mut recs, &new_text, 3..3, 1);
        assert!(matches!(
            err,
            Err(ScanError::UnexpectedCharacter {
                character: '%',
                offset: 3
            })
        ));
        assert_eq!(recs, before);
    }

    /// Random edit scripts over a small alphabet of tokens and layout,
    /// each step checked against a cold scan (a step whose text does not
    /// lex must leave the records as they were).
    #[test]
    fn random_edit_scripts_match_cold_scans() {
        let s = test_scanner();
        let pieces = ["if", "x", "42", " ", "  ", "\n", "-- c", "ä", "then", "-"];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let mut text = String::from("if x then 42 -- c\n x");
        let mut recs = records(&s, &text);
        for _ in 0..2000 {
            let boundaries: Vec<usize> = (0..=text.len())
                .filter(|&i| text.is_char_boundary(i))
                .collect();
            let a = boundaries[next(boundaries.len())];
            let b = boundaries[next(boundaries.len())];
            let (start, end) = (a.min(b), a.max(b).min(a.min(b) + 6));
            let end = *boundaries.iter().rev().find(|&&i| i <= end).unwrap();
            let repl: String = (0..next(3)).map(|_| pieces[next(pieces.len())]).collect();
            let mut new_text = text.clone();
            new_text.replace_range(start..end, &repl);
            let before = recs.clone();
            let mut pin = s.dfa_snapshot();
            match s.relex_splice(&mut pin, &mut recs, &new_text, start..end, repl.len()) {
                Ok(_) => {
                    assert_eq!(
                        recs,
                        records(&s, &new_text),
                        "`{text}` [{start}..{end}) -> `{repl}`"
                    );
                    text = new_text;
                }
                Err(_) => assert_eq!(recs, before, "a failed re-lex keeps the old records"),
            }
        }
    }

    #[test]
    fn empty_document_grows_and_shrinks() {
        let s = test_scanner();
        check_splice(&s, "", 0, 0, "if x");
        check_splice(&s, "if x", 0, 4, "");
    }
}
