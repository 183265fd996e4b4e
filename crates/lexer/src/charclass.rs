//! Character classes in the style of SDF's lexical syntax (`[a-zA-Z0-9]`,
//! `~[\n]`, ...).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A set of characters, represented as inclusive ranges plus an optional
/// negation flag.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct CharClass {
    ranges: Vec<(char, char)>,
    negated: bool,
}

impl CharClass {
    /// The empty class (matches nothing).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A class containing a single character.
    pub fn single(c: char) -> Self {
        CharClass {
            ranges: vec![(c, c)],
            negated: false,
        }
    }

    /// A class containing one inclusive range.
    pub fn range(lo: char, hi: char) -> Self {
        assert!(lo <= hi, "invalid character range {lo:?}..{hi:?}");
        CharClass {
            ranges: vec![(lo, hi)],
            negated: false,
        }
    }

    /// Builds a class from several inclusive ranges.
    pub fn from_ranges(ranges: impl IntoIterator<Item = (char, char)>) -> Self {
        let mut class = CharClass::empty();
        for (lo, hi) in ranges {
            class = class.union_range(lo, hi);
        }
        class
    }

    /// Adds a range to the class.
    pub fn union_range(mut self, lo: char, hi: char) -> Self {
        assert!(lo <= hi, "invalid character range {lo:?}..{hi:?}");
        assert!(!self.negated, "cannot extend a negated class");
        self.ranges.push((lo, hi));
        self.normalise();
        self
    }

    /// Adds a single character to the class.
    pub fn union_char(self, c: char) -> Self {
        self.union_range(c, c)
    }

    /// The complement of this class (with respect to all of Unicode).
    pub fn negate(mut self) -> Self {
        self.negated = !self.negated;
        self
    }

    /// `true` if `c` belongs to the class.
    pub fn contains(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
        inside != self.negated
    }

    /// `true` if the class matches no character at all.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty() && !self.negated
    }

    /// `true` if this is a negated class.
    pub fn is_negated(&self) -> bool {
        self.negated
    }

    /// The (non-negated) ranges of the class.
    pub fn ranges(&self) -> &[(char, char)] {
        &self.ranges
    }

    /// The usual ASCII identifier-start class `[a-zA-Z_]`.
    pub fn ident_start() -> Self {
        Self::from_ranges([('a', 'z'), ('A', 'Z'), ('_', '_')])
    }

    /// The usual ASCII identifier-continue class `[a-zA-Z0-9_-]`.
    pub fn ident_continue() -> Self {
        Self::from_ranges([('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_'), ('-', '-')])
    }

    /// ASCII digits `[0-9]`.
    pub fn digit() -> Self {
        Self::range('0', '9')
    }

    /// ASCII whitespace (space, tab, newline, carriage return, form feed).
    pub fn whitespace() -> Self {
        Self::from_ranges([(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r'), ('\u{c}', '\u{c}')])
    }

    /// Parses an SDF-like character-class body, e.g. `a-zA-Z0-9\-_`.
    /// The surrounding brackets and optional leading `~` are handled by the
    /// caller ([`CharClass::parse`]).
    fn parse_body(body: &str) -> Result<Self, String> {
        let mut chars = body.chars().peekable();
        let mut class = CharClass::empty();
        while let Some(c) = chars.next() {
            let lo = if c == '\\' {
                unescape(chars.next().ok_or("dangling escape in character class")?)
            } else {
                c
            };
            if chars.peek() == Some(&'-') {
                // Possible range; a trailing `-` is a literal dash.
                let mut look = chars.clone();
                look.next();
                match look.peek() {
                    Some(&next) if next != ']' => {
                        chars.next(); // consume '-'
                        let hi_raw = chars.next().expect("peeked");
                        let hi = if hi_raw == '\\' {
                            unescape(chars.next().ok_or("dangling escape in character class")?)
                        } else {
                            hi_raw
                        };
                        if lo > hi {
                            return Err(format!("invalid range {lo}-{hi} in character class"));
                        }
                        class = class.union_range(lo, hi);
                        continue;
                    }
                    _ => {}
                }
            }
            class = class.union_char(lo);
        }
        Ok(class)
    }

    /// Parses an SDF-like character class such as `[a-zA-Z]`, `[0-9\-]` or
    /// `~[\n]` (negation).
    pub fn parse(text: &str) -> Result<Self, String> {
        let (negated, rest) = match text.strip_prefix('~') {
            Some(rest) => (true, rest),
            None => (false, text),
        };
        let body = rest
            .strip_prefix('[')
            .and_then(|r| r.strip_suffix(']'))
            .ok_or_else(|| format!("character class must be bracketed: `{text}`"))?;
        let class = Self::parse_body(body)?;
        Ok(if negated { class.negate() } else { class })
    }

    fn normalise(&mut self) {
        self.ranges.sort_unstable();
        let mut merged: Vec<(char, char)> = Vec::with_capacity(self.ranges.len());
        for &(lo, hi) in &self.ranges {
            match merged.last_mut() {
                Some((_, prev_hi)) if lo as u32 <= *prev_hi as u32 + 1 => {
                    if hi > *prev_hi {
                        *prev_hi = hi;
                    }
                }
                _ => merged.push((lo, hi)),
            }
        }
        self.ranges = merged;
    }
}

/// A partition of all characters into *alphabet classes*: two characters
/// share a class exactly when every character class the partition was
/// refined by contains both or neither. An automaton whose transitions are
/// labelled with those character classes treats all characters of one
/// alphabet class alike, so it can memoise one transition per class.
///
/// Refinement only ever splits classes. A split class keeps its number for
/// one part and the other part gets the next free number, so a table
/// indexed by class stays valid across a refinement once each split
/// class's entry is copied to its new part (see [`Alphabet::refine`]).
#[derive(Clone, Debug)]
pub(crate) struct Alphabet {
    /// First scalar value of each maximal run of characters in one class,
    /// ascending from 0.
    starts: Vec<u32>,
    /// The class of each run.
    run_class: Vec<u32>,
    /// Number of runs of each class.
    class_runs: Vec<u32>,
    /// The class of each ASCII byte.
    ascii: [u32; 128],
    classes: usize,
}

impl Alphabet {
    /// The partition with a single class.
    pub(crate) fn new() -> Self {
        Alphabet {
            starts: vec![0],
            run_class: vec![0],
            class_runs: vec![1],
            ascii: [0; 128],
            classes: 1,
        }
    }

    /// Number of classes.
    pub(crate) fn len(&self) -> usize {
        self.classes
    }

    /// Number of maximal runs of characters in one class.
    pub(crate) fn runs(&self) -> usize {
        self.starts.len()
    }

    /// The class of an ASCII byte (`b < 0x80`).
    #[inline]
    pub(crate) fn ascii_class(&self, b: u8) -> usize {
        self.ascii[usize::from(b)] as usize
    }

    /// The class of any character, by binary search over the run starts.
    #[inline]
    pub(crate) fn class_of(&self, c: char) -> usize {
        let run = self.starts.partition_point(|&s| s <= u32::from(c)) - 1;
        self.run_class[run] as usize
    }

    /// The ASCII bytes in `class`.
    pub(crate) fn ascii_bytes(&self, class: usize) -> impl Iterator<Item = u8> + '_ {
        (0..128u8).filter(move |&b| self.ascii_class(b) == class)
    }

    /// Refines the partition by `sets` and returns each split as
    /// `(parent, child)`: the characters of class `parent` inside the set
    /// that split it moved to the new class `child`. Splits are listed in
    /// the order they happened, so copying entry `parent` to entry `child`
    /// pair by pair refines a table indexed by the old classes.
    pub(crate) fn refine<'a>(
        &mut self,
        sets: impl IntoIterator<Item = &'a CharClass>,
    ) -> Vec<(usize, usize)> {
        let mut splits = Vec::new();
        // Runs of each class inside the set at hand (zeroed after each set).
        let mut inside = Vec::new();
        for set in sets {
            self.refine_by(set, &mut inside, &mut splits);
        }
        for (run, &start) in self.starts.iter().enumerate().take_while(|&(_, &s)| s < 128) {
            let end = self.starts.get(run + 1).map_or(128, |&e| e.min(128));
            self.ascii[start as usize..end as usize].fill(self.run_class[run]);
        }
        splits
    }

    /// Splits every class with runs both inside and outside `set`. A set
    /// and its complement split alike, so negation plays no part: the runs
    /// inside the set's ranges move to the new classes.
    fn refine_by(&mut self, set: &CharClass, inside: &mut Vec<u32>, splits: &mut Vec<(usize, usize)>) {
        for &(lo, hi) in set.ranges() {
            self.cut(u32::from(lo));
            self.cut(u32::from(hi) + 1);
        }
        let runs_of = |starts: &[u32], (lo, hi): (char, char)| {
            starts.partition_point(|&s| s < u32::from(lo))..starts.partition_point(|&s| s <= u32::from(hi))
        };
        inside.resize(self.classes, 0);
        for &range in set.ranges() {
            for run in runs_of(&self.starts, range) {
                inside[self.run_class[run] as usize] += 1;
            }
        }
        for &range in set.ranges() {
            for run in runs_of(&self.starts, range) {
                let k = self.run_class[run] as usize;
                if inside[k] == 0 {
                    continue; // already split off: `run_class` holds the child
                }
                if inside[k] < self.class_runs[k] {
                    // Class `k` has runs outside the set: split off the
                    // inside ones as a new class.
                    splits.push((k, self.classes));
                    self.class_runs[k] -= inside[k];
                    self.class_runs.push(inside[k]);
                    inside.push(0);
                    let child = self.classes as u32;
                    self.classes += 1;
                    for range in set.ranges() {
                        for run in runs_of(&self.starts, *range) {
                            if self.run_class[run] as usize == k {
                                self.run_class[run] = child;
                            }
                        }
                    }
                }
                inside[k] = 0;
            }
        }
    }

    /// Starts a new run at scalar value `at` (in the class of the run it
    /// splits), unless one starts there already.
    fn cut(&mut self, at: u32) {
        if at > u32::from(char::MAX) {
            return;
        }
        let run = self.starts.partition_point(|&s| s <= at);
        if self.starts[run - 1] != at {
            let class = self.run_class[run - 1];
            self.starts.insert(run, at);
            self.run_class.insert(run, class);
            self.class_runs[class as usize] += 1;
        }
    }
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        'f' => '\u{c}',
        other => other,
    }
}

impl fmt::Display for CharClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "~")?;
        }
        write!(f, "[")?;
        for &(lo, hi) in &self.ranges {
            if lo == hi {
                write!(f, "{}", escape_for_display(lo))?;
            } else {
                write!(f, "{}-{}", escape_for_display(lo), escape_for_display(hi))?;
            }
        }
        write!(f, "]")
    }
}

fn escape_for_display(c: char) -> String {
    match c {
        '\n' => "\\n".to_owned(),
        '\t' => "\\t".to_owned(),
        '\r' => "\\r".to_owned(),
        '-' => "\\-".to_owned(),
        ']' => "\\]".to_owned(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_range_membership() {
        let c = CharClass::range('a', 'f');
        assert!(c.contains('a'));
        assert!(c.contains('f'));
        assert!(!c.contains('g'));
        assert!(CharClass::single('+').contains('+'));
        assert!(!CharClass::single('+').contains('-'));
    }

    #[test]
    fn union_merges_adjacent_ranges() {
        let c = CharClass::range('a', 'm').union_range('n', 'z');
        assert_eq!(c.ranges().len(), 1);
        assert!(c.contains('q'));
        let d = CharClass::range('a', 'c').union_range('x', 'z');
        assert_eq!(d.ranges().len(), 2);
    }

    #[test]
    fn negation_flips_membership() {
        let c = CharClass::range('0', '9').negate();
        assert!(!c.contains('5'));
        assert!(c.contains('a'));
        assert!(c.is_negated());
        assert!(!c.negate().is_negated());
    }

    #[test]
    fn parse_sdf_style_classes() {
        let letters = CharClass::parse("[a-zA-Z]").unwrap();
        assert!(letters.contains('q'));
        assert!(letters.contains('Q'));
        assert!(!letters.contains('1'));

        let ident = CharClass::parse("[a-zA-Z0-9\\-_]").unwrap();
        assert!(ident.contains('-'));
        assert!(ident.contains('_'));
        assert!(ident.contains('7'));

        let not_newline = CharClass::parse("~[\\n]").unwrap();
        assert!(not_newline.contains('x'));
        assert!(!not_newline.contains('\n'));

        let ws = CharClass::parse("[ \\t\\n\\r\\f]").unwrap();
        assert!(ws.contains(' '));
        assert!(ws.contains('\n'));
        assert!(!ws.contains('a'));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(CharClass::parse("a-z").is_err());
        assert!(CharClass::parse("[z-a]").is_err());
        assert!(CharClass::parse("[abc\\").is_err());
    }

    #[test]
    fn trailing_dash_is_literal() {
        let c = CharClass::parse("[0-9-]").unwrap();
        assert!(c.contains('-'));
        assert!(c.contains('3'));
    }

    #[test]
    fn display_round_trips_through_parse() {
        let c = CharClass::parse("[a-z0-9]").unwrap();
        let printed = c.to_string();
        let reparsed = CharClass::parse(&printed).unwrap();
        assert_eq!(c, reparsed);
        assert!(CharClass::parse("~[\\n]").unwrap().to_string().starts_with('~'));
    }

    #[test]
    fn alphabet_classes_partition_by_membership() {
        let letters = CharClass::range('a', 'z');
        let idents = CharClass::from_ranges([('a', 'z'), ('A', 'Z')]);
        let not_newline = CharClass::single('\n').negate();
        let mut alphabet = Alphabet::new();
        alphabet.refine([&letters, &idents, &not_newline, &CharClass::single('λ')]);
        // `[a-z]`, `[A-Z]`, `\n`, `λ` and everything else.
        assert_eq!(alphabet.len(), 5);
        let class = |c| alphabet.class_of(c);
        assert_eq!(class('a'), class('q'));
        assert_ne!(class('a'), class('Q'));
        assert_eq!(class('%'), class('❄'), "outside every set, ASCII or not");
        assert_ne!(class('λ'), class('❄'));
        assert_ne!(class('\n'), class('%'));
        for b in 0..128u8 {
            assert_eq!(alphabet.ascii_class(b), class(char::from(b)), "byte {b}");
        }
        assert_eq!(alphabet.ascii_bytes(class('a')).count(), 26);
    }

    #[test]
    fn alphabet_refinement_splits_off_new_classes() {
        let mut alphabet = Alphabet::new();
        alphabet.refine([&CharClass::range('a', 'z')]);
        let letters = alphabet.class_of('a');
        // A keyword inside `[a-z]` splits `i` and `f` off the letters, one
        // new class each; refining by the same sets again splits nothing.
        let splits = alphabet.refine([&CharClass::single('i'), &CharClass::single('f')]);
        assert_eq!(splits, [(letters, 2), (letters, 3)]);
        assert_eq!((alphabet.class_of('i'), alphabet.class_of('f')), (2, 3));
        assert_eq!(alphabet.class_of('g'), letters);
        assert!(alphabet.refine([&CharClass::single('i'), &CharClass::range('a', 'z')]).is_empty());
        // A negated set splits like its complement.
        let splits = alphabet.refine([&CharClass::single('g').negate()]);
        assert_eq!(splits, [(letters, 4)]);
        assert_eq!(alphabet.class_of('g'), 4);
        assert_eq!(alphabet.len(), 5);
    }

    #[test]
    fn builtin_classes() {
        assert!(CharClass::ident_start().contains('_'));
        assert!(!CharClass::ident_start().contains('1'));
        assert!(CharClass::ident_continue().contains('1'));
        assert!(CharClass::digit().contains('0'));
        assert!(CharClass::whitespace().contains('\t'));
        assert!(CharClass::empty().is_empty());
        assert!(!CharClass::empty().contains('x'));
    }
}
