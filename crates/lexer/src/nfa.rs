//! Thompson construction of a non-deterministic finite automaton from a set
//! of token definitions, plus a direct NFA simulator used as the reference
//! implementation for the lazy DFA.

use crate::charclass::CharClass;
use crate::regex::Regex;

/// Index of a token definition within a scanner; doubles as the priority
/// (lower index wins on equal match length).
pub type TokenId = usize;

/// A state of the NFA.
#[derive(Clone, Debug, Default)]
pub struct NfaState {
    /// Outgoing character transitions.
    pub transitions: Vec<(CharClass, usize)>,
    /// Outgoing epsilon transitions.
    pub epsilon: Vec<usize>,
    /// If this state is accepting, the token it accepts.
    pub accept: Option<TokenId>,
}

/// One token's compiled fragment inside the combined NFA: the contiguous
/// state range the Thompson construction appended for it, its entry state
/// (reached by one epsilon from the global start) and whether it is still
/// part of the lexical syntax.
///
/// Fragments are what make **incremental** definition changes cheap:
/// fragments never reference each other's states (only the global start
/// has epsilon edges into fragment entries), so adding a token appends a
/// fragment without renumbering anything, and removing one merely unlinks
/// its entry and clears its accepts — every DFA state whose NFA set is
/// disjoint from the touched fragment stays valid and can be carried over.
#[derive(Clone, Debug)]
struct Fragment {
    entry: usize,
    /// `first..last` — the state range the fragment occupies.
    first: usize,
    last: usize,
    active: bool,
}

/// Working space of [`Nfa::step_into`], reusable across calls.
#[derive(Clone, Debug, Default)]
pub struct NfaScratch {
    /// Membership marks by NFA state; all `false` between calls.
    seen: Vec<bool>,
    work: Vec<usize>,
}

/// A non-deterministic finite automaton recognising the union of all token
/// definitions, each accept state tagged with its token.
#[derive(Clone, Debug, Default)]
pub struct Nfa {
    states: Vec<NfaState>,
    start: usize,
    fragments: Vec<Fragment>,
    /// States belonging to removed fragments (garbage until a rebuild).
    dead_states: usize,
}

impl Nfa {
    /// Builds the combined NFA for `tokens`; the i-th regex accepts token
    /// id `i`.
    pub fn build(tokens: &[Regex]) -> Self {
        let mut nfa = Nfa {
            states: vec![NfaState::default()],
            start: 0,
            fragments: Vec::new(),
            dead_states: 0,
        };
        for regex in tokens {
            nfa.add_token(regex);
        }
        nfa
    }

    /// Appends the fragment for one more token definition and returns its
    /// token id (= fragment index). Existing states keep their numbering,
    /// which is what allows the lazy DFA to carry its materialised states
    /// across the change.
    pub fn add_token(&mut self, regex: &Regex) -> TokenId {
        let id = self.fragments.len();
        let first = self.states.len();
        let (entry, exit) = self.compile(regex);
        let last = self.states.len();
        self.states[self.start].epsilon.push(entry);
        self.states[exit].accept = Some(id);
        self.fragments.push(Fragment {
            entry,
            first,
            last,
            active: true,
        });
        id
    }

    /// Deactivates token `id`: unlinks its fragment from the start state
    /// and clears its accepts. The fragment's states remain (unreachable)
    /// so that all other state numbering — and therefore every DFA state
    /// not involving this fragment — stays valid. Returns `false` when the
    /// token was already removed.
    pub fn remove_token(&mut self, id: TokenId) -> bool {
        let Some(fragment) = self.fragments.get_mut(id) else {
            return false;
        };
        if !fragment.active {
            return false;
        }
        fragment.active = false;
        let (entry, first, last) = (fragment.entry, fragment.first, fragment.last);
        self.states[self.start].epsilon.retain(|&e| e != entry);
        for state in &mut self.states[first..last] {
            state.accept = None;
        }
        self.dead_states += last - first;
        true
    }

    /// The state range of token `id`'s fragment.
    pub fn fragment_range(&self, id: TokenId) -> std::ops::Range<usize> {
        let fragment = &self.fragments[id];
        fragment.first..fragment.last
    }

    /// `true` while token `id` is part of the lexical syntax.
    pub fn is_token_active(&self, id: TokenId) -> bool {
        self.fragments.get(id).is_some_and(|f| f.active)
    }

    /// Fraction of states that belong to removed fragments. When this
    /// grows large the owner should rebuild the NFA from the active
    /// definitions instead of carrying more garbage.
    pub fn dead_fraction(&self) -> f64 {
        if self.states.is_empty() {
            0.0
        } else {
            self.dead_states as f64 / self.states.len() as f64
        }
    }

    /// The start state.
    pub fn start(&self) -> usize {
        self.start
    }

    /// All states.
    pub fn states(&self) -> &[NfaState] {
        &self.states
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    fn push_state(&mut self) -> usize {
        self.states.push(NfaState::default());
        self.states.len() - 1
    }

    /// Compiles `regex` into a fragment, returning `(entry, exit)` states.
    fn compile(&mut self, regex: &Regex) -> (usize, usize) {
        match regex {
            Regex::Epsilon => {
                let entry = self.push_state();
                let exit = self.push_state();
                self.states[entry].epsilon.push(exit);
                (entry, exit)
            }
            Regex::Literal(text) => {
                let entry = self.push_state();
                let mut current = entry;
                for c in text.chars() {
                    let next = self.push_state();
                    self.states[current]
                        .transitions
                        .push((CharClass::single(c), next));
                    current = next;
                }
                (entry, current)
            }
            Regex::Class(class) => {
                let entry = self.push_state();
                let exit = self.push_state();
                self.states[entry].transitions.push((class.clone(), exit));
                (entry, exit)
            }
            Regex::Concat(parts) => {
                let mut entry: Option<usize> = None;
                let mut current_exit: Option<usize> = None;
                for part in parts {
                    let (e, x) = self.compile(part);
                    if let Some(prev_exit) = current_exit {
                        self.states[prev_exit].epsilon.push(e);
                    } else {
                        entry = Some(e);
                    }
                    current_exit = Some(x);
                }
                match (entry, current_exit) {
                    (Some(e), Some(x)) => (e, x),
                    _ => self.compile(&Regex::Epsilon),
                }
            }
            Regex::Alt(parts) => {
                let entry = self.push_state();
                let exit = self.push_state();
                for part in parts {
                    let (e, x) = self.compile(part);
                    self.states[entry].epsilon.push(e);
                    self.states[x].epsilon.push(exit);
                }
                (entry, exit)
            }
            Regex::Star(inner) => {
                let entry = self.push_state();
                let exit = self.push_state();
                let (e, x) = self.compile(inner);
                self.states[entry].epsilon.push(e);
                self.states[entry].epsilon.push(exit);
                self.states[x].epsilon.push(e);
                self.states[x].epsilon.push(exit);
                (entry, exit)
            }
            Regex::Plus(inner) => {
                let (e, x) = self.compile(inner);
                let exit = self.push_state();
                self.states[x].epsilon.push(e);
                self.states[x].epsilon.push(exit);
                (e, exit)
            }
            Regex::Opt(inner) => {
                let entry = self.push_state();
                let exit = self.push_state();
                let (e, x) = self.compile(inner);
                self.states[entry].epsilon.push(e);
                self.states[entry].epsilon.push(exit);
                self.states[x].epsilon.push(exit);
                (entry, exit)
            }
        }
    }

    /// The epsilon closure of a set of states (sorted, deduplicated).
    pub fn epsilon_closure(&self, states: &[usize]) -> Vec<usize> {
        let mut closure = states.to_vec();
        self.close(&mut closure, &mut NfaScratch::default());
        closure
    }

    /// Extends `set` to its epsilon closure and sorts it.
    fn close(&self, set: &mut Vec<usize>, scratch: &mut NfaScratch) {
        let NfaScratch { seen, work } = scratch;
        seen.resize(self.states.len(), false);
        for &s in set.iter() {
            seen[s] = true;
        }
        work.clear();
        work.extend_from_slice(set);
        while let Some(s) = work.pop() {
            for &t in &self.states[s].epsilon {
                if !seen[t] {
                    seen[t] = true;
                    set.push(t);
                    work.push(t);
                }
            }
        }
        for &s in set.iter() {
            seen[s] = false;
        }
        set.sort_unstable();
    }

    /// The set of states reachable from `states` by consuming `c`,
    /// including the epsilon closure of the result.
    pub fn step(&self, states: &[usize], c: char) -> Vec<usize> {
        let mut next = Vec::new();
        self.step_into(states, c, &mut next, &mut NfaScratch::default());
        next
    }

    /// [`Nfa::step`] into `next` (cleared first), with `scratch` as working
    /// space: a caller that steps repeatedly reuses both and allocates
    /// nothing once they have grown.
    pub fn step_into(&self, states: &[usize], c: char, next: &mut Vec<usize>, scratch: &mut NfaScratch) {
        next.clear();
        for &s in states {
            for (class, target) in &self.states[s].transitions {
                if class.contains(c) {
                    next.push(*target);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        self.close(next, scratch);
    }

    /// The highest-priority (lowest-id) token accepted by any state in the
    /// set.
    pub fn accepting_token(&self, states: &[usize]) -> Option<TokenId> {
        states
            .iter()
            .filter_map(|&s| self.states[s].accept)
            .min()
    }

    /// Direct NFA simulation: the longest prefix of `input` (given as a
    /// char slice) that matches any token, together with the token id.
    /// Used as the reference implementation in tests and property checks.
    pub fn longest_match(&self, input: &[char]) -> Option<(usize, TokenId)> {
        let mut current = self.epsilon_closure(&[self.start]);
        let mut best: Option<(usize, TokenId)> = None;
        if let Some(t) = self.accepting_token(&current) {
            best = Some((0, t));
        }
        for (i, &c) in input.iter().enumerate() {
            current = self.step(&current, c);
            if current.is_empty() {
                break;
            }
            if let Some(t) = self.accepting_token(&current) {
                best = Some((i + 1, t));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn literal_matching() {
        let nfa = Nfa::build(&[Regex::literal("if"), Regex::literal("then")]);
        assert_eq!(nfa.longest_match(&chars("if")), Some((2, 0)));
        assert_eq!(nfa.longest_match(&chars("then rest")), Some((4, 1)));
        assert_eq!(nfa.longest_match(&chars("els")), None);
    }

    #[test]
    fn identifier_and_number_tokens() {
        let ident = Regex::parse("[a-zA-Z] [a-zA-Z0-9_]*").unwrap();
        let number = Regex::parse("[0-9]+").unwrap();
        let nfa = Nfa::build(&[ident, number]);
        assert_eq!(nfa.longest_match(&chars("hello42 x")), Some((7, 0)));
        assert_eq!(nfa.longest_match(&chars("42x")), Some((2, 1)));
        assert_eq!(nfa.longest_match(&chars("+x")), None);
    }

    #[test]
    fn longest_match_prefers_longer_over_priority() {
        // `if` (keyword) vs identifiers: `iffy` must lex as one identifier.
        let keyword = Regex::literal("if");
        let ident = Regex::parse("[a-z]+").unwrap();
        let nfa = Nfa::build(&[keyword, ident]);
        assert_eq!(nfa.longest_match(&chars("iffy")), Some((4, 1)));
        // Equal length: the earlier definition (keyword) wins.
        assert_eq!(nfa.longest_match(&chars("if ")), Some((2, 0)));
    }

    #[test]
    fn star_and_optional() {
        let signed = Regex::parse("('+' | '-')? [0-9]+").unwrap();
        let nfa = Nfa::build(&[signed]);
        assert_eq!(nfa.longest_match(&chars("-12)")), Some((3, 0)));
        assert_eq!(nfa.longest_match(&chars("7")), Some((1, 0)));
        assert_eq!(nfa.longest_match(&chars("+")), None);
        let comment = Regex::parse("'--' ~[\\n]*").unwrap();
        let nfa = Nfa::build(&[comment]);
        assert_eq!(nfa.longest_match(&chars("-- rest of line\nx")), Some((15, 0)));
    }

    #[test]
    fn nullable_token_matches_empty_prefix() {
        let star = Regex::parse("[a]*").unwrap();
        let nfa = Nfa::build(&[star]);
        assert_eq!(nfa.longest_match(&chars("bbb")), Some((0, 0)));
        assert_eq!(nfa.longest_match(&chars("aab")), Some((2, 0)));
    }

    #[test]
    fn epsilon_closure_is_sorted_and_complete() {
        let nfa = Nfa::build(&[Regex::parse("'a'*").unwrap()]);
        let closure = nfa.epsilon_closure(&[nfa.start()]);
        assert!(closure.windows(2).all(|w| w[0] < w[1]));
        assert!(closure.contains(&nfa.start()));
        assert!(nfa.num_states() >= 3);
    }
}
