//! A vector whose write cursor can be rewound without discarding the
//! slots beyond it.
//!
//! The GSS driver's pools — GSS nodes and edges, forest nodes,
//! derivations and children, and the recorded checkpoints — are
//! append-only between checkpoints. An incremental re-parse rewinds every
//! pool to the damage checkpoint instead of truncating it: the re-run
//! overwrites the recorded slots one by one, and once a same-length re-run
//! provably converges with the recorded run, [`RewindVec::splice`] keeps
//! the recorded suffix beyond the cursor as it is instead of rebuilding it;
//! a re-run that does not converge ends with [`RewindVec::seal`].
//! A pool the convergence check compares against logs each recorded value
//! the re-run overwrites ([`RewindVec::recorded`]), so logging costs
//! O(re-run), never O(suffix).

use std::ops::{Deref, DerefMut};

/// See the module docs. Outside a rewound run the vector holds exactly its
/// live slots and behaves like a `Vec`.
#[derive(Debug)]
pub(crate) struct RewindVec<T> {
    /// Live slots `[..len]`, followed (during a rewound run) by the
    /// recorded slots the re-run has not reached yet.
    buf: Vec<T>,
    len: usize,
    /// Whether `log` is being kept (set by [`RewindVec::rewind`]).
    logging: bool,
    /// Recorded values of the live slots `log_base..`: those still
    /// modifiable at the rewind point, then each slot the re-run
    /// overwrote, in order.
    log: Vec<T>,
    log_base: usize,
}

impl<T: Copy> RewindVec<T> {
    /// Appends `value` at the cursor, overwriting (and, when logging,
    /// logging) the recorded slot there if any.
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        if self.len < self.buf.len() {
            if self.logging {
                self.log.push(self.buf[self.len]);
            }
            self.buf[self.len] = value;
        } else {
            self.buf.push(value);
        }
        self.len += 1;
    }

    pub(crate) fn extend_from_slice(&mut self, values: &[T]) {
        for &value in values {
            self.push(value);
        }
    }

    /// Empties the vector, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
    }

    /// Drops every slot from `len` on, recorded ones included.
    fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
        self.len = self.buf.len();
        self.logging = false;
        self.log.clear();
    }

    /// Moves the cursor back to `len`, keeping the slots beyond it as the
    /// recorded suffix. With `log_from = Some(first)`, the recorded values
    /// of the live slots `first..len` (which the re-run may still modify in
    /// place) and of every slot the re-run overwrites are logged for
    /// [`RewindVec::recorded`].
    pub(crate) fn rewind(&mut self, len: usize, log_from: Option<usize>) {
        debug_assert!(len <= self.len);
        self.len = len;
        self.log.clear();
        self.logging = log_from.is_some();
        if let Some(first) = log_from {
            self.log_base = first;
            self.log.extend_from_slice(&self.buf[first..len]);
        }
    }

    /// The value slot `index` held in the recorded run, if it had one:
    /// unreached slots still hold it, logged slots have it in the log, and
    /// slots left of the logged range were never touched. Only meaningful
    /// for logged slots while a rewound run is logging.
    pub(crate) fn recorded(&self, index: usize) -> Option<T> {
        if index >= self.len {
            self.buf.get(index).copied()
        } else if index >= self.log_base && self.logging {
            self.log.get(index - self.log_base).copied()
        } else {
            Some(self.buf[index])
        }
    }

    /// Ends a rewound run at convergence: the recorded suffix beyond the
    /// cursor becomes live again.
    pub(crate) fn splice(&mut self) {
        self.len = self.buf.len();
        self.logging = false;
    }

    /// Ends a rewound run that did not converge: the recorded slots the
    /// re-run never reached are dropped.
    pub(crate) fn seal(&mut self) {
        self.truncate(self.len);
    }
}

impl<T> Deref for RewindVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T> DerefMut for RewindVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T> Default for RewindVec<T> {
    fn default() -> Self {
        RewindVec {
            buf: Vec::new(),
            len: 0,
            logging: false,
            log: Vec::new(),
            log_base: 0,
        }
    }
}

/// Clones the live slots only.
impl<T: Copy> Clone for RewindVec<T> {
    fn clone(&self) -> Self {
        RewindVec {
            buf: self[..].to_vec(),
            len: self.len,
            logging: false,
            log: Vec::new(),
            log_base: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[u32]) -> RewindVec<u32> {
        let mut v = RewindVec::default();
        v.extend_from_slice(values);
        v
    }

    #[test]
    fn rewind_then_splice_keeps_the_recorded_suffix() {
        let mut v = filled(&[1, 2, 3, 4, 5]);
        v.rewind(2, Some(1));
        assert_eq!(&v[..], &[1, 2]);
        v.push(30);
        v[1] = 20;
        assert_eq!(v.recorded(1), Some(2), "logged at the rewind");
        assert_eq!(v.recorded(2), Some(3), "logged when overwritten");
        assert_eq!(v.recorded(3), Some(4), "not reached yet");
        assert_eq!(v.recorded(0), Some(1), "never touched");
        v.splice();
        assert_eq!(&v[..], &[1, 20, 30, 4, 5]);
    }

    #[test]
    fn seal_drops_the_unreached_suffix_and_clone_copies_live_slots() {
        let mut v = filled(&[1, 2, 3, 4, 5]);
        v.rewind(1, None);
        v.push(7);
        assert_eq!(
            v.clone().recorded(2),
            None,
            "a clone has no recorded suffix"
        );
        v.seal();
        assert_eq!(&v[..], &[1, 7]);
        v.push(8);
        assert_eq!(&v[..], &[1, 7, 8]);
        v.truncate(1);
        assert_eq!(v.recorded(1), None);
    }
}
