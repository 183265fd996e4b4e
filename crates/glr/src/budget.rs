//! Per-request resource budgets for cooperative mid-parse cancellation.
//!
//! A [`ParseBudget`] caps how much work a single parse may do before it is
//! cut off: a wall-clock deadline, a step-fuel limit (reductions + shifts +
//! tokens), and byte caps on the two growable per-request arenas (the GSS
//! node/edge pools and the shared packed forest). The GSS `run` loop and the
//! fused token source consult the budget through a [`BudgetGuard`], which
//! amortizes the check over a stride of work units so the warm zero-alloc
//! path stays branch-cheap: an unlimited budget costs one increment and one
//! always-false compare per work unit, and `Instant::now` is only called on
//! the (rare) stride boundary of a limited budget.
//!
//! Exhaustion is cooperative, not preemptive: the parse observes the budget
//! at the next stride boundary and returns
//! an exhausted [`ParseOutcome`](crate::ParseOutcome) with the first
//! [`ExhaustReason`] that tripped. Callers decide what to do with the
//! partially grown context — the server quarantines it instead of recycling
//! it, since a byte-cap kill means the pools ballooned to the cap.

use std::time::Instant;

/// How many work units (reductions + shifts + tokens) pass between budget
/// checks. Small enough that a deadline overshoots by at most a few
/// microseconds of GSS work, large enough that `Instant::now` and the byte
/// arithmetic disappear from profiles.
pub const BUDGET_CHECK_STRIDE: u64 = 64;

/// Why a parse was cut off mid-flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The wall-clock deadline passed while the parse was running.
    Deadline,
    /// The step-fuel limit (reductions + shifts + tokens) was spent.
    Fuel,
    /// The GSS node/edge pools grew past the byte cap.
    GssBytes,
    /// The shared packed forest arena grew past the byte cap.
    ForestBytes,
}

impl ExhaustReason {
    /// Stable lower-case name, used in wire error payloads and stats dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            ExhaustReason::Deadline => "deadline",
            ExhaustReason::Fuel => "fuel",
            ExhaustReason::GssBytes => "gss-bytes",
            ExhaustReason::ForestBytes => "forest-bytes",
        }
    }
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Resource limits for one parse. `Default` is unlimited on every axis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParseBudget {
    /// Hard wall-clock cutoff; the parse bails at the first stride boundary
    /// past this instant.
    pub deadline: Option<Instant>,
    /// Maximum work units (reductions + shifts + tokens consumed).
    pub fuel: Option<u64>,
    /// Byte cap on the GSS node + edge pools.
    pub max_gss_bytes: Option<usize>,
    /// Byte cap on the forest arena (nodes + derivations + child slots).
    pub max_forest_bytes: Option<usize>,
}

impl ParseBudget {
    /// A budget with no limits — the guard compiles down to a counter bump.
    pub const UNLIMITED: ParseBudget = ParseBudget {
        deadline: None,
        fuel: None,
        max_gss_bytes: None,
        max_forest_bytes: None,
    };

    /// True when no axis is limited.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.fuel.is_none()
            && self.max_gss_bytes.is_none()
            && self.max_forest_bytes.is_none()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the step-fuel limit.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Sets the GSS pool byte cap.
    pub fn with_max_gss_bytes(mut self, bytes: usize) -> Self {
        self.max_gss_bytes = Some(bytes);
        self
    }

    /// Sets the forest arena byte cap.
    pub fn with_max_forest_bytes(mut self, bytes: usize) -> Self {
        self.max_forest_bytes = Some(bytes);
        self
    }

    /// Tightens the deadline to `deadline` if it is earlier than (or the
    /// only) one already set. `None` leaves the budget unchanged.
    pub fn tightened_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = match (self.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// Combines two budgets, keeping the tightest limit on each axis.
    pub fn merged(self, other: ParseBudget) -> ParseBudget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }
        ParseBudget {
            deadline: tighter(self.deadline, other.deadline),
            fuel: tighter(self.fuel, other.fuel),
            max_gss_bytes: tighter(self.max_gss_bytes, other.max_gss_bytes),
            max_forest_bytes: tighter(self.max_forest_bytes, other.max_forest_bytes),
        }
    }

    /// Full (unamortized) check against current resource usage. Returns the
    /// first limit that tripped, in a fixed priority order (deadline, fuel,
    /// GSS bytes, forest bytes) so exhaustion reasons are deterministic for
    /// byte/fuel caps under identical inputs.
    pub fn check(
        &self,
        work: u64,
        gss_bytes: usize,
        forest_bytes: usize,
    ) -> Option<ExhaustReason> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(ExhaustReason::Deadline);
            }
        }
        if let Some(fuel) = self.fuel {
            if work > fuel {
                return Some(ExhaustReason::Fuel);
            }
        }
        if let Some(cap) = self.max_gss_bytes {
            if gss_bytes > cap {
                return Some(ExhaustReason::GssBytes);
            }
        }
        if let Some(cap) = self.max_forest_bytes {
            if forest_bytes > cap {
                return Some(ExhaustReason::ForestBytes);
            }
        }
        None
    }
}

/// Amortized budget checker for the GSS hot loop.
///
/// Call [`step`](BudgetGuard::step) once per work unit with closures that
/// compute the current pool sizes; the closures are only invoked on stride
/// boundaries of a limited budget. An unlimited guard sets its next check
/// point to `u64::MAX`, so `step` is an increment and a never-taken branch.
#[derive(Clone, Copy, Debug)]
pub struct BudgetGuard {
    budget: ParseBudget,
    work: u64,
    next_check: u64,
}

impl BudgetGuard {
    /// Builds a guard over `budget`.
    pub fn new(budget: ParseBudget) -> Self {
        let next_check = if budget.is_unlimited() {
            u64::MAX
        } else {
            BUDGET_CHECK_STRIDE
        };
        BudgetGuard {
            budget,
            work: 0,
            next_check,
        }
    }

    /// Records `n` work units without checking; use for bulk counts (e.g. a
    /// batch of reduction paths) between `step` calls.
    #[inline(always)]
    pub fn add(&mut self, n: u64) {
        self.work += n;
    }

    /// Records one work unit; on a stride boundary of a limited budget,
    /// performs the full check. Returns the exhaustion reason if any limit
    /// tripped.
    #[inline(always)]
    pub fn step(
        &mut self,
        gss_bytes: impl FnOnce() -> usize,
        forest_bytes: impl FnOnce() -> usize,
    ) -> Option<ExhaustReason> {
        self.work += 1;
        if self.work < self.next_check {
            return None;
        }
        self.check_now(gss_bytes, forest_bytes)
    }

    /// The stride-boundary slow path: runs the full check and schedules the
    /// next boundary.
    #[cold]
    fn check_now(
        &mut self,
        gss_bytes: impl FnOnce() -> usize,
        forest_bytes: impl FnOnce() -> usize,
    ) -> Option<ExhaustReason> {
        self.next_check = self.work.saturating_add(BUDGET_CHECK_STRIDE);
        self.budget.check(self.work, gss_bytes(), forest_bytes())
    }

    /// Work units recorded so far.
    pub fn work(&self) -> u64 {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut guard = BudgetGuard::new(ParseBudget::UNLIMITED);
        for _ in 0..10_000 {
            assert_eq!(guard.step(|| usize::MAX, || usize::MAX), None);
        }
        assert_eq!(guard.work(), 10_000);
    }

    #[test]
    fn fuel_trips_at_stride_boundary() {
        let budget = ParseBudget::default().with_fuel(10);
        let mut guard = BudgetGuard::new(budget);
        let mut tripped_at = None;
        for i in 1..=10 * BUDGET_CHECK_STRIDE {
            if guard.step(|| 0, || 0).is_some() {
                tripped_at = Some(i);
                break;
            }
        }
        // Fuel 10 < stride, so the very first boundary reports exhaustion.
        assert_eq!(tripped_at, Some(BUDGET_CHECK_STRIDE));
    }

    #[test]
    fn byte_caps_trip_with_reason_priority() {
        let budget = ParseBudget::default()
            .with_max_gss_bytes(100)
            .with_max_forest_bytes(100);
        // Both over: GSS wins by priority order.
        assert_eq!(budget.check(0, 101, 101), Some(ExhaustReason::GssBytes));
        assert_eq!(budget.check(0, 100, 101), Some(ExhaustReason::ForestBytes));
        assert_eq!(budget.check(0, 100, 100), None);
    }

    #[test]
    fn expired_deadline_trips() {
        let budget = ParseBudget::default().with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(budget.check(0, 0, 0), Some(ExhaustReason::Deadline));
        let future = ParseBudget::default().with_deadline(Instant::now() + Duration::from_secs(60));
        assert_eq!(future.check(0, 0, 0), None);
    }

    #[test]
    fn merged_keeps_tightest_limits() {
        let now = Instant::now();
        let a = ParseBudget::default()
            .with_deadline(now + Duration::from_secs(5))
            .with_fuel(1000);
        let b = ParseBudget::default()
            .with_deadline(now + Duration::from_secs(1))
            .with_max_gss_bytes(4096);
        let m = a.merged(b);
        assert_eq!(m.deadline, Some(now + Duration::from_secs(1)));
        assert_eq!(m.fuel, Some(1000));
        assert_eq!(m.max_gss_bytes, Some(4096));
        assert_eq!(m.max_forest_bytes, None);
        assert!(ParseBudget::UNLIMITED.merged(ParseBudget::UNLIMITED).is_unlimited());
    }

    #[test]
    fn tightened_deadline_prefers_earlier() {
        let now = Instant::now();
        let early = now + Duration::from_secs(1);
        let late = now + Duration::from_secs(9);
        let b = ParseBudget::default().with_deadline(late);
        assert_eq!(b.tightened_deadline(Some(early)).deadline, Some(early));
        assert_eq!(b.tightened_deadline(None).deadline, Some(late));
        let none = ParseBudget::default();
        assert_eq!(none.tightened_deadline(Some(early)).deadline, Some(early));
    }
}
