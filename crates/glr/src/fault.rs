//! Test-only fault injection: labeled panic sites for chaos testing.
//!
//! Robustness claims ("a panicking parse answers exactly once and the worker
//! pool survives at full strength") are only credible when proven by
//! injecting the panic, not by waiting for one. This module plants cheap
//! [`point`] markers at labeled sites along the request path — `"post-pin"`
//! (right after a request pins a grammar epoch), `"mid-gss"` (inside the GSS
//! run loop), `"forest-grow"` (while the shared forest adds a derivation),
//! `"relex"` (in the incremental re-lex path) — and lets tests arm a
//! [`FaultPlan`] that makes specific sites panic a bounded number of times.
//!
//! The mechanism is compiled in unconditionally but inert by default: the
//! disarmed fast path is a single relaxed atomic load, which keeps the
//! zero-alloc warm path honest — the alloc gates and serving benches run with
//! the same code production runs.
//!
//! A plan armed with [`FaultPlan::arm`] fires **on the calling thread only**,
//! so a unit test's plan never hits a parallel test running through the same
//! sites. Chaos tests that must reach other threads (a frontend's worker
//! pool) opt in explicitly: [`process_wide`] hands out the one process-wide
//! arming slot, blocking until any other holder has dropped it, so such
//! tests serialize by construction.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Number of armed plans (per-thread ones plus the process-wide one);
/// every [`point`] takes the slow path only while it is nonzero.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// The process-wide plan, consulted after the calling thread's own.
static GLOBAL: Mutex<Plan> = Mutex::new(Plan::new());

/// The process-wide arming slot held by a [`ProcessWideFaults`].
static GLOBAL_SLOT: Mutex<()> = Mutex::new(());

thread_local! {
    /// The calling thread's plan.
    static LOCAL: RefCell<Plan> = const { RefCell::new(Plan::new()) };
    /// Panics injected on this thread (survives disarm; for tests).
    static INJECTED: Cell<u64> = const { Cell::new(0) };
}

struct SiteArm {
    site: &'static str,
    /// After this many hits, start panicking.
    skip: u32,
    /// Panics still to fire at this site; 0 means spent.
    remaining: u32,
}

/// One armed (or spent) plan; counted in [`ARMED`] while it can still fire.
struct Plan {
    arms: Vec<SiteArm>,
    armed: bool,
}

impl Plan {
    const fn new() -> Plan {
        Plan {
            arms: Vec::new(),
            armed: false,
        }
    }

    fn install(&mut self, arms: Vec<(&'static str, u32, u32)>) {
        self.arms.clear();
        self.arms.extend(arms.into_iter().map(|(site, skip, remaining)| SiteArm {
            site,
            skip,
            remaining,
        }));
        self.set_armed(self.arms.iter().any(|a| a.remaining > 0));
    }

    fn set_armed(&mut self, armed: bool) {
        match (self.armed, armed) {
            (false, true) => ARMED.fetch_add(1, Ordering::SeqCst),
            (true, false) => ARMED.fetch_sub(1, Ordering::SeqCst),
            _ => 0,
        };
        self.armed = armed;
    }

    /// Counts a hit of `site`: `None` if the plan has no arm for it,
    /// otherwise whether it fires. A spent plan disarms itself.
    fn hit(&mut self, site: &str) -> Option<bool> {
        let arm = self.arms.iter_mut().find(|arm| arm.site == site)?;
        let fire = if arm.skip > 0 {
            arm.skip -= 1;
            false
        } else if arm.remaining > 0 {
            arm.remaining -= 1;
            true
        } else {
            false
        };
        self.set_armed(self.arms.iter().any(|a| a.remaining > 0));
        Some(fire)
    }

    fn clear(&mut self) {
        self.arms.clear();
        self.set_armed(false);
    }
}

// A thread that exits with an armed plan releases its count.
impl Drop for Plan {
    fn drop(&mut self) {
        self.clear();
    }
}

/// A set of labeled sites to fail, each a bounded number of times.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    arms: Vec<(&'static str, u32, u32)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until sites are added).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panic the next `count` hits of `site`.
    pub fn fail(mut self, site: &'static str, count: u32) -> Self {
        self.arms.push((site, 0, count));
        self
    }

    /// Skip the first `skip` hits of `site`, then panic the next `count`.
    pub fn fail_after(mut self, site: &'static str, skip: u32, count: u32) -> Self {
        self.arms.push((site, skip, count));
        self
    }

    /// Installs this plan for the **calling thread only**, replacing its
    /// previous plan: points hit on other threads pass through untouched.
    pub fn arm(self) {
        LOCAL.with(|plan| plan.borrow_mut().install(self.arms));
    }
}

/// Clears the calling thread's plan.
pub fn disarm() {
    LOCAL.with(|plan| plan.borrow_mut().clear());
}

/// The exclusive process-wide arming slot (see the module docs). Plans
/// armed through it fire on every thread; dropping it disarms.
#[derive(Debug)]
pub struct ProcessWideFaults {
    _slot: MutexGuard<'static, ()>,
}

/// Takes the process-wide arming slot, waiting for any other holder.
pub fn process_wide() -> ProcessWideFaults {
    let slot = GLOBAL_SLOT.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    lock_global().clear();
    ProcessWideFaults { _slot: slot }
}

impl ProcessWideFaults {
    /// Installs `plan` for every thread, replacing the previous
    /// process-wide plan.
    pub fn arm(&self, plan: FaultPlan) {
        lock_global().install(plan.arms);
    }

    /// Clears the process-wide plan.
    pub fn disarm(&self) {
        lock_global().clear();
    }
}

impl Drop for ProcessWideFaults {
    fn drop(&mut self) {
        self.disarm();
    }
}

/// Panics injected on the calling thread since it started.
pub fn injected() -> u64 {
    INJECTED.with(Cell::get)
}

/// A labeled fault site. Free when disarmed (one relaxed load); when the
/// calling thread's plan, or else the process-wide one, matches `site` with
/// remaining count, panics with a recognizable `"injected fault at <site>"`
/// message.
#[inline(always)]
pub fn point(site: &str) {
    if ARMED.load(Ordering::Relaxed) != 0 {
        point_slow(site);
    }
}

#[cold]
fn point_slow(site: &str) {
    let local = LOCAL.try_with(|plan| plan.borrow_mut().hit(site)).ok().flatten();
    // The global lock is released before unwinding, so it is never
    // poisoned by an injected panic.
    let fire = local.unwrap_or_else(|| lock_global().hit(site).unwrap_or(false));
    if fire {
        INJECTED.with(|count| count.set(count.get() + 1));
        panic!("injected fault at {site}");
    }
}

/// Locks the process-wide plan, recovering from poison (a chaos test
/// aborting mid-arm must not wedge every later test).
fn lock_global() -> MutexGuard<'static, Plan> {
    GLOBAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_points_fire_and_self_disarm() {
        // Disarmed: free.
        point("mid-gss");

        let before = injected();
        FaultPlan::new().fail("mid-gss", 2).arm();

        // Non-matching site does not fire.
        point("post-pin");

        let r1 = std::panic::catch_unwind(|| point("mid-gss"));
        assert!(r1.is_err(), "armed site panics");
        let r2 = std::panic::catch_unwind(|| point("mid-gss"));
        assert!(r2.is_err(), "second count fires too");
        // Spent: the plan self-disarms back to the fast path.
        point("mid-gss");
        assert_eq!(injected() - before, 2);

        // fail_after skips the first N hits.
        FaultPlan::new().fail_after("forest-grow", 2, 1).arm();
        point("forest-grow");
        point("forest-grow");
        let r3 = std::panic::catch_unwind(|| point("forest-grow"));
        assert!(r3.is_err(), "fires after the skip window");
        disarm();
        point("forest-grow");
    }

    #[test]
    fn a_thread_plan_never_fires_on_other_threads() {
        FaultPlan::new().fail("relex", 1).arm();
        let elsewhere = std::thread::spawn(|| std::panic::catch_unwind(|| point("relex")).is_ok());
        assert!(elsewhere.join().unwrap(), "another thread passes through");
        assert!(std::panic::catch_unwind(|| point("relex")).is_err(), "the arming thread fires");
    }

    #[test]
    fn process_wide_plans_reach_every_thread_until_dropped() {
        let faults = process_wide();
        faults.arm(FaultPlan::new().fail("process-wide-probe", 1));
        let fired = std::thread::spawn(|| std::panic::catch_unwind(|| point("process-wide-probe")).is_err());
        assert!(fired.join().unwrap(), "a worker thread fires");
        faults.arm(FaultPlan::new().fail("process-wide-probe", 1));
        drop(faults);
        point("process-wide-probe");
    }
}
