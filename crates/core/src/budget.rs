//! The shared budget/cancellation substrate.
//!
//! Undecidability makes resource budgets load-bearing throughout this
//! workspace: every search — the chase, the BFS derivation search, the
//! backtracking finite-model search — must be able to stop early, and the
//! racing pipeline additionally needs *cooperative cancellation* so the
//! losing side of a race backs out once the winner has its certificate.
//! Before this module existed, each search carried its own ad-hoc copy of
//! the same three ingredients (a raw `AtomicBool`, a spend counter checked
//! against a cap, and a poll-cadence mask) and its own convention for
//! telling *cancelled* apart from *exhausted*. [`Cancellation`] and
//! [`Ticker`] centralize them:
//!
//! * [`Cancellation`] — a shareable one-shot flag. The thread that finds a
//!   certificate calls [`Cancellation::cancel`]; every other party polls
//!   [`Cancellation::is_cancelled`] at its own cadence. All operations are
//!   relaxed atomics: the flag carries no data, only "stop soon".
//! * [`Ticker`] — a spend counter bound to a cancellation token. Each
//!   [`Ticker::tick`] spends one unit of budget (a search node, a visited
//!   state, a fired trigger); the ticker refuses the unit once the limit
//!   is reached and observes the cancellation flag every `poll_mask + 1`
//!   units, so the atomic load stays off the hot path. When a ticker stops
//!   it records *why* — [`StopReason::Cancelled`] versus
//!   [`StopReason::Exhausted`] — which is exactly the distinction the
//!   pipeline's deterministic spend reports need: a cancelled spend is a
//!   lower bound (it depends on when the race was decided), an exhausted
//!   spend is exact.
//!
//! The consumers are spread across the workspace: the chase engine
//! ([`crate::chase::ChaseEngine`]) polls a token between rounds and
//! firings, `td_semigroup`'s derivation and model searches run their node
//! budgets through a [`Ticker`], and `td_reduction`'s racing pipeline and
//! batch worker pool share [`Cancellation`] tokens instead of raw atomics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A shareable, one-shot cooperative-cancellation token.
///
/// Cheap to poll (one relaxed load) and impossible to "un-cancel": once
/// flipped, every observer winds down. Create one per race or worker pool
/// and hand out shared references.
#[derive(Debug, Default)]
pub struct Cancellation(AtomicBool);

impl Cancellation {
    /// A fresh, un-cancelled token.
    pub const fn new() -> Self {
        Self(AtomicBool::new(false))
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`Cancellation::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A thread-safe cumulative spend meter.
///
/// Where a [`Ticker`] *limits* the spend of one search, a `Meter`
/// *accumulates* spend across many: a long-lived service charges every
/// finished request's spend to shared meters and reports the running
/// totals (for example `td_reduction::engine::EngineStats`). All
/// operations are relaxed atomics — the meter carries independent counts,
/// not synchronization.
///
/// Totals are monotone: there is no reset. A consumer that wants
/// per-interval numbers snapshots [`Meter::total`] and subtracts.
#[derive(Debug, Default)]
pub struct Meter(AtomicU64);

impl Meter {
    /// A fresh meter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Charges `units` of spend. Never blocks; wraps on `u64` overflow
    /// (unreachable for realistic workloads).
    pub fn add(&self, units: u64) {
        self.0.fetch_add(units, Ordering::Relaxed);
    }

    /// The cumulative total charged so far.
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a [`Ticker`] stopped accepting spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The bound [`Cancellation`] token was observed at a poll point. The
    /// spend so far is a *lower bound*: an uncancelled run would have
    /// spent more.
    Cancelled,
    /// The ticker's own budget limit was reached. The spend is *exact*
    /// and reproducible.
    Exhausted,
}

/// A budgeted spend counter with cadenced cancellation polling.
///
/// One unit of spend is whatever the caller says it is — a BFS state, a
/// DFS node, a fired chase trigger. The ticker enforces a hard limit,
/// polls its [`Cancellation`] token every `poll_mask + 1` units, and
/// remembers which of the two stopped it first.
#[derive(Debug)]
pub struct Ticker<'a> {
    cancel: &'a Cancellation,
    limit: u64,
    poll_mask: u64,
    spent: u64,
    stop: Option<StopReason>,
}

impl<'a> Ticker<'a> {
    /// A ticker allowing up to `limit` units of spend, polling `cancel`
    /// whenever `spent & poll_mask == 0` (mask `0` polls on every tick;
    /// `0x3FF` polls every 1024 ticks — pick by how expensive a unit is
    /// relative to a relaxed atomic load).
    pub fn new(cancel: &'a Cancellation, limit: u64, poll_mask: u64) -> Self {
        Self {
            cancel,
            limit,
            poll_mask,
            spent: 0,
            stop: None,
        }
    }

    /// Spends one unit. Returns `false` — permanently, recording the
    /// [`StopReason`] — when the unit cannot be spent (the limit is
    /// reached) or the cancellation token was observed at this poll point
    /// (the unit *is* spent in that case; cancellation never un-counts
    /// work already done).
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.stop.is_some() {
            return false;
        }
        if self.spent >= self.limit {
            self.stop = Some(StopReason::Exhausted);
            return false;
        }
        self.spent += 1;
        if self.spent & self.poll_mask == 0 && self.cancel.is_cancelled() {
            self.stop = Some(StopReason::Cancelled);
            return false;
        }
        true
    }

    /// Checks the cancellation token without spending (for poll points
    /// that do no budgeted work, like dequeuing). Returns `false` once the
    /// ticker has stopped for any reason.
    #[inline]
    pub fn poll(&mut self) -> bool {
        if self.stop.is_some() {
            return false;
        }
        if self.cancel.is_cancelled() {
            self.stop = Some(StopReason::Cancelled);
            return false;
        }
        true
    }

    /// Units spent so far. Exact when the ticker ran to completion or
    /// exhausted its limit; a lower bound when it was cancelled.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Why the ticker stopped, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// `true` once [`Ticker::tick`] or [`Ticker::poll`] has returned
    /// `false`.
    pub fn stopped(&self) -> bool {
        self.stop.is_some()
    }

    /// `true` when the stop was caused by the cancellation token.
    pub fn cancelled(&self) -> bool {
        self.stop == Some(StopReason::Cancelled)
    }

    /// `true` when the stop was caused by the spend limit.
    pub fn exhausted(&self) -> bool {
        self.stop == Some(StopReason::Exhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancellation_is_one_shot_and_shared() {
        let c = Cancellation::new();
        assert!(!c.is_cancelled());
        c.cancel();
        assert!(c.is_cancelled());
        c.cancel(); // idempotent
        assert!(c.is_cancelled());
    }

    #[test]
    fn ticker_exhausts_exactly_at_the_limit() {
        let c = Cancellation::new();
        let mut t = Ticker::new(&c, 3, 0);
        assert!(t.tick());
        assert!(t.tick());
        assert!(t.tick());
        assert_eq!(t.spent(), 3);
        assert!(!t.stopped());
        assert!(!t.tick(), "the fourth unit must be refused");
        assert_eq!(t.spent(), 3, "refused units are not counted");
        assert!(t.exhausted());
        assert!(!t.cancelled());
        assert!(!t.tick(), "stopped tickers stay stopped");
    }

    #[test]
    fn ticker_observes_cancellation_at_poll_cadence() {
        let c = Cancellation::new();
        // Mask 3: polls only when spent is a multiple of 4.
        let mut t = Ticker::new(&c, 1000, 3);
        c.cancel();
        assert!(t.tick(), "spent 1: off-cadence, flag unobserved");
        assert!(t.tick(), "spent 2: off-cadence");
        assert!(t.tick(), "spent 3: off-cadence");
        assert!(!t.tick(), "spent 4: poll point observes the flag");
        assert_eq!(t.spent(), 4);
        assert!(t.cancelled());
    }

    #[test]
    fn ticker_cancellation_spends_the_observing_unit() {
        let c = Cancellation::new();
        let mut t = Ticker::new(&c, 1000, 0);
        assert!(t.tick());
        c.cancel();
        assert!(!t.tick(), "poll-on-every-tick observes immediately");
        assert_eq!(t.spent(), 2, "the observing unit is still counted");
        assert!(t.cancelled());
        assert_eq!(t.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn poll_checks_without_spending() {
        let c = Cancellation::new();
        let mut t = Ticker::new(&c, 10, 0);
        assert!(t.poll());
        assert_eq!(t.spent(), 0);
        c.cancel();
        assert!(!t.poll());
        assert!(t.cancelled());
        assert_eq!(t.spent(), 0);
        assert!(!t.tick(), "a stopped ticker refuses further spend");
    }

    #[test]
    fn meter_accumulates_across_threads() {
        let m = Meter::new();
        assert_eq!(m.total(), 0);
        m.add(3);
        m.add(0);
        assert_eq!(m.total(), 3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        m.add(2);
                    }
                });
            }
        });
        assert_eq!(m.total(), 3 + 4 * 1000 * 2);
    }

    #[test]
    fn zero_limit_refuses_immediately() {
        let c = Cancellation::new();
        let mut t = Ticker::new(&c, 0, 0);
        assert!(!t.tick());
        assert!(t.exhausted());
        assert_eq!(t.spent(), 0);
    }
}
