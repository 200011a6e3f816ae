//! Budgets and progress views for incremental simulation drivers.
//!
//! A long-running simulation is driven in *slices*: the session owner hands
//! the driver a [`Budget`] (how much more work this slice may do), runs it,
//! inspects a [`Progress`] snapshot, and decides whether to continue, emit a
//! heartbeat, or stop. Both types are plain data — they live in the model
//! crate so every layer (engine sessions, sweep harnesses, CLIs) can speak
//! them without depending on the engine.

/// How much work a simulation driver may perform before yielding.
///
/// Budgets combine an **event** allowance (engine events, relative to where
/// the slice starts) and a **simulated-time** ceiling (absolute). A budget
/// is exhausted as soon as either bound is hit. The time bound is a *clamp*:
/// a driver honouring a budget must not process any event whose timestamp
/// exceeds `max_time` — not even one (the historical driver loop tested the
/// time budget against the *previous* event's time and so overran by one
/// event; `Budget` pins the corrected semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum number of events the slice may process.
    pub max_events: usize,
    /// Absolute simulated-time ceiling: no event with `time > max_time` may
    /// be processed.
    pub max_time: f64,
}

impl Budget {
    /// No bounds: run until the simulation terminates on its own.
    pub const UNLIMITED: Budget = Budget {
        max_events: usize::MAX,
        max_time: f64::INFINITY,
    };

    /// A budget of `n` events with no time bound.
    #[must_use]
    pub fn events(n: usize) -> Budget {
        Budget {
            max_events: n,
            ..Budget::UNLIMITED
        }
    }

    /// A budget bounded only by the simulated-time ceiling `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is NaN or negative.
    #[must_use]
    pub fn time(t: f64) -> Budget {
        Budget::UNLIMITED.and_time(t)
    }

    /// This budget with the event allowance additionally capped at `n`.
    #[must_use]
    pub fn and_events(mut self, n: usize) -> Budget {
        self.max_events = self.max_events.min(n);
        self
    }

    /// This budget with the time ceiling additionally clamped to `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is NaN or negative.
    #[must_use]
    pub fn and_time(mut self, t: f64) -> Budget {
        assert!(t >= 0.0, "time budget must be non-negative, got {t}");
        self.max_time = self.max_time.min(t);
        self
    }

    /// `true` when `events` processed so far exhaust the event allowance.
    #[must_use]
    pub fn events_exhausted(&self, events: usize) -> bool {
        events >= self.max_events
    }

    /// `true` when an event stamped `time` may be processed under the time
    /// ceiling (the clamped semantics: the event at exactly `max_time` is
    /// still in budget, the first one beyond it is not).
    #[must_use]
    pub fn admits_time(&self, time: f64) -> bool {
        time <= self.max_time
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::UNLIMITED
    }
}

/// A cheap point-in-time view of a running simulation, for heartbeats,
/// stop predicates, and the `--progress` sidecar's records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Engine events processed so far.
    pub events: usize,
    /// Completed rounds (every robot finished ≥ 1 cycle per round).
    pub rounds: usize,
    /// Simulated time of the last processed event.
    pub time: f64,
    /// Configuration diameter at `time`.
    pub diameter: f64,
    /// `true` while no initially-visible pair has been observed separated
    /// (the Cohesive Convergence clause, as monitored so far).
    pub cohesion_ok: bool,
    /// `true` once a sampled diameter reached the convergence threshold.
    pub converged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        let b = Budget::UNLIMITED;
        assert!(!b.events_exhausted(usize::MAX - 1));
        assert!(b.admits_time(1e300));
    }

    #[test]
    fn event_budget_is_relative_count() {
        let b = Budget::events(10);
        assert!(!b.events_exhausted(9));
        assert!(b.events_exhausted(10));
        assert!(b.admits_time(f64::MAX));
    }

    #[test]
    fn time_budget_clamps_at_the_boundary() {
        let b = Budget::time(5.0);
        assert!(
            b.admits_time(5.0),
            "an event at exactly max_time is in budget"
        );
        assert!(!b.admits_time(5.0 + 1e-12), "the first event beyond is not");
    }

    #[test]
    fn combinators_take_the_tighter_bound() {
        let b = Budget::events(100).and_time(2.0).and_events(7);
        assert_eq!(b.max_events, 7);
        assert_eq!(b.max_time, 2.0);
        let b = Budget::time(2.0).and_time(9.0);
        assert_eq!(b.max_time, 2.0, "and_time never loosens");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_budget_rejected() {
        let _ = Budget::time(-1.0);
    }
}
