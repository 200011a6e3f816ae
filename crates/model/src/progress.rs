//! Budgets and progress views for incremental simulation drivers.
//!
//! A long-running simulation is driven in *slices*: the session owner hands
//! the driver a [`Budget`] (how many more events this slice may process),
//! runs it, inspects a [`Progress`] snapshot, and decides whether to
//! continue, emit a heartbeat, or stop. Both types are plain data — they live in the model
//! crate so every layer (engine sessions, sweep harnesses, CLIs) can speak
//! them without depending on the engine.

/// How much work a simulation driver may perform before yielding: an
/// **event** allowance (engine events, relative to where the slice starts).
/// The paper's verdicts are per activation schedule, so budgets count
/// events, never simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum number of events the slice may process.
    pub max_events: usize,
}

impl Budget {
    /// No bound: run until the simulation terminates on its own.
    pub const UNLIMITED: Budget = Budget {
        max_events: usize::MAX,
    };

    /// A budget of `n` events.
    #[must_use]
    pub fn events(n: usize) -> Budget {
        Budget { max_events: n }
    }

    /// `true` when `events` processed so far exhaust the event allowance.
    #[must_use]
    pub fn events_exhausted(&self, events: usize) -> bool {
        events >= self.max_events
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
    }

    #[test]
    fn event_budget_is_relative_count() {
        let b = Budget::events(10);
        assert!(!b.events_exhausted(9));
        assert!(b.events_exhausted(10));
    }
}
