//! Schedule traces: the complete timed record of who was activated when.

use crate::interval::ActivationInterval;
use cohesion_model::RobotId;
use serde::{Deserialize, Serialize};

/// A finite, Look-time-ordered record of activation intervals — the object
/// the validators in [`crate::validate`] certify against the scheduling
/// models of §2.3.1.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScheduleTrace {
    intervals: Vec<ActivationInterval>,
}

impl ScheduleTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        ScheduleTrace::default()
    }

    /// Builds a trace from intervals (sorted by Look time internally).
    pub fn from_intervals(mut intervals: Vec<ActivationInterval>) -> Self {
        intervals.sort_by(|a, b| a.look.partial_cmp(&b.look).expect("finite times"));
        ScheduleTrace { intervals }
    }

    /// Appends an interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval's Look time precedes the last recorded one
    /// (traces are built in dispatch order).
    pub fn push(&mut self, interval: ActivationInterval) {
        if let Some(last) = self.intervals.last() {
            assert!(
                interval.look >= last.look,
                "trace must be appended in Look-time order ({} after {})",
                interval.look,
                last.look
            );
        }
        self.intervals.push(interval);
    }

    /// All intervals in Look-time order.
    pub fn intervals(&self) -> &[ActivationInterval] {
        &self.intervals
    }

    /// Number of recorded activations.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The intervals of one robot, in time order.
    pub fn of_robot(&self, id: RobotId) -> Vec<ActivationInterval> {
        self.intervals
            .iter()
            .copied()
            .filter(|iv| iv.robot == id)
            .collect()
    }

    /// Latest interval end time (`0` for an empty trace).
    pub fn horizon(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.end).fold(0.0, f64::max)
    }
}

impl FromIterator<ActivationInterval> for ScheduleTrace {
    fn from_iter<T: IntoIterator<Item = ActivationInterval>>(iter: T) -> Self {
        ScheduleTrace::from_intervals(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(robot: u32, look: f64) -> ActivationInterval {
        ActivationInterval::new(RobotId(robot), look, look + 0.5, look + 1.0)
    }

    #[test]
    fn ordering_enforced_on_push() {
        let mut t = ScheduleTrace::new();
        t.push(iv(0, 0.0));
        t.push(iv(1, 0.5));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_order_push_panics() {
        let mut t = ScheduleTrace::new();
        t.push(iv(0, 1.0));
        t.push(iv(1, 0.5));
    }

    #[test]
    fn from_intervals_sorts() {
        let t = ScheduleTrace::from_intervals(vec![iv(0, 2.0), iv(1, 0.0), iv(2, 1.0)]);
        let looks: Vec<f64> = t.intervals().iter().map(|i| i.look).collect();
        assert_eq!(looks, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn per_robot_queries() {
        let t = ScheduleTrace::from_intervals(vec![iv(0, 0.0), iv(1, 1.0), iv(0, 2.0)]);
        assert_eq!(t.of_robot(RobotId(0)).len(), 2);
        assert_eq!(t.of_robot(RobotId(1)).len(), 1);
        assert_eq!(t.horizon(), 3.0);
    }
}
