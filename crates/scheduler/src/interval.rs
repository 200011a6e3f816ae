//! Timed activation intervals: one Look–Compute–Move cycle of one robot.

use cohesion_model::RobotId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The phase a robot is in at a given time, relative to one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Before the interval or after its end.
    Inactive,
    /// Between Look and the start of Move (the Look itself is instantaneous
    /// at the interval start; Compute fills the rest).
    Computing,
    /// Between Move start and the interval end (the robot is *motile*).
    Moving,
}

/// One activation: Look at `look` (instantaneous), Compute during
/// `[look, move_start)`, Move during `[move_start, end]`.
///
/// Invariants: `look < move_start ≤ end`, all finite. A Move of zero
/// duration is permitted only for intervals that realize the nil movement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivationInterval {
    /// The robot being activated.
    pub robot: RobotId,
    /// Time of the instantaneous Look (start of the activity interval).
    pub look: f64,
    /// End of Compute / start of Move.
    pub move_start: f64,
    /// End of Move (end of the activity interval).
    pub end: f64,
}

impl ActivationInterval {
    /// Creates an interval, checking the timing invariants.
    ///
    /// # Panics
    ///
    /// Panics if the times are non-finite or out of order.
    pub fn new(robot: RobotId, look: f64, move_start: f64, end: f64) -> Self {
        assert!(
            look.is_finite() && move_start.is_finite() && end.is_finite(),
            "activation times must be finite"
        );
        assert!(
            look < move_start && move_start <= end,
            "activation phases out of order: look={look}, move_start={move_start}, end={end}"
        );
        ActivationInterval {
            robot,
            look,
            move_start,
            end,
        }
    }

    /// Total interval duration.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.look
    }

    /// The phase at time `t`.
    pub fn phase_at(&self, t: f64) -> Phase {
        if t < self.look || t > self.end {
            Phase::Inactive
        } else if t < self.move_start {
            Phase::Computing
        } else {
            Phase::Moving
        }
    }

    /// Returns `true` when `t` lies within the closed interval.
    #[inline]
    pub fn contains_time(&self, t: f64) -> bool {
        t >= self.look && t <= self.end
    }

    /// Returns `true` when the two intervals overlap in time (closed
    /// endpoints).
    pub fn overlaps(&self, other: &ActivationInterval) -> bool {
        self.look <= other.end && other.look <= self.end
    }

    /// Returns `true` when `self` is nested inside `other`
    /// (`other.look ≤ self.look` and `self.end ≤ other.end`).
    pub fn nested_in(&self, other: &ActivationInterval) -> bool {
        other.look <= self.look && self.end <= other.end
    }
}

impl fmt::Display for ActivationInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[L@{:.3} M@{:.3} E@{:.3}]",
            self.robot, self.look, self.move_start, self.end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(robot: u32, look: f64, ms: f64, end: f64) -> ActivationInterval {
        ActivationInterval::new(RobotId(robot), look, ms, end)
    }

    #[test]
    fn phases() {
        let a = iv(0, 1.0, 2.0, 3.0);
        assert_eq!(a.phase_at(0.5), Phase::Inactive);
        assert_eq!(a.phase_at(1.0), Phase::Computing);
        assert_eq!(a.phase_at(1.9), Phase::Computing);
        assert_eq!(a.phase_at(2.0), Phase::Moving);
        assert_eq!(a.phase_at(3.0), Phase::Moving);
        assert_eq!(a.phase_at(3.1), Phase::Inactive);
        assert_eq!(a.duration(), 2.0);
    }

    #[test]
    fn overlap_and_nesting() {
        let a = iv(0, 0.0, 1.0, 4.0);
        let b = iv(1, 1.0, 2.0, 3.0);
        let c = iv(1, 5.0, 6.0, 7.0);
        assert!(a.overlaps(&b));
        assert!(b.nested_in(&a));
        assert!(!a.nested_in(&b));
        assert!(!a.overlaps(&c));
        // Touching endpoints count as overlap.
        let d = iv(1, 4.0, 4.5, 5.0);
        assert!(a.overlaps(&d));
    }

    #[test]
    #[should_panic]
    fn out_of_order_rejected() {
        let _ = iv(0, 2.0, 1.0, 3.0);
    }

    #[test]
    #[should_panic]
    fn zero_length_compute_rejected() {
        let _ = iv(0, 1.0, 1.0, 3.0);
    }
}
