//! Per-robot simulation state: the Look–Compute–Move state machine.
//!
//! [`RobotStates`] is the engine's **struct-of-arrays** table: parallel
//! dense vectors for phase tags, positions, targets, and move windows. Hot
//! loops (position interpolation for every candidate of a Look, the
//! whole-swarm position fills behind the monitors) touch only the arrays
//! they need — a phase-tag byte and a position — and the all-robot fill is
//! a `memcpy` of the base-position array plus a fix-up of the few motile
//! robots.
//!
//! Transitions (driven by the engine, timed by the scheduler):
//! `Idle → Computing` at Look ([`RobotStates::begin_computing`]),
//! `Computing → Moving` at Move start ([`RobotStates::begin_move`]),
//! `Moving → Idle` at Move end ([`RobotStates::end_move`]).

use cohesion_geometry::point::Point;

/// The phase tag of one robot in the struct-of-arrays table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Inactive, parked (activatable).
    Idle = 0,
    /// Between Look and Move start.
    Computing = 1,
    /// Motile: moving linearly through its `[t0, t1]` window.
    Moving = 2,
}

/// Struct-of-arrays robot state: the whole swarm's state machine in parallel
/// dense vectors (see the module docs for the layout rationale).
#[derive(Debug, Clone)]
pub struct RobotStates<P> {
    phases: Vec<Phase>,
    /// `Idle`/`Computing`: the current position; `Moving`: the Move's origin
    /// (`from`). Stationary robots therefore read straight from this array,
    /// which doubles as the `memcpy` source of the all-robot position fill.
    positions: Vec<P>,
    /// `Computing`: the planned target; `Moving`: the realized destination
    /// (`to`); `Idle`: the robot's own position (an inert placeholder).
    targets: Vec<P>,
    /// `Computing`: the scheduled Move start; `Moving`: `t0`; `Idle`: unused.
    starts: Vec<f64>,
    /// `Computing`: the scheduled Move end; `Moving`: `t1`; `Idle`: unused.
    ends: Vec<f64>,
}

impl<P: Point> RobotStates<P> {
    /// A table of `positions.len()` idle robots.
    pub fn new(positions: &[P]) -> Self {
        RobotStates {
            phases: vec![Phase::Idle; positions.len()],
            positions: positions.to_vec(),
            targets: positions.to_vec(),
            starts: vec![0.0; positions.len()],
            ends: vec![0.0; positions.len()],
        }
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Returns `true` when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The phase tag of robot `i`.
    pub fn phase(&self, i: usize) -> Phase {
        self.phases[i]
    }

    /// Returns `true` when robot `i` is in its Move phase (motile).
    pub fn is_motile(&self, i: usize) -> bool {
        self.phases[i] == Phase::Moving
    }

    /// Returns `true` when robot `i` is idle (activatable).
    pub fn is_idle(&self, i: usize) -> bool {
        self.phases[i] == Phase::Idle
    }

    /// The position of robot `i` at time `t`, reading only the arrays the
    /// phase needs. A moving robot's `t` is clamped into `[t0, t1]`
    /// (queries outside the window are the caller's bookkeeping bug, but
    /// clamping keeps the answer physically sensible); a zero-duration Move
    /// sits at its destination.
    #[inline]
    pub fn position_at(&self, i: usize, t: f64) -> P {
        match self.phases[i] {
            Phase::Idle | Phase::Computing => self.positions[i],
            Phase::Moving => {
                let (t0, t1) = (self.starts[i], self.ends[i]);
                if t1 <= t0 {
                    return self.targets[i];
                }
                let s = ((t - t0) / (t1 - t0)).clamp(0.0, 1.0);
                self.positions[i].lerp(self.targets[i], s)
            }
        }
    }

    /// The base-position array: exact positions for stationary robots, Move
    /// origins for motile ones — the `memcpy` source of whole-swarm position
    /// fills (the caller fixes up the motile few via
    /// [`RobotStates::position_at`]).
    pub fn base_positions(&self) -> &[P] {
        &self.positions
    }

    /// The planned or in-flight destination of robot `i`, if any (the
    /// endpoint the paper's convex-hull argument includes in `CH_t`).
    pub fn pending_target(&self, i: usize) -> Option<P> {
        match self.phases[i] {
            Phase::Idle => None,
            Phase::Computing | Phase::Moving => Some(self.targets[i]),
        }
    }

    /// Robot `i`'s scheduled (`Computing`) or running (`Moving`) Move end.
    pub fn move_end(&self, i: usize) -> f64 {
        self.ends[i]
    }

    /// Look, `Idle → Computing`: idle robot `i` plans a Move to `target`
    /// over `[move_start, move_end]` and stays where it stands.
    pub fn begin_computing(&mut self, i: usize, target: P, move_start: f64, move_end: f64) {
        self.phases[i] = Phase::Computing;
        self.targets[i] = target;
        self.starts[i] = move_start;
        self.ends[i] = move_end;
    }

    /// Move start, `Computing → Moving`: computing robot `i` leaves its
    /// position at `t0` toward the realized destination `to`, arriving at
    /// its scheduled Move end.
    pub fn begin_move(&mut self, i: usize, to: P, t0: f64) {
        self.phases[i] = Phase::Moving;
        self.targets[i] = to;
        self.starts[i] = t0;
    }

    /// Move end, `Moving → Idle`: moving robot `i` parks at its destination,
    /// which is returned.
    pub fn end_move(&mut self, i: usize) -> P {
        let to = self.targets[i];
        self.phases[i] = Phase::Idle;
        self.positions[i] = to;
        to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_geometry::Vec2;

    /// Bitwise position comparison: interpolation feeds RNG-visible
    /// outputs, so equality must be exact, not tolerance-based.
    fn assert_bits(actual: Vec2, expected: Vec2, what: &str) {
        assert_eq!(
            (actual.x.to_bits(), actual.y.to_bits()),
            (expected.x.to_bits(), expected.y.to_bits()),
            "{what}: {actual:?} vs {expected:?}"
        );
    }

    #[test]
    fn idle_and_computing_are_stationary() {
        let mut table = RobotStates::new(&[Vec2::new(1.0, 2.0), Vec2::ZERO]);
        assert_bits(table.position_at(0, 0.0), Vec2::new(1.0, 2.0), "idle");
        assert_bits(table.position_at(0, 99.0), Vec2::new(1.0, 2.0), "idle");
        assert!(table.is_idle(0));
        assert_eq!(table.pending_target(0), None);

        table.begin_computing(1, Vec2::new(1.0, 0.0), 1.0, 2.0);
        assert_eq!(table.phase(1), Phase::Computing);
        for t in [0.0, 1.5, 2.0, 9.0] {
            assert_bits(table.position_at(1, t), Vec2::ZERO, "computing");
        }
        assert_eq!(table.pending_target(1), Some(Vec2::new(1.0, 0.0)));
        assert_eq!(table.move_end(1), 2.0);
        assert!(!table.is_motile(1));
        assert!(!table.is_idle(1));
        // Robot 0 is untouched.
        assert!(table.is_idle(0));
        assert_eq!(table.base_positions()[0], Vec2::new(1.0, 2.0));
    }

    #[test]
    fn moving_interpolates_linearly() {
        let mut table = RobotStates::new(&[Vec2::new(0.5, 0.5)]);
        table.begin_computing(0, Vec2::new(9.0, 9.0), 1.0, 3.0);
        // The realized destination replaces the planned one.
        table.begin_move(0, Vec2::new(2.5, 1.5), 1.0);
        assert!(table.is_motile(0));
        assert_eq!(table.pending_target(0), Some(Vec2::new(2.5, 1.5)));
        assert_eq!(table.base_positions()[0], Vec2::new(0.5, 0.5));
        for (t, expected) in [
            (1.0, Vec2::new(0.5, 0.5)),
            (1.5, Vec2::new(1.0, 0.75)),
            (2.0, Vec2::new(1.5, 1.0)),
            (2.5, Vec2::new(2.0, 1.25)),
            (3.0, Vec2::new(2.5, 1.5)),
            // Clamped outside the window.
            (-1.0, Vec2::new(0.5, 0.5)),
            (0.0, Vec2::new(0.5, 0.5)),
            (9.0, Vec2::new(2.5, 1.5)),
        ] {
            assert_bits(table.position_at(0, t), expected, &format!("t={t}"));
        }
        // A fraction that is not a dyadic rational: `from + (to − from)·s`.
        let mut thirds = RobotStates::new(&[Vec2::ZERO]);
        thirds.begin_computing(0, Vec2::new(1.0, 0.0), 0.0, 3.0);
        thirds.begin_move(0, Vec2::new(1.0, 0.0), 0.0);
        assert_bits(thirds.position_at(0, 1.0), Vec2::new(1.0 / 3.0, 0.0), "t=1");
    }

    #[test]
    fn zero_duration_move_sits_at_destination() {
        let mut table = RobotStates::new(&[Vec2::ZERO]);
        table.begin_computing(0, Vec2::new(1.0, 1.0), 2.0, 2.0);
        table.begin_move(0, Vec2::new(1.0, 1.0), 2.0);
        for t in [0.0, 2.0, 3.0] {
            assert_bits(
                table.position_at(0, t),
                Vec2::new(1.0, 1.0),
                "zero-duration",
            );
        }
        assert_eq!(table.pending_target(0), Some(Vec2::new(1.0, 1.0)));
    }

    #[test]
    fn look_move_cycle_parks_at_the_destination() {
        let mut table = RobotStates::new(&[Vec2::ZERO, Vec2::new(5.0, -5.0)]);
        assert_eq!(table.len(), 2);
        // (destination, midpoint of the Move there from the previous stop).
        let legs = [
            (Vec2::new(2.0, 1.0), Vec2::new(1.0, 0.5)),
            (Vec2::new(-1.0, 0.5), Vec2::new(0.5, 0.75)),
        ];
        for (cycle, (to, mid)) in legs.into_iter().enumerate() {
            let t0 = 4.0 * cycle as f64 + 1.0;
            table.begin_computing(0, to, t0, t0 + 2.0);
            table.begin_move(0, to, t0);
            assert_eq!(table.move_end(0), t0 + 2.0);
            assert_bits(table.position_at(0, t0 + 1.0), mid, "mid-move");
            assert_bits(table.end_move(0), to, "end_move's return");
            assert!(table.is_idle(0));
            assert_eq!(table.pending_target(0), None);
            assert_bits(table.base_positions()[0], to, "parked base");
            for t in [t0, t0 + 1.0, 99.0] {
                assert_bits(table.position_at(0, t), to, "parked");
            }
        }
        // The other robot's columns are untouched.
        assert!(table.is_idle(1));
        assert_bits(table.base_positions()[1], Vec2::new(5.0, -5.0), "bystander");
    }
}
