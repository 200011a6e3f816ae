//! The §7.1 spiral configuration.
//!
//! Robots `X_A` at `A = (0,0)`, `X_C` at `C = (−1/√2, −1/√2)`, `X_B` at
//! `B = P_0 = (1, 0)`, and a discrete spiral tail `P_1, …, P_{n−3}` with unit
//! steps: the turn angle between the chord `A P_{i−1}` and the segment
//! `P_{i−1} P_i` is fixed at `ψ` (turning counterclockwise — away from `C`).
//! The tail is extended until the chord `A P_i` has rotated by `3π/8` from
//! `A P_0`, so `n` is roughly `3 + e^{3π/(8 sin ψ)}` (the paper's bound,
//! asserted in tests).

use cohesion_geometry::Vec2;
use cohesion_model::Configuration;
use serde::{Deserialize, Serialize};
use std::f64::consts::FRAC_PI_2;

/// Robot indices in a [`SpiralConstruction`] configuration.
pub mod robots {
    use cohesion_model::RobotId;
    /// The head robot `X_A` at the origin.
    pub const A: RobotId = RobotId(0);
    /// The anchor robot `X_C` at `(−1/√2, −1/√2)`.
    pub const C: RobotId = RobotId(1);
    /// The tail head `X_B = P_0` at `(1, 0)`.
    pub const B: RobotId = RobotId(2);
}

/// The assembled spiral construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpiralConstruction {
    /// Turn angle `ψ`.
    pub psi: f64,
    /// Total chord rotation achieved (target `3π/8`).
    pub total_rotation: f64,
    /// The configuration: `[A, C, B = P_0, P_1, …, P_{n−3}]`.
    pub configuration: Configuration,
    /// Chord lengths `d_i = |A P_i|` for `i = 0, …, n−3`.
    pub chord_lengths: Vec<f64>,
}

impl SpiralConstruction {
    /// Builds the spiral for turn angle `ψ`, extending until the chord has
    /// rotated by `target_rotation` (the paper uses `3π/8`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ψ < π/2` and `0 < target_rotation < π/2`.
    pub fn new(psi: f64, target_rotation: f64) -> Self {
        assert!(psi > 0.0 && psi < FRAC_PI_2, "need 0 < ψ < π/2");
        assert!(
            target_rotation > 0.0 && target_rotation < FRAC_PI_2,
            "need 0 < target rotation < π/2"
        );
        let a = Vec2::ZERO;
        let c = Vec2::new(-1.0 / 2f64.sqrt(), -1.0 / 2f64.sqrt());
        let b = Vec2::new(1.0, 0.0);
        // Steps are "unit" in the paper; we shave 1e-9 so that floating-point
        // rounding can never push a chain edge beyond the closed visibility
        // threshold V = 1 (the paper works with exact reals).
        let step = 1.0 - 1e-9;
        let mut tail = vec![b];
        let mut chord_lengths = vec![1.0];
        let mut rotation = 0.0;
        let mut prev_angle = 0.0;
        while rotation < target_rotation {
            let p = *tail.last().expect("nonempty");
            let u = (p - a).normalized(1e-12).expect("tail never at the origin");
            let next = p + u.rotate(psi) * step;
            let angle = (next - a).angle();
            rotation += angle - prev_angle;
            prev_angle = angle;
            chord_lengths.push(next.dist(a));
            tail.push(next);
        }
        let mut positions = vec![a, c];
        positions.extend(tail);
        SpiralConstruction {
            psi,
            total_rotation: rotation,
            configuration: Configuration::new(positions),
            chord_lengths,
        }
    }

    /// Builds the paper's construction (target rotation `3π/8`).
    pub fn paper(psi: f64) -> Self {
        SpiralConstruction::new(psi, 3.0 * std::f64::consts::PI / 8.0)
    }

    /// Total robot count `n`.
    pub fn robot_count(&self) -> usize {
        self.configuration.len()
    }

    /// The paper's lower bound `3 + e^{3π/(8 sin ψ)}` on the robots needed
    /// to span the `3π/8` rotation.
    pub fn paper_size_estimate(psi: f64) -> f64 {
        3.0 + (3.0 * std::f64::consts::PI / (8.0 * psi.sin())).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_model::VisibilityGraph;

    #[test]
    fn unit_steps_and_monotone_chords() {
        let s = SpiralConstruction::paper(0.3);
        let pos = s.configuration.positions();
        // Tail robots start at index 2.
        for i in 2..pos.len() - 1 {
            assert!(
                (pos[i].dist(pos[i + 1]) - 1.0).abs() < 2e-9,
                "step {i} not unit"
            );
        }
        // Paper: i(1 − ψ²/2) < d_i < i (for i ≥ 1; d_0 = 1).
        for (i, d) in s.chord_lengths.iter().enumerate().skip(1) {
            let i1 = (i + 1) as f64;
            assert!(*d < i1, "d_{i} = {d} ≥ {i1}");
            assert!(
                *d > i1 * (1.0 - 0.3f64 * 0.3 / 2.0) - 1.0,
                "d_{i} = {d} too short"
            );
        }
        // Chords strictly grow.
        for w in s.chord_lengths.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn rotation_reaches_target() {
        let s = SpiralConstruction::paper(0.3);
        assert!(s.total_rotation >= 3.0 * std::f64::consts::PI / 8.0);
        assert!(s.total_rotation < 3.0 * std::f64::consts::PI / 8.0 + 0.3);
    }

    #[test]
    fn size_tracks_paper_estimate() {
        for psi in [0.35, 0.3, 0.25] {
            let s = SpiralConstruction::paper(psi);
            let estimate = SpiralConstruction::paper_size_estimate(psi);
            let n = s.robot_count() as f64;
            assert!(
                n > 0.2 * estimate && n < 5.0 * estimate,
                "ψ={psi}: n={n} vs estimate {estimate}"
            );
        }
    }

    #[test]
    fn visibility_graph_is_the_expected_chain() {
        let s = SpiralConstruction::paper(0.3);
        let g = VisibilityGraph::from_configuration(&s.configuration, 1.0);
        assert!(g.is_connected());
        // A–C, A–B, and the tail chain: exactly n − 1 edges (a tree).
        assert_eq!(
            g.edge_count(),
            s.robot_count() - 1,
            "graph must be the chain + A–C"
        );
        assert!(g.has_edge(robots::A, robots::C));
        assert!(g.has_edge(robots::A, robots::B));
    }

    #[test]
    fn smaller_psi_needs_more_robots() {
        let big = SpiralConstruction::paper(0.35).robot_count();
        let small = SpiralConstruction::paper(0.25).robot_count();
        assert!(small > big);
    }
}
