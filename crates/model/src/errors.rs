//! Adversarial imperfection models (paper §2.3.2–§2.3.3, §6.1, Figure 18).
//!
//! Three independent knobs, all under scheduler/adversary control:
//!
//! * **Perception** — each perceived distance may be off by a relative factor
//!   within `±δ`, and the local coordinate system may carry a symmetric
//!   angular distortion with skew at most `λ`;
//! * **Rigidity** — a Move may be cut short, but covers at least a fraction
//!   `ξ ∈ (0, 1]` of the planned trajectory;
//! * **Motion error** — the realized endpoint may deviate from the planned
//!   straight trajectory, by an amount growing linearly (`c·d`) or
//!   quadratically (`c·d²/V`) in the distance travelled `d`. The paper shows
//!   linear relative error defeats every algorithm (Figure 18) while its
//!   algorithm tolerates quadratic error.

use crate::frame::Distortion;
use cohesion_geometry::point::Point;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Perception-error bounds for Look phases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerceptionModel {
    /// Relative distance-measurement error bound `δ ≥ 0`: a robot at true
    /// distance `d` is perceived at some distance in `[(1−δ)d, (1+δ)d]`.
    pub distance_error: f64,
    /// Skew bound `λ ∈ [0, 1)` of the symmetric coordinate distortion.
    pub skew: f64,
}

impl PerceptionModel {
    /// Error-free perception.
    pub const EXACT: PerceptionModel = PerceptionModel {
        distance_error: 0.0,
        skew: 0.0,
    };

    /// Creates a perception model.
    ///
    /// # Panics
    ///
    /// Panics unless `δ ≥ 0` and `0 ≤ λ < 1`.
    pub fn new(distance_error: f64, skew: f64) -> Self {
        assert!(distance_error >= 0.0, "distance error must be non-negative");
        assert!((0.0..1.0).contains(&skew), "skew must be in [0, 1)");
        PerceptionModel {
            distance_error,
            skew,
        }
    }

    /// Samples a per-activation distortion within the skew bound.
    pub fn sample_distortion(&self, rng: &mut SmallRng) -> Distortion {
        if self.skew == 0.0 {
            Distortion::IDENTITY
        } else {
            Distortion::sample(self.skew, rng)
        }
    }

    /// Samples a per-observation distance factor in `[1−δ, 1+δ]`.
    pub fn sample_distance_factor(&self, rng: &mut SmallRng) -> f64 {
        if self.distance_error == 0.0 {
            1.0
        } else {
            rng.gen_range((1.0 - self.distance_error)..=(1.0 + self.distance_error))
        }
    }
}

impl Default for PerceptionModel {
    fn default() -> Self {
        PerceptionModel::EXACT
    }
}

/// The trajectory-deviation component of the motion model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum MotionError {
    /// Motion follows the planned straight trajectory exactly.
    #[default]
    None,
    /// Deviation up to `c·d` for a move of length `d` — the error regime the
    /// paper proves fatal for *every* convergence algorithm (Figure 18).
    Linear {
        /// Relative deviation coefficient `c ≥ 0`.
        coefficient: f64,
    },
    /// Deviation up to `c·d²/V` — tolerated by the paper's algorithm (§6.1).
    Quadratic {
        /// Deviation coefficient `c ≥ 0` (scaled by `d²/V`).
        coefficient: f64,
    },
}

impl MotionError {
    /// Maximum endpoint deviation for a move of length `d` with visibility
    /// radius `visibility`.
    pub fn max_deviation(&self, d: f64, visibility: f64) -> f64 {
        match *self {
            MotionError::None => 0.0,
            MotionError::Linear { coefficient } => coefficient * d,
            MotionError::Quadratic { coefficient } => coefficient * d * d / visibility,
        }
    }
}

/// Motion imperfection bounds for Move phases.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MotionModel {
    /// Rigidity `ξ ∈ (0, 1]`: a robot covers at least fraction `ξ` of its
    /// planned trajectory before the adversary may stop it (§2.3.2).
    pub rigidity: f64,
    /// Trajectory deviation regime.
    pub error: MotionError,
}

impl MotionModel {
    /// Rigid, error-free motion (`ξ = 1`).
    pub const RIGID: MotionModel = MotionModel {
        rigidity: 1.0,
        error: MotionError::None,
    };

    /// Creates a motion model.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ξ ≤ 1` and the error coefficient is non-negative.
    pub fn new(rigidity: f64, error: MotionError) -> Self {
        assert!(
            rigidity > 0.0 && rigidity <= 1.0,
            "rigidity must be in (0, 1]"
        );
        match error {
            MotionError::Linear { coefficient } | MotionError::Quadratic { coefficient } => {
                assert!(coefficient >= 0.0, "error coefficient must be non-negative");
            }
            MotionError::None => {}
        }
        MotionModel { rigidity, error }
    }

    /// Non-rigid error-free motion with the given `ξ`.
    pub fn with_rigidity(rigidity: f64) -> Self {
        MotionModel::new(rigidity, MotionError::None)
    }

    /// Resolves a planned move into the realized endpoint.
    ///
    /// `from` is the position at Move start, `target` the planned
    /// destination; the adversary (driven by `rng`) picks the realized
    /// fraction in `[ξ, 1]` and a deviation within the error bound.
    /// `visibility` scales quadratic error.
    pub fn resolve<P: Point>(&self, from: P, target: P, visibility: f64, rng: &mut SmallRng) -> P {
        let planned = target - from;
        let d_planned = planned.norm();
        if d_planned == 0.0 {
            return from;
        }
        let fraction = if self.rigidity >= 1.0 {
            1.0
        } else {
            rng.gen_range(self.rigidity..=1.0)
        };
        let straight = from + planned * fraction;
        let d = d_planned * fraction;
        let bound = self.error.max_deviation(d, visibility);
        if bound == 0.0 {
            return straight;
        }
        // Deviate by a uniformly random offset of norm ≤ bound, restricted to
        // the hyperplane footprint spanned by coordinates — sampled by
        // rejection in the ambient space.
        let dev = sample_in_ball::<P>(bound, rng);
        straight + dev
    }
}

impl Default for MotionModel {
    fn default() -> Self {
        MotionModel::RIGID
    }
}

/// Uniform sample from the closed ball of radius `r` (rejection sampling
/// over the coordinate cube; adequate for adversarial noise injection).
fn sample_in_ball<P: Point>(r: f64, rng: &mut SmallRng) -> P {
    if r == 0.0 {
        return P::zero();
    }
    loop {
        let coords: Vec<f64> = (0..P::DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let norm_sq: f64 = coords.iter().map(|c| c * c).sum();
        if norm_sq > 1.0 || norm_sq == 0.0 {
            continue;
        }
        return P::from_coords(&coords) * r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_geometry::Vec2;
    use rand::SeedableRng;

    #[test]
    fn perception_factors_within_bounds() {
        let m = PerceptionModel::new(0.1, 0.2);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let f = m.sample_distance_factor(&mut rng);
            assert!((0.9..=1.1).contains(&f));
            let d = m.sample_distortion(&mut rng);
            assert!(d.skew() <= 0.2 + 1e-12);
        }
    }

    #[test]
    fn rigid_motion_reaches_target() {
        let mut rng = SmallRng::seed_from_u64(4);
        let from = Vec2::ZERO;
        let target = Vec2::new(1.0, 2.0);
        let got = MotionModel::RIGID.resolve(from, target, 1.0, &mut rng);
        assert_eq!(got, target);
    }

    #[test]
    fn xi_rigid_motion_covers_fraction() {
        let mut rng = SmallRng::seed_from_u64(5);
        let m = MotionModel::with_rigidity(0.25);
        let from = Vec2::ZERO;
        let target = Vec2::new(4.0, 0.0);
        for _ in 0..100 {
            let got = m.resolve(from, target, 1.0, &mut rng);
            assert!(got.x >= 1.0 - 1e-12 && got.x <= 4.0 + 1e-12);
            assert_eq!(got.y, 0.0);
        }
    }

    #[test]
    fn nil_move_stays() {
        let mut rng = SmallRng::seed_from_u64(6);
        let m = MotionModel::with_rigidity(0.5);
        let p = Vec2::new(1.0, 1.0);
        assert_eq!(m.resolve(p, p, 1.0, &mut rng), p);
    }

    #[test]
    fn linear_error_bounded() {
        let mut rng = SmallRng::seed_from_u64(7);
        let m = MotionModel::new(1.0, MotionError::Linear { coefficient: 0.1 });
        let from = Vec2::ZERO;
        let target = Vec2::new(2.0, 0.0);
        for _ in 0..200 {
            let got = m.resolve(from, target, 1.0, &mut rng);
            assert!(got.dist(target) <= 0.2 + 1e-12);
        }
    }

    #[test]
    fn quadratic_error_scales_with_v() {
        assert_eq!(
            MotionError::Quadratic { coefficient: 1.0 }.max_deviation(0.5, 2.0),
            0.125
        );
        assert_eq!(
            MotionError::Linear { coefficient: 2.0 }.max_deviation(0.5, 2.0),
            1.0
        );
        assert_eq!(MotionError::None.max_deviation(0.5, 2.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_rigidity_rejected() {
        let _ = MotionModel::with_rigidity(0.0);
    }
}
