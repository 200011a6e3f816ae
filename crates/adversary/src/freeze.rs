//! The §7.2.1 forced-motion argument, executable form.
//!
//! The paper shows that an error-tolerant algorithm cannot refuse to move a
//! robot that perceives its two neighbours at (what might be) a special
//! angle: otherwise a regular polygon with unit sides — where every robot
//! perceives exactly that situation — would freeze forever and the algorithm
//! would fail to converge. This module provides the *frozen* straw-man
//! algorithm, and its tests the polygon witness, demonstrating both horns
//! of the dilemma: move (and be defeated by the sliver adversary) or freeze
//! (and be defeated by the polygon).

use cohesion_geometry::{predicates::angle_at, Vec2};
use cohesion_model::{Algorithm, Snapshot};
use serde::{Deserialize, Serialize};

/// A wrapper that suppresses any motion when the robot's two nearest
/// perceived neighbours subtend an angle within `tolerance` of straight —
/// the behaviour an algorithm would need in order to “play safe” under
/// angular perception error, and exactly what the paper proves fatal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrozenNearCollinear<A> {
    inner: A,
    /// Angular tolerance (radians): perceived angle `≥ π − tolerance` at the
    /// robot freezes it.
    pub tolerance: f64,
    name: String,
}

impl<A> FrozenNearCollinear<A> {
    /// Wraps `inner`, freezing under near-collinear perceptions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tolerance < π`.
    pub fn new(inner: A, tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0 && tolerance < std::f64::consts::PI,
            "tolerance must be in (0, π)"
        );
        FrozenNearCollinear {
            inner,
            tolerance,
            name: format!("frozen(tol={tolerance})"),
        }
    }
}

impl<A: Algorithm<Vec2>> Algorithm<Vec2> for FrozenNearCollinear<A> {
    fn compute(&self, snapshot: &Snapshot<Vec2>) -> Vec2 {
        let mut pts: Vec<Vec2> = snapshot.positions().collect();
        if pts.len() >= 2 {
            pts.sort_by(|a, b| a.norm().partial_cmp(&b.norm()).expect("finite"));
            let angle = angle_at(Vec2::ZERO, pts[0], pts[1]);
            if angle >= std::f64::consts::PI - self.tolerance {
                return Vec2::ZERO;
            }
        }
        self.inner.compute(snapshot)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_core::KirkpatrickAlgorithm;
    use cohesion_engine::SimulationBuilder;
    use cohesion_scheduler::FSyncScheduler;

    #[test]
    fn frozen_algorithm_freezes_on_the_polygon() {
        let tol = 0.3;
        // The smallest regular polygon whose interior angle π(1 − 2/m)
        // reaches π − tol: every robot perceives its neighbours at an angle
        // the frozen algorithm refuses to move at.
        let m = (std::f64::consts::TAU / tol).ceil() as usize;
        let config = cohesion_workloads_ring(m);
        let frozen = FrozenNearCollinear::new(KirkpatrickAlgorithm::new(1), tol);
        let report = SimulationBuilder::new(config.clone(), frozen)
            .visibility(1.0)
            .scheduler(FSyncScheduler::new())
            .max_events(2_000)
            .run();
        assert!(!report.converged, "the polygon must freeze the algorithm");
        assert_eq!(
            report.final_configuration, config,
            "no robot may have moved at all"
        );
        // The unwrapped algorithm does converge on the same polygon.
        let report = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(1))
            .visibility(1.0)
            .scheduler(FSyncScheduler::new())
            .epsilon(0.05)
            .max_events(100_000)
            .run();
        assert!(
            report.converged,
            "diameter left at {}",
            report.final_diameter
        );
    }

    /// Local copy of the ring workload (avoids a dev-dependency cycle). The
    /// side length is shaved by 1e-9 so floating-point rounding can never
    /// push an edge beyond the closed visibility threshold.
    fn cohesion_workloads_ring(m: usize) -> cohesion_model::Configuration {
        let side = 1.0 - 1e-9;
        let r = side / (2.0 * (std::f64::consts::PI / m as f64).sin());
        cohesion_model::Configuration::new(
            (0..m)
                .map(|i| Vec2::from_angle(i as f64 / m as f64 * std::f64::consts::TAU) * r)
                .collect(),
        )
    }
}
