//! The “Go to the Centre of the Minbox” algorithm of Cord-Landwehr et al.
//! (§1.2.2 of the paper; original: ICALP 2011).
//!
//! Each robot moves toward the centre of the minimal axis-aligned box
//! containing the robots it sees. With shared axis orientation the algorithm
//! halves the convex-hull diameter in asymptotically optimal `Θ(n)` rounds
//! (constant rounds when the axes are globally agreed). Because it *needs*
//! the axis agreement, simulations must run it with
//! [`FrameMode::Aligned`](cohesion_model::FrameMode::Aligned) — a random
//! rotation per activation destroys its invariant (and the engine lets you
//! demonstrate exactly that).

use cohesion_geometry::{Aabb, Vec2};
use cohesion_model::{Algorithm, Snapshot};
use serde::{Deserialize, Serialize};

/// The GCM (centre-of-minbox) baseline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GcmAlgorithm {
    /// Fraction of the way toward the minbox centre to move.
    pub step_fraction: f64,
}

impl GcmAlgorithm {
    /// The classic full-step algorithm.
    pub fn new() -> Self {
        GcmAlgorithm { step_fraction: 1.0 }
    }
}

impl Algorithm<Vec2> for GcmAlgorithm {
    fn compute(&self, snapshot: &Snapshot<Vec2>) -> Vec2 {
        if snapshot.is_empty() {
            return Vec2::ZERO;
        }
        let mut pts: Vec<Vec2> = snapshot.positions().collect();
        pts.push(Vec2::ZERO); // the observer itself
        let bbox = Aabb::from_points(&pts).expect("nonempty");
        bbox.center() * self.step_fraction
    }

    fn name(&self) -> &str {
        "gcm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_to_minbox_center() {
        let alg = GcmAlgorithm::new();
        let snap = Snapshot::from_positions(vec![Vec2::new(2.0, 0.0), Vec2::new(0.0, 4.0)]);
        let t = alg.compute(&snap);
        assert!((t - Vec2::new(1.0, 2.0)).norm() < 1e-12);
    }

    #[test]
    fn observer_extends_the_box() {
        // A single neighbour at (2, 2): box spans (0,0)–(2,2).
        let alg = GcmAlgorithm::new();
        let snap = Snapshot::from_positions(vec![Vec2::new(2.0, 2.0)]);
        assert!((alg.compute(&snap) - Vec2::new(1.0, 1.0)).norm() < 1e-12);
    }

    #[test]
    fn empty_stays() {
        assert_eq!(
            GcmAlgorithm::new().compute(&Snapshot::from_positions(vec![])),
            Vec2::ZERO
        );
    }
}
