//! The reach regions `R^r_{Y0}(X0, X1)` of §3.2.1 (Figure 5): a superset of
//! every point robot `Y` can reach by up to `k` successive `1/k`-scaled safe
//! moves while its distant neighbour `X` travels from `X0` to `X1`
//! (Lemmas 1–2).
//!
//! The region is the union of a *core* — the sweep of safe regions
//! `S^r_{Y0}(X*)` over all `X* ∈ X0X1` — and a *bulge* capturing the extra
//! slack when moves chase a moving neighbour.

use cohesion_geometry::Vec2;
use serde::{Deserialize, Serialize};

/// [`ReachRegion::core_contains`] samples the neighbour trajectory `X0X1` at
/// `CORE_SAMPLES + 1` evenly spaced points.
const CORE_SAMPLES: usize = 128;

/// The region `R^r_{Y0}(X0, X1)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReachRegion {
    /// Start position `Y0` of the moving robot.
    pub origin: Vec2,
    /// Neighbour's start position `X0`.
    pub x0: Vec2,
    /// Neighbour's end position `X1`.
    pub x1: Vec2,
    /// Region radius `r` (the paper uses `j·V_Y/(8k)` after `j` moves).
    pub radius: f64,
}

impl ReachRegion {
    /// Creates the region.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not positive and finite or the origin coincides
    /// with an endpoint of the neighbour's trajectory (no direction).
    pub fn new(origin: Vec2, x0: Vec2, x1: Vec2, radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "invalid reach radius {radius}"
        );
        assert!(
            origin.dist(x0) > 1e-12 && origin.dist(x1) > 1e-12,
            "Y0 must not coincide with the neighbour trajectory endpoints"
        );
        ReachRegion {
            origin,
            x0,
            x1,
            radius,
        }
    }

    /// Centre of the safe region seen when the neighbour is at `x_star`.
    fn core_center(&self, x_star: Vec2) -> Option<Vec2> {
        (x_star - self.origin)
            .normalized(1e-12)
            .map(|u| self.origin + u * self.radius)
    }

    /// `|p − c|` for the safe-disk centre `c` seen when the neighbour is at
    /// `X0 + t·(X1 − X0)` (infinite when that point is `Y0`).
    fn core_distance(&self, p: Vec2, t: f64) -> f64 {
        self.core_center(self.x0.lerp(self.x1, t))
            .map_or(f64::INFINITY, |c| c.dist(p))
    }

    /// [`Self::core_distance`] at its local ternary-refined minimum within
    /// one sample step of `best_t`.
    fn refined_core_distance(&self, p: Vec2, best_t: f64) -> f64 {
        let mut lo = (best_t - 1.0 / CORE_SAMPLES as f64).max(0.0);
        let mut hi = (best_t + 1.0 / CORE_SAMPLES as f64).min(1.0);
        for _ in 0..60 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if self.core_distance(p, m1) <= self.core_distance(p, m2) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        self.core_distance(p, 0.5 * (lo + hi))
    }

    /// Membership in the core: some `X* ∈ X0X1` has `p ∈ S^r_{Y0}(X*)`.
    ///
    /// Evaluated by dense sampling plus local ternary refinement of the
    /// smooth distance function `t ↦ |p − c(t)|` (documented numeric
    /// substitution; the experiments use slack well above the refinement
    /// error). The first sample within `radius + eps` decides membership;
    /// the refinement runs, around the closest sample, only when none does.
    /// Either way the verdict is `min(samples, refined) ≤ radius + eps`.
    pub fn core_contains(&self, p: Vec2, eps: f64) -> bool {
        let bound = self.radius + eps;
        let mut best_t = 0.0;
        let mut best = f64::INFINITY;
        for i in 0..=CORE_SAMPLES {
            let t = i as f64 / CORE_SAMPLES as f64;
            let d = self.core_distance(p, t);
            if d <= bound {
                return true;
            }
            if d < best {
                best = d;
                best_t = t;
            }
        }
        self.refined_core_distance(p, best_t) <= bound
    }

    /// The extremal boundary point `Y0⁺`: on the disk `S^r_{Y0}(X0)`, at
    /// maximum distance from `X1` (Figure 5).
    pub fn y0_plus(&self) -> Vec2 {
        let c = self.core_center(self.x0).expect("origin differs from X0");
        match (c - self.x1).normalized(1e-12) {
            Some(u) => c + u * self.radius,
            None => c + (c - self.origin).normalized(1e-12).expect("nonzero") * self.radius,
        }
    }

    /// The extremal boundary point `Y0⁻`: on the disk `S^r_{Y0}(X1)`, at
    /// maximum distance from `X0`.
    pub fn y0_minus(&self) -> Vec2 {
        let c = self.core_center(self.x1).expect("origin differs from X1");
        match (c - self.x0).normalized(1e-12) {
            Some(u) => c + u * self.radius,
            None => c + (c - self.origin).normalized(1e-12).expect("nonzero") * self.radius,
        }
    }

    /// Membership in the bulge (§3.2.1, clauses (ii)(a) and (ii)(b)).
    pub fn bulge_contains(&self, p: Vec2, eps: f64) -> bool {
        // The corner construction below is meaningful only for *distant*
        // neighbours (`|X· − Y0| > r`, the only case the paper invokes
        // reach regions for). When a trajectory endpoint sits within the
        // region radius, the safe-disk centre lies beyond the neighbour and
        // the "far corner" Y0± flips to the outside of the disk,
        // manufacturing a spurious bulge — violating Observation 1(i)
        // (R = S) in the stationary limit. Such endpoints contribute no
        // chasing slack, so the bulge is empty.
        if self.origin.dist(self.x0) <= self.radius || self.origin.dist(self.x1) <= self.radius {
            return false;
        }
        let yp = self.y0_plus();
        let ym = self.y0_minus();
        let a = p.dist(self.x1) <= self.x1.dist(yp) + eps
            && p.dist(self.origin) <= self.origin.dist(yp) + eps;
        let b = p.dist(self.x0) <= self.x0.dist(ym) + eps
            && p.dist(self.origin) <= self.origin.dist(ym) + eps;
        a && b
    }

    /// Membership in `R^r_{Y0}(X0, X1)` = core ∪ bulge.
    pub fn contains(&self, p: Vec2, eps: f64) -> bool {
        self.core_contains(p, eps) || self.bulge_contains(p, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Membership as decided before the early exit: every sample is scanned,
    /// then the closest is refined, and the verdict is the minimum of both.
    fn reference_core_contains(region: &ReachRegion, p: Vec2, eps: f64) -> bool {
        let mut best_t = 0.0;
        let mut best = f64::INFINITY;
        for i in 0..=CORE_SAMPLES {
            let t = i as f64 / CORE_SAMPLES as f64;
            let d = region.core_distance(p, t);
            if d < best {
                best = d;
                best_t = t;
            }
        }
        best.min(region.refined_core_distance(p, best_t)) <= region.radius + eps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The early exit never changes a verdict. Probes: random points
        /// around the region, points `radius + 1.5·eps` from a sample's
        /// safe-disk centre (radially outward, where no other centre is
        /// closer, or in a random direction), and far points; stationary
        /// neighbours (`X0 == X1`, the `lemma1` shape) included.
        #[test]
        fn early_exit_keeps_the_reference_verdict(
            origin in (-2.0..2.0f64, -2.0..2.0f64),
            x0 in (0.0..std::f64::consts::TAU, 0.05..3.0f64),
            x1 in (0u8..3, 0.0..std::f64::consts::TAU, 0.05..3.0f64),
            radius in 0.01..1.0f64,
            probe in (0u8..4, 0usize..=CORE_SAMPLES, 0.0..std::f64::consts::TAU, 0.0..2.5f64),
            eps in (0usize..2).prop_map(|i| [0.0, 1e-7][i]),
        ) {
            let origin = Vec2::new(origin.0, origin.1);
            let x0 = origin + Vec2::from_angle(x0.0) * x0.1;
            let x1 = if x1.0 == 0 { x0 } else { origin + Vec2::from_angle(x1.1) * x1.2 };
            let region = ReachRegion::new(origin, x0, x1, radius);
            let (kind, sample, angle, scale) = probe;
            let t = sample as f64 / CORE_SAMPLES as f64;
            let centre = region
                .core_center(x0.lerp(x1, t))
                .expect("origin is off the trajectory");
            let p = match kind {
                0 => origin + Vec2::from_angle(angle) * (scale * radius),
                1 => origin + (centre - origin) * ((2.0 * radius + 1.5 * eps) / radius),
                2 => centre + Vec2::from_angle(angle) * (radius + 1.5 * eps),
                _ => origin + Vec2::from_angle(angle) * (10.0 + scale),
            };
            let expected = reference_core_contains(&region, p, eps);
            prop_assert_eq!(region.core_contains(p, eps), expected, "core at {}", p);
            prop_assert_eq!(
                region.contains(p, eps),
                expected || region.bulge_contains(p, eps),
                "region at {}",
                p
            );
        }
    }

    #[test]
    fn stationary_neighbor_reduces_to_safe_region() {
        // Observation 1(i): R^r(X0, X0) = S^r(X0).
        let r = ReachRegion::new(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(1.0, 0.0), 0.125);
        let center = Vec2::new(0.125, 0.0);
        // Points of S^r are in the region …
        assert!(r.contains(center, 1e-9));
        assert!(r.contains(Vec2::new(0.25, 0.0), 1e-9));
        assert!(r.contains(Vec2::new(0.125, 0.125), 1e-9));
        // … and safe-region outsiders on the far side are not.
        assert!(!r.contains(Vec2::new(-0.05, 0.0), 1e-9));
        assert!(!r.contains(Vec2::new(0.0, 0.3), 1e-9));
    }

    #[test]
    fn core_sweeps_the_neighbor_trajectory() {
        let r = ReachRegion::new(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0), 0.125);
        // Safe-region centres for directions +x, +y, and the 45° midpoint
        // are all in the core.
        assert!(r.core_contains(Vec2::new(0.125, 0.0), 1e-9));
        assert!(r.core_contains(Vec2::new(0.0, 0.125), 1e-9));
        let diag = Vec2::from_angle(std::f64::consts::FRAC_PI_4) * 0.125;
        assert!(r.core_contains(diag, 1e-9));
        // A point behind the origin is not.
        assert!(!r.core_contains(Vec2::new(-0.1, -0.1), 1e-9));
    }

    #[test]
    fn bulge_extends_beyond_core() {
        // With a long neighbour trajectory the bulge strictly contains
        // points outside every individual safe region (Figure 5).
        let region = ReachRegion::new(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(1.0, 0.8), 0.25);
        let yp = region.y0_plus();
        assert!(region.bulge_contains(yp, 1e-9), "Y0+ is a bulge corner");
        assert!(region.contains(yp, 1e-9));
    }

    #[test]
    fn origin_is_always_reachable() {
        let region = ReachRegion::new(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(0.5, 0.9), 0.2);
        assert!(
            region.contains(Vec2::ZERO, 1e-9),
            "the nil move stays at Y0"
        );
    }

    #[test]
    #[should_panic]
    fn zero_radius_rejected() {
        let _ = ReachRegion::new(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(1.0, 0.0), 0.0);
    }
}
