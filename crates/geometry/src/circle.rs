//! Circles and closed disks, with the ray-exit and intersection queries used
//! by safe-region constrained motion.

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// A circle (boundary) or, depending on the query, the closed disk it bounds.
///
/// The paper's safe regions (`S^r_{Y0}(X0)` of §3.2.1, Ando's `V/2` disks,
/// Katreniak's two-disk unions) are all closed disks; this type provides the
/// containment, intersection, and “how far can I move along this ray and stay
/// inside” queries they need.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Vec2,
    /// Radius (non-negative; a zero radius is a point).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle from centre and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or non-finite.
    pub fn new(center: Vec2, radius: f64) -> Self {
        assert!(
            radius >= 0.0 && radius.is_finite(),
            "invalid circle radius {radius}"
        );
        Circle { center, radius }
    }

    /// Returns `true` when `p` lies in the closed disk, with slack `eps`.
    #[inline]
    pub fn contains(&self, p: Vec2, eps: f64) -> bool {
        self.center.dist(p) <= self.radius + eps
    }

    /// The largest `t ≥ 0` such that `origin + t·dir` lies in the closed disk,
    /// or `None` when the ray misses the disk entirely (`dir` need not be
    /// normalized; the result is in units of `|dir|`).
    ///
    /// This is the “move as far as possible toward the goal while remaining
    /// inside the safe region” primitive of Ando's and Katreniak's algorithms.
    ///
    /// ```
    /// use cohesion_geometry::{Circle, Vec2};
    /// let c = Circle::new(Vec2::new(2.0, 0.0), 1.0);
    /// let t = c.ray_exit(Vec2::ZERO, Vec2::new(1.0, 0.0)).unwrap();
    /// assert!((t - 3.0).abs() < 1e-12);
    /// assert!(c.ray_exit(Vec2::ZERO, Vec2::new(0.0, 1.0)).is_none());
    /// ```
    pub fn ray_exit(&self, origin: Vec2, dir: Vec2) -> Option<f64> {
        let d = dir.norm_sq();
        if d == 0.0 {
            return if self.contains(origin, 0.0) {
                Some(0.0)
            } else {
                None
            };
        }
        // Solve |origin + t dir − c|² = r².
        let oc = origin - self.center;
        let b = oc.dot(dir);
        let c = oc.norm_sq() - self.radius * self.radius;
        let disc = b * b - d * c;
        if disc < 0.0 {
            return None;
        }
        let sq = disc.sqrt();
        let t_hi = (-b + sq) / d;
        if t_hi < 0.0 {
            None
        } else {
            Some(t_hi)
        }
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Area of the intersection (lens) of two closed disks.
    ///
    /// Used by the Figure 3 safe-region comparison experiment.
    pub fn lens_area(&self, other: &Circle) -> f64 {
        let d = self.center.dist(other.center);
        let (r, s) = (self.radius, other.radius);
        if d >= r + s {
            return 0.0;
        }
        if d <= (r - s).abs() {
            // Smaller disk entirely inside the larger.
            let m = r.min(s);
            return std::f64::consts::PI * m * m;
        }
        let alpha = ((d * d + r * r - s * s) / (2.0 * d * r))
            .clamp(-1.0, 1.0)
            .acos();
        let beta = ((d * d + s * s - r * r) / (2.0 * d * s))
            .clamp(-1.0, 1.0)
            .acos();
        r * r * (alpha - alpha.sin() * alpha.cos()) + s * s * (beta - beta.sin() * beta.cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn containment() {
        let c = Circle::new(Vec2::ZERO, 1.0);
        assert!(c.contains(Vec2::new(1.0, 0.0), 0.0));
        assert!(c.contains(Vec2::new(0.5, 0.5), 0.0));
        assert!(!c.contains(Vec2::new(1.1, 0.0), 1e-9));
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        let _ = Circle::new(Vec2::ZERO, -1.0);
    }

    #[test]
    fn ray_exit_from_inside() {
        let c = Circle::new(Vec2::ZERO, 2.0);
        let t = c
            .ray_exit(Vec2::new(1.0, 0.0), Vec2::new(1.0, 0.0))
            .unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ray_exit_behind() {
        let c = Circle::new(Vec2::new(-5.0, 0.0), 1.0);
        assert!(c.ray_exit(Vec2::ZERO, Vec2::new(1.0, 0.0)).is_none());
    }

    #[test]
    fn ray_exit_unnormalized_dir() {
        let c = Circle::new(Vec2::new(2.0, 0.0), 1.0);
        let t = c.ray_exit(Vec2::ZERO, Vec2::new(2.0, 0.0)).unwrap();
        assert!((t - 1.5).abs() < 1e-12, "t in units of |dir| = 2");
    }

    #[test]
    fn lens_area_limits() {
        let a = Circle::new(Vec2::ZERO, 1.0);
        // Coincident-extent overlap: full area of the smaller disk.
        let inside = Circle::new(Vec2::new(0.1, 0.0), 0.2);
        assert!((a.lens_area(&inside) - inside.area()).abs() < 1e-12);
        // Disjoint: zero.
        assert_eq!(a.lens_area(&Circle::new(Vec2::new(3.0, 0.0), 1.0)), 0.0);
        // Symmetric half-overlap is positive and less than either area.
        let b = Circle::new(Vec2::new(1.0, 0.0), 1.0);
        let l = a.lens_area(&b);
        assert!(l > 0.0 && l < a.area());
        // Known value: two unit circles at distance 1: 2π/3 − √3/2.
        let expect = 2.0 * PI / 3.0 - 3f64.sqrt() / 2.0;
        assert!((l - expect).abs() < 1e-12);
    }
}
