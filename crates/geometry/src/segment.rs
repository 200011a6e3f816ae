//! Line segments: `PQ` in the paper's notation.

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// A directed line segment from `a` to `b`.
///
/// ```
/// use cohesion_geometry::{Segment, Vec2};
/// let s = Segment::new(Vec2::ZERO, Vec2::new(2.0, 0.0));
/// assert_eq!(s.point_at(0.25), Vec2::new(0.5, 0.0));
/// assert_eq!(s.dist_to_point(Vec2::new(3.0, 0.0)), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start point.
    pub a: Vec2,
    /// End point.
    pub b: Vec2,
}

impl Segment {
    /// Creates the segment from `a` to `b` (the two may coincide).
    #[inline]
    pub const fn new(a: Vec2, b: Vec2) -> Self {
        Segment { a, b }
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment (not clamped).
    #[inline]
    pub fn point_at(&self, t: f64) -> Vec2 {
        self.a.lerp(self.b, t)
    }

    /// The parameter of the point on the supporting line closest to `p`
    /// (unclamped; `0` maps to `a`, `1` to `b`). Degenerate segments return 0.
    pub fn project(&self, p: Vec2) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.norm_sq();
        if len_sq == 0.0 {
            0.0
        } else {
            (p - self.a).dot(d) / len_sq
        }
    }

    /// The point of the (closed) segment closest to `p`.
    pub fn closest_point(&self, p: Vec2) -> Vec2 {
        let t = self.project(p).clamp(0.0, 1.0);
        self.point_at(t)
    }

    /// Euclidean distance from `p` to the closed segment.
    #[inline]
    pub fn dist_to_point(&self, p: Vec2) -> f64 {
        self.closest_point(p).dist(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_point_cases() {
        let s = Segment::new(Vec2::ZERO, Vec2::new(2.0, 0.0));
        // Interior projection.
        assert_eq!(s.closest_point(Vec2::new(1.0, 1.0)), Vec2::new(1.0, 0.0));
        // Clamped to endpoints.
        assert_eq!(s.closest_point(Vec2::new(-1.0, 1.0)), Vec2::ZERO);
        assert_eq!(s.closest_point(Vec2::new(5.0, -2.0)), Vec2::new(2.0, 0.0));
    }

    #[test]
    fn distance_to_point() {
        let s = Segment::new(Vec2::ZERO, Vec2::new(2.0, 0.0));
        assert_eq!(s.dist_to_point(Vec2::new(1.0, 3.0)), 3.0);
        assert_eq!(s.dist_to_point(Vec2::new(4.0, 0.0)), 2.0);
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0));
        assert_eq!(s.closest_point(Vec2::ZERO), Vec2::new(1.0, 1.0));
        assert_eq!(s.project(Vec2::ZERO), 0.0);
    }
}
