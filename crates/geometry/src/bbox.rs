//! Axis-aligned bounding boxes — the *minbox* of the GCM baseline
//! (Cord-Landwehr et al., “Go to the Centre of the Minbox”, §1.2.2 of the
//! paper).

use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box in the plane (the paper's *minbox* when built
/// from a configuration of robot positions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Componentwise minimum corner.
    pub min: Vec2,
    /// Componentwise maximum corner.
    pub max: Vec2,
}

impl Aabb {
    /// The minimal box containing all points; `None` on empty input.
    ///
    /// ```
    /// use cohesion_geometry::{Aabb, Vec2};
    /// let b = Aabb::from_points(&[Vec2::ZERO, Vec2::new(2.0, -1.0)]).unwrap();
    /// assert_eq!(b.center(), Vec2::new(1.0, -0.5));
    /// ```
    pub fn from_points(points: &[Vec2]) -> Option<Aabb> {
        let first = *points.first()?;
        let mut min = first;
        let mut max = first;
        for &p in &points[1..] {
            min = min.min(p);
            max = max.max(p);
        }
        Some(Aabb { min, max })
    }

    /// Centre of the box — the GCM target point.
    #[inline]
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    /// Width and height as a vector.
    #[inline]
    pub fn extent(&self) -> Vec2 {
        self.max - self.min
    }

    /// Length of the box diagonal (a diameter proxy used by convergence-rate
    /// experiments).
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.extent().norm()
    }

    /// Returns `true` when `p` lies in the closed box, with slack `eps`.
    pub fn contains(&self, p: Vec2, eps: f64) -> bool {
        p.x >= self.min.x - eps
            && p.x <= self.max.x + eps
            && p.y >= self.min.y - eps
            && p.y <= self.max.y + eps
    }

    /// The smallest box containing both `self` and `other`.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_and_center() {
        assert!(Aabb::from_points(&[]).is_none());
        let b = Aabb::from_points(&[
            Vec2::new(1.0, 5.0),
            Vec2::new(-2.0, 3.0),
            Vec2::new(0.0, 7.0),
        ])
        .unwrap();
        assert_eq!(b.min, Vec2::new(-2.0, 3.0));
        assert_eq!(b.max, Vec2::new(1.0, 7.0));
        assert_eq!(b.center(), Vec2::new(-0.5, 5.0));
        assert_eq!(b.extent(), Vec2::new(3.0, 4.0));
        assert_eq!(b.diagonal(), 5.0);
    }

    #[test]
    fn containment_and_union() {
        let a = Aabb::from_points(&[Vec2::ZERO, Vec2::new(1.0, 1.0)]).unwrap();
        let c = Aabb::from_points(&[Vec2::new(2.0, -1.0)]).unwrap();
        let u = a.union(&c);
        assert_eq!(u.min, Vec2::new(0.0, -1.0));
        assert_eq!(u.max, Vec2::new(2.0, 1.0));
        assert!(a.contains(Vec2::new(0.5, 0.5), 0.0));
        assert!(!a.contains(Vec2::new(1.5, 0.5), 0.0));
    }
}
