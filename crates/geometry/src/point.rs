//! The [`Point`] abstraction: a minimal vector-space interface letting the
//! convergence algorithms and the simulation engine be written once for the
//! plane and for three-dimensional space (paper §6.3.2).

use crate::ball::Ball;
use crate::vec2::Vec2;
use crate::vec3::Vec3;
use serde::{de::DeserializeOwned, Serialize};
use std::fmt::{Debug, Display};
use std::ops::{Add, Mul, Neg, Sub};

/// A point of a `DIM`-dimensional Euclidean space.
///
/// The trait is sealed in spirit (only [`Vec2`] and [`Vec3`] implement it in
/// this workspace) but deliberately left open so downstream users can plug in
/// higher-dimensional points: the paper's algorithm generalizes to any
/// dimension once `circumball` is provided.
pub trait Point:
    Copy
    + Debug
    + Display
    + PartialEq
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Neg<Output = Self>
    + Mul<f64, Output = Self>
    + Serialize
    + DeserializeOwned
    + Send
    + Sync
    + 'static
{
    /// Dimension of the ambient space.
    const DIM: usize;

    /// The origin.
    fn zero() -> Self;

    /// Dot product.
    fn dot(self, other: Self) -> f64;

    /// Euclidean norm.
    fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean distance to another point.
    fn dist(self, other: Self) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to another point.
    fn dist_sq(self, other: Self) -> f64 {
        (self - other).norm_sq()
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    fn lerp(self, other: Self, t: f64) -> Self {
        self + (other - self) * t
    }

    /// Unit vector in this direction, or `None` for (near-)zero vectors.
    fn normalized(self, eps: f64) -> Option<Self> {
        let n = self.norm();
        if n <= eps {
            None
        } else {
            Some(self * (1.0 / n))
        }
    }

    /// Returns `true` when all coordinates are finite.
    fn is_finite(self) -> bool;

    /// The smallest ball passing through all of `boundary`
    /// (`boundary.len() ≤ DIM + 1`); `None` when the points are so degenerate
    /// no finite ball fits (never happens for ≤ 2 points).
    ///
    /// This is the dimension-specific kernel of the generic Welzl algorithm
    /// in [`crate::ball`]: 2D needs circumcircles of up to 3 points, 3D
    /// circumspheres of up to 4.
    fn circumball(boundary: &[Self]) -> Option<Ball<Self>>;

    /// Coordinates as a slice-backed vector (for reporting / serialization of
    /// experiment rows).
    fn coords(self) -> Vec<f64>;

    /// One coordinate by axis index, without allocating (the hot-path
    /// counterpart of [`Point::coords`], used by the spatial grids to key
    /// cells inside the engine event loop).
    ///
    /// # Panics
    ///
    /// Panics when `axis ≥ DIM`.
    fn coord(self, axis: usize) -> f64;

    /// Reconstructs a point from coordinates (inverse of [`Point::coords`]).
    ///
    /// # Panics
    ///
    /// Panics when `coords.len() != DIM`.
    fn from_coords(coords: &[f64]) -> Self;
}

impl Point for Vec2 {
    const DIM: usize = 2;

    #[inline]
    fn zero() -> Self {
        Vec2::ZERO
    }

    #[inline]
    fn dot(self, other: Self) -> f64 {
        Vec2::dot(self, other)
    }

    #[inline]
    fn is_finite(self) -> bool {
        Vec2::is_finite(self)
    }

    fn circumball(boundary: &[Self]) -> Option<Ball<Self>> {
        match boundary {
            [] => Some(Ball::new(Vec2::ZERO, 0.0)),
            [a] => Some(Ball::new(*a, 0.0)),
            [a, b] => {
                let c = (*a + *b) * 0.5;
                Some(Ball::new(c, c.dist(*a)))
            }
            [a, b, c] => circumcircle(*a, *b, *c),
            _ => None,
        }
    }

    fn coords(self) -> Vec<f64> {
        vec![self.x, self.y]
    }

    #[inline]
    fn coord(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            _ => panic!("Vec2 has no axis {axis}"),
        }
    }

    #[inline]
    fn from_coords(coords: &[f64]) -> Self {
        assert_eq!(coords.len(), 2, "Vec2 needs exactly two coordinates");
        Vec2::new(coords[0], coords[1])
    }
}

impl Point for Vec3 {
    const DIM: usize = 3;

    #[inline]
    fn zero() -> Self {
        Vec3::ZERO
    }

    #[inline]
    fn dot(self, other: Self) -> f64 {
        Vec3::dot(self, other)
    }

    #[inline]
    fn is_finite(self) -> bool {
        Vec3::is_finite(self)
    }

    fn circumball(boundary: &[Self]) -> Option<Ball<Self>> {
        match boundary {
            [] => Some(Ball::new(Vec3::ZERO, 0.0)),
            [a] => Some(Ball::new(*a, 0.0)),
            [a, b] => {
                let c = (*a + *b) * 0.5;
                Some(Ball::new(c, c.dist(*a)))
            }
            [a, b, c] => circumsphere3(*a, *b, *c),
            [a, b, c, d] => circumsphere4(*a, *b, *c, *d),
            _ => None,
        }
    }

    fn coords(self) -> Vec<f64> {
        vec![self.x, self.y, self.z]
    }

    #[inline]
    fn coord(self, axis: usize) -> f64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("Vec3 has no axis {axis}"),
        }
    }

    #[inline]
    fn from_coords(coords: &[f64]) -> Self {
        assert_eq!(coords.len(), 3, "Vec3 needs exactly three coordinates");
        Vec3::new(coords[0], coords[1], coords[2])
    }
}

/// Circumcircle of three planar points; `None` when they are (numerically)
/// collinear, in which case no finite circumcircle exists.
fn circumcircle(a: Vec2, b: Vec2, c: Vec2) -> Option<Ball<Vec2>> {
    let ab = b - a;
    let ac = c - a;
    let d = 2.0 * ab.cross(ac);
    if d.abs() < 1e-14 {
        return None;
    }
    let ab2 = ab.norm_sq();
    let ac2 = ac.norm_sq();
    let ux = (ac.y * ab2 - ab.y * ac2) / d;
    let uy = (ab.x * ac2 - ac.x * ab2) / d;
    let center = a + Vec2::new(ux, uy);
    Some(Ball::new(center, center.dist(a)))
}

/// The smallest sphere through three points in space: its centre lies in the
/// points' plane, so this is the planar circumcircle embedded in 3D. `None`
/// for collinear points.
fn circumsphere3(a: Vec3, b: Vec3, c: Vec3) -> Option<Ball<Vec3>> {
    let ab = b - a;
    let ac = c - a;
    let n = ab.cross(ac);
    let n2 = n.norm_sq();
    if n2 < 1e-14 {
        return None;
    }
    // Standard formula: centre = a + (|ac|²·(n×ab) + |ab|²·(ac×n)) / (2|n|²).
    let center = a + (n.cross(ab) * ac.norm_sq() + ac.cross(n) * ab.norm_sq()) * (1.0 / (2.0 * n2));
    Some(Ball::new(center, center.dist(a)))
}

/// Circumsphere of four points; `None` when they are (numerically) coplanar.
fn circumsphere4(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Option<Ball<Vec3>> {
    // Solve the 3×3 linear system 2(p_i − a)·x = |p_i|² − |a|² for the centre.
    let rows = [b - a, c - a, d - a];
    let rhs = [
        (b.norm_sq() - a.norm_sq()) / 2.0,
        (c.norm_sq() - a.norm_sq()) / 2.0,
        (d.norm_sq() - a.norm_sq()) / 2.0,
    ];
    let det = rows[0].dot(rows[1].cross(rows[2]));
    if det.abs() < 1e-14 {
        return None;
    }
    // Cramer's rule.
    let m = |r0: Vec3, r1: Vec3, r2: Vec3| r0.dot(r1.cross(r2));
    let x = m(
        Vec3::new(rhs[0], rows[0].y, rows[0].z),
        Vec3::new(rhs[1], rows[1].y, rows[1].z),
        Vec3::new(rhs[2], rows[2].y, rows[2].z),
    ) / det;
    let y = m(
        Vec3::new(rows[0].x, rhs[0], rows[0].z),
        Vec3::new(rows[1].x, rhs[1], rows[1].z),
        Vec3::new(rows[2].x, rhs[2], rows[2].z),
    ) / det;
    let z = m(
        Vec3::new(rows[0].x, rows[0].y, rhs[0]),
        Vec3::new(rows[1].x, rows[1].y, rhs[1]),
        Vec3::new(rows[2].x, rows[2].y, rhs[2]),
    ) / det;
    let center = Vec3::new(x, y, z);
    Some(Ball::new(center, center.dist(a)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circumcircle_right_triangle() {
        // Right triangle: circumcentre at hypotenuse midpoint.
        let ball =
            Vec2::circumball(&[Vec2::ZERO, Vec2::new(2.0, 0.0), Vec2::new(0.0, 2.0)]).unwrap();
        assert!((ball.center - Vec2::new(1.0, 1.0)).norm() < 1e-12);
        assert!((ball.radius - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn circumcircle_collinear_is_none() {
        assert!(
            Vec2::circumball(&[Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(2.0, 0.0)]).is_none()
        );
    }

    #[test]
    fn two_point_ball_is_diametral() {
        let ball = Vec2::circumball(&[Vec2::ZERO, Vec2::new(2.0, 0.0)]).unwrap();
        assert_eq!(ball.center, Vec2::new(1.0, 0.0));
        assert_eq!(ball.radius, 1.0);
    }

    #[test]
    fn circumsphere3_equilateral() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(-0.5, 3f64.sqrt() / 2.0, 0.0);
        let c = Vec3::new(-0.5, -(3f64.sqrt()) / 2.0, 0.0);
        let ball = Vec3::circumball(&[a, b, c]).unwrap();
        assert!(ball.center.norm() < 1e-12);
        assert!((ball.radius - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circumsphere4_regular() {
        // Octahedron vertices subset: (±1,0,0),(0,±1,0) lie on the unit
        // sphere with one more point (0,0,1).
        let ball = Vec3::circumball(&[
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ])
        .unwrap();
        assert!(ball.center.norm() < 1e-12);
        assert!((ball.radius - 1.0).abs() < 1e-12);
    }

    #[test]
    fn circumsphere4_coplanar_is_none() {
        assert!(Vec3::circumball(&[
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
        ])
        .is_none());
    }
}
