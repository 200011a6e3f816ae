//! Two-dimensional Euclidean vectors/points.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or displacement vector) in the Euclidean plane.
///
/// `Vec2` deliberately conflates points and vectors: the OBLOT model works in
/// an affine plane where robots observe *relative* positions, so most
/// arithmetic mixes the two freely.
///
/// ```
/// use cohesion_geometry::Vec2;
/// let a = Vec2::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a - a, Vec2::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Vec2 {
    /// The origin / zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// The unit vector at counterclockwise angle `theta` from the `+x` axis.
    ///
    /// ```
    /// use cohesion_geometry::Vec2;
    /// let u = Vec2::from_angle(std::f64::consts::FRAC_PI_2);
    /// assert!((u - Vec2::new(0.0, 1.0)).norm() < 1e-12);
    /// ```
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Vec2::new(theta.cos(), theta.sin())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Two-dimensional cross product (`z` component of the 3D cross product).
    ///
    /// Positive when `other` is counterclockwise from `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// The squared Euclidean norm. Cheaper than [`Vec2::norm`] when only
    /// comparisons are needed.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// The Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to another point.
    #[inline]
    pub fn dist_sq(self, other: Vec2) -> f64 {
        (self - other).norm_sq()
    }

    /// The counterclockwise angle of this vector from the `+x` axis, in
    /// `(-π, π]`. The zero vector maps to `0`.
    #[inline]
    pub fn angle(self) -> f64 {
        if self.x == 0.0 && self.y == 0.0 {
            0.0
        } else {
            self.y.atan2(self.x)
        }
    }

    /// Rotates the vector counterclockwise by `theta` radians.
    ///
    /// ```
    /// use cohesion_geometry::Vec2;
    /// let v = Vec2::new(1.0, 0.0).rotate(std::f64::consts::PI);
    /// assert!((v - Vec2::new(-1.0, 0.0)).norm() < 1e-12);
    /// ```
    #[inline]
    pub fn rotate(self, theta: f64) -> Vec2 {
        let (s, c) = theta.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// The unit vector in this direction, or `None` for (near-)zero vectors.
    ///
    /// `eps` guards against amplifying floating-point noise into a bogus
    /// direction.
    #[inline]
    pub fn normalized(self, eps: f64) -> Option<Vec2> {
        let n = self.norm();
        if n <= eps {
            None
        } else {
            Some(self / n)
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Componentwise minimum.
    #[inline]
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Componentwise maximum.
    #[inline]
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Mirror image across the `x` axis (used to model reflected local
    /// coordinate systems of robots without chirality).
    #[inline]
    pub fn reflect_x(self) -> Vec2 {
        Vec2::new(self.x, -self.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Vec2::new(1.5, -0.5));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn norms_and_distance() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.dist(Vec2::ZERO), 5.0);
        assert_eq!(a.dist_sq(Vec2::ZERO), 25.0);
    }

    #[test]
    fn angles_and_rotation() {
        assert!((Vec2::new(0.0, 2.0).angle() - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Vec2::ZERO.angle(), 0.0);
        let r = Vec2::new(1.0, 0.0).rotate(PI / 4.0);
        assert!((r.x - r.y).abs() < 1e-12);
        let u = Vec2::from_angle(1.234);
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!((u.angle() - 1.234).abs() < 1e-12);
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec2::ZERO.normalized(1e-12), None);
        let u = Vec2::new(0.0, -4.0).normalized(1e-12).unwrap();
        assert!((u - Vec2::new(0.0, -1.0)).norm() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Vec2::new(1.0, 1.0);
        let b = Vec2::new(3.0, 5.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(2.0, 3.0));
    }

    #[test]
    fn reflect_flips_y() {
        assert_eq!(Vec2::new(1.0, 2.0).reflect_x(), Vec2::new(1.0, -2.0));
    }
}
