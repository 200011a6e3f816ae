//! Robot configurations: the multiset `C(t) = {X(t) : X ∈ R}` of §2.1.

use crate::ids::RobotId;
use cohesion_geometry::point::Point;
use cohesion_geometry::Vec2;
use serde::{Deserialize, Serialize};

/// The positions of all robots at one instant, indexed by [`RobotId`].
///
/// A configuration is a *multiset*: distinct robots may occupy the same
/// point. Robots have no multiplicity detection (§2.2): co-located robots
/// collapse into one observation at snapshot time.
///
/// ```
/// use cohesion_model::Configuration;
/// use cohesion_geometry::Vec2;
/// let c = Configuration::new(vec![Vec2::ZERO, Vec2::new(1.0, 0.0)]);
/// assert_eq!(c.len(), 2);
/// assert!((c.diameter() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Configuration<P = Vec2> {
    positions: Vec<P>,
}

impl<P: Point> Configuration<P> {
    /// Creates a configuration from positions (robot `i` is at
    /// `positions[i]`).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is non-finite.
    pub fn new(positions: Vec<P>) -> Self {
        assert!(
            positions.iter().all(|p| p.is_finite()),
            "robot positions must be finite"
        );
        Configuration { positions }
    }

    /// Number of robots.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when there are no robots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The position of robot `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    #[inline]
    pub fn position(&self, id: RobotId) -> P {
        self.positions[id.index()]
    }

    /// All positions, in id order.
    #[inline]
    pub fn positions(&self) -> &[P] {
        &self.positions
    }

    /// Iterator over `(id, position)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RobotId, P)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (RobotId::from(i), p))
    }

    /// All robot ids.
    pub fn ids(&self) -> impl Iterator<Item = RobotId> {
        (0..self.len()).map(RobotId::from)
    }

    /// The configuration diameter: maximum pairwise distance (`0` for fewer
    /// than two robots), bit for bit the largest `dist` over all pairs.
    /// Planar configurations of 32 or more robots take `O(n)` plus the few
    /// pairs that can hold the maximum (see [`cohesion_geometry::diameter`]);
    /// smaller and 3D ones take all pairs.
    ///
    /// The Point Convergence predicate is exactly
    /// “∀ε ∃t ∀t′≥t: diameter ≤ ε”.
    pub fn diameter(&self) -> f64 {
        cohesion_geometry::diameter::diameter(&self.positions)
    }
}

impl<P: Point> FromIterator<P> for Configuration<P> {
    fn from_iter<T: IntoIterator<Item = P>>(iter: T) -> Self {
        Configuration::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> Configuration {
        Configuration::new(vec![Vec2::ZERO, Vec2::new(3.0, 0.0), Vec2::new(0.0, 4.0)])
    }

    #[test]
    fn basics() {
        let c = config();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.position(RobotId(1)), Vec2::new(3.0, 0.0));
        assert_eq!(c.ids().count(), 3);
    }

    #[test]
    fn diameter_and_min_distance() {
        let c = config();
        assert!((c.diameter() - 5.0).abs() < 1e-12);
        let single = Configuration::new(vec![Vec2::ZERO]);
        assert_eq!(single.diameter(), 0.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_rejected() {
        let _ = Configuration::new(vec![Vec2::new(f64::NAN, 0.0)]);
    }

    #[test]
    fn from_iterator() {
        let c: Configuration = (0..4).map(|i| Vec2::new(i as f64, 0.0)).collect();
        assert_eq!(c.len(), 4);
    }
}
