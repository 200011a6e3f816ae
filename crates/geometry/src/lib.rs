//! Computational geometry substrate for the `cohesion` workspace.
//!
//! This crate implements, from scratch, every geometric primitive the
//! PODC 2021 point-convergence reproduction needs:
//!
//! * fixed-dimension vector types ([`Vec2`], [`Vec3`]) and a small [`Point`]
//!   abstraction so the convergence algorithms can be written once for both
//!   the planar and the three-dimensional model (paper §6.3.2);
//! * angular utilities ([`angle`]) including the *largest angular gap*
//!   computation at the heart of the paper's target-destination rule (§5);
//! * circles/disks and segments with the ray/chord queries used by safe-region
//!   constrained motion ([`circle`], [`segment`]);
//! * minimum enclosing balls via a generic Welzl algorithm ([`ball`]) — the
//!   smallest enclosing circle (SEC) is the core of Ando's baseline algorithm
//!   and of the paper's congregation analysis (Figure 16);
//! * convex hulls with perimeter/diameter/nesting queries ([`hull`]) — the
//!   hull-diminishing invariant is the backbone of the congregation argument
//!   (§5);
//! * the configuration diameter ([`diameter`]), the Point Convergence
//!   measure, bit for bit the all-pairs value at a fraction of its pairs;
//! * axis-aligned bounding boxes ([`bbox`]) for the GCM (“centre of minbox”)
//!   baseline;
//! * minimal enclosing cones of direction sets ([`cone`]), the d-dimensional
//!   generalization of the paper's “largest sector” rule.
//!
//! All computation is plain `f64`; tolerances are explicit (see [`EPS`]) and
//! every predicate that can meaningfully take a tolerance does so.
//!
//! # Example
//!
//! ```
//! use cohesion_geometry::{Vec2, hull::convex_hull, ball::smallest_enclosing_ball};
//!
//! let pts = vec![
//!     Vec2::new(0.0, 0.0),
//!     Vec2::new(2.0, 0.0),
//!     Vec2::new(1.0, 1.5),
//!     Vec2::new(1.0, 0.5),
//! ];
//! let hull = convex_hull(&pts);
//! assert_eq!(hull.vertices().len(), 3);
//! let sec = smallest_enclosing_ball(&pts);
//! for p in &pts {
//!     assert!(sec.contains(*p, 1e-9));
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod angle;
pub mod ball;
pub mod bbox;
pub mod circle;
pub mod cone;
pub mod diameter;
pub mod dynamic_grid;
pub mod grid;
pub mod hull;
pub mod point;
pub mod predicates;
pub mod segment;
pub mod vec2;
pub mod vec3;

pub use ball::Ball;
pub use bbox::Aabb;
pub use circle::Circle;
pub use dynamic_grid::DynamicGrid;
pub use grid::SpatialGrid;
pub use hull::ConvexHull;
pub use point::Point;
pub use segment::Segment;
pub use vec2::Vec2;
pub use vec3::Vec3;

/// Default absolute tolerance used by geometric predicates when the caller
/// does not supply one.
///
/// The simulation operates at unit scale (visibility radius `V ≈ 1`), so an
/// absolute tolerance of `1e-9` sits roughly seven orders of magnitude below
/// the smallest meaningful quantity in the paper's constructions (e.g. the
/// `cos θ ≥ 0.9659` chain constant of Lemma 5).
pub const EPS: f64 = 1e-9;

/// Returns `true` when two floats are within `eps` of each other.
///
/// ```
/// assert!(cohesion_geometry::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!cohesion_geometry::approx_eq(1.0, 1.1, 1e-9));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// Shared fixtures for the crate's unit tests (kept out of the public API).
#[cfg(test)]
pub(crate) mod test_util {
    use crate::vec2::Vec2;

    /// Deterministic LCG cloud (no dependency on the rand stub here) —
    /// the common brute-force-comparison fixture of both grid modules.
    pub(crate) fn cloud(n: usize, span: f64, seed: u64) -> Vec<Vec2> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Vec2::new(next() * span, next() * span))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(0.1 + 0.2, 0.3, EPS));
        assert!(!approx_eq(0.1, 0.2, EPS));
    }
}
