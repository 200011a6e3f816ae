//! Orientation and incidence predicates.
//!
//! These are the standard determinant-based planar predicates with explicit
//! tolerances. At simulation scale (coordinates `O(n·V)` with `V ≈ 1`) plain
//! `f64` evaluation leaves at least eight orders of magnitude between the
//! constants the paper's constructions rely on and floating-point noise, so
//! the paper's constructions need no exact arithmetic (see DESIGN.md
//! “Numerics”).
//!
//! One predicate is exact: [`orient2d_exact`], the sign of the orientation
//! determinant, which the convex hull takes so that its output is a function
//! of the point set and not of rounding (see [`crate::hull`]). It follows
//! Shewchuk's adaptive scheme (“Adaptive Precision Floating-Point
//! Arithmetic and Fast Robust Geometric Predicates”, 1997): the float
//! [`orient2d_value`] decides whenever it clears his error bound, and an
//! exact expansion of the determinant decides the rest.

use crate::vec2::Vec2;

/// Orientation of the ordered triple `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `c` lies strictly to the left of the directed line `a → b`.
    CounterClockwise,
    /// `c` lies strictly to the right of the directed line `a → b`.
    Clockwise,
    /// `a`, `b`, `c` are collinear within tolerance.
    Collinear,
}

/// Twice the signed area of triangle `(a, b, c)`; positive when the triple is
/// counterclockwise.
///
/// ```
/// use cohesion_geometry::{Vec2, predicates::orient2d_value};
/// let v = orient2d_value(Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0));
/// assert_eq!(v, 1.0);
/// ```
#[inline]
pub fn orient2d_value(a: Vec2, b: Vec2, c: Vec2) -> f64 {
    (b - a).cross(c - a)
}

/// Half an ulp of one, `2⁻⁵³`: the relative error of one rounded
/// operation.
const HALF_ULP: f64 = f64::EPSILON / 2.0;

/// Shewchuk's `ccwerrboundA`: when `|det| ≥ ORIENT_ERROR · (|l| + |r|)` for
/// the computed products `l`, `r` of same sign and `det = l − r`, `det` has
/// the sign of the exact determinant.
const ORIENT_ERROR: f64 = (3.0 + 16.0 * HALF_ULP) * HALF_ULP;

/// Coordinates whose magnitude is zero or within
/// `[EXACT_MIN_COORD, EXACT_MAX_COORD]` give [`orient2d_exact`] its exact
/// sign: no product of coordinates or of their differences overflows, and
/// none falls to the subnormal range, where the error bound and the exact
/// products would fail.
const EXACT_MIN_COORD: f64 = 3.872_591_914_849_318_3e-121; // 2⁻⁴⁰⁰
const EXACT_MAX_COORD: f64 = 3.273_390_607_896_142e150; // 2⁵⁰⁰

/// `true` when `c` is within [`orient2d_exact`]'s exact range: zero, or of
/// magnitude between `2⁻⁴⁰⁰` and `2⁵⁰⁰`. `false` for NaN.
#[inline]
pub(crate) fn in_exact_range(c: f64) -> bool {
    let m = c.abs();
    m == 0.0 || (EXACT_MIN_COORD..=EXACT_MAX_COORD).contains(&m)
}

/// The exact orientation of `(a, b, c)`: the sign of the real determinant
/// that [`orient2d_value`] rounds, with no tolerance, for coordinates that
/// are zero or between `2⁻⁴⁰⁰` and `2⁵⁰⁰` in magnitude.
///
/// The float value decides when it clears Shewchuk's error bound
/// `(3 + 16u)·u·(|l| + |r|)` (`u = 2⁻⁵³`, `l` and `r` the two products), or
/// when the products differ in sign or one is zero; nearly every call ends
/// there. Otherwise, when the four coordinate differences are exact (as
/// for nearby points, by Sterbenz's lemma), rounding is monotone, so two
/// unequal rounded products compare as the exact ones do, and two equal
/// ones compare as their `fma` errors do. Failing that, the determinant is
/// expanded into six products of coordinates, each split exactly into a
/// rounded part and its `fma` error, and the twelve terms are summed
/// exactly (two-sum), so the sign is that of the largest nonzero term of
/// the sum.
///
/// ```
/// use cohesion_geometry::predicates::{orient2d_exact, orient2d_value, Orientation};
/// use cohesion_geometry::Vec2;
/// // Kettner et al.'s classroom example: the float value says the three
/// // points are collinear, but the first lies an ulp below the line
/// // through the other two.
/// let (a, b, c) = (
///     Vec2::new(0.5 + f64::EPSILON / 2.0, 0.5),
///     Vec2::new(12.0, 12.0),
///     Vec2::new(24.0, 24.0),
/// );
/// assert_eq!(orient2d_value(a, b, c), 0.0);
/// assert_eq!(orient2d_exact(a, b, c), Orientation::Clockwise);
/// ```
#[inline]
pub fn orient2d_exact(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
    let (u, v) = (b - a, c - a);
    let (left, right) = (u.x * v.y, u.y * v.x);
    let det = left - right;
    let same_sign = (left > 0.0 && right > 0.0) || (left < 0.0 && right < 0.0);
    if !same_sign || det.abs() >= ORIENT_ERROR * (left.abs() + right.abs()) {
        sign_of(det)
    } else {
        orient2d_slow(a, b, c)
    }
}

/// The sign of `d × (q − p)`, the cross product of the float vector `d` and
/// the step `p → q`, when the float evaluation certifies it: `1` when the
/// step certainly turns counterclockwise from `d`, `−1` when it certainly
/// turns clockwise, and `0` when it is parallel or undecided. The
/// hull-nesting walk reads it as the sign of `g(q) − g(p)` for the linear
/// function `g(x) = d × x`.
///
/// The test is [`orient2d_exact`]'s fast path, without branches: a value
/// that clears Shewchuk's error bound, or products of different signs, has
/// the exact sign. Each product here carries one rounded difference where
/// the orientation's carries two, so the bound holds a fortiori. Like the
/// orientation, it needs coordinates within the exact range.
#[inline]
pub(crate) fn step_sign(d: Vec2, p: Vec2, q: Vec2) -> i8 {
    let e = q - p;
    let (left, right) = (d.x * e.y, d.y * e.x);
    let det = left - right;
    let same_sign = ((left > 0.0) & (right > 0.0)) | ((left < 0.0) & (right < 0.0));
    let certain = !same_sign | (det.abs() >= ORIENT_ERROR * (left.abs() + right.abs()));
    i8::from(certain & (det > 0.0)) - i8::from(certain & (det < 0.0))
}

/// A margin that certifies counterclockwise turns for many triples at
/// once, for loops that vectorise and send the rest to [`orient2d_exact`].
/// When `bound` is at least the computed `|l| + |r|` of a triple's
/// [`orient2d_value`] (its products `l` and `r`), a computed value above
/// `ccw_margin(bound)` clears the fast path of [`orient2d_exact`], and so
/// has the exact determinant's positive sign; one below `−ccw_margin(bound)`
/// has its negative sign. Rounding is monotone, so a `bound` computed from
/// upper bounds on the factors' magnitudes qualifies.
#[inline]
pub(crate) fn ccw_margin(bound: f64) -> f64 {
    ORIENT_ERROR * bound
}

fn sign_of(v: f64) -> Orientation {
    if v > 0.0 {
        Orientation::CounterClockwise
    } else if v < 0.0 {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// The exact orientation for the triples the float fast path of
/// [`orient2d_exact`] leaves undecided.
#[cold]
#[inline(never)]
fn orient2d_slow(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
    let differences = [(b.x, a.x), (b.y, a.y), (c.x, a.x), (c.y, a.y)];
    if differences.iter().all(|&(p, q)| two_sum(p, -q).1 == 0.0) {
        let (u, v) = (b - a, c - a);
        let (left, right) = (u.x * v.y, u.y * v.x);
        if left != right {
            return sign_of(left - right);
        }
        return sign_of(u.x.mul_add(v.y, -left) - u.y.mul_add(v.x, -right));
    }
    orient2d_expansion(a, b, c)
}

/// The exact sign of `a.x·(b.y − c.y) + b.x·(c.y − a.y) + c.x·(a.y − b.y)`,
/// the determinant [`orient2d_value`] rounds, from the twelve-term exact
/// expansion of its six coordinate products.
fn orient2d_expansion(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
    let products = [
        (a.x, b.y),
        (-a.x, c.y),
        (b.x, c.y),
        (-b.x, a.y),
        (c.x, a.y),
        (-c.x, b.y),
    ];
    // A nonoverlapping expansion in increasing magnitude (Shewchuk's
    // Grow-Expansion, zero terms dropped): its sign is its last term's.
    let mut terms = [0.0; 12];
    let mut len = 0;
    for (p, q) in products {
        let hi = p * q;
        let lo = p.mul_add(q, -hi);
        for value in [lo, hi] {
            let mut carry = value;
            let mut kept = 0;
            for i in 0..len {
                let (sum, err) = two_sum(carry, terms[i]);
                if err != 0.0 {
                    terms[kept] = err;
                    kept += 1;
                }
                carry = sum;
            }
            if carry != 0.0 {
                terms[kept] = carry;
                kept += 1;
            }
            len = kept;
        }
    }
    sign_of(if len == 0 { 0.0 } else { terms[len - 1] })
}

/// Knuth's two-sum: `a + b = sum + err` exactly, `sum` the rounded sum.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let sum = a + b;
    let b_virtual = sum - a;
    let a_virtual = sum - b_virtual;
    (sum, (a - a_virtual) + (b - b_virtual))
}

/// Classifies the orientation of `(a, b, c)` with tolerance `eps` on the
/// signed-area value.
pub fn orient2d(a: Vec2, b: Vec2, c: Vec2, eps: f64) -> Orientation {
    let v = orient2d_value(a, b, c);
    if v > eps {
        Orientation::CounterClockwise
    } else if v < -eps {
        Orientation::Clockwise
    } else {
        Orientation::Collinear
    }
}

/// Returns `true` when the three points are collinear within `eps`
/// (tolerance applies to twice the triangle area).
#[inline]
pub fn collinear(a: Vec2, b: Vec2, c: Vec2, eps: f64) -> bool {
    orient2d(a, b, c, eps) == Orientation::Collinear
}

/// The interior angle at vertex `q` of the polyline `p – q – r`, in `[0, π]`.
///
/// Degenerate inputs (a side of zero length) yield `0`.
///
/// This is the `∠(P, Q, R)` notation the paper uses throughout §7 (e.g. the
/// “essential co-linearity” condition `∠(R, Q, P) ∈ (π − ψ/2n, π]`).
pub fn angle_at(q: Vec2, p: Vec2, r: Vec2) -> f64 {
    let u = p - q;
    let v = r - q;
    let nu = u.norm();
    let nv = v.norm();
    if nu == 0.0 || nv == 0.0 {
        return 0.0;
    }
    let c = (u.dot(v) / (nu * nv)).clamp(-1.0, 1.0);
    c.acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn orientation_cases() {
        let a = Vec2::ZERO;
        let b = Vec2::new(1.0, 0.0);
        assert_eq!(
            orient2d(a, b, Vec2::new(0.5, 1.0), 1e-12),
            Orientation::CounterClockwise
        );
        assert_eq!(
            orient2d(a, b, Vec2::new(0.5, -1.0), 1e-12),
            Orientation::Clockwise
        );
        assert_eq!(
            orient2d(a, b, Vec2::new(2.0, 0.0), 1e-12),
            Orientation::Collinear
        );
    }

    /// The exact orientation of a triple of integers given as floats,
    /// in `i128`.
    fn integer_sign(a: [i128; 2], b: [i128; 2], c: [i128; 2]) -> Orientation {
        let det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]);
        sign_of(det as f64)
    }

    /// `v · 2⁵³` as an integer, for `v` a multiple of `2⁻⁵³` below `2⁸`.
    fn scaled(v: f64) -> i128 {
        let s = v * 2f64.powi(53);
        assert!(s.fract() == 0.0 && s.abs() < 2f64.powi(61), "{v}");
        s as i128
    }

    fn scaled_sign(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
        let s = |p: Vec2| [scaled(p.x), scaled(p.y)];
        integer_sign(s(a), s(b), s(c))
    }

    #[test]
    fn exact_range_constants() {
        assert_eq!(EXACT_MIN_COORD, (-400f64).exp2());
        assert_eq!(EXACT_MAX_COORD, 500f64.exp2());
        assert_eq!(ORIENT_ERROR, 3.0 * 2f64.powi(-53) + 16.0 * 2f64.powi(-106));
        assert!(in_exact_range(0.0) && in_exact_range(-0.0) && in_exact_range(-1.5));
        assert!(!in_exact_range(f64::NAN) && !in_exact_range(f64::INFINITY));
        assert!(!in_exact_range(1e-130) && !in_exact_range(-1e160));
    }

    /// Kettner et al.'s classroom grid: `a` walks a 256 × 256 grid of ulps
    /// next to the line through `b` and `c`. The float value gets the sign
    /// of many of these triples wrong; the exact sign gets none wrong, in
    /// every rotation of the triple.
    #[test]
    fn exact_sign_on_near_collinear_triples() {
        let ulp = f64::EPSILON / 2.0;
        let (b, c) = (Vec2::new(12.0, 12.0), Vec2::new(24.0, 24.0));
        let mut float_wrong = 0;
        for i in 0..256 {
            for j in 0..256 {
                let a = Vec2::new(0.5 + f64::from(i) * ulp, 0.5 + f64::from(j) * ulp);
                for (p, q, r) in [(a, b, c), (b, c, a), (c, a, b)] {
                    let exact = scaled_sign(p, q, r);
                    assert_eq!(orient2d_exact(p, q, r), exact, "{p} {q} {r}");
                    assert_eq!(orient2d_slow(p, q, r), exact, "{p} {q} {r}");
                    assert_eq!(orient2d_expansion(p, q, r), exact, "{p} {q} {r}");
                    float_wrong += usize::from(sign_of(orient2d_value(p, q, r)) != exact);
                }
            }
        }
        assert!(float_wrong > 10_000, "{float_wrong}");
    }

    /// Integer triples below `2²⁰`: the float value is exact, so its sign,
    /// the exact sign and the expansion's agree, collinear and repeated
    /// points included.
    #[test]
    fn exact_sign_on_integer_triples() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut collinear = 0;
        for round in 0..20_000 {
            let range: i64 = if round % 2 == 0 { 4 } else { 1 << 20 };
            let mut point =
                || [rng.gen_range(-range..range), rng.gen_range(-range..range)].map(i128::from);
            let (a, b, c) = (point(), point(), point());
            let v = |p: [i128; 2]| Vec2::new(p[0] as f64, p[1] as f64);
            let exact = integer_sign(a, b, c);
            assert_eq!(sign_of(orient2d_value(v(a), v(b), v(c))), exact);
            assert_eq!(orient2d_exact(v(a), v(b), v(c)), exact);
            assert_eq!(orient2d_slow(v(a), v(b), v(c)), exact);
            assert_eq!(orient2d_expansion(v(a), v(b), v(c)), exact);
            collinear += usize::from(exact == Orientation::Collinear);
        }
        assert!(collinear > 500, "{collinear}");
    }

    /// The slow stages agree with the float fast path wherever that decides.
    #[test]
    fn expansion_agrees_with_the_fast_path() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..20_000 {
            let scale = 10f64.powi(rng.gen_range(-20..20));
            let mut point =
                || Vec2::new(rng.gen_range(-scale..scale), rng.gen_range(-scale..scale));
            let (a, b, c) = (point(), point(), point());
            // A point on the segment `ab`, rounded: nearly collinear.
            let m = a + (b - a) * 0.3;
            for (p, q, r) in [(a, b, c), (a, b, m), (m, a, b)] {
                let exact = orient2d_exact(p, q, r);
                assert_eq!(orient2d_slow(p, q, r), exact);
                assert_eq!(orient2d_expansion(p, q, r), exact);
            }
        }
    }

    #[test]
    fn collinear_with_tolerance() {
        let a = Vec2::ZERO;
        let b = Vec2::new(1.0, 0.0);
        assert!(collinear(a, b, Vec2::new(0.5, 1e-13), 1e-12));
        assert!(!collinear(a, b, Vec2::new(0.5, 1e-3), 1e-12));
    }

    #[test]
    fn angle_at_vertex() {
        let q = Vec2::ZERO;
        assert!((angle_at(q, Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)) - FRAC_PI_2).abs() < 1e-12);
        assert!((angle_at(q, Vec2::new(1.0, 0.0), Vec2::new(-1.0, 0.0)) - PI).abs() < 1e-12);
        assert_eq!(angle_at(q, q, Vec2::new(1.0, 0.0)), 0.0);
    }
}
