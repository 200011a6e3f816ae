//! The diameter of a point set — its largest pairwise distance — computed
//! bit for bit as the all-pairs loop computes it, but without measuring
//! every pair.
//!
//! The all-pairs loop takes the largest computed `dist_sq` and one square
//! root. [`DiameterKernel`] returns that same value. For a planar set of at
//! least [`PRUNE_MIN_POINTS`] points it measures only the pairs that can
//! hold the maximum, found by an extreme-point filter over `K = 8`
//! directions:
//!
//! 1. **Extents.** Project every point on the unit directions
//!    `u_k = (cos kπ/K, sin kπ/K)`, `k = 0, …, K − 1`, and record each
//!    direction's computed extent `[lo_k, hi_k]`. Let `w` be the widest
//!    extent `hi_k − lo_k` and `M` the largest absolute coordinate.
//! 2. **Filter.** Point `p` joins direction `k`'s *low band* when
//!    `hi_k − q_k(p) ≥ T` and its *high band* when `q_k(p) − lo_k ≥ T`,
//!    where `q_k` is the computed projection and
//!    `T = w·cos(π/2K) − 2⁻⁴⁰·(M + w)`. Only the *active* directions,
//!    those with `hi_k − lo_k ≥ T`, are scanned: the others have empty
//!    bands (below).
//! 3. **Finish.** The result is the largest `dist_sq` over the pairs of a
//!    low-band and a high-band point of one direction.
//!
//! # Why this is the all-pairs value
//!
//! Every candidate is the computed `dist_sq` of a real pair, so the result
//! is at most the all-pairs maximum `D`. It equals `D` because the pair
//! `(a, b)` that attains `D` is a candidate. Let `d = |b − a|` and `δ` the
//! true diameter, both exact, and `u = 2⁻⁵³`. A computed `dist_sq` is
//! within a relative `5u` of the exact square, so `D ≥ δ²·(1 − 5u)` and
//! `d ≥ δ·(1 − 6u)`. A computed projection is within `4uM` of the exact
//! one. No exact extent exceeds `δ·|u_k|`, so `w ≤ δ·(1 + 4u) + 9uM`; the
//! direction nearest the diameter's has an extent of at least
//! `δ·cos(π/2K)`, so `δ ≤ 1.02·w + 9uM`. Some `u_k` lies within angle
//! `π/2K` of `b − a` or of `a − b`; name the pair so that it is `b − a`.
//! The float `u_k` is unit and on its nominal angle to a few `u`, so
//! exactly `(b − a)·u_k ≥ d·(cos(π/2K) − 4u)`. As `lo_k` is the smallest
//! computed projection, the computed `q_k(b) − lo_k` is at least
//! `d·cos(π/2K) − 5u·d − 9uM`, and by the bounds above at least
//! `w·cos(π/2K) − 20u·(M + w)`. The slack `2⁻⁴⁰·(M + w)` is hundreds of
//! times that error and covers the rounding of `T` itself, so `b` is in the
//! high band of `k`. By the mirror argument `a` is in its low band, and `D`
//! is a candidate.
//!
//! # Empty bands
//!
//! A direction with a computed extent `hi_k − lo_k < T` has no point in
//! either band. Both passes compute `q_k(p)` by the same expression, and
//! `lo_k` and `hi_k` are the least and the largest of those values, so
//! `lo_k ≤ q_k(p) ≤ hi_k`. Rounding is monotone, so the computed
//! `hi_k − q_k(p)` is at most the computed `hi_k − lo_k`, which is below
//! `T`: `p` is not in the low band; by the mirror argument it is not in the
//! high band. Skipping the direction therefore drops no candidate pair and
//! no count from [`DiameterKernel::pairs_checked`]. The widest direction is
//! always active (`T < w` while `w > 0`), and on a lattice only its two
//! diagonals are, so the second pass scans 2 directions of 8
//! ([`DiameterKernel::directions_scanned`]).
//!
//! The error bounds hold while no product overflows and no rounding error
//! near `T` falls into the subnormal range. The kernel therefore keeps the
//! all-pairs loop for fewer than [`PRUNE_MIN_POINTS`] points (and for more
//! than `u32` indexes), for `Point::DIM ≠ 2`, for any coordinate that is
//! not finite or exceeds `2⁵⁰⁰` in magnitude, and whenever `w < 2⁻⁴⁵⁰`
//! (all points coincident, or a set below `10⁻¹³⁵` across).
//!
//! Typical swarms keep a handful of band points: a lattice keeps its
//! corners, a round cloud a thin rim. A set on one circle keeps every point
//! in some band, but each direction pairs only its two thin rims: about an
//! eighth of the pairs.

use crate::point::Point;

/// Below this many points the kernel runs the all-pairs loop: the filter's
/// two passes over `K` directions cost more than the pairs they save.
pub const PRUNE_MIN_POINTS: usize = 32;

/// The number of filter directions.
const K: usize = 8;

/// Band memberships the kernel keeps on the stack, enough for every swarm
/// but the largest round ones: typical diameters allocate nothing.
const INLINE_MEMBERS: usize = 128;

/// `cos(π/8)`, `sin(π/8)` and `cos(π/4)`, correctly rounded.
const COS_8: f64 = 0.923_879_532_511_286_7;
const SIN_8: f64 = 0.382_683_432_365_089_8;
const DIAG: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// The filter directions `u_k = (cos kπ/8, sin kπ/8)` as two coordinate
/// arrays, the layout the projection loop vectorises over. The axis
/// directions are exact, so they project exactly.
const UX: [f64; K] = [1.0, COS_8, DIAG, SIN_8, 0.0, -SIN_8, -DIAG, -COS_8];
const UY: [f64; K] = [0.0, SIN_8, DIAG, COS_8, 1.0, COS_8, DIAG, SIN_8];

/// `cos(π/2K)`, correctly rounded: the least cosine between a pair's
/// direction and its nearest filter direction.
const COS_HALF_STEP: f64 = 0.980_785_280_403_230_4;

/// The filter threshold's relative slack (see the module docs).
const SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Coordinates beyond this magnitude take the all-pairs loop: below it no
/// projection or `dist_sq` can overflow.
const MAX_COORD: f64 = 3.273_390_607_896_142e150; // 2⁵⁰⁰

/// A widest extent below this takes the all-pairs loop: above it the
/// rounding errors of the filter stay clear of the subnormal range.
const MIN_WIDTH: f64 = 3.439_552_567_074_349_4e-136; // 2⁻⁴⁵⁰

/// The diameter kernel with its scratch buffers and a work counter, for
/// callers that take many diameters.
///
/// ```
/// use cohesion_geometry::diameter::DiameterKernel;
/// use cohesion_geometry::Vec2;
///
/// // A 10 × 10 lattice: only the pairs of its corners are measured.
/// let lattice: Vec<Vec2> = (0..100)
///     .map(|i| Vec2::new((i % 10) as f64, (i / 10) as f64))
///     .collect();
/// let mut kernel = DiameterKernel::new();
/// assert_eq!(kernel.diameter(&lattice), 162f64.sqrt());
/// assert!(kernel.pairs_checked() < 50);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DiameterKernel {
    /// Band memberships beyond the [`INLINE_MEMBERS`] kept on the stack.
    spill: Vec<(u32, u32)>,
    pairs_checked: u64,
    directions_scanned: u64,
}

impl DiameterKernel {
    /// A kernel with empty scratch and a zero counter; allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many `dist_sq` evaluations the kernel has made so far.
    pub fn pairs_checked(&self) -> u64 {
        self.pairs_checked
    }

    /// How many directions the band pass has scanned so far: those whose
    /// extent reached the threshold, at most `K = 8` per filtered diameter.
    pub fn directions_scanned(&self) -> u64 {
        self.directions_scanned
    }

    /// The diameter of `points` (`0` for fewer than two): bit for bit the
    /// largest `dist` over all pairs, as the square root of the largest
    /// `dist_sq` (a correctly rounded square root is monotone).
    pub fn diameter<P: Point>(&mut self, points: &[P]) -> f64 {
        self.max_dist_sq(points).sqrt()
    }

    /// The largest computed `dist_sq` over all pairs of `points` (`0` for
    /// fewer than two).
    fn max_dist_sq<P: Point>(&mut self, points: &[P]) -> f64 {
        let n = points.len();
        if P::DIM != 2 || n < PRUNE_MIN_POINTS || u32::try_from(n).is_err() {
            return self.all_pairs(points);
        }
        let Some(Extents { lo, hi, magnitude }) = Extents::of(points) else {
            return self.all_pairs(points);
        };
        let width = (0..K).fold(0.0, |w, k| f64::max(w, hi[k] - lo[k]));
        if width < MIN_WIDTH {
            return self.all_pairs(points);
        }

        let threshold = width * COS_HALF_STEP - SLACK * (magnitude + width);
        // Only a direction whose extent reaches the threshold can have a
        // point in a band (module docs, “Empty bands”).
        let (mut active, mut active_len) = ([0; K], 0);
        for k in (0..K).filter(|&k| hi[k] - lo[k] >= threshold) {
            active[active_len] = k;
            active_len += 1;
        }
        self.directions_scanned += active_len as u64;

        // `(band, point)` memberships, band `2k` / `2k + 1` being direction
        // `k`'s low / high band, in the stack buffer until it overflows.
        // Indices are `u32` to keep the buffer small.
        let mut inline = [(0, 0); INLINE_MEMBERS];
        let mut count = 0;
        let mut join = |member: (u32, u32)| {
            if count < INLINE_MEMBERS {
                inline[count] = member;
            } else {
                if count == INLINE_MEMBERS {
                    self.spill.clear();
                    self.spill.extend_from_slice(&inline);
                }
                self.spill.push(member);
            }
            count += 1;
        };
        for &k in &active[..active_len] {
            let (ux, uy, lo, hi) = (UX[k], UY[k], lo[k], hi[k]);
            for (i, p) in points.iter().enumerate() {
                // `projections(p)[k]`, the same expression.
                let q = p.coord(0) * ux + p.coord(1) * uy;
                if hi - q >= threshold {
                    join((2 * k as u32, i as u32));
                }
                if q - lo >= threshold {
                    join((2 * k as u32 + 1, i as u32));
                }
            }
        }
        let members = if count <= INLINE_MEMBERS {
            &mut inline[..count]
        } else {
            &mut self.spill[..]
        };

        // Sorted by band, each low band is followed by its high band.
        members.sort_unstable();
        let mut best = 0.0_f64;
        let mut rest = &members[..];
        while let Some(&(band, _)) = rest.first() {
            let (this, next) = rest.split_at(rest.partition_point(|m| m.0 == band));
            if band % 2 == 0 {
                let high = &next[..next.partition_point(|m| m.0 == band + 1)];
                for &(_, a) in this {
                    for &(_, b) in high {
                        best = best.max(points[a as usize].dist_sq(points[b as usize]));
                    }
                }
                self.pairs_checked += (this.len() * high.len()) as u64;
            }
            rest = next;
        }
        best
    }

    /// The all-pairs loop.
    fn all_pairs<P: Point>(&mut self, points: &[P]) -> f64 {
        let n = points.len();
        let mut best = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                best = best.max(points[i].dist_sq(points[j]));
            }
        }
        self.pairs_checked += (n * n.saturating_sub(1) / 2) as u64;
        best
    }
}

/// The diameter of `points` through a fresh [`DiameterKernel`]; see
/// [`DiameterKernel::diameter`].
pub fn diameter<P: Point>(points: &[P]) -> f64 {
    DiameterKernel::new().diameter(points)
}

/// The computed projections of a planar point on every filter direction.
/// Both passes of the kernel call this, so they see the same values.
#[inline]
fn projections<P: Point>(p: P) -> [f64; K] {
    let (x, y) = (p.coord(0), p.coord(1));
    let mut q = [0.0; K];
    for k in 0..K {
        q[k] = x * UX[k] + y * UY[k];
    }
    q
}

/// `min`/`max` of two numbers that are not NaN, as single compare-and-select
/// steps that vectorise (`f64::min`/`max` also order NaN).
#[inline]
fn smaller(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

#[inline]
fn larger(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
    }
}

/// Each direction's computed extent.
struct Extents {
    lo: [f64; K],
    hi: [f64; K],
    /// The largest absolute coordinate.
    magnitude: f64,
}

impl Extents {
    /// The extents of a planar point set, or `None` when a coordinate is
    /// not finite or exceeds [`MAX_COORD`] in magnitude.
    fn of<P: Point>(points: &[P]) -> Option<Self> {
        let mut ext = Extents {
            lo: [f64::INFINITY; K],
            hi: [f64::NEG_INFINITY; K],
            magnitude: 0.0,
        };
        for p in points {
            let (x, y) = (p.coord(0).abs(), p.coord(1).abs());
            // Written so that NaN fails the test.
            if !(x <= MAX_COORD && y <= MAX_COORD) {
                return None;
            }
            ext.magnitude = larger(larger(ext.magnitude, x), y);
            for ((lo, hi), q) in ext.lo.iter_mut().zip(&mut ext.hi).zip(projections(*p)) {
                *lo = smaller(*lo, q);
                *hi = larger(*hi, q);
            }
        }
        Some(ext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::cloud;
    use crate::{Vec2, Vec3};

    /// The all-pairs loop through a fresh kernel: the oracle.
    fn all_pairs<P: Point>(points: &[P]) -> f64 {
        DiameterKernel::new().all_pairs(points).sqrt()
    }

    /// The band pass over all eight directions, the kernel's pass before it
    /// skipped the directions that cannot reach the threshold: the largest
    /// `dist_sq` over band pairs and the pairs measured, for a set the
    /// kernel filters.
    fn eight_direction_bands(points: &[Vec2]) -> (f64, u64) {
        let Extents { lo, hi, magnitude } = Extents::of(points).expect("in range");
        let width = (0..K).fold(0.0, |w, k| f64::max(w, hi[k] - lo[k]));
        let threshold = width * COS_HALF_STEP - SLACK * (magnitude + width);
        let (mut best, mut pairs) = (0.0_f64, 0);
        for k in 0..K {
            let q = |p: &Vec2| projections(*p)[k];
            let low: Vec<&Vec2> = points
                .iter()
                .filter(|p| hi[k] - q(p) >= threshold)
                .collect();
            let high: Vec<&Vec2> = points
                .iter()
                .filter(|p| q(p) - lo[k] >= threshold)
                .collect();
            for a in &low {
                for b in &high {
                    best = best.max(a.dist_sq(**b));
                }
            }
            pairs += (low.len() * high.len()) as u64;
        }
        (best, pairs)
    }

    /// Asserts that the kernel measures the pairs the eight-direction pass
    /// measured, to the same bits as the all-pairs loop, and returns the
    /// directions it scanned.
    fn scanned_directions(points: &[Vec2]) -> u64 {
        let mut kernel = DiameterKernel::new();
        let d = kernel.diameter(points);
        assert_eq!(d.to_bits(), all_pairs(points).to_bits(), "{points:?}");
        let (best, pairs) = eight_direction_bands(points);
        assert_eq!(best.sqrt().to_bits(), d.to_bits());
        assert_eq!(kernel.pairs_checked(), pairs);
        assert!((1..=K as u64).contains(&kernel.directions_scanned()));
        kernel.directions_scanned()
    }

    #[test]
    fn bands_scan_only_the_directions_that_reach_the_threshold() {
        // A square lattice: only the two diagonals are within `cos(π/16)`
        // of the widest extent.
        let lattice: Vec<Vec2> = (0..256)
            .map(|i| Vec2::new(f64::from(i % 16) * 0.9, f64::from(i / 16) * 0.9))
            .collect();
        assert_eq!(scanned_directions(&lattice), 2);
        // A row: only the direction along it.
        let row: Vec<Vec2> = (0..40).map(|i| Vec2::new(f64::from(i), -2.0)).collect();
        assert_eq!(scanned_directions(&row), 1);
        // Signed-zero twins and coincident copies along a column.
        let mut twins: Vec<Vec2> = (0..40)
            .map(|i| Vec2::new(if i % 2 == 0 { 0.0 } else { -0.0 }, f64::from(i % 20)))
            .collect();
        twins.extend([Vec2::new(-0.0, -0.0), Vec2::new(0.0, 19.0)]);
        assert_eq!(scanned_directions(&twins), 1);
        // Coincident points take the all-pairs loop: no band pass.
        let mut kernel = DiameterKernel::new();
        kernel.diameter(&[Vec2::new(-0.0, 0.0); 40]);
        assert_eq!(kernel.directions_scanned(), 0);
        // A circle keeps every direction.
        let circle: Vec<Vec2> = (0..64)
            .map(|i| Vec2::from_angle(f64::from(i) * std::f64::consts::TAU / 64.0))
            .collect();
        assert_eq!(scanned_directions(&circle), K as u64);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Lattice points, some repeated, some with a zero's sign flipped,
        /// some moved by an ulp, stretched on either axis.
        #[test]
        fn the_band_pass_measures_the_eight_direction_pairs(
            cells in proptest::collection::vec((-8i32..9, -8i32..9, 0u8..4), 32..120),
            stretch in (0.01..3.0f64, 0.01..3.0f64),
        ) {
            let points: Vec<Vec2> = cells
                .iter()
                .map(|&(i, j, jitter)| {
                    let mut p = Vec2::new(f64::from(i) * stretch.0, f64::from(j) * stretch.1);
                    match jitter {
                        1 if p.x == 0.0 => p.x = -p.x,
                        2 => p.y = p.y.next_up(),
                        _ => {}
                    }
                    p
                })
                .collect();
            let mut kernel = DiameterKernel::new();
            let d = kernel.diameter(&points);
            proptest::prop_assert_eq!(d.to_bits(), all_pairs(&points).to_bits());
            if kernel.directions_scanned() > 0 {
                scanned_directions(&points);
            }
        }
    }

    #[test]
    fn constants_are_the_rounded_cosines() {
        use std::f64::consts::PI;
        for k in 0..K {
            let angle = k as f64 * PI / K as f64;
            assert!((UX[k] - angle.cos()).abs() <= f64::EPSILON, "k = {k}");
            assert!((UY[k] - angle.sin()).abs() <= f64::EPSILON, "k = {k}");
        }
        assert!((COS_HALF_STEP - (PI / (2 * K) as f64).cos()).abs() <= f64::EPSILON);
        assert_eq!(MAX_COORD, 500f64.exp2());
        assert_eq!(MIN_WIDTH, (-450f64).exp2());
    }

    #[test]
    fn small_spatial_and_degenerate_sets_take_the_all_pairs_loop() {
        let mut kernel = DiameterKernel::new();
        assert_eq!(kernel.diameter::<Vec2>(&[]), 0.0);
        assert_eq!(kernel.diameter(&[Vec2::new(1.0, 2.0)]), 0.0);
        assert_eq!(kernel.pairs_checked(), 0);
        kernel.diameter(&cloud(PRUNE_MIN_POINTS - 1, 1.0, 1));
        assert_eq!(kernel.pairs_checked(), 31 * 30 / 2);

        let spatial: Vec<Vec3> = (0..40)
            .map(|i| Vec3::new(i as f64, 0.0, (i % 3) as f64))
            .collect();
        let mut kernel = DiameterKernel::new();
        assert_eq!(kernel.diameter(&spatial), all_pairs(&spatial));
        assert_eq!(kernel.pairs_checked(), 40 * 39 / 2);

        let coincident = vec![Vec2::new(0.25, -3.0); 40];
        let mut kernel = DiameterKernel::new();
        assert_eq!(kernel.diameter(&coincident).to_bits(), 0.0f64.to_bits());
        assert_eq!(kernel.pairs_checked(), 40 * 39 / 2);

        let mut huge = cloud(40, 1.0, 2);
        huge[7] = Vec2::new(1e200, 0.0);
        let mut kernel = DiameterKernel::new();
        assert_eq!(kernel.diameter(&huge), f64::INFINITY);
        assert_eq!(kernel.pairs_checked(), 40 * 39 / 2);
        huge[7] = Vec2::new(f64::NAN, 0.0);
        assert_eq!(diameter(&huge).to_bits(), all_pairs(&huge).to_bits());
    }

    /// Two diameter pairs tie up to rounding: `(a, c)` along the filter
    /// direction `u_0` sets the widest extent, and `(a, b)` lies exactly
    /// half a step off `u_0` and `u_1` with `a` at both directions' low
    /// ends, so `b` clears the threshold only by the rounding the slack
    /// covers. Without the slack the kernel misses `b` on some of these
    /// sets and returns the shorter of the two computed diameters.
    #[test]
    fn half_step_ties_are_covered_by_the_slack() {
        use std::f64::consts::PI;
        let (cos, sin) = ((PI / 16.0).cos(), (PI / 16.0).sin());
        for step in 0..2000 {
            let d = 1.0 + f64::from(step) * 1e-3;
            for (ox, oy) in [(0.0, 0.0), (3.0, -2.0), (1e3, 1e3), (-1e6, 5.0)] {
                let mut points = vec![
                    Vec2::new(ox, oy),
                    Vec2::new(ox + d, oy),
                    Vec2::new(ox + d * cos, oy + d * sin),
                ];
                points.extend((0..40).map(|i| {
                    let t = f64::from(i) * 0.1;
                    Vec2::new(
                        ox + d * (0.5 + 0.05 * t.cos()),
                        oy + d * (0.1 + 0.05 * t.sin()),
                    )
                }));
                assert_eq!(
                    diameter(&points).to_bits(),
                    all_pairs(&points).to_bits(),
                    "d = {d}, offset ({ox}, {oy})"
                );
            }
        }
    }

    #[test]
    fn a_lattice_measures_only_its_corner_pairs() {
        let lattice: Vec<Vec2> = (0..1024)
            .map(|i| Vec2::new(1e6 + (i % 32) as f64 * 0.7, -1e6 + (i / 32) as f64 * 0.7))
            .collect();
        let mut kernel = DiameterKernel::new();
        assert_eq!(kernel.diameter(&lattice), all_pairs(&lattice));
        assert!(kernel.pairs_checked() < 40, "{}", kernel.pairs_checked());
    }

    #[test]
    fn a_circle_pairs_only_opposite_rims() {
        let n = 2000;
        let circle: Vec<Vec2> = (0..n)
            .map(|i| Vec2::from_angle(i as f64 * std::f64::consts::TAU / n as f64))
            .collect();
        let mut kernel = DiameterKernel::new();
        assert_eq!(kernel.diameter(&circle), all_pairs(&circle));
        let all = (n * (n - 1) / 2) as u64;
        assert!(
            kernel.pairs_checked() < all / 6,
            "{}",
            kernel.pairs_checked()
        );
    }
}
