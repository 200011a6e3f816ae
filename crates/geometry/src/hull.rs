//! Convex hulls and the hull-nesting queries behind the paper's congregation
//! argument (§5: “the convex hulls of successive configurations are properly
//! nested”).
//!
//! [`HullKernel`] computes a hull with Andrew's monotone chain, and for at
//! least [`FILTER_MIN_POINTS`] points chains only the points that an
//! octagon prefilter (Akl and Toussaint, 1978) keeps. The result is bit for
//! bit the unfiltered chain's:
//!
//! 1. **Exact signs.** The chain pops its last point unless the turn to the
//!    next is counterclockwise by [`orient2d_exact`], the exact sign of the
//!    orientation determinant. With exact signs the chain returns exactly
//!    the strict vertices of the exact hull, counterclockwise from the
//!    lexicographically smallest, whatever non-vertices the input holds.
//! 2. **The octagon.** Take the first point that attains the largest
//!    computed value of each of `x`, `x + y`, `y`, `y − x`, `−x`, `−x − y`,
//!    `−y`, `x − y`, in that order, and skip a point equal to the one before
//!    it (cyclically).
//!    With at least three left, drop every point that is strictly left of
//!    every edge of this closed polygon by the exact sign, and chain the
//!    rest in input order.
//!
//! # Why a dropped point changes nothing
//!
//! A point `p` strictly left of every edge is interior to the hull of the
//! polygon's vertices. Otherwise a line through `p` has every vertex on one
//! closed side; seen from `p` the vertices then lie within a half-turn, and
//! each edge turns counterclockwise by less than a half-turn, so the
//! polygon could not close. The vertices are input points, so `p` is not a
//! hull vertex and the other points span the same hull: the exact hull, and
//! by 1 the chain's vertices, are unchanged. Every copy of a kept value is
//! kept, in input order, so the stable sort and the dedup keep the same
//! copy, with the same bits, as the unfiltered chain. No value in step 2
//! needs to be exact: the argument holds for any closed polygon of input
//! points.
//!
//! The exact sign holds while every coordinate is zero or between `2⁻⁴⁰⁰`
//! and `2⁵⁰⁰` in magnitude; outside that range, and for NaN, the kernel
//! chains every point. Nearly every sign is decided by the
//! float [`orient2d_value`] against an error bound, one per edge in the
//! filter, so the filter costs two passes of float arithmetic. A lattice
//! keeps its rim, a round cloud a thin annulus.

use crate::predicates::{ccw_margin, in_exact_range, orient2d_exact, orient2d_value, Orientation};
use crate::vec2::Vec2;
use serde::{Deserialize, Serialize};

/// Below this many points the kernel chains every point: the filter's two
/// passes cost more than the sort they save.
pub const FILTER_MIN_POINTS: usize = 32;

/// A convex polygon given by its vertices in counterclockwise order
/// (no three consecutive vertices collinear). May be degenerate: a point
/// (one vertex) or a segment (two vertices).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvexHull {
    vertices: Vec<Vec2>,
}

/// Computes the convex hull of a point set (Andrew's monotone chain,
/// `O(n log n)`, after the octagon prefilter of [`HullKernel`]). Duplicate
/// points are tolerated.
///
/// ```
/// use cohesion_geometry::{hull::convex_hull, Vec2};
/// let h = convex_hull(&[
///     Vec2::ZERO,
///     Vec2::new(1.0, 0.0),
///     Vec2::new(1.0, 1.0),
///     Vec2::new(0.5, 0.5), // interior
/// ]);
/// assert_eq!(h.vertices().len(), 3);
/// ```
pub fn convex_hull(points: &[Vec2]) -> ConvexHull {
    HullKernel::new().hull(points)
}

/// The hull kernel with its scratch buffer and a work counter, for callers
/// that take many hulls.
///
/// ```
/// use cohesion_geometry::hull::HullKernel;
/// use cohesion_geometry::{ConvexHull, Vec2};
///
/// // A 32 × 32 lattice: only its rim reaches the chain.
/// let lattice: Vec<Vec2> = (0..1024)
///     .map(|i| Vec2::new((i % 32) as f64, (i / 32) as f64))
///     .collect();
/// let mut kernel = HullKernel::new();
/// let mut hull = ConvexHull::default();
/// kernel.hull_into(&lattice, &mut hull);
/// assert_eq!(hull.len(), 4);
/// assert_eq!(kernel.points_chained(), 124);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HullKernel {
    /// The points that reach the chain, sorted in place.
    chained: Vec<Vec2>,
    points_chained: u64,
}

impl HullKernel {
    /// A kernel with empty scratch and a zero counter; allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many points have reached the chain so far, summed over hulls.
    pub fn points_chained(&self) -> u64 {
        self.points_chained
    }

    /// The convex hull of `points`.
    pub fn hull(&mut self, points: &[Vec2]) -> ConvexHull {
        let mut hull = ConvexHull::default();
        self.hull_into(points, &mut hull);
        hull
    }

    /// Writes the convex hull of `points` into `hull`, reusing its buffer:
    /// bit for bit the unfiltered monotone chain's hull (module docs).
    ///
    /// # Panics
    ///
    /// Panics when the sort meets a NaN coordinate.
    pub fn hull_into(&mut self, points: &[Vec2], hull: &mut ConvexHull) {
        self.chained.clear();
        match Octagon::of(points) {
            Some(octagon) => octagon.keep_outside(points, &mut self.chained),
            None => self.chained.extend_from_slice(points),
        }
        self.points_chained += self.chained.len() as u64;
        monotone_chain(&mut self.chained, &mut hull.vertices);
    }
}

/// Sorts `points` and writes the strict vertices of their hull into
/// `vertices`, counterclockwise from the lexicographically smallest point.
/// The sort is stable, so of equal points (`−0.0 == 0.0`) the first one in
/// `points` is kept.
fn monotone_chain(points: &mut Vec<Vec2>, vertices: &mut Vec<Vec2>) {
    points.sort_by(|a, b| {
        (a.x, a.y)
            .partial_cmp(&(b.x, b.y))
            .expect("points must be finite")
    });
    points.dedup();
    vertices.clear();
    // The chain's stack: the lower chain and the upper one on top of it.
    vertices.reserve(points.len() + 1);
    if points.len() <= 2 {
        vertices.extend_from_slice(points);
        return;
    }
    let turns_left = |chain: &[Vec2], p: Vec2| {
        orient2d_exact(chain[chain.len() - 2], chain[chain.len() - 1], p)
            == Orientation::CounterClockwise
    };
    // The lower chain left to right, then the upper chain right to left on
    // top of it, never popping the lower chain's last point.
    for &p in points.iter() {
        while vertices.len() >= 2 && !turns_left(vertices, p) {
            vertices.pop();
        }
        vertices.push(p);
    }
    let lower = vertices.len();
    for &p in points.iter().rev().skip(1) {
        while vertices.len() > lower && !turns_left(vertices, p) {
            vertices.pop();
        }
        vertices.push(p);
    }
    // The upper chain ends where the lower one began.
    vertices.pop();
}

/// The octagon's edges, padded to eight by repeating the first, as
/// coordinate arrays: edge `k` runs from `(ax, ay)` by `(dx, dy)`, the
/// computed `b − a` of [`orient2d_value`].
struct Octagon {
    ax: [f64; 8],
    ay: [f64; 8],
    dx: [f64; 8],
    dy: [f64; 8],
    /// A computed `orient2d_value(a, b, p)` of edge `k` above `margin[k]` is
    /// certainly counterclockwise, for every point `p` of the set.
    margin: [f64; 8],
    /// The vertices, for the exact sign of the points the float test
    /// leaves undecided.
    vertices: [Vec2; 8],
    len: usize,
}

impl Octagon {
    /// The octagon of `points`, or `None` for fewer than
    /// [`FILTER_MIN_POINTS`] points, a coordinate outside the exact range,
    /// or fewer than three distinct vertices.
    fn of(points: &[Vec2]) -> Option<Self> {
        if points.len() < FILTER_MIN_POINTS {
            return None;
        }
        // The keys `x`, `x + y`, `y`, `y − x`: their maxima are the first
        // four vertices, their minima the last four (`−x − y` is exactly
        // the negated `x + y`).
        let mut hi = [f64::NEG_INFINITY; 4];
        let mut lo = [f64::INFINITY; 4];
        let mut at = [0; 8];
        let mut in_range = true;
        for (i, p) in points.iter().enumerate() {
            in_range &= in_exact_range(p.x) & in_exact_range(p.y);
            let keys = [p.x, p.x + p.y, p.y, p.y - p.x];
            // One branch per point: few points set a new extreme.
            let mut extreme = false;
            for k in 0..4 {
                extreme |= (keys[k] > hi[k]) | (keys[k] < lo[k]);
            }
            if !extreme {
                continue;
            }
            for k in 0..4 {
                if keys[k] > hi[k] {
                    hi[k] = keys[k];
                    at[k] = i;
                }
                if keys[k] < lo[k] {
                    lo[k] = keys[k];
                    at[k + 4] = i;
                }
            }
        }
        if !in_range {
            return None;
        }
        let mut vertices = [Vec2::ZERO; 8];
        let mut len = 0;
        for i in at {
            let v = points[i];
            if len == 0 || vertices[len - 1] != v {
                vertices[len] = v;
                len += 1;
            }
        }
        while len > 1 && vertices[len - 1] == vertices[0] {
            len -= 1;
        }
        if len < 3 {
            return None;
        }
        // No computed coordinate difference of two points exceeds the
        // computed width of the set on its axis: rounding is monotone.
        let (width, height) = (hi[0] - lo[0], hi[2] - lo[2]);
        let mut octagon = Octagon {
            ax: [0.0; 8],
            ay: [0.0; 8],
            dx: [0.0; 8],
            dy: [0.0; 8],
            margin: [0.0; 8],
            vertices,
            len,
        };
        for k in 0..8 {
            let (a, b) = (vertices[k % len], vertices[(k + 1) % len]);
            let d = b - a;
            (octagon.ax[k], octagon.ay[k]) = (a.x, a.y);
            (octagon.dx[k], octagon.dy[k]) = (d.x, d.y);
            octagon.margin[k] = ccw_margin(d.x.abs() * height + d.y.abs() * width);
        }
        Some(octagon)
    }

    /// Appends to `kept`, in input order, the points of `points` that are
    /// not strictly left of every edge.
    fn keep_outside(&self, points: &[Vec2], kept: &mut Vec<Vec2>) {
        for &p in points {
            // Most points are certainly inside, most of the rest certainly
            // outside: only points within a margin of an edge take the
            // exact sign.
            let (mut inside, mut outside) = (true, false);
            for k in 0..8 {
                let value = self.dx[k] * (p.y - self.ay[k]) - self.dy[k] * (p.x - self.ax[k]);
                inside &= value > self.margin[k];
                outside |= value < -self.margin[k];
            }
            if !inside && (outside || !self.strictly_inside(p)) {
                kept.push(p);
            }
        }
    }

    /// `true` when `p` is strictly left of every edge, by the exact sign.
    fn strictly_inside(&self, p: Vec2) -> bool {
        let v = &self.vertices[..self.len];
        (0..v.len())
            .all(|k| orient2d_exact(v[k], v[(k + 1) % v.len()], p) == Orientation::CounterClockwise)
    }
}

impl ConvexHull {
    /// The hull vertices in counterclockwise order.
    pub fn vertices(&self) -> &[Vec2] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` for the hull of an empty point set.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Perimeter of the hull (`0` for a point; `2·len` for a segment, its
    /// boundary walked both ways, consistent with treating it as a degenerate
    /// polygon — the paper's shrinkage lemma (Lemma 8) only ever compares
    /// perimeters of nondegenerate hulls).
    pub fn perimeter(&self) -> f64 {
        match self.vertices.len() {
            0 | 1 => 0.0,
            2 => 2.0 * self.vertices[0].dist(self.vertices[1]),
            _ => self.edges().map(|(a, b)| a.dist(b)).sum(),
        }
    }

    /// Area enclosed by the hull (shoelace formula; `0` for degenerate hulls).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut s = 0.0;
        for (a, b) in self.edges() {
            s += a.cross(b);
        }
        s / 2.0
    }

    /// Diameter: the maximum distance between two vertices, via rotating
    /// calipers (`O(h)` for hulls with at least three vertices; degenerate
    /// hulls fall back to the direct computation).
    pub fn diameter(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return self.diameter_brute();
        }
        // Rotating calipers: walk antipodal pairs around the CCW hull.
        let area2 = |a: Vec2, b: Vec2, c: Vec2| (b - a).cross(c - a).abs();
        let mut best = 0.0_f64;
        let mut j = 1;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            // Advance j while the triangle area (≈ distance from the edge)
            // keeps growing: j ends at the vertex antipodal to edge (a, b).
            while area2(a, b, self.vertices[(j + 1) % n]) > area2(a, b, self.vertices[j]) {
                j = (j + 1) % n;
            }
            best = best
                .max(a.dist(self.vertices[j]))
                .max(b.dist(self.vertices[j]));
        }
        best
    }

    /// Brute-force diameter (`O(h²)`); used by degenerate hulls and as a
    /// cross-check oracle in tests.
    pub fn diameter_brute(&self) -> f64 {
        let mut best = 0.0_f64;
        for i in 0..self.vertices.len() {
            for j in (i + 1)..self.vertices.len() {
                best = best.max(self.vertices[i].dist(self.vertices[j]));
            }
        }
        best
    }

    /// The directed edges `(a, b)` of the boundary, counterclockwise from
    /// the first vertex.
    fn edges(&self) -> impl Iterator<Item = (Vec2, Vec2)> + '_ {
        let next = self.vertices.iter().skip(1).chain(self.vertices.first());
        self.vertices.iter().copied().zip(next.copied())
    }

    /// Returns `true` when `p` lies inside or on the hull, with slack `eps`
    /// (distance to the hull boundary for outside points).
    pub fn contains(&self, p: Vec2, eps: f64) -> bool {
        self.contains_all(std::slice::from_ref(&p), eps)
    }

    /// Returns `true` when `other` is contained in `self` (every vertex of
    /// `other` inside, with slack `eps`). For convex polygons this is exact
    /// containment. This is the nested-hull check `CH_{t⁺} ⊆ CH_t` of §5.
    pub fn contains_hull(&self, other: &ConvexHull, eps: f64) -> bool {
        self.contains_all(&other.vertices, eps)
    }

    /// [`ConvexHull::contains`] for every point of `points`. A polygon's
    /// edge threshold is computed once per edge, not once per point.
    fn contains_all(&self, points: &[Vec2], eps: f64) -> bool {
        match self.vertices.len() {
            0 => points.is_empty(),
            1 => points.iter().all(|&p| self.vertices[0].dist(p) <= eps),
            2 => {
                let segment = crate::segment::Segment::new(self.vertices[0], self.vertices[1]);
                points.iter().all(|&p| segment.dist_to_point(p) <= eps)
            }
            _ => self.edges().all(|(a, b)| {
                // For a CCW polygon, interior points are on the left of
                // every edge. Allow eps slack scaled by edge length (the
                // cross product is distance × |ab|).
                let threshold = -eps * a.dist(b).max(1e-300);
                !points.iter().any(|&p| orient2d_value(a, b, p) < threshold)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::cloud;
    use proptest::prelude::*;

    /// The unfiltered chain: the oracle.
    fn unfiltered(points: &[Vec2]) -> ConvexHull {
        let mut hull = ConvexHull::default();
        monotone_chain(&mut points.to_vec(), &mut hull.vertices);
        hull
    }

    fn bits(hull: &ConvexHull) -> Vec<(u64, u64)> {
        hull.vertices
            .iter()
            .map(|v| (v.x.to_bits(), v.y.to_bits()))
            .collect()
    }

    /// Asserts that the kernel's hull is the unfiltered chain's, vertex
    /// for vertex by `to_bits`, and returns how many points it chained.
    fn chained_by_filter(points: &[Vec2]) -> u64 {
        let mut kernel = HullKernel::new();
        let hull = kernel.hull(points);
        assert_eq!(bits(&hull), bits(&unfiltered(points)), "{points:?}");
        assert!(kernel.points_chained() <= points.len() as u64);
        kernel.points_chained()
    }

    /// `side × side` lattice points `step` apart from `origin`.
    fn lattice(side: usize, step: f64, origin: Vec2) -> Vec<Vec2> {
        (0..side * side)
            .map(|i| origin + Vec2::new((i % side) as f64, (i / side) as f64) * step)
            .collect()
    }

    #[test]
    fn a_lattice_with_duplicates_chains_its_rim() {
        let mut points = lattice(16, 0.7, Vec2::new(1e3, -1e3));
        points.extend(lattice(16, 0.7, Vec2::new(1e3, -1e3)));
        assert_eq!(chained_by_filter(&points), 2 * 60);
        assert_eq!(convex_hull(&points).len(), 4);
        let exact = lattice(32, 1.0, Vec2::ZERO);
        assert_eq!(chained_by_filter(&exact), 124);
    }

    #[test]
    fn collinear_rows_and_diagonals() {
        let row: Vec<Vec2> = (0..40).map(|i| Vec2::new(f64::from(i), 3.0)).collect();
        assert_eq!(chained_by_filter(&row), 40, "a row has no octagon");
        assert_eq!(convex_hull(&row).vertices(), [row[0], row[39]]);
        let diagonal: Vec<Vec2> = (0..40)
            .map(|i| Vec2::new(f64::from(i), f64::from(i)))
            .collect();
        assert_eq!(chained_by_filter(&diagonal), 40);
        assert_eq!(convex_hull(&diagonal).len(), 2);
        // Rounded steps: the points are off their line by an ulp or two,
        // where the float orientation can get the turn wrong.
        let rounded: Vec<Vec2> = (0..40)
            .map(|i| Vec2::new(0.1 * f64::from(i), 0.1 * f64::from(i)))
            .collect();
        chained_by_filter(&rounded);
        // A square's rows and both diagonals, each point twice.
        let mut crossed = Vec::new();
        for i in 0..20 {
            let t = f64::from(i) * 0.25;
            for p in [
                (t, 0.0),
                (t, 4.75),
                (0.0, t),
                (4.75, t),
                (t, t),
                (t, 4.75 - t),
            ] {
                crossed.push(Vec2::new(p.0, p.1));
                crossed.push(Vec2::new(p.0, p.1));
            }
        }
        assert!(chained_by_filter(&crossed) < crossed.len() as u64);
        assert_eq!(convex_hull(&crossed).len(), 4);
    }

    #[test]
    fn coincident_points_and_signed_zeros() {
        let same = vec![Vec2::new(0.25, -3.0); 40];
        assert_eq!(chained_by_filter(&same), 40);
        assert_eq!(convex_hull(&same).vertices(), [same[0]]);
        // Every sign of zero at each lattice point on an axis; the
        // hull keeps the first copy of each vertex in input order.
        let mut zeros = Vec::new();
        for i in -5..=5 {
            for j in -5..=5 {
                let (x, y) = (f64::from(i), f64::from(j));
                zeros.push(Vec2::new(if i == 0 { -0.0 } else { x }, y));
                zeros.push(Vec2::new(x, if j == 0 { -0.0 } else { y }));
            }
        }
        zeros.extend([Vec2::new(-0.0, -0.0), Vec2::new(0.0, -0.0)]);
        zeros.push(Vec2::new(-0.0, 5.0));
        zeros.insert(0, Vec2::new(5.0, -0.0));
        assert!(chained_by_filter(&zeros) < zeros.len() as u64);
        let diamond: Vec<Vec2> = (0..64)
            .map(|i| {
                let t = f64::from(i % 16);
                let (x, y) =
                    [(t, 16.0 - t), (-t, t - 16.0), (t - 16.0, t), (16.0 - t, -t)][i as usize / 16];
                Vec2::new(if x == 0.0 { -0.0 } else { x }, y)
            })
            .collect();
        chained_by_filter(&diamond);
    }

    /// `p` lies just right of the octagon edge `a → b`, so it is a hull
    /// vertex, but the float `orient2d_value(a, b, p)` is positive: the
    /// float sign alone would drop it. The octagon is the triangle
    /// `b, c, a` (`b` comes before `p`, so `b` is the first to attain the
    /// largest `x − y`), and the filler points lie inside it.
    #[test]
    fn a_wrong_float_sign_next_to_an_edge_keeps_the_vertex() {
        let ulp = f64::EPSILON / 2.0;
        let (a, b, c) = (
            Vec2::new(0.5 + 41.0 * ulp, 0.5 + 48.0 * ulp),
            Vec2::new(24.0, 24.0),
            Vec2::new(-100.0, 100.0),
        );
        let p = Vec2::new(12.0, 12.0);
        assert!(orient2d_value(a, b, p) > 0.0);
        assert_eq!(orient2d_exact(a, b, p), Orientation::Clockwise);
        let mut points = vec![b, c, a, p];
        points.extend((0..30).map(|k| Vec2::new(-30.0, 40.0) + Vec2::new(0.5, 0.3) * f64::from(k)));
        chained_by_filter(&points);
        assert!(convex_hull(&points).vertices().contains(&p));
    }

    #[test]
    fn a_circle_keeps_every_vertex() {
        for n in [40, 200, 1000] {
            let circle: Vec<Vec2> = (0..n)
                .map(|i| Vec2::from_angle(f64::from(i) * std::f64::consts::TAU / f64::from(n)))
                .collect();
            chained_by_filter(&circle);
        }
    }

    #[test]
    fn the_cutoff_and_out_of_range_sets_chain_every_point() {
        for n in [
            FILTER_MIN_POINTS - 1,
            FILTER_MIN_POINTS,
            FILTER_MIN_POINTS + 1,
        ] {
            let points = cloud(n, 1.0, n as u64);
            let chained = chained_by_filter(&points);
            if n < FILTER_MIN_POINTS {
                assert_eq!(chained, n as u64);
            } else {
                assert!(chained < n as u64, "{chained} of {n}");
            }
        }
        let mut points = cloud(100, 1.0, 3);
        points[40] = Vec2::new(1e-130, 0.5);
        assert_eq!(chained_by_filter(&points), 100);
        points[40] = Vec2::new(1e160, 0.5);
        assert_eq!(chained_by_filter(&points), 100);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lattice points on one of a few steps, some moved by an ulp, some
        /// with a zero's sign flipped, some repeated, around the cutoff and
        /// well above it.
        #[test]
        fn the_filter_never_changes_the_hull(
            cells in proptest::collection::vec((-6i32..7, -6i32..7, 0u8..4), 0..160),
            frame in (0usize..4, -2.0..2.0f64, -2.0..2.0f64),
        ) {
            let (step, ox, oy) = frame;
            let step = [1.0, 0.7, 1e-3, 0.1][step];
            let origin = if ox < 0.0 { Vec2::ZERO } else { Vec2::new(ox * 1e3, oy * 1e3) };
            let points: Vec<Vec2> = cells
                .iter()
                .map(|&(i, j, jitter)| {
                    let mut p = origin + Vec2::new(f64::from(i), f64::from(j)) * step;
                    match jitter {
                        1 => p.x = p.x.next_up(),
                        2 if p.y == 0.0 => p.y = -p.y,
                        2 => p.y = p.y.next_down(),
                        _ => {}
                    }
                    p
                })
                .collect();
            let mut kernel = HullKernel::new();
            prop_assert_eq!(bits(&kernel.hull(&points)), bits(&unfiltered(&points)));
            prop_assert!(kernel.points_chained() <= points.len() as u64);
        }

        #[test]
        fn the_filter_never_changes_the_hull_of_a_cloud(
            points in proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 0..300),
        ) {
            let points: Vec<Vec2> = points.into_iter().map(|(x, y)| Vec2::new(x, y)).collect();
            prop_assert_eq!(bits(&convex_hull(&points)), bits(&unfiltered(&points)));
        }
    }

    fn square() -> Vec<Vec2> {
        vec![
            Vec2::ZERO,
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 2.0),
            Vec2::new(0.0, 2.0),
            Vec2::new(1.0, 1.0), // interior
            Vec2::new(1.0, 0.0), // edge point
        ]
    }

    #[test]
    fn hull_of_square() {
        let h = convex_hull(&square());
        assert_eq!(h.len(), 4);
        assert!((h.perimeter() - 8.0).abs() < 1e-12);
        assert!((h.area() - 4.0).abs() < 1e-12);
        assert!((h.diameter() - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn hull_is_ccw() {
        let h = convex_hull(&square());
        assert!(h.area() > 0.0, "shoelace area positive ⇒ CCW");
    }

    #[test]
    fn degenerate_hulls() {
        let h = convex_hull(&[]);
        assert!(h.is_empty());
        assert_eq!(h.perimeter(), 0.0);
        let h = convex_hull(&[Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0)]);
        assert_eq!(h.len(), 1);
        let h = convex_hull(&[Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(3.0, 0.0)]);
        assert_eq!(h.len(), 2);
        assert!((h.diameter() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        let h = convex_hull(&square());
        assert!(h.contains(Vec2::new(1.0, 1.0), 1e-9));
        assert!(h.contains(Vec2::new(0.0, 0.0), 1e-9)); // vertex
        assert!(h.contains(Vec2::new(1.0, 0.0), 1e-9)); // edge
        assert!(!h.contains(Vec2::new(3.0, 1.0), 1e-9));
        assert!(!h.contains(Vec2::new(-0.1, 1.0), 1e-9));
        // The slack is inclusive: half a unit below the bottom edge is
        // inside with slack 0.5, not with less.
        assert!(h.contains(Vec2::new(1.0, -0.5), 0.5));
        assert!(!h.contains(Vec2::new(1.0, -0.5), 0.499));
    }

    #[test]
    fn nested_hulls() {
        let outer = convex_hull(&square());
        let inner = convex_hull(&[
            Vec2::new(0.5, 0.5),
            Vec2::new(1.5, 0.5),
            Vec2::new(1.0, 1.5),
        ]);
        assert!(outer.contains_hull(&inner, 1e-9));
        assert!(!inner.contains_hull(&outer, 1e-9));
    }

    #[test]
    fn calipers_match_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            let n = rng.gen_range(3..40);
            let pts: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                .collect();
            let h = convex_hull(&pts);
            assert!(
                (h.diameter() - h.diameter_brute()).abs() < 1e-9,
                "calipers {} vs brute {} on {:?}",
                h.diameter(),
                h.diameter_brute(),
                pts
            );
        }
    }
}
