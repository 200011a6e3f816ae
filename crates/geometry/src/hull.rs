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
//!
//! # The nesting walk
//!
//! [`ConvexHull::contains_hull`] asks whether every vertex `p` of an inner
//! hull has, on every edge `a → b` of an outer one, a computed
//! `orient2d_value(a, b, p)` at least the edge's threshold
//! `−eps·|ab|`. The full scan evaluates all `h_outer · h_inner` values.
//! [`HullKernel::contains_hull`] returns the same verdict from a walk that
//! evaluates about one value per edge, for two polygons of at least three
//! vertices, coordinates in the exact range and at least
//! [`WALK_MIN_PAIRS`] vertex pairs; other pairs take the full scan.
//!
//! For the edge `a → b` let `d` be the computed `b − a` and
//! `g(p) = d × (p − a)` in exact arithmetic; the computed value `v(p)`
//! rounds `g(p)`. Along the inner hull's vertices `g` changes by
//! `d × (q_{j+1} − q_j)`, whose sign the float test of `orient2d_exact`
//! certifies when it can (falling, rising) and leaves undecided otherwise.
//! The inner hull is strictly convex and counterclockwise (exact
//! orientation signs, step 1), so its edge directions turn once around:
//! the exact steps fall along one run of vertices and rise along the other,
//! with at most one level step between. A *window* of consecutive vertices
//! entered by a certainly falling step, left by a certainly rising one and
//! joined by steps that are neither therefore holds a vertex `s` that
//! minimises `g` over the whole inner hull. The walk keeps a pointer that
//! moves forward as the outer edges turn counterclockwise, finds each
//! edge's window from it, and evaluates `v` on the window's vertices
//! (usually one or two):
//!
//! - **Reject** when some window value is below the threshold: the full
//!   scan evaluates that same value, so it rejects too.
//! - **Accept** when the lowest window value clears the threshold by twice
//!   the rounding bound `E = 2⁻⁵⁰·(|d.x|·H + |d.y|·W)`, with `W` and `H`
//!   the computed spans of both hulls' vertices on each axis. Each of the
//!   three roundings in `v(p)` is relative to a product bounded by
//!   `|d.x|·H + |d.y|·W`, so `|v(p) − g(p)| < 4·2⁻⁵³·(|d.x|·H + |d.y|·W)`
//!   (no product overflows or underflows in the exact range), under `E/2`.
//!   Then for every vertex `p`, `v(p) > g(p) − E/2 ≥ g(s) − E/2 >
//!   v(s) − E`, which clears the threshold.
//! - **Fall back** to the full scan of that edge in every other case: a
//!   value too close to call, a NaN threshold, or a window the walk cannot
//!   bound within one turn around the inner hull.
//!
//! Each pointer move and each window needs a certified step, so the walk
//! makes `O(h_outer + h_inner)` step tests and evaluations for a nested
//! pair; [`NestingWork`] counts its evaluations and its full scans. The
//! walk relies on both hulls being what the chain returns; a
//! [`ConvexHull`] deserialized from other vertices is outside its contract.

use crate::point::Point;
use crate::predicates::{
    ccw_margin, in_exact_range, orient2d_exact, orient2d_value, step_sign, Orientation,
};
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
    nesting: NestingWork,
}

/// The work counters of [`HullKernel::contains_hull`], summed over its
/// calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NestingWork {
    /// `orient2d_value` evaluations: one per edge the walk decides, plus
    /// one per vertex of every full scan.
    pub orientations: u64,
    /// Edges tested against every vertex of the inner hull: the walk's
    /// fallbacks, and every edge of the hulls it does not take.
    pub full_scans: u64,
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

    /// The convex hull of `points`, projected on the plane.
    pub fn hull<P: Point>(&mut self, points: &[P]) -> ConvexHull {
        let mut hull = ConvexHull::default();
        self.hull_into(points, &mut hull);
        hull
    }

    /// The work counters of the nesting tests so far.
    pub fn nesting_work(&self) -> NestingWork {
        self.nesting
    }

    /// `true` when `outer` contains `inner` with slack `eps`: bit for bit
    /// the verdict of testing every vertex of `inner` against every edge of
    /// `outer`, [`ConvexHull::contains`]'s test, in `O(h_outer + h_inner)`
    /// for two polygons (module docs, “The nesting walk”). Hulls of at most
    /// two vertices, coordinates outside the exact range and pairs with
    /// fewer than [`WALK_MIN_PAIRS`] vertex–edge pairs take the full scan.
    pub fn contains_hull(&mut self, outer: &ConvexHull, inner: &ConvexHull, eps: f64) -> bool {
        let (o, i) = (&outer.vertices, &inner.vertices);
        let walkable = o.len() >= 3
            && i.len() >= 3
            && o.len() * i.len() >= WALK_MIN_PAIRS
            && o.iter()
                .chain(i)
                .all(|p| in_exact_range(p.x) & in_exact_range(p.y));
        if !walkable {
            return outer.contains_all(i, eps, &mut self.nesting);
        }
        nesting_walk(o, i, eps, &mut self.nesting)
    }

    /// Writes the convex hull of `points`, projected on the plane, into
    /// `hull`, reusing its buffer: bit for bit the unfiltered monotone
    /// chain's hull of the projections (module docs). Only the points that
    /// reach the chain are projected into its buffer.
    ///
    /// # Panics
    ///
    /// Panics when the sort meets a NaN coordinate.
    pub fn hull_into<P: Point>(&mut self, points: &[P], hull: &mut ConvexHull) {
        self.chained.clear();
        match Octagon::of(points) {
            Some(octagon) => octagon.keep_outside(points, &mut self.chained),
            None => self.chained.extend(points.iter().map(|&p| planar(p))),
        }
        self.points_chained += self.chained.len() as u64;
        monotone_chain(&mut self.chained, &mut hull.vertices);
    }
}

/// The projection of `p` on the plane of its first two coordinates.
#[inline]
fn planar<P: Point>(p: P) -> Vec2 {
    Vec2::new(p.coord(0), p.coord(1))
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

/// Vertex pairs `h_outer · h_inner` below which [`HullKernel::contains_hull`]
/// scans every vertex against every edge. The walk costs about 30 ns per
/// edge of the outer hull, the scan about 1.2 ns per pair: on rings of `h`
/// vertices inside rings of `h` they break even near `h = 24…28` (2-vCPU
/// x86-64 host).
pub const WALK_MIN_PAIRS: usize = 768;

/// `2⁻⁵⁰`: the walk's rounding bound per unit of `|d.x|·H + |d.y|·W`
/// (module docs).
const WALK_ROUNDING: f64 = 1.0 / (1u64 << 50) as f64;

/// The nesting walk over two strictly convex counterclockwise polygons
/// with coordinates in the exact range (module docs, “The nesting walk”).
fn nesting_walk(outer: &[Vec2], inner: &[Vec2], eps: f64, work: &mut NestingWork) -> bool {
    // Every coordinate difference of a vertex of `inner` and one of `outer`
    // is at most the computed span of both on its axis.
    let (mut lo, mut hi) = (inner[0], inner[0]);
    for p in outer.iter().chain(inner) {
        (lo.x, lo.y) = (lo.x.min(p.x), lo.y.min(p.y));
        (hi.x, hi.y) = (hi.x.max(p.x), hi.y.max(p.y));
    }
    let (width, height) = (hi.x - lo.x, hi.y - lo.y);
    let m = inner.len();
    let after = |j: usize| if j + 1 == m { 0 } else { j + 1 };
    let before = |j: usize| if j == 0 { m - 1 } else { j - 1 };
    // The certified sign of `g(inner[j + 1]) − g(inner[j])`, `g(p) = d × p`.
    let step = |d: Vec2, j: usize| step_sign(d, inner[j], inner[after(j)]);
    const FALLING: i8 = -1;
    const RISING: i8 = 1;
    let mut j = 0;
    for (a, b) in outer
        .iter()
        .copied()
        .zip(outer[1..].iter().chain(&outer[..1]).copied())
    {
        let d = b - a;
        let threshold = edge_threshold(a, b, eps);
        // The window `first..=last` of vertices between a certainly falling
        // step and a certainly rising one, every step inside uncertain or
        // level, holds a minimum of `g`. Back up while `g` certainly falls
        // backwards and over uncertain steps to a certainly falling one,
        // then run forward to the first certainly rising step, restarting
        // the window after every certainly falling step. Each phase takes
        // at most `m` steps; a phase that does not end takes the full scan.
        let mut window = None;
        let mut into = step(d, before(j));
        for _ in 0..m {
            if into == FALLING {
                break;
            }
            j = before(j);
            into = step(d, before(j));
        }
        if into == FALLING {
            let (mut first, mut last) = (j, j);
            for _ in 0..m {
                match step(d, last) {
                    RISING => {
                        window = Some((first, last));
                        break;
                    }
                    FALLING => first = after(last),
                    _ => {}
                }
                last = after(last);
            }
        }
        let Some((first, last)) = window else {
            work.full_scans += 1;
            if !scan_edge(a, b, threshold, inner, work) {
                return false;
            }
            continue;
        };
        j = first;
        let mut lowest = f64::INFINITY;
        let mut k = first;
        loop {
            let value = orient2d_value(a, b, inner[k]);
            work.orientations += 1;
            if value < threshold {
                return false;
            }
            lowest = lowest.min(value);
            if k == last {
                break;
            }
            k = after(k);
        }
        let rounding = WALK_ROUNDING * (d.x.abs() * height + d.y.abs() * width);
        if lowest - threshold >= 2.0 * rounding {
            continue;
        }
        // Too close to call, or a NaN threshold: the full scan decides.
        work.full_scans += 1;
        if !scan_edge(a, b, threshold, inner, work) {
            return false;
        }
    }
    true
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
    fn of<P: Point>(points: &[P]) -> Option<Self> {
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
        for (i, &p) in points.iter().enumerate() {
            let p = planar(p);
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
            let v = planar(points[i]);
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
    fn keep_outside<P: Point>(&self, points: &[P], kept: &mut Vec<Vec2>) {
        for &p in points {
            let p = planar(p);
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

    /// The directed edges `(a, b)` of the boundary, counterclockwise from
    /// the first vertex.
    fn edges(&self) -> impl Iterator<Item = (Vec2, Vec2)> + '_ {
        let next = self.vertices.iter().skip(1).chain(self.vertices.first());
        self.vertices.iter().copied().zip(next.copied())
    }

    /// Returns `true` when `p` lies inside or on the hull, with slack `eps`
    /// (distance to the hull boundary for outside points).
    pub fn contains(&self, p: Vec2, eps: f64) -> bool {
        self.contains_all(std::slice::from_ref(&p), eps, &mut NestingWork::default())
    }

    /// Returns `true` when `other` is contained in `self` (every vertex of
    /// `other` inside, with slack `eps`). For convex polygons this is exact
    /// containment. This is the nested-hull check `CH_{t⁺} ⊆ CH_t` of §5,
    /// through a fresh [`HullKernel`]; see [`HullKernel::contains_hull`].
    pub fn contains_hull(&self, other: &ConvexHull, eps: f64) -> bool {
        HullKernel::new().contains_hull(self, other, eps)
    }

    /// [`ConvexHull::contains`] for every point of `points`: for a polygon,
    /// every edge against every point, with the edge's threshold computed
    /// once per edge. Counts its `orient2d_value` evaluations in `work`.
    fn contains_all(&self, points: &[Vec2], eps: f64, work: &mut NestingWork) -> bool {
        match self.vertices.len() {
            0 => points.is_empty(),
            1 => points.iter().all(|&p| self.vertices[0].dist(p) <= eps),
            2 => {
                let segment = crate::segment::Segment::new(self.vertices[0], self.vertices[1]);
                points.iter().all(|&p| segment.dist_to_point(p) <= eps)
            }
            _ => self.edges().all(|(a, b)| {
                work.full_scans += 1;
                scan_edge(a, b, edge_threshold(a, b, eps), points, work)
            }),
        }
    }
}

/// The threshold of edge `a → b`: a point is inside the edge's half-plane,
/// with slack `eps`, when its `orient2d_value` is at least this. For a CCW
/// polygon interior points are on the left of every edge; the cross product
/// is distance × `|ab|`, so the slack is scaled by the edge length.
#[inline]
fn edge_threshold(a: Vec2, b: Vec2, eps: f64) -> f64 {
    -eps * a.dist(b).max(1e-300)
}

/// `true` when no point of `points` has an `orient2d_value` on edge
/// `a → b` below `threshold`: one edge of the full scan.
#[inline]
fn scan_edge(a: Vec2, b: Vec2, threshold: f64, points: &[Vec2], work: &mut NestingWork) -> bool {
    match points
        .iter()
        .position(|&p| orient2d_value(a, b, p) < threshold)
    {
        Some(at) => {
            work.orientations += at as u64 + 1;
            false
        }
        None => {
            work.orientations += points.len() as u64;
            true
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
    }

    /// Every turn of the boundary is counterclockwise by the exact sign:
    /// the order the nesting walk relies on.
    fn assert_ccw(h: &ConvexHull) {
        let v = h.vertices();
        for k in 0..v.len() {
            let turn = orient2d_exact(v[k], v[(k + 1) % v.len()], v[(k + 2) % v.len()]);
            assert_eq!(turn, Orientation::CounterClockwise, "{v:?}");
        }
    }

    #[test]
    fn hull_is_ccw() {
        assert_ccw(&convex_hull(&square()));
        for seed in 0..20 {
            assert_ccw(&convex_hull(&cloud(50, 1.0, seed)));
        }
    }

    #[test]
    fn degenerate_hulls() {
        let h = convex_hull(&[]);
        assert!(h.is_empty());
        assert_eq!(h.perimeter(), 0.0);
        let h = convex_hull(&[Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0)]);
        assert_eq!(h.len(), 1);
        let h = convex_hull(&[Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(3.0, 0.0)]);
        assert_eq!(h.vertices(), [Vec2::ZERO, Vec2::new(3.0, 0.0)]);
        assert!((h.perimeter() - 6.0).abs() < 1e-12);
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

    /// Today's full scan, every vertex of `inner` against every edge of
    /// `outer`: the oracle.
    fn scanned(outer: &ConvexHull, inner: &ConvexHull, eps: f64) -> bool {
        outer.contains_all(inner.vertices(), eps, &mut NestingWork::default())
    }

    /// Asserts that the kernel's verdict, and the walk's on any two
    /// polygons whatever their size, is the full scan's, and that the walk
    /// made `O(h_outer + h_inner)` evaluations outside its full scans;
    /// returns the verdict and the walk's counters (the kernel's for
    /// hulls of at most two vertices).
    fn nested(outer: &ConvexHull, inner: &ConvexHull, eps: f64) -> (bool, NestingWork) {
        let mut kernel = HullKernel::new();
        let verdict = kernel.contains_hull(outer, inner, eps);
        assert_eq!(
            verdict,
            scanned(outer, inner, eps),
            "{outer:?} ⊇ {inner:?}, eps {eps}"
        );
        if outer.len() < 3 || inner.len() < 3 {
            return (verdict, kernel.nesting_work());
        }
        let mut work = NestingWork::default();
        let walked = nesting_walk(outer.vertices(), inner.vertices(), eps, &mut work);
        assert_eq!(walked, verdict, "{outer:?} ⊇ {inner:?}, eps {eps}");
        let (scans, walk) = (work.full_scans, 2 * (outer.len() + inner.len()) as u64);
        assert!(
            work.orientations <= walk + scans * inner.len() as u64,
            "{work:?}"
        );
        (verdict, work)
    }

    /// Both orders and the self-test of each, at several slacks.
    fn all_nestings(a: &ConvexHull, b: &ConvexHull) {
        for eps in [0.0, -0.0, 1e-12, 1e-7, 0.5] {
            for (outer, inner) in [(a, b), (b, a), (a, a), (b, b)] {
                nested(outer, inner, eps);
            }
        }
    }

    #[test]
    fn nesting_on_degenerate_sets() {
        let point = convex_hull(&[Vec2::new(1.0, 1.0); 5]);
        let segment = convex_hull(&[Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(3.0, 0.0)]);
        let triangle = convex_hull(&[Vec2::ZERO, Vec2::new(3.0, 0.0), Vec2::new(0.0, 3.0)]);
        let square = convex_hull(&square());
        let empty = ConvexHull::default();
        let hulls = [empty, point, segment, triangle, square];
        for a in &hulls {
            for b in &hulls {
                all_nestings(a, b);
            }
        }
    }

    #[test]
    fn nesting_with_signed_zero_twins_and_shared_vertices() {
        let outer = convex_hull(&[
            Vec2::new(-0.0, 0.0),
            Vec2::new(4.0, -0.0),
            Vec2::new(4.0, 4.0),
            Vec2::new(0.0, 4.0),
        ]);
        // The same square with every zero's sign flipped, and one with a
        // corner cut: both share vertices and edges with `outer`.
        let twin = convex_hull(&[
            Vec2::new(0.0, -0.0),
            Vec2::new(4.0, 0.0),
            Vec2::new(4.0, 4.0),
            Vec2::new(-0.0, 4.0),
        ]);
        let cut = convex_hull(&[
            Vec2::new(0.0, 0.0),
            Vec2::new(4.0, 0.0),
            Vec2::new(4.0, 3.0),
            Vec2::new(3.0, 4.0),
            Vec2::new(0.0, 4.0),
        ]);
        all_nestings(&outer, &twin);
        all_nestings(&outer, &cut);
        assert!(nested(&outer, &cut, 0.0).0);
        assert!(!nested(&cut, &outer, 1e-9).0);
    }

    #[test]
    fn nesting_of_near_parallel_edges() {
        let ulp = f64::EPSILON;
        let outer = convex_hull(&[
            Vec2::new(0.1, 0.1),
            Vec2::new(10.3, 0.1),
            Vec2::new(10.3, 7.7),
            Vec2::new(0.1, 7.7),
        ]);
        // Each edge of `inner` lies a few ulps off an edge of `outer`,
        // turned by a few ulps, inside or out.
        for tilt in [-4.0, -1.0, 0.0, 1.0, 4.0] {
            let inner = convex_hull(&[
                Vec2::new(0.1, 0.1 * (1.0 + tilt * ulp)),
                Vec2::new(10.3 * (1.0 - tilt * ulp), 0.1),
                Vec2::new(10.3, 7.7 * (1.0 + tilt * ulp)),
                Vec2::new(0.1 * (1.0 - tilt * ulp), 7.7),
            ]);
            all_nestings(&outer, &inner);
        }
    }

    /// Robots and their pending targets one ulp apart, every one a strict
    /// vertex: the inner hull has edges one ulp long, whose direction no
    /// float evaluation decides.
    #[test]
    fn nesting_with_targets_one_ulp_from_their_robots() {
        let mut points = Vec::new();
        for k in 0..24 {
            let p = Vec2::from_angle(f64::from(k) * std::f64::consts::TAU / 24.0) * 3.0;
            points.push(p);
            points.push(Vec2::new(p.x.next_up(), p.y.next_up()));
        }
        let inner = convex_hull(&points);
        assert!(inner.len() > 24, "{}", inner.len());
        let outer = convex_hull(&points[..points.len() - 2]);
        all_nestings(&outer, &inner);
    }

    #[test]
    fn a_hull_tested_against_itself_without_slack_falls_back() {
        let hull = convex_hull(&cloud(200, 1.0, 7));
        let (verdict, work) = nested(&hull, &hull, 0.0);
        assert!(verdict);
        assert!(work.full_scans > 0, "{work:?}");
        let (verdict, work) = nested(&hull, &hull, 1e-9);
        assert!(verdict);
        assert_eq!(work.full_scans, 0, "{work:?}");
        assert!(work.orientations <= 2 * hull.len() as u64, "{work:?}");
    }

    /// The kernel scans small pairs in full and walks large ones.
    #[test]
    fn the_kernel_walks_only_pairs_of_walk_min_pairs_or_more() {
        let ring = |n: u32, r: f64| {
            let points: Vec<Vec2> = (0..n)
                .map(|i| Vec2::from_angle(f64::from(i) * std::f64::consts::TAU / f64::from(n)) * r)
                .collect();
            convex_hull(&points)
        };
        for (n, walked) in [(8, false), (27, false), (28, true), (64, true)] {
            let (outer, inner) = (ring(n, 1.0), ring(n, 0.5));
            assert_eq!(outer.len() * inner.len() >= WALK_MIN_PAIRS, walked, "{n}");
            let mut kernel = HullKernel::new();
            assert!(kernel.contains_hull(&outer, &inner, 1e-9));
            let full_scans = if walked { 0 } else { u64::from(n) };
            assert_eq!(kernel.nesting_work().full_scans, full_scans, "{n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Two clouds on a coarse lattice, the second shrunk toward a point
        /// or moved by a few ulps: nested, touching, crossing and disjoint
        /// pairs, with shared vertices and parallel edges.
        #[test]
        fn the_walk_never_changes_the_verdict(
            cells in proptest::collection::vec((-6i32..7, -6i32..7), 1..60),
            moves in proptest::collection::vec((0usize..60, 0u8..4), 0..20),
            frame in (0usize..3, -1.0..1.0f64, -1.0..1.0f64, 0.0..1.2f64),
        ) {
            let (step, ox, oy, shrink) = frame;
            let step = [1.0, 0.7, 0.1][step];
            let origin = Vec2::new(ox * 10.0, oy * 10.0);
            let first: Vec<Vec2> = cells
                .iter()
                .map(|&(i, j)| origin + Vec2::new(f64::from(i), f64::from(j)) * step)
                .collect();
            let centre = first[0];
            let mut second: Vec<Vec2> =
                first.iter().map(|&p| centre + (p - centre) * shrink).collect();
            for &(at, kind) in &moves {
                let p = &mut second[at % first.len()];
                match kind {
                    0 => p.x = p.x.next_up(),
                    1 => p.y = p.y.next_down(),
                    2 => *p = first[at % first.len()],
                    _ => p.x = -p.x,
                }
            }
            all_nestings(&convex_hull(&first), &convex_hull(&second));
        }
    }
}
