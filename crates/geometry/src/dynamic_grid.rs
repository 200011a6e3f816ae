//! A uniform grid for "who is within `r` of whom", over a point set that
//! changes one point at a time — the workspace's one spatial index.
//!
//! The simulation engine's Look, the strong-visibility monitor and the §7
//! adversary keep a `DynamicGrid` current as robots move: insert and remove
//! of individual points are O(1)-ish. A frozen point set, such as the
//! initial configuration whose visibility graph E(0) cohesion is judged
//! against, is indexed with [`DynamicGrid::from_points`] and its edges read
//! off with [`DynamicGrid::pairs_within`]. Determinism is part of the
//! contract: no hashing, no randomized iteration, each bucket holds point
//! indices ascending, and probe traversal is cell-lexicographic — results
//! are bit-for-bit reproducible across runs and platforms.
//!
//! Cells inside a caller-declared *dense extent* (the padded bounding box
//! of the expected working area, e.g. a swarm's initial configuration —
//! which the paper's hull-diminishing dynamics never leave) are
//! direct-addressed, so a probe is pure arithmetic over contiguous rows;
//! stray points outside the extent spill into a sorted `BTreeMap` that is
//! empty in the common case and checked only when non-empty.
//!
//! Range queries **append** to the caller's buffer without clearing or
//! sorting: the engine merges grid hits with its motile side-list and sorts
//! the union once, so sorting here would be wasted work. Buckets emptied by
//! [`DynamicGrid::remove`] keep their allocation — a robot oscillating
//! between two cells re-enters warm buckets without touching the allocator,
//! which is what makes the engine's per-event grid maintenance
//! allocation-free in the steady state.

use crate::point::Point;
use std::collections::BTreeMap;

/// Number of key axes carried per cell (2D keys pad the third axis with 0).
const KEY_AXES: usize = 3;

type CellKey = [i64; KEY_AXES];

/// The integer cell containing `p` at the given edge length. Coordinates on
/// a cell boundary land in the higher cell (`floor` semantics); coverage of
/// closed-radius queries is guaranteed because a probe always scans one full
/// cell layer beyond the radius in every axis.
fn cell_key<P: Point>(p: P, cell: f64) -> CellKey {
    let mut key = [0i64; KEY_AXES];
    for (axis, slot) in key.iter_mut().enumerate().take(P::DIM) {
        *slot = (p.coord(axis) / cell).floor() as i64;
    }
    key
}

/// Direct addressing covers at most `max(DENSE_MIN_CELLS,
/// DENSE_CELLS_PER_POINT · capacity)` cells; larger extents degrade
/// gracefully to the sorted-map representation for every cell.
const DENSE_CELLS_PER_POINT: i128 = 16;
const DENSE_MIN_CELLS: i128 = 4096;

/// How many cells of slack the dense extent keeps around the declared
/// working area, so bounded wandering (motion error, small hull growth)
/// stays on the fast path.
const DENSE_PAD_CELLS: i64 = 4;

/// A uniform grid over a mutable point set with stable integer identities.
///
/// Points are addressed by a caller-chosen dense index in `0..capacity`;
/// each index is either *present* (indexed at some position) or *absent*.
/// The engine maps robot indices straight onto grid indices and keeps
/// exactly the stationary robots present.
///
/// ```
/// use cohesion_geometry::{DynamicGrid, Vec2};
/// let mut grid = DynamicGrid::new(3, 1.0);
/// grid.insert(0, Vec2::new(0.0, 0.0));
/// grid.insert(1, Vec2::new(0.5, 0.0));
/// grid.insert(2, Vec2::new(3.0, 0.0));
/// let mut out = Vec::new();
/// grid.query_within(Vec2::new(0.1, 0.0), 1.0, &mut out);
/// out.sort_unstable();
/// assert_eq!(out, vec![0, 1]);
/// grid.remove(1);
/// out.clear();
/// grid.query_within(Vec2::new(0.1, 0.0), 1.0, &mut out);
/// assert_eq!(out, vec![0]);
/// let pts = [Vec2::new(0.0, 0.0), Vec2::new(0.5, 0.0), Vec2::new(3.0, 0.0)];
/// assert_eq!(DynamicGrid::from_points(&pts, 1.0).pairs_within(1.0), vec![(0, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGrid<P: Point> {
    cell: f64,
    /// Low corner of the direct-addressed extent (valid when `dense_cells >
    /// 0`).
    dense_min: CellKey,
    /// Extent dims per axis, ≥ 1 (axes beyond `P::DIM` are 1). All-zero
    /// sentinel when no dense extent exists.
    dense_dims: CellKey,
    /// Row-major buckets of the dense extent; `(index, position)` pairs,
    /// index-ascending within a bucket.
    dense: Vec<Vec<(u32, P)>>,
    /// Cells outside the dense extent (empty in the common case).
    outliers: BTreeMap<CellKey, Vec<(u32, P)>>,
    /// Per-index presence: the cell key and position of each present point.
    entries: Vec<Option<(CellKey, P)>>,
    /// Number of present points.
    len: usize,
}

impl<P: Point> DynamicGrid<P> {
    /// An empty grid for indices `0..capacity` with the given cell edge and
    /// no dense extent (every cell lives in the sorted map). Prefer
    /// [`DynamicGrid::with_extent`] when the working area is known.
    ///
    /// # Panics
    ///
    /// Panics when `cell` is not positive and finite, when `capacity`
    /// overflows `u32`, or when `P::DIM` exceeds the supported 3 axes.
    pub fn new(capacity: usize, cell: f64) -> Self {
        Self::with_extent(capacity, cell, &[])
    }

    /// An empty grid whose dense (direct-addressed) extent covers the
    /// bounding box of `working_area`, padded by a few cells of slack.
    /// Points may still be inserted anywhere — cells outside the extent
    /// just take the slower sorted-map path. An oversized or empty working
    /// area yields no dense extent at all.
    ///
    /// # Panics
    ///
    /// As for [`DynamicGrid::new`].
    pub fn with_extent(capacity: usize, cell: f64, working_area: &[P]) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell edge must be positive");
        assert!(
            P::DIM <= KEY_AXES,
            "DynamicGrid supports up to {KEY_AXES} dimensions"
        );
        assert!(u32::try_from(capacity).is_ok(), "capacity fits in u32");
        let (dense_min, dense_dims, cells) = dense_extent::<P>(working_area, cell, capacity);
        DynamicGrid {
            cell,
            dense_min,
            dense_dims,
            dense: vec![Vec::new(); cells],
            outliers: BTreeMap::new(),
            entries: vec![None; capacity],
            len: 0,
        }
    }

    /// A grid over `points` with every index present at its point: the
    /// dense extent covers them all, and `points[i]` is index `i`.
    ///
    /// # Panics
    ///
    /// As for [`DynamicGrid::new`].
    pub fn from_points(points: &[P], cell: f64) -> Self {
        let mut grid = Self::with_extent(points.len(), cell, points);
        for (i, &p) in points.iter().enumerate() {
            grid.insert(i, p);
        }
        grid
    }

    /// Whether any cell is direct-addressed (a probe of the dense-extent
    /// budget for the unit tests).
    #[cfg(test)]
    pub(crate) fn has_dense_extent(&self) -> bool {
        !self.dense.is_empty()
    }

    /// Number of present points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no point is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when index `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        self.entries[i].is_some()
    }

    /// The indexed position of `i`, when present.
    pub fn position(&self, i: usize) -> Option<P> {
        self.entries[i].map(|(_, p)| p)
    }

    /// Row-major slot of `key` inside the dense extent, or `None` when the
    /// key falls outside (or no extent exists).
    #[inline]
    fn dense_slot(&self, key: CellKey) -> Option<usize> {
        let (min, dims) = (self.dense_min, self.dense_dims);
        for a in 0..KEY_AXES {
            if key[a] < min[a] || key[a] >= min[a] + dims[a] {
                return None;
            }
        }
        Some(
            (((key[0] - min[0]) * dims[1] + (key[1] - min[1])) * dims[2] + (key[2] - min[2]))
                as usize,
        )
    }

    /// Indexes point `i` at position `p`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is already present (a lifecycle bug in the caller —
    /// move a point with [`Self::relocate`]).
    pub fn insert(&mut self, i: usize, p: P) {
        assert!(
            self.entries[i].is_none(),
            "point {i} inserted while already present"
        );
        let key = cell_key(p, self.cell);
        let bucket = match self.dense_slot(key) {
            Some(slot) => &mut self.dense[slot],
            None => self.outliers.entry(key).or_default(),
        };
        let slot = bucket
            .binary_search_by_key(&(i as u32), |&(j, _)| j)
            .expect_err("absent index cannot be bucketed");
        bucket.insert(slot, (i as u32, p));
        self.entries[i] = Some((key, p));
        self.len += 1;
    }

    /// Removes point `i` from the index. Its bucket keeps its allocation so
    /// a later insert into the same cell is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not present.
    pub fn remove(&mut self, i: usize) {
        let (key, _) = self.entries[i]
            .take()
            .unwrap_or_else(|| panic!("point {i} removed while absent"));
        let bucket = match self.dense_slot(key) {
            Some(slot) => &mut self.dense[slot],
            None => self.outliers.get_mut(&key).expect("present point's cell"),
        };
        let slot = bucket
            .binary_search_by_key(&(i as u32), |&(j, _)| j)
            .expect("present index is bucketed");
        bucket.remove(slot);
        self.len -= 1;
    }

    /// Moves present point `i` to `p`. When `p` keys to the same cell the
    /// bucket entry is rewritten in place (bucket order is by index, so it
    /// is unchanged); otherwise this is [`Self::remove`] then
    /// [`Self::insert`]. Either way the grid ends up exactly as remove +
    /// insert would leave it.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not present.
    pub fn relocate(&mut self, i: usize, p: P) {
        let (old_key, _) =
            self.entries[i].unwrap_or_else(|| panic!("point {i} relocated while absent"));
        let key = cell_key(p, self.cell);
        if key != old_key {
            self.remove(i);
            self.insert(i, p);
            return;
        }
        let bucket = match self.dense_slot(key) {
            Some(slot) => &mut self.dense[slot],
            None => self.outliers.get_mut(&key).expect("present point's cell"),
        };
        let slot = bucket
            .binary_search_by_key(&(i as u32), |&(j, _)| j)
            .expect("present index is bucketed");
        bucket[slot].1 = p;
        self.entries[i] = Some((key, p));
    }

    /// Appends to `out` every present index `j` with `dist(points[j], q) ≤
    /// radius` (closed predicate, matching §2.1's visibility definition),
    /// **including** any point coincident with `q`. Traversal is
    /// deterministic (dense cells in lexicographic order, then outlier
    /// cells); `out` is neither cleared nor sorted — the caller owns the
    /// merge order.
    pub fn query_within(&self, q: P, radius: f64, out: &mut Vec<usize>) {
        let (lo, hi) = self.key_box(cell_key(q, self.cell), radius);
        self.for_each_in_key_box(lo, hi, |j, p| {
            if (p - q).norm() <= radius {
                out.push(j);
            }
        });
    }

    /// Two-band range query: appends to `inner` every present index within
    /// `radius` of `q`, and to `fringe` every index in the open band
    /// `(radius, radius + pad]`. One traversal, one distance computation per
    /// visited point. Callers whose points may have drifted up to `pad` from
    /// their indexed position get a guaranteed superset (`inner ∪ fringe`)
    /// *and* the exact verdict for points indexed at their true position —
    /// the engine's Look trim skips re-deriving distances for stationary
    /// robots this way. Closed predicates on both radii, same deterministic
    /// traversal as [`Self::query_within`]; neither vector is cleared or
    /// sorted.
    pub fn query_within_banded(
        &self,
        q: P,
        radius: f64,
        pad: f64,
        inner: &mut Vec<usize>,
        fringe: &mut Vec<usize>,
    ) {
        let outer = radius + pad;
        let (lo, hi) = self.key_box(cell_key(q, self.cell), outer);
        self.for_each_in_key_box(lo, hi, |j, p| {
            let d = (p - q).norm();
            if d <= radius {
                inner.push(j);
            } else if d <= outer {
                fringe.push(j);
            }
        });
    }

    /// Every pair `(i, j)` of present indices with `i < j` and `dist ≤
    /// radius` (closed, as [`Self::query_within`]), in ascending
    /// lexicographic order — exactly the order of an all-pairs `i < j`
    /// double loop, on the same distance bits. Each pair is measured once,
    /// from its smaller index; `i` ascends by construction and each index's
    /// handful of partners is sorted in a scratch buffer.
    pub fn pairs_within(&self, radius: f64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut partners: Vec<usize> = Vec::new();
        for (i, entry) in self.entries.iter().enumerate() {
            let Some((key, p)) = *entry else { continue };
            let (lo, hi) = self.key_box(key, radius);
            partners.clear();
            self.for_each_in_key_box(lo, hi, |j, q| {
                if j > i && (q - p).norm() <= radius {
                    partners.push(j);
                }
            });
            partners.sort_unstable();
            pairs.extend(partners.iter().map(|&j| (i, j)));
        }
        pairs
    }

    /// The inclusive key box a query of the given radius around a point in
    /// cell `key` must scan: `ceil(radius / cell)` cells (at least one) on
    /// every side.
    #[inline]
    fn key_box(&self, key: CellKey, radius: f64) -> (CellKey, CellKey) {
        let reach = (radius / self.cell).ceil().max(1.0) as i64;
        let mut lo = [0i64; KEY_AXES];
        let mut hi = [0i64; KEY_AXES];
        for a in 0..P::DIM {
            lo[a] = key[a].saturating_sub(reach);
            hi[a] = key[a].saturating_add(reach);
        }
        (lo, hi)
    }

    /// Visits `(index, position)` of every present point in the inclusive
    /// key box `lo..=hi`: dense rows first (contiguous bucket runs — in 2D
    /// a whole `y` span of cells is one slice scan), then — only when any
    /// exist — outlier cells via sorted-map ranges.
    fn for_each_in_key_box(&self, lo: CellKey, hi: CellKey, mut visit: impl FnMut(usize, P)) {
        let (min, dims) = (self.dense_min, self.dense_dims);
        if !self.dense.is_empty() {
            // Clamp the probe box to the dense extent.
            let cl = |a: usize| (lo[a].max(min[a]), hi[a].min(min[a] + dims[a] - 1));
            let (x_lo, x_hi) = cl(0);
            let (y_lo, y_hi) = cl(1);
            let (z_lo, z_hi) = cl(2);
            if x_lo <= x_hi && y_lo <= y_hi && z_lo <= z_hi {
                for x in x_lo..=x_hi {
                    let x_base = (x - min[0]) * dims[1];
                    if dims[2] == 1 {
                        // Planar fast path: the y-run of cells is a
                        // contiguous slot range.
                        let s_lo = (x_base + (y_lo - min[1])) as usize;
                        let s_hi = (x_base + (y_hi - min[1])) as usize;
                        for bucket in &self.dense[s_lo..=s_hi] {
                            for &(j, p) in bucket {
                                visit(j as usize, p);
                            }
                        }
                    } else {
                        for y in y_lo..=y_hi {
                            let base = (x_base + (y - min[1])) * dims[2];
                            let s_lo = (base + (z_lo - min[2])) as usize;
                            let s_hi = (base + (z_hi - min[2])) as usize;
                            for bucket in &self.dense[s_lo..=s_hi] {
                                for &(j, p) in bucket {
                                    visit(j as usize, p);
                                }
                            }
                        }
                    }
                }
            }
        }
        if !self.outliers.is_empty() {
            // Rare path: points that wandered off the declared extent (or a
            // grid built with no extent at all). Keys inside the dense
            // extent are never stored here, so no cell is visited twice.
            for x in lo[0]..=hi[0] {
                if P::DIM < 3 {
                    // All 2D keys carry z = 0: the lex range over the row
                    // is exactly the y span.
                    for (_, bucket) in self.outliers.range([x, lo[1], 0]..=[x, hi[1], 0]) {
                        for &(j, p) in bucket {
                            visit(j as usize, p);
                        }
                    }
                } else {
                    for y in lo[1]..=hi[1] {
                        for (_, bucket) in self.outliers.range([x, y, lo[2]]..=[x, y, hi[2]]) {
                            for &(j, p) in bucket {
                                visit(j as usize, p);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The `(min, dims, cell_count)` of the padded dense extent over a working
/// area, or an all-zero sentinel (`cell_count == 0`) when the area is empty
/// or too large to address directly within the cell budget.
fn dense_extent<P: Point>(
    working_area: &[P],
    cell: f64,
    capacity: usize,
) -> (CellKey, CellKey, usize) {
    let none = ([0i64; KEY_AXES], [0i64; KEY_AXES], 0usize);
    let Some(first) = working_area.first() else {
        return none;
    };
    let first_key = cell_key(*first, cell);
    let (mut min, mut max) = (first_key, first_key);
    for p in working_area {
        let k = cell_key(*p, cell);
        for a in 0..KEY_AXES {
            min[a] = min[a].min(k[a]);
            max[a] = max[a].max(k[a]);
        }
    }
    let mut dims = [1i64; KEY_AXES];
    let mut cells: i128 = 1;
    for a in 0..P::DIM {
        min[a] = min[a].saturating_sub(DENSE_PAD_CELLS);
        max[a] = max[a].saturating_add(DENSE_PAD_CELLS);
        dims[a] = max[a].saturating_sub(min[a]).saturating_add(1);
        cells = cells.saturating_mul(dims[a] as i128);
    }
    let budget = DENSE_MIN_CELLS.max(capacity as i128 * DENSE_CELLS_PER_POINT);
    if cells > budget || !working_area.iter().all(|p| p.is_finite()) {
        return none;
    }
    (min, dims, cells as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec2::Vec2;
    use crate::vec3::Vec3;

    use crate::test_util::cloud;

    fn brute_within(pts: &[Option<Vec2>], q: Vec2, radius: f64) -> Vec<usize> {
        (0..pts.len())
            .filter(|&j| pts[j].is_some_and(|p| (p - q).norm() <= radius))
            .collect()
    }

    fn brute_pairs<P: Point>(pts: &[Option<P>], radius: f64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if let (Some(a), Some(b)) = (pts[i], pts[j]) {
                    if a.dist(b) <= radius {
                        pairs.push((i, j));
                    }
                }
            }
        }
        pairs
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut grid = DynamicGrid::new(4, 1.0);
        assert!(grid.is_empty());
        grid.insert(2, Vec2::new(1.0, 1.0));
        assert_eq!(grid.len(), 1);
        assert!(grid.contains(2));
        assert_eq!(grid.position(2), Some(Vec2::new(1.0, 1.0)));
        assert!(!grid.contains(0));
        grid.remove(2);
        assert!(grid.is_empty());
        assert_eq!(grid.position(2), None);
    }

    #[test]
    #[should_panic(expected = "inserted while already present")]
    fn double_insert_panics() {
        let mut grid = DynamicGrid::new(2, 1.0);
        grid.insert(0, Vec2::ZERO);
        grid.insert(0, Vec2::new(1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "removed while absent")]
    fn absent_remove_panics() {
        let mut grid: DynamicGrid<Vec2> = DynamicGrid::new(2, 1.0);
        grid.remove(0);
    }

    #[test]
    #[should_panic(expected = "relocated while absent")]
    fn absent_relocate_panics() {
        let mut grid = DynamicGrid::new(2, 1.0);
        grid.relocate(0, Vec2::ZERO);
    }

    /// Both representations under churn: a grid with a dense extent over
    /// the cloud, and one with no extent at all (pure sorted-map), must
    /// agree with brute force and with each other.
    #[test]
    fn query_matches_brute_force_under_churn() {
        let pts = cloud(120, 7.0, 5);
        for with_extent in [true, false] {
            let mut grid = if with_extent {
                DynamicGrid::with_extent(pts.len(), 1.0, &pts)
            } else {
                DynamicGrid::new(pts.len(), 1.0)
            };
            let mut present: Vec<Option<Vec2>> = vec![None; pts.len()];
            for (i, &p) in pts.iter().enumerate() {
                grid.insert(i, p);
                present[i] = Some(p);
            }
            // Churn: remove every third point, move every fifth — some far
            // outside the declared extent.
            for i in (0..pts.len()).step_by(3) {
                grid.remove(i);
                present[i] = None;
            }
            for i in (0..pts.len()).step_by(5) {
                if present[i].is_some() {
                    let moved = pts[i] + Vec2::new(40.0, -0.61);
                    grid.remove(i);
                    grid.insert(i, moved);
                    present[i] = Some(moved);
                }
            }
            assert_eq!(grid.pairs_within(1.2), brute_pairs(&present, 1.2));
            let mut out = Vec::new();
            for (q, r) in [
                (Vec2::new(3.5, 3.5), 1.0),
                (Vec2::new(0.0, 0.0), 2.5),
                (Vec2::new(43.5, 2.9), 1.5),
                (Vec2::new(6.9, 0.1), 0.8),
            ] {
                out.clear();
                grid.query_within(q, r, &mut out);
                out.sort_unstable();
                assert_eq!(
                    out,
                    brute_within(&present, q, r),
                    "q={q} r={r} extent={with_extent}"
                );
            }
        }
    }

    #[test]
    fn query_radius_exactly_on_boundary_counts() {
        let mut grid = DynamicGrid::new(2, 1.0);
        grid.insert(0, Vec2::new(1.0, 0.0));
        grid.insert(1, Vec2::new(1.0 + 1e-9, 0.0));
        let mut out = Vec::new();
        grid.query_within(Vec2::ZERO, 1.0, &mut out);
        assert_eq!(out, vec![0], "closed at the radius, open beyond");
    }

    #[test]
    fn query_radius_larger_than_cell() {
        let pts = cloud(60, 5.0, 8);
        let grid = DynamicGrid::from_points(&pts, 0.5);
        let present: Vec<Option<Vec2>> = pts.iter().map(|&p| Some(p)).collect();
        let mut out = Vec::new();
        grid.query_within(Vec2::new(2.5, 2.5), 1.7, &mut out);
        out.sort_unstable();
        assert_eq!(out, brute_within(&present, Vec2::new(2.5, 2.5), 1.7));
    }

    #[test]
    fn emptied_buckets_keep_serving_queries() {
        // A point oscillating between a dense-extent cell and an outlier
        // cell: queries stay exact, and warm buckets left behind on either
        // side never produce stale hits.
        let anchor = [Vec2::new(0.5, 0.5)];
        let mut grid = DynamicGrid::with_extent(1, 1.0, &anchor);
        let (inside, outside) = (Vec2::new(0.5, 0.5), Vec2::new(500.5, 0.5));
        let mut out = Vec::new();
        for round in 0..10 {
            let here = if round % 2 == 0 { inside } else { outside };
            grid.insert(0, here);
            out.clear();
            grid.query_within(inside, 1.0, &mut out);
            assert_eq!(out.as_slice(), if round % 2 == 0 { &[0][..] } else { &[] });
            out.clear();
            grid.query_within(outside, 1.0, &mut out);
            assert_eq!(out.as_slice(), if round % 2 == 0 { &[] } else { &[0][..] });
            grid.remove(0);
        }
    }

    #[test]
    fn oversized_working_area_degrades_to_no_extent() {
        // Two points ~1e9 cells apart: the extent budget is blown, the grid
        // must still answer exactly (all cells in the sorted map).
        let pts = [Vec2::new(0.0, 0.0), Vec2::new(1e9, 1e9)];
        let mut grid = DynamicGrid::with_extent(2, 1.0, &pts);
        assert!(grid.dense.is_empty(), "no direct addressing at 1e18 cells");
        grid.insert(0, pts[0]);
        grid.insert(1, pts[1]);
        let mut out = Vec::new();
        grid.query_within(Vec2::new(1e9, 1e9), 2.0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn works_in_three_dimensions() {
        let pts: Vec<Vec3> = (0..50)
            .map(|i| {
                let f = i as f64;
                Vec3::new((f * 0.37).sin() * 3.0, (f * 0.61).cos() * 3.0, f * 0.11)
            })
            .collect();
        let grid = DynamicGrid::from_points(&pts, 0.9);
        let q = Vec3::new(0.0, 0.0, 2.0);
        let mut out = Vec::new();
        grid.query_within(q, 1.5, &mut out);
        out.sort_unstable();
        let brute: Vec<usize> = (0..pts.len())
            .filter(|&j| (pts[j] - q).norm() <= 1.5)
            .collect();
        assert_eq!(out, brute);
    }

    #[test]
    #[should_panic(expected = "cell edge must be positive")]
    fn zero_cell_panics() {
        let _ = DynamicGrid::<Vec2>::new(1, 0.0);
    }
}
