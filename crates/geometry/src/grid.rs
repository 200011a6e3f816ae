//! A uniform spatial-hash grid for near-linear radius queries.
//!
//! Visibility-graph construction, cohesion checking, and every other
//! "who is within distance `r` of whom" question in the workspace is a
//! fixed-radius neighbour problem. For bounded-density clouds (the paper's
//! standing regime: connected configurations at visibility scale `V`), a
//! uniform grid with cell edge ≈ `r` answers each query by scanning the
//! `3^DIM` surrounding cells, turning the naive `O(n²)` all-pairs sweep
//! into `O(n · density)`.
//!
//! Determinism is part of the contract: bucket contents are grouped by
//! lexicographically sorted cell key and hold point indices in ascending
//! order, and every query result is returned sorted ascending — so callers
//! building edge lists get exactly the order a brute-force `i < j` double
//! loop would produce, independent of build or probe order.

use crate::point::Point;

/// Number of key axes carried per cell (2D keys pad the third axis with 0).
pub(crate) const KEY_AXES: usize = 3;

pub(crate) type CellKey = [i64; KEY_AXES];

/// How the occupied cells are addressed.
///
/// Both layouts share the `order` array (point indices grouped by cell,
/// ascending within each cell) and produce identical query results; they
/// differ only in how a cell key maps to its slice of `order`.
#[derive(Debug, Clone)]
enum CellIndex {
    /// Direct addressing over the key bounding box: `starts` has one entry
    /// per cell of the box (row-major, plus the trailing sentinel), so a
    /// probe is pure arithmetic and a whole row of cells is one contiguous
    /// `order` run. Chosen when the box is small relative to the point
    /// count — the bounded-density regime the grid is designed for.
    Dense {
        /// Minimum cell key over all points (the box origin).
        min: CellKey,
        /// Box extent along each axis, ≥ 1 (axes beyond `P::DIM` are 1).
        dims: CellKey,
        /// Row-major CSR offsets into `order`; `len == cells + 1`.
        starts: Vec<u32>,
    },
    /// Sorted, deduplicated cell keys with binary-search lookup — the
    /// fallback for far-flung clouds whose bounding box would dwarf the
    /// point count (e.g. adversarial spirals).
    Sparse {
        /// Sorted, deduplicated cell keys.
        keys: Vec<CellKey>,
        /// CSR offsets into `order`; `len == keys.len() + 1`.
        starts: Vec<u32>,
    },
}

/// Dense addressing is used while the key bounding box has at most
/// `max(DENSE_MIN_CELLS, DENSE_CELLS_PER_POINT · n)` cells.
const DENSE_CELLS_PER_POINT: i128 = 8;
const DENSE_MIN_CELLS: i128 = 1024;

/// A uniform grid over a fixed point set, keyed by integer cell coordinates
/// at a caller-chosen cell edge length.
///
/// Storage is CSR-style: each occupied cell owns a contiguous ascending
/// slice of point indices. Compact clouds get a direct-addressed cell table
/// (O(1) probes, contiguous row scans); far-flung clouds fall back to a
/// sorted key table with binary-search lookup. No hashing, no randomized
/// iteration order — bit-for-bit reproducible across runs and platforms.
///
/// ```
/// use cohesion_geometry::{SpatialGrid, Vec2};
/// let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(0.5, 0.0), Vec2::new(3.0, 0.0)];
/// let grid = SpatialGrid::build(&pts, 1.0);
/// assert_eq!(grid.pairs_within(1.0), vec![(0, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid<P: Point> {
    cell: f64,
    index: CellIndex,
    /// Point indices grouped by cell, ascending within each cell.
    order: Vec<u32>,
    /// Cell key of each point, by point index.
    point_key: Vec<CellKey>,
    /// The indexed points (copied so queries need no external slice).
    points: Vec<P>,
}

impl<P: Point> SpatialGrid<P> {
    /// Indexes `points` on a grid with the given cell edge length.
    ///
    /// Queries are cheapest when `cell` equals the typical query radius
    /// (each probe then scans `3^DIM` cells).
    ///
    /// # Panics
    ///
    /// Panics when `cell` is not positive and finite, or when `P::DIM`
    /// exceeds the supported 3 axes.
    pub fn build(points: &[P], cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell edge must be positive");
        assert!(
            P::DIM <= KEY_AXES,
            "SpatialGrid supports up to {KEY_AXES} dimensions"
        );
        assert!(
            u32::try_from(points.len()).is_ok(),
            "point count fits in u32"
        );
        let point_key: Vec<CellKey> = points.iter().map(|p| cell_key(*p, cell)).collect();
        let index = match dense_box(&point_key) {
            Some((min, dims)) => Self::build_dense(&point_key, min, dims),
            None => Self::build_sparse(&point_key),
        };
        let mut grid = SpatialGrid {
            cell,
            index,
            order: Vec::new(),
            point_key,
            points: points.to_vec(),
        };
        grid.fill_order();
        grid
    }

    /// Lays out the dense direct-addressed index (counting sort — no
    /// comparison sort needed, the slot function is monotone in the key).
    fn build_dense(point_key: &[CellKey], min: CellKey, dims: CellKey) -> CellIndex {
        let cells = (dims[0] * dims[1] * dims[2]) as usize;
        let mut starts = vec![0u32; cells + 1];
        for k in point_key {
            starts[dense_slot(min, dims, *k) + 1] += 1;
        }
        for i in 0..cells {
            starts[i + 1] += starts[i];
        }
        CellIndex::Dense { min, dims, starts }
    }

    /// Lays out the sparse sorted-key index.
    fn build_sparse(point_key: &[CellKey]) -> CellIndex {
        let mut keys: Vec<CellKey> = point_key.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let mut starts = vec![0u32; keys.len() + 1];
        for k in point_key {
            let slot = keys.binary_search(k).expect("own key present");
            starts[slot + 1] += 1;
        }
        for i in 0..keys.len() {
            starts[i + 1] += starts[i];
        }
        CellIndex::Sparse { keys, starts }
    }

    /// Fills `order` from the CSR offsets: walking points in ascending index
    /// order and bumping a per-cell cursor keeps every cell's slice
    /// ascending.
    fn fill_order(&mut self) {
        let starts = match &self.index {
            CellIndex::Dense { starts, .. } | CellIndex::Sparse { starts, .. } => starts,
        };
        let mut cursor: Vec<u32> = starts[..starts.len() - 1].to_vec();
        self.order = vec![0u32; self.points.len()];
        for (i, k) in self.point_key.iter().enumerate() {
            let slot = self.slot_of(*k).expect("every point's own cell is indexed");
            self.order[cursor[slot] as usize] = i as u32;
            cursor[slot] += 1;
        }
    }

    /// The CSR slot of `key`, or `None` when the cell is outside the index
    /// (dense: outside the bounding box; sparse: key absent).
    fn slot_of(&self, key: CellKey) -> Option<usize> {
        match &self.index {
            CellIndex::Dense { min, dims, .. } => {
                for a in 0..KEY_AXES {
                    if key[a] < min[a] || key[a] >= min[a] + dims[a] {
                        return None;
                    }
                }
                Some(dense_slot(*min, *dims, key))
            }
            CellIndex::Sparse { keys, .. } => keys.binary_search(&key).ok(),
        }
    }

    /// The point indices stored in the cell containing `key`, ascending
    /// (empty when the cell holds no points).
    fn bucket(&self, key: CellKey) -> &[u32] {
        let starts = match &self.index {
            CellIndex::Dense { starts, .. } | CellIndex::Sparse { starts, .. } => starts,
        };
        match self.slot_of(key) {
            Some(slot) => {
                let lo = starts[slot] as usize;
                let hi = starts[slot + 1] as usize;
                &self.order[lo..hi]
            }
            None => &[],
        }
    }

    /// All pairs `(i, j)` with `i < j` and `dist ≤ radius`, in the exact
    /// lexicographic order a brute-force double loop produces.
    ///
    /// Each unordered pair is enumerated from both endpoints but measured
    /// only from the smaller one, and ordering needs no global sort: `i`
    /// ascends by construction, and each point's handful of partners is
    /// sorted in a scratch buffer — the hot path of visibility-graph
    /// construction.
    pub fn pairs_within(&self, radius: f64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        for i in 0..self.points.len() {
            let center = self.points[i];
            scratch.clear();
            self.for_each_candidate(self.point_key[i], radius, |j| {
                if j > i && center.dist(self.points[j]) <= radius {
                    scratch.push(j);
                }
            });
            scratch.sort_unstable();
            pairs.extend(scratch.iter().map(|&j| (i, j)));
        }
        pairs
    }

    /// Visits every point index stored within `ceil(radius / cell)` cells of
    /// `key`, in deterministic (cell-lexicographic, then index-ascending)
    /// order. Distance filtering is the visitor's job.
    fn for_each_candidate(&self, key: CellKey, radius: f64, mut visit: impl FnMut(usize)) {
        let reach = (radius / self.cell).ceil().max(1.0) as i64;
        match &self.index {
            CellIndex::Dense { min, dims, starts } => {
                // Clamp the probe box to the occupied bounding box; an empty
                // intersection means no candidates at all.
                let lo = |a: usize| (key[a] - reach).max(min[a]);
                let hi = |a: usize| (key[a] + reach).min(min[a] + dims[a] - 1);
                let (x_lo, x_hi) = (lo(0), hi(0));
                let (y_lo, y_hi) = (lo(1), hi(1));
                let (z_lo, z_hi) = (lo(2), hi(2));
                if x_lo > x_hi || y_lo > y_hi || z_lo > z_hi {
                    return;
                }
                for x in x_lo..=x_hi {
                    let x_base = (x - min[0]) * dims[1];
                    if dims[2] == 1 {
                        // Planar fast path: the whole y-run of cells is one
                        // contiguous slice of `order`.
                        let s_lo = (x_base + (y_lo - min[1])) as usize;
                        let s_hi = (x_base + (y_hi - min[1])) as usize;
                        for &j in &self.order[starts[s_lo] as usize..starts[s_hi + 1] as usize] {
                            visit(j as usize);
                        }
                    } else {
                        for y in y_lo..=y_hi {
                            let base = (x_base + (y - min[1])) * dims[2];
                            let s_lo = (base + (z_lo - min[2])) as usize;
                            let s_hi = (base + (z_hi - min[2])) as usize;
                            for &j in &self.order[starts[s_lo] as usize..starts[s_hi + 1] as usize]
                            {
                                visit(j as usize);
                            }
                        }
                    }
                }
            }
            CellIndex::Sparse { .. } => {
                let z_range = if P::DIM >= 3 { -reach..=reach } else { 0..=0 };
                for dx in -reach..=reach {
                    for dy in -reach..=reach {
                        for dz in z_range.clone() {
                            let probe = [key[0] + dx, key[1] + dy, key[2] + dz];
                            for &j in self.bucket(probe) {
                                visit(j as usize);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The dense bounding box `(min, dims)` of a key set, or `None` when the box
/// is too large for direct addressing (or the set is empty).
fn dense_box(point_key: &[CellKey]) -> Option<(CellKey, CellKey)> {
    let first = *point_key.first()?;
    let (mut min, mut max) = (first, first);
    for k in point_key {
        for a in 0..KEY_AXES {
            min[a] = min[a].min(k[a]);
            max[a] = max[a].max(k[a]);
        }
    }
    let mut dims = [1i64; KEY_AXES];
    let mut cells: i128 = 1;
    for a in 0..KEY_AXES {
        dims[a] = max[a] - min[a] + 1;
        cells *= dims[a] as i128;
    }
    let budget = DENSE_MIN_CELLS.max(point_key.len() as i128 * DENSE_CELLS_PER_POINT);
    (cells <= budget).then_some((min, dims))
}

/// Row-major slot of `key` inside the dense box; the caller guarantees the
/// key lies inside.
#[inline]
fn dense_slot(min: CellKey, dims: CellKey, key: CellKey) -> usize {
    (((key[0] - min[0]) * dims[1] + (key[1] - min[1])) * dims[2] + (key[2] - min[2])) as usize
}

/// The integer cell containing `p` at the given edge length. Coordinates on
/// a cell boundary land in the higher cell (`floor` semantics); coverage of
/// closed-radius queries is guaranteed because a probe always scans one full
/// cell layer beyond the radius in every axis.
pub(crate) fn cell_key<P: Point>(p: P, cell: f64) -> CellKey {
    let mut key = [0i64; KEY_AXES];
    for (axis, slot) in key.iter_mut().enumerate().take(P::DIM) {
        *slot = (p.coord(axis) / cell).floor() as i64;
    }
    key
}

/// Componentwise minimum of `a` and `b`, shifted down by `pad` on every axis
/// (the low corner of a segment's padded bounding box).
pub(crate) fn min_corner<P: Point>(a: P, b: P, pad: f64) -> P {
    let mut coords = [0.0f64; KEY_AXES];
    for (axis, c) in coords.iter_mut().enumerate().take(P::DIM) {
        *c = a.coord(axis).min(b.coord(axis)) - pad;
    }
    P::from_coords(&coords[..P::DIM])
}

/// Componentwise maximum of `a` and `b`, shifted up by `pad` on every axis
/// (the high corner of a segment's padded bounding box).
pub(crate) fn max_corner<P: Point>(a: P, b: P, pad: f64) -> P {
    let mut coords = [0.0f64; KEY_AXES];
    for (axis, c) in coords.iter_mut().enumerate().take(P::DIM) {
        *c = a.coord(axis).max(b.coord(axis)) + pad;
    }
    P::from_coords(&coords[..P::DIM])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec2::Vec2;
    use crate::vec3::Vec3;

    fn brute_pairs<P: Point>(pts: &[P], radius: f64) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].dist(pts[j]) <= radius {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    use crate::test_util::cloud;

    #[test]
    fn matches_brute_force_on_random_clouds() {
        for (n, span, radius) in [
            (1usize, 1.0, 1.0),
            (7, 2.0, 0.8),
            (64, 6.0, 1.0),
            (200, 10.0, 1.3),
        ] {
            let pts = cloud(n, span, n as u64);
            let grid = SpatialGrid::build(&pts, radius);
            assert_eq!(
                grid.pairs_within(radius),
                brute_pairs(&pts, radius),
                "n={n} span={span} radius={radius}"
            );
        }
    }

    #[test]
    fn boundary_distance_exactly_radius_counts() {
        // Closed predicate: |ij| == radius is an edge, including across cell
        // boundaries; anything measurably beyond is not.
        let pts = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0 + 1e-9),
        ];
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.pairs_within(1.0), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn query_radius_larger_than_cell() {
        let pts = cloud(80, 8.0, 3);
        let grid = SpatialGrid::build(&pts, 0.5);
        assert_eq!(grid.pairs_within(1.7), brute_pairs(&pts, 1.7));
    }

    #[test]
    fn negative_coordinates_and_probe_queries() {
        let pts = vec![
            Vec2::new(-2.3, -1.1),
            Vec2::new(-1.6, -1.0),
            Vec2::new(4.0, 4.0),
        ];
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.pairs_within(1.0), vec![(0, 1)]);
    }

    #[test]
    fn works_in_three_dimensions() {
        let pts: Vec<Vec3> = (0..40)
            .map(|i| {
                let f = i as f64;
                Vec3::new((f * 0.37).sin() * 3.0, (f * 0.61).cos() * 3.0, f * 0.11)
            })
            .collect();
        let grid = SpatialGrid::build(&pts, 0.9);
        let mut brute = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].dist(pts[j]) <= 0.9 {
                    brute.push((i, j));
                }
            }
        }
        assert_eq!(grid.pairs_within(0.9), brute);
    }

    #[test]
    fn far_flung_cloud_falls_back_to_sparse_index() {
        // Two tight clusters separated by ~1e9 cells: the key bounding box
        // dwarfs the point count, so direct addressing must give way to the
        // sorted-key fallback — with identical results.
        let mut pts = cloud(40, 3.0, 9);
        pts.extend(
            cloud(40, 3.0, 10)
                .into_iter()
                .map(|p| p + Vec2::new(1e9, 1e9)),
        );
        let grid = SpatialGrid::build(&pts, 1.0);
        assert!(
            matches!(grid.index, CellIndex::Sparse { .. }),
            "1e9-cell span must not be directly addressed"
        );
        assert_eq!(grid.pairs_within(1.0), brute_pairs(&pts, 1.0));
    }

    #[test]
    fn compact_cloud_uses_dense_index() {
        let pts = cloud(64, 6.0, 4);
        let grid = SpatialGrid::build(&pts, 1.0);
        assert!(matches!(grid.index, CellIndex::Dense { .. }));
        assert_eq!(grid.pairs_within(1.0), brute_pairs(&pts, 1.0));
    }

    #[test]
    fn coincident_points_are_mutual_neighbors() {
        let pts = vec![Vec2::new(1.0, 1.0), Vec2::new(1.0, 1.0)];
        let grid = SpatialGrid::build(&pts, 1.0);
        assert_eq!(grid.pairs_within(0.0), vec![(0, 1)]);
    }

    #[test]
    fn empty_input() {
        let grid = SpatialGrid::<Vec2>::build(&[], 1.0);
        assert!(grid.pairs_within(1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell edge must be positive")]
    fn zero_cell_panics() {
        let _ = SpatialGrid::<Vec2>::build(&[Vec2::ZERO], 0.0);
    }
}
