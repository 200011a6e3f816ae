//! Visibility graphs under limited visibility (paper §2.1) and the
//! connectivity machinery behind the Cohesive Convergence predicate.
//!
//! The graph is stored CSR-style: a sorted edge list plus per-vertex
//! adjacency slices. Construction from a configuration goes through a
//! [`DynamicGrid`] for near-linear cost on bounded-density clouds, with the
//! brute-force quadratic builder kept as the reference implementation (and
//! the fast path for tiny clouds, where the grid's indexing overhead is not
//! worth paying). Both builders produce byte-identical graphs: edges sorted
//! lexicographically and neighbour lists ascending. A session reads its
//! E(0) off the engine's own grid instead (see `SimulationBuilder::build`);
//! this builder serves workload checks, tests and benches.

use crate::configuration::Configuration;
use crate::ids::{RobotId, RobotPair};
use cohesion_geometry::point::Point;
use cohesion_geometry::DynamicGrid;
use serde::{Deserialize, Serialize};

/// Below this robot count, [`VisibilityGraph::from_configuration`] uses the
/// quadratic builder: for tiny clouds the all-pairs sweep is cheaper than
/// building a grid index. The engine's strong-visibility monitor picks its
/// candidate source by the same rule.
pub const GRID_THRESHOLD: usize = 32;

/// The undirected visibility graph `G(t) = (R, E(t))` where
/// `(X, Y) ∈ E(t) ⟺ |X(t)Y(t)| ≤ V`.
///
/// ```
/// use cohesion_model::{Configuration, VisibilityGraph};
/// use cohesion_geometry::Vec2;
/// let c = Configuration::new(vec![Vec2::ZERO, Vec2::new(1.0, 0.0), Vec2::new(3.0, 0.0)]);
/// let g = VisibilityGraph::from_configuration(&c, 1.0);
/// assert_eq!(g.edge_count(), 1);
/// assert!(!g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisibilityGraph {
    n: usize,
    /// Edges sorted lexicographically by `(a, b)`, deduplicated.
    edges: Vec<RobotPair>,
    /// CSR offsets into `adj`; `len == n + 1`.
    offsets: Vec<u32>,
    /// Concatenated neighbour lists, ascending per vertex.
    adj: Vec<RobotId>,
}

impl VisibilityGraph {
    /// Builds the visibility graph of a configuration with common visibility
    /// radius `radius` (closed: distance exactly `radius` counts, §2.1).
    ///
    /// Dispatches to the grid-backed builder for clouds of at least
    /// [`GRID_THRESHOLD`] robots (near-linear for bounded density) and to the
    /// quadratic reference builder otherwise; the two are equivalent.
    pub fn from_configuration<P: Point>(config: &Configuration<P>, radius: f64) -> Self {
        assert!(radius >= 0.0, "visibility radius must be non-negative");
        if config.len() >= GRID_THRESHOLD && radius > 0.0 {
            Self::from_configuration_grid(config, radius)
        } else {
            Self::from_configuration_brute(config, radius)
        }
    }

    /// The quadratic all-pairs builder — the reference implementation the
    /// grid-backed path is property-tested against.
    pub fn from_configuration_brute<P: Point>(config: &Configuration<P>, radius: f64) -> Self {
        assert!(radius >= 0.0, "visibility radius must be non-negative");
        let pos = config.positions();
        let mut pairs = Vec::new();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if pos[i].dist(pos[j]) <= radius {
                    pairs.push(RobotPair::new(RobotId::from(i), RobotId::from(j)));
                }
            }
        }
        Self::from_sorted_pairs(pos.len(), pairs)
    }

    /// The grid-backed builder: indexes the cloud on a [`DynamicGrid`] with
    /// cell edge `radius` and reads its [`DynamicGrid::pairs_within`]
    /// `radius`, each robot's partners drawn from the `3^DIM` surrounding
    /// cells. `O(n · density)` instead of `O(n²)`.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is not positive (the grid needs a positive cell
    /// edge; use the brute builder for the degenerate `radius == 0` case).
    pub fn from_configuration_grid<P: Point>(config: &Configuration<P>, radius: f64) -> Self {
        let pos = config.positions();
        let pairs: Vec<RobotPair> = DynamicGrid::from_points(pos, radius)
            .pairs_within(radius)
            .into_iter()
            .map(|(i, j)| RobotPair::new(RobotId::from(i), RobotId::from(j)))
            .collect();
        Self::from_sorted_pairs(pos.len(), pairs)
    }

    /// Finishes construction from a strictly ascending edge list (both
    /// builders emit one): lays out the CSR adjacency. Lexicographic edge
    /// order makes every vertex's neighbour list ascending without a
    /// per-vertex sort.
    fn from_sorted_pairs(n: usize, edges: Vec<RobotPair>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert!(
            u32::try_from(2 * edges.len()).is_ok(),
            "adjacency size fits in u32"
        );
        let mut degree = vec![0u32; n];
        for e in &edges {
            degree[e.a.index()] += 1;
            degree[e.b.index()] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adj = vec![RobotId::default(); 2 * edges.len()];
        for e in &edges {
            adj[cursor[e.a.index()] as usize] = e.b;
            cursor[e.a.index()] += 1;
            adj[cursor[e.b.index()] as usize] = e.a;
            cursor[e.b.index()] += 1;
        }
        VisibilityGraph {
            n,
            edges,
            offsets,
            adj,
        }
    }

    /// Number of robots (vertices).
    #[inline]
    pub fn robot_count(&self) -> usize {
        self.n
    }

    /// Number of visibility edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge list, sorted lexicographically by `(a, b)`.
    #[inline]
    pub fn edges(&self) -> &[RobotPair] {
        &self.edges
    }

    /// Returns `true` when the pair is mutually visible. `O(log deg)`.
    pub fn has_edge(&self, x: RobotId, y: RobotId) -> bool {
        x != y && self.neighbors(x).binary_search(&y).is_ok()
    }

    /// The neighbours of `id`, ascending. `O(1)` to obtain, `O(deg)` to walk
    /// — no longer a scan of the whole edge set.
    pub fn neighbors(&self, id: RobotId) -> &[RobotId] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Connected components as sorted id lists (singletons included).
    pub fn components(&self) -> Vec<Vec<RobotId>> {
        let mut parent: Vec<usize> = (0..self.n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for e in &self.edges {
            let (ra, rb) = (
                find(&mut parent, e.a.index()),
                find(&mut parent, e.b.index()),
            );
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut buckets: std::collections::BTreeMap<usize, Vec<RobotId>> = Default::default();
        for i in 0..self.n {
            let r = find(&mut parent, i);
            buckets.entry(r).or_default().push(RobotId::from(i));
        }
        buckets.into_values().collect()
    }

    /// Returns `true` when the graph is connected (the paper's standing
    /// assumption on initial configurations). The empty graph and singletons
    /// are connected.
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// Returns `true` when every edge of `self` is also an edge of `other` —
    /// the `E(0) ⊆ E(t)` inclusion of the Cohesive Convergence predicate.
    /// A single merge walk over the two sorted edge lists.
    pub fn subset_of(&self, other: &VisibilityGraph) -> bool {
        let mut it = other.edges.iter();
        'outer: for e in &self.edges {
            for o in it.by_ref() {
                match o.cmp(e) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_geometry::Vec2;

    fn chain(n: usize, spacing: f64) -> Configuration {
        Configuration::new((0..n).map(|i| Vec2::new(i as f64 * spacing, 0.0)).collect())
    }

    #[test]
    fn chain_visibility() {
        let g = VisibilityGraph::from_configuration(&chain(4, 1.0), 1.0);
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_connected());
        assert!(g.has_edge(RobotId(0), RobotId(1)));
        assert!(!g.has_edge(RobotId(0), RobotId(2)));
        assert!(!g.has_edge(RobotId(0), RobotId(0)));
    }

    #[test]
    fn closed_range_boundary_counts() {
        let c = Configuration::new(vec![Vec2::ZERO, Vec2::new(1.0, 0.0)]);
        let g = VisibilityGraph::from_configuration(&c, 1.0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn grid_and_brute_builders_agree_on_chains() {
        // Long chains cross the GRID_THRESHOLD and exercise the grid path,
        // with every edge distance exactly on the closed boundary.
        for n in [2usize, 31, 32, 64, 129] {
            let c = chain(n, 1.0);
            let grid = VisibilityGraph::from_configuration_grid(&c, 1.0);
            let brute = VisibilityGraph::from_configuration_brute(&c, 1.0);
            assert_eq!(grid, brute, "n={n}");
            assert_eq!(grid, VisibilityGraph::from_configuration(&c, 1.0));
            assert_eq!(grid.edge_count(), n - 1);
        }
    }

    #[test]
    fn disconnection_and_components() {
        let g = VisibilityGraph::from_configuration(&chain(5, 1.0), 0.5);
        assert!(!g.is_connected());
        assert_eq!(g.components().len(), 5);
        let g = VisibilityGraph::from_configuration(
            &Configuration::new(vec![
                Vec2::ZERO,
                Vec2::new(1.0, 0.0),
                Vec2::new(10.0, 0.0),
                Vec2::new(11.0, 0.0),
            ]),
            1.5,
        );
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![RobotId(0), RobotId(1)]);
        assert_eq!(comps[1], vec![RobotId(2), RobotId(3)]);
    }

    #[test]
    fn neighbors_listing() {
        let g = VisibilityGraph::from_configuration(&chain(3, 1.0), 1.0);
        assert_eq!(g.neighbors(RobotId(1)), vec![RobotId(0), RobotId(2)]);
        assert_eq!(g.neighbors(RobotId(0)), vec![RobotId(1)]);
    }

    #[test]
    fn subset_and_missing() {
        let sparse = VisibilityGraph::from_configuration(&chain(3, 1.0), 1.0);
        let dense = VisibilityGraph::from_configuration(&chain(3, 1.0), 2.0);
        assert!(sparse.subset_of(&dense));
        assert!(!dense.subset_of(&sparse));
        assert!(sparse.subset_of(&sparse));
    }

    #[test]
    fn empty_and_singleton_connected() {
        assert!(VisibilityGraph::from_configuration(&chain(0, 1.0), 1.0).is_connected());
        assert!(VisibilityGraph::from_configuration(&chain(1, 1.0), 1.0).is_connected());
    }
}
