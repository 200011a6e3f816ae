//! Property tests for the model layer: the grid-backed visibility-graph
//! builder, `from_configuration`, is extensionally equal to the brute-force
//! reference.
//!
//! The grid path only skips *candidate enumeration* work — the distance
//! predicate is the identical `dist ≤ radius` on identical f64s — so any
//! divergence means the grid missed a candidate cell. The strategies here
//! stress exactly that: random clouds spanning many cells, radii far from
//! the cell edge, and planted pairs at distance exactly `radius` (the closed
//! boundary of §2.1's visibility definition) straddling cell borders.

use cohesion_geometry::Vec2;
use cohesion_model::{Configuration, VisibilityGraph};
use proptest::prelude::*;

fn vec2(range: f64) -> impl Strategy<Value = Vec2> {
    (-range..range, -range..range).prop_map(|(x, y)| Vec2::new(x, y))
}

fn assert_builders_agree(pts: Vec<Vec2>, radius: f64) -> Result<(), TestCaseError> {
    let c = Configuration::new(pts);
    let grid = VisibilityGraph::from_configuration(&c, radius);
    let brute = VisibilityGraph::from_configuration_brute(&c, radius);
    prop_assert_eq!(&grid, &brute, "grid and brute builders diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn grid_builder_equals_brute_force_on_random_clouds(
        pts in proptest::collection::vec(vec2(4.0), 1..120),
        radius in 0.05..2.5f64,
    ) {
        assert_builders_agree(pts, radius)?;
    }

    #[test]
    fn boundary_distance_exactly_radius_agrees(
        base in proptest::collection::vec(vec2(3.0), 1..48),
        radius in 0.1..1.5f64,
        angle in 0.0..std::f64::consts::TAU,
    ) {
        // Plant, for a sample of cloud points, a partner at distance exactly
        // `radius` — including the axis-aligned partner whose distance is
        // exactly representable, the worst case for a half-open cell
        // predicate (a point at `k·radius` sits on a cell border when the
        // cell edge is `radius`).
        let mut pts = base.clone();
        for (i, p) in base.iter().enumerate().take(10) {
            let dir = if i % 2 == 0 {
                Vec2::new(1.0, 0.0)
            } else {
                Vec2::from_angle(angle + i as f64)
            };
            pts.push(*p + dir * radius);
        }
        assert_builders_agree(pts, radius)?;
    }

    #[test]
    fn coincident_and_clustered_points_agree(
        cluster in vec2(2.0),
        copies in 2usize..12,
        radius in 0.05..1.0f64,
    ) {
        // Degenerate density: many robots in one cell (multiplicity points).
        // At radius 0 only the coincident copies are joined.
        let mut pts = vec![cluster; copies];
        pts.push(cluster + Vec2::new(radius, 0.0));
        pts.push(cluster + Vec2::new(0.0, 2.0 * radius));
        assert_builders_agree(pts.clone(), radius)?;
        assert_builders_agree(pts, 0.0)?;
    }
}
