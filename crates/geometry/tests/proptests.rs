//! Property-based tests for the geometry substrate.

use cohesion_geometry::angle::{largest_gap, normalize, signed_diff};
use cohesion_geometry::ball::{smallest_enclosing_ball, smallest_enclosing_ball_brute};
use cohesion_geometry::cone::{sector_2d, SectorAnalysis};
use cohesion_geometry::hull::convex_hull;
use cohesion_geometry::point::Point as _;
use cohesion_geometry::{Aabb, Circle, DynamicGrid, Segment, Vec2, Vec3};
use proptest::prelude::*;

fn vec2(range: f64) -> impl Strategy<Value = Vec2> {
    (-range..range, -range..range).prop_map(|(x, y)| Vec2::new(x, y))
}

fn vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn angle_normalize_is_idempotent_and_bounded(theta in -50.0..50.0f64) {
        let n = normalize(theta);
        prop_assert!(n > -std::f64::consts::PI - 1e-12 && n <= std::f64::consts::PI + 1e-12);
        prop_assert!((normalize(n) - n).abs() < 1e-12);
        // Normalization preserves the direction.
        prop_assert!((theta.sin() - n.sin()).abs() < 1e-9);
        prop_assert!((theta.cos() - n.cos()).abs() < 1e-9);
    }

    #[test]
    fn signed_diff_composes(a in -7.0..7.0f64, b in -7.0..7.0f64) {
        let d = signed_diff(a, b);
        // Rotating `a` by the diff lands on `b` (mod 2π).
        prop_assert!(normalize(a + d - b).abs() < 1e-9);
    }

    #[test]
    fn gap_plus_span_is_full_circle(angles in proptest::collection::vec(-4.0..4.0f64, 2..10)) {
        let gap = largest_gap(&angles).unwrap();
        let span = cohesion_geometry::angle::span(&angles);
        prop_assert!((gap.width + span - std::f64::consts::TAU).abs() < 1e-9);
    }

    #[test]
    fn sec_encloses_and_is_minimal_2d(pts in proptest::collection::vec(vec2(10.0), 1..14)) {
        let ball = smallest_enclosing_ball(&pts);
        prop_assert!(ball.contains_all(&pts, 1e-7));
        let brute = smallest_enclosing_ball_brute(&pts);
        prop_assert!((ball.radius - brute.radius).abs() < 1e-6);
    }

    #[test]
    fn sec_encloses_3d(pts in proptest::collection::vec(vec3(5.0), 1..10)) {
        let ball = smallest_enclosing_ball(&pts);
        prop_assert!(ball.contains_all(&pts, 1e-7));
    }

    #[test]
    fn hull_contains_all_inputs(pts in proptest::collection::vec(vec2(10.0), 1..20)) {
        let hull = convex_hull(&pts);
        for p in &pts {
            prop_assert!(hull.contains(*p, 1e-7), "{p} outside its own hull");
        }
    }

    #[test]
    fn hull_perimeter_at_most_sec_circumference(
        pts in proptest::collection::vec(vec2(10.0), 3..20)
    ) {
        // Convexity: hull perimeter ≤ 2πR of any enclosing circle.
        let hull = convex_hull(&pts);
        let sec = smallest_enclosing_ball(&pts);
        prop_assert!(hull.perimeter() <= std::f64::consts::TAU * sec.radius + 1e-7);
    }

    #[test]
    fn aabb_contains_all(pts in proptest::collection::vec(vec2(10.0), 1..20)) {
        let bbox = Aabb::from_points(&pts).unwrap();
        for p in &pts {
            prop_assert!(bbox.contains(*p, 1e-12));
        }
        // The centre is inside too.
        prop_assert!(bbox.contains(bbox.center(), 1e-12));
    }

    #[test]
    fn segment_closest_point_is_closest(
        a in vec2(5.0), b in vec2(5.0), p in vec2(8.0), t in 0.0..1.0f64
    ) {
        let s = Segment::new(a, b);
        let c = s.closest_point(p);
        let other = s.point_at(t);
        prop_assert!(c.dist(p) <= other.dist(p) + 1e-9);
    }

    #[test]
    fn ray_exit_point_is_on_boundary_or_none(
        center in vec2(3.0), radius in 0.1..3.0f64, dir_angle in 0.0..std::f64::consts::TAU
    ) {
        let c = Circle::new(center, radius);
        let dir = Vec2::from_angle(dir_angle);
        match c.ray_exit(Vec2::ZERO, dir) {
            Some(t) => {
                let exit = dir * t;
                prop_assert!((c.center.dist(exit) - radius).abs() < 1e-7);
                prop_assert!(t >= 0.0);
            }
            None => {
                // The ray must genuinely miss the closed disk.
                for i in 0..100 {
                    let t = i as f64 * 0.1;
                    prop_assert!(!c.contains(dir * t, -1e-9));
                }
            }
        }
    }

    #[test]
    fn sector_axis_covers_all_directions(
        angles in proptest::collection::vec(-3.0..3.0f64, 1..8)
    ) {
        let dirs: Vec<Vec2> = angles.iter().map(|&a| Vec2::from_angle(a)).collect();
        if let SectorAnalysis::Cone(c) = sector_2d(&dirs, 1e-9) {
            for d in &dirs {
                let cos = c.axis.dot(*d).clamp(-1.0, 1.0);
                prop_assert!(cos.acos() <= c.half_angle + 1e-7,
                    "direction {d} outside the cone");
            }
        }
    }

    #[test]
    fn vec_ops_are_consistent(a in vec2(10.0), b in vec2(10.0), s in -3.0..3.0f64) {
        // Distributivity and norm homogeneity.
        prop_assert!((((a + b) * s) - (a * s + b * s)).norm() < 1e-9);
        prop_assert!(((a * s).norm() - s.abs() * a.norm()).abs() < 1e-9);
        // Cauchy–Schwarz.
        prop_assert!(a.dot(b).abs() <= a.norm() * b.norm() + 1e-9);
        // Cross = signed parallelogram area, antisymmetric.
        prop_assert!((a.cross(b) + b.cross(a)).abs() < 1e-9);
    }

    #[test]
    fn from_coords_roundtrip(a in vec2(10.0), b in vec3(10.0)) {
        prop_assert_eq!(Vec2::from_coords(&a.coords()), a);
        prop_assert_eq!(Vec3::from_coords(&b.coords()), b);
    }

    #[test]
    fn spatial_grid_pairs_match_brute_force(
        near in proptest::collection::vec(vec2(6.0), 0..90),
        far in proptest::collection::vec(vec2(2.0), 0..12),
        cell in 0.2..2.0f64,
        radius in 0.0..2.5f64,
    ) {
        // The grid may be built at any positive cell edge, not just the
        // query radius (a session's E(0) comes off a grid of cell V/2 at
        // radius V) — candidate enumeration must stay exhaustive. A second
        // cluster 1e6 away blows the dense-extent budget, so every cell
        // then lives in the outlier map.
        let mut pts = near;
        pts.extend(far.iter().map(|&p| p + Vec2::new(1e6, -1e6)));
        let mut brute = Vec::new();
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                if pts[i].dist(pts[j]) <= radius {
                    brute.push((i, j));
                }
            }
        }
        prop_assert_eq!(DynamicGrid::from_points(&pts, cell).pairs_within(radius), brute);
    }

    /// `relocate` leaves the grid exactly as remove + insert would: same
    /// positions, same hits in the same traversal order. Moves nudge a
    /// point within its cell, snap it onto a cell boundary, stack it on
    /// another point, or send it into (and back from) spill-map cells far
    /// outside the dense extent.
    #[test]
    fn dynamic_grid_relocate_matches_remove_insert(
        pts in proptest::collection::vec(vec2(2.0), 1..40),
        moves in proptest::collection::vec((0usize..64, 0usize..5, vec2(3.0), -1.0..1.0f64), 1..40),
    ) {
        const CELL: f64 = 0.5;
        let build = || DynamicGrid::from_points(&pts, CELL);
        let (mut relocated, mut reinserted) = (build(), build());
        let mut current = pts.clone();
        let far = Vec2::new(500.0, 0.0);
        for &(i, kind, target, jitter) in &moves {
            let i = i % pts.len();
            let p = match kind {
                0 => current[i] + Vec2::new(jitter, -jitter) * 1e-3,
                1 => Vec2::new((target.x / CELL).round() * CELL, (target.y / CELL).floor() * CELL),
                2 => current[(i + 1 + (jitter.abs() * 64.0) as usize) % pts.len()],
                3 => far + target,
                _ => target,
            };
            relocated.relocate(i, p);
            reinserted.remove(i);
            reinserted.insert(i, p);
            current[i] = p;
            prop_assert_eq!(relocated.len(), reinserted.len());
            for (j, &q) in current.iter().enumerate() {
                prop_assert_eq!(relocated.position(j), Some(q));
                prop_assert_eq!(reinserted.position(j), Some(q));
            }
            for (probe, radius) in [(p, 0.7), (Vec2::ZERO, 1.3), (far, 4.0)] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                relocated.query_within(probe, radius, &mut a);
                reinserted.query_within(probe, radius, &mut b);
                prop_assert_eq!(a, b);
            }
        }
    }
}
