//! Property tests for the model layer: frames, distortions, error models,
//! and visibility-graph invariants.

use cohesion::geometry::{Vec2, Vec3};
use cohesion::model::frame::{Ambient, FrameMode};
use cohesion::model::{
    Configuration, Distortion, Frame, MotionModel, PerceptionModel, Snapshot, VisibilityGraph,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn vec2(range: f64) -> impl Strategy<Value = Vec2> {
    (-range..range, -range..range).prop_map(|(x, y)| Vec2::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frames are isometries: norms and pairwise distances survive the
    /// round trip, in 2D and 3D, for every frame mode.
    #[test]
    fn frames_are_isometries(seed in any::<u64>(), a in vec2(5.0), b in vec2(5.0)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for mode in [FrameMode::Aligned, FrameMode::RandomRotation, FrameMode::RandomOrtho] {
            let f = <Vec2 as Ambient>::sample_frame(mode, &mut rng);
            prop_assert!((f.to_local(a).norm() - a.norm()).abs() < 1e-9);
            prop_assert!((f.to_local(a).dist(f.to_local(b)) - a.dist(b)).abs() < 1e-9);
            prop_assert!((f.to_global(f.to_local(a)) - a).norm() < 1e-9);

            let f3 = <Vec3 as Ambient>::sample_frame(mode, &mut rng);
            let a3 = Vec3::new(a.x, a.y, 1.3);
            prop_assert!((f3.to_global(f3.to_local(a3)) - a3).norm() < 1e-9);
        }
    }

    /// Distortions preserve norms, are symmetric (µ(θ+π) = µ(θ)+π), honour
    /// their skew bound on relative angles, and invert exactly.
    #[test]
    fn distortions_behave(lambda in 0.0..0.8f64, phase in 0.0..std::f64::consts::TAU, v in vec2(3.0)) {
        let d = Distortion::with_skew(lambda, phase);
        prop_assert!((d.apply(v).norm() - v.norm()).abs() < 1e-9);
        prop_assert!((d.unapply(d.apply(v)) - v).norm() < 1e-7);
        prop_assert!(d.skew() <= lambda + 1e-12);
        // Symmetry.
        let theta = v.angle();
        let s = d.apply_angle(theta + std::f64::consts::PI) - d.apply_angle(theta);
        prop_assert!((s - std::f64::consts::PI).abs() < 1e-9);
    }

    /// Motion resolution respects rigidity: the realized point lies on the
    /// planned segment between the ξ-fraction mark and the target (when no
    /// trajectory error is configured).
    #[test]
    fn motion_respects_rigidity(
        seed in any::<u64>(), from in vec2(3.0), target in vec2(3.0), xi in 0.05..1.0f64
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = MotionModel::with_rigidity(xi);
        let got = m.resolve(from, target, 1.0, &mut rng);
        let planned = target - from;
        let d = planned.norm();
        if d > 0.0 {
            let progress = (got - from).dot(planned) / (d * d);
            prop_assert!(progress >= xi - 1e-9 && progress <= 1.0 + 1e-9);
            // No lateral deviation without a motion-error model.
            let lateral = (got - from) - planned * progress;
            prop_assert!(lateral.norm() < 1e-9);
        } else {
            prop_assert_eq!(got, from);
        }
    }

    /// Perception distance factors stay within ±δ.
    #[test]
    fn perception_factors_bounded(seed in any::<u64>(), delta in 0.0..0.5f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = PerceptionModel::new(delta, 0.0);
        for _ in 0..50 {
            let f = p.sample_distance_factor(&mut rng);
            prop_assert!(f >= 1.0 - delta - 1e-12 && f <= 1.0 + delta + 1e-12);
        }
    }

    /// Visibility graphs are monotone in the radius, and connectivity is
    /// monotone with them.
    #[test]
    fn visibility_monotone_in_radius(
        pts in proptest::collection::vec(vec2(3.0), 2..12),
        r1 in 0.1..2.0f64,
        extra in 0.01..2.0f64,
    ) {
        let c = Configuration::new(pts);
        let small = VisibilityGraph::from_configuration(&c, r1);
        let large = VisibilityGraph::from_configuration(&c, r1 + extra);
        prop_assert!(small.subset_of(&large));
        if small.is_connected() {
            prop_assert!(large.is_connected());
        }
        // At radius ≥ diameter the graph is complete.
        let full = VisibilityGraph::from_configuration(&c, c.diameter() + 1e-9);
        let n = c.len();
        prop_assert_eq!(full.edge_count(), n * (n - 1) / 2);
        prop_assert!(full.is_connected());
    }

    /// Snapshot multiplicity collapse is idempotent and never increases the
    /// observation count.
    #[test]
    fn multiplicity_collapse_idempotent(pts in proptest::collection::vec(vec2(2.0), 0..10)) {
        let s = Snapshot::from_positions(pts);
        let mut once = s.clone();
        once.dedup_multiplicity(1e-9);
        let mut twice = once.clone();
        twice.dedup_multiplicity(1e-9);
        prop_assert!(once.len() <= s.len());
        prop_assert_eq!(once.len(), twice.len());
    }
}
