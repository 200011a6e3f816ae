//! The §6.2–§6.3 extensions: unlimited visibility under full Async,
//! disconnected starts, open visibility, co-located robots, heterogeneous
//! radii, and the three-dimensional generalization.

use cohesion::geometry::Vec3;
use cohesion::model::VisibilityGraph;
use cohesion::prelude::*;

#[test]
fn unlimited_visibility_converges_under_full_async() {
    // §6.2: when V exceeds the initial diameter, the algorithm solves Point
    // Convergence even under unbounded asynchrony (hull-diminishing keeps
    // everyone mutually visible; no multiplicity detection needed).
    let config = workloads::random_connected(10, 1.0, 31);
    let diam = config.diameter();
    let report = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(1))
        .visibility(diam * 2.0)
        .scheduler(AsyncScheduler::new(7))
        .epsilon(0.05)
        .max_events(400_000)
        .run();
    assert!(report.converged, "final diameter {}", report.final_diameter);
    assert!(report.cohesion_maintained, "complete graph stays complete");
}

#[test]
fn disconnected_start_converges_per_component() {
    // §6.3.1: each connected component converges to its own point.
    let mut pts: Vec<cohesion::geometry::Vec2> =
        workloads::random_connected(5, 1.0, 32).positions().to_vec();
    let offset = cohesion::geometry::Vec2::new(50.0, 0.0);
    pts.extend(
        workloads::random_connected(5, 1.0, 33)
            .positions()
            .iter()
            .map(|&p| p + offset),
    );
    let config = Configuration::new(pts);
    let graph = VisibilityGraph::from_configuration(&config, 1.0);
    assert_eq!(graph.components().len(), 2);

    let report = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(1))
        .visibility(1.0)
        .scheduler(SSyncScheduler::new(11))
        .epsilon(0.05)
        .max_events(400_000)
        .track_strong_visibility(false)
        .run();
    // Global diameter stays ~50 (two clusters), so `converged` is false —
    // but each component must have collapsed.
    let final_pos = report.final_configuration.positions();
    let comp_diam = |range: std::ops::Range<usize>| -> f64 {
        let mut best = 0.0_f64;
        for i in range.clone() {
            for j in range.clone() {
                best = best.max(final_pos[i].dist(final_pos[j]));
            }
        }
        best
    };
    assert!(
        comp_diam(0..5) < 0.1,
        "component 1 diameter {}",
        comp_diam(0..5)
    );
    assert!(
        comp_diam(5..10) < 0.1,
        "component 2 diameter {}",
        comp_diam(5..10)
    );
    assert!(report.cohesion_maintained);
}

#[test]
fn three_dimensional_convergence() {
    // §6.3.2: same algorithm, cone rule, in 3D, under k-Async.
    let config = workloads::ball3(12, 1.0, 34);
    let report = SimulationBuilder::<Vec3>::new(config, KirkpatrickAlgorithm::new(2))
        .visibility(1.0)
        .scheduler(KAsyncScheduler::new(2, 35))
        .epsilon(0.08)
        .max_events(600_000)
        .run();
    assert!(
        report.cohesively_converged(),
        "3D diameter {}",
        report.final_diameter
    );
    assert_eq!(report.strong_visibility_ok, Some(true));
    assert_eq!(
        report.hulls_nested, None,
        "hull checks are planar-only by design"
    );
}

#[test]
fn co_located_robots_converge_cohesively() {
    // §2.2: no multiplicity detection, so a co-located pair reaches every
    // observer as one observation; the swarm still converges cohesively.
    let config = Configuration::new(vec![
        cohesion::geometry::Vec2::new(0.0, 0.0),
        cohesion::geometry::Vec2::new(0.0, 0.0), // co-located pair
        cohesion::geometry::Vec2::new(0.8, 0.0),
    ]);
    let report = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(1))
        .visibility(1.0)
        .scheduler(FSyncScheduler::new())
        .epsilon(0.05)
        .max_events(60_000)
        .run();
    assert!(report.cohesively_converged());
}

#[test]
fn per_robot_smaller_visibility_still_converges_with_margin() {
    // §6.2: differing radii are tolerated if within a constant factor; we
    // approximate by running with the smallest radius for everyone (the
    // conservative end of the paper's condition).
    let config = workloads::random_connected(8, 0.8, 36);
    let report = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(1))
        .visibility(0.8)
        .scheduler(SSyncScheduler::new(17))
        .epsilon(0.05)
        .max_events(300_000)
        .run();
    assert!(report.cohesively_converged());
}

#[test]
fn heterogeneous_radii_converge_cohesively() {
    // §6.2 proper: per-robot radii within a small constant factor (×1.25),
    // with the configuration connected under the *smallest* radius so the
    // initial mutual visibility graph is connected.
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let base = 0.8;
    let config = workloads::random_connected(9, base, 44);
    let mut rng = SmallRng::seed_from_u64(45);
    let radii: Vec<f64> = (0..config.len())
        .map(|_| rng.gen_range(base..base * 1.25))
        .collect();
    let report = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(2))
        .visibility(base)
        .visibility_radii(radii)
        .scheduler(KAsyncScheduler::new(2, 46))
        .epsilon(0.05)
        .max_events(400_000)
        .track_strong_visibility(false)
        .run();
    assert!(
        report.cohesively_converged(),
        "heterogeneous radii: diameter {} cohesive {}",
        report.final_diameter,
        report.cohesion_maintained
    );
}

#[test]
fn gcm_requires_axis_agreement() {
    // Negative control for the frame machinery: GCM converges with aligned
    // frames but the same run under random per-activation rotations loses
    // its invariant (it may still shrink, but the minbox identity breaks —
    // we check it at least *behaves differently*, demonstrating the engine
    // really is feeding disoriented frames).
    use cohesion::model::FrameMode;
    let config = workloads::random_connected(8, 1.0, 37);
    let aligned = SimulationBuilder::new(config.clone(), GcmAlgorithm::new())
        .visibility(100.0)
        .scheduler(FSyncScheduler::new())
        .frame_mode(FrameMode::Aligned)
        .seed(7)
        .epsilon(0.01)
        .max_events(30_000)
        .run();
    assert!(
        aligned.converged,
        "GCM with axis agreement converges in O(1) rounds"
    );
    let disoriented = SimulationBuilder::new(config, GcmAlgorithm::new())
        .visibility(100.0)
        .scheduler(FSyncScheduler::new())
        .frame_mode(FrameMode::RandomOrtho)
        .seed(7)
        .epsilon(0.01)
        .max_events(30_000)
        .run();
    assert_ne!(
        aligned.final_configuration, disoriented.final_configuration,
        "random frames must actually change GCM's behaviour"
    );
}

#[test]
fn full_stack_determinism() {
    let run = || {
        SimulationBuilder::new(
            workloads::random_connected(9, 1.0, 38),
            KirkpatrickAlgorithm::new(2),
        )
        .visibility(1.0)
        .scheduler(KAsyncScheduler::new(2, 39))
        .seed(40)
        .epsilon(0.05)
        .max_events(50_000)
        .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.final_configuration, b.final_configuration);
    assert_eq!(a.events, b.events);
    assert_eq!(a.diameter_series, b.diameter_series);
}
