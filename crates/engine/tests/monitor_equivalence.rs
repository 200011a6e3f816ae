//! Equivalence of the incremental monitor path and the historical inline
//! predicate sweep.
//!
//! `SimulationBuilder::run` used to re-check **every** pair at **every**
//! engine event from a freshly cloned `Configuration`. The refactor onto
//! `cohesion_engine::monitors` re-checks only pairs incident to robots that
//! actually moved (the dirty set) and reads positions in place. Both rest on
//! the same invariant — positions are piecewise-linear, so pair distances
//! attain extrema exactly at event boundaries — and must therefore produce
//! *identical* reports. This test carries the pre-refactor loop verbatim as
//! a reference implementation and compares full [`SimulationReport`]s for
//! fixed seeds across all five scheduler classes.
//!
//! The reference takes its diameters from `Configuration::diameter`, which
//! now runs the same pruned kernel as the session, so this test does not
//! check that kernel independently; `monitors::tests::
//! diameter_of_is_bitwise_the_largest_dist*` hold it to the all-pairs loop.

use cohesion_engine::{Engine, SimulationBuilder, SimulationReport};
use cohesion_geometry::hull::convex_hull;
use cohesion_geometry::Vec2;
use cohesion_model::{Algorithm, Configuration, RobotPair, VisibilityGraph};
use cohesion_scheduler::{
    AsyncScheduler, FSyncScheduler, KAsyncScheduler, NestAScheduler, SSyncScheduler, Scheduler,
};
use std::collections::BTreeSet;

/// The pre-refactor driver loop (PR 1 vintage), specialized to `Vec2` and
/// the options the comparison runs use. Kept as close to the historical
/// text as the public `Engine` API allows.
#[allow(clippy::too_many_arguments)]
fn reference_run(
    initial: &Configuration<Vec2>,
    algorithm: Box<dyn Algorithm<Vec2>>,
    scheduler: Box<dyn Scheduler>,
    visibility: f64,
    visibility_radii: Option<Vec<f64>>,
    epsilon: f64,
    max_events: usize,
    seed: u64,
    track_strong_visibility: bool,
    hull_check_every: usize,
    diameter_sample_every: usize,
) -> SimulationReport<Vec2> {
    let n = initial.len();
    let initial_edges: Vec<(usize, usize)> = match &visibility_radii {
        None => {
            let g = VisibilityGraph::from_configuration(initial, visibility);
            g.edges()
                .iter()
                .map(|e| (e.a.index(), e.b.index()))
                .collect()
        }
        Some(radii) => {
            let pos = initial.positions();
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if pos[i].dist(pos[j]) <= radii[i].min(radii[j]) {
                        edges.push((i, j));
                    }
                }
            }
            edges
        }
    };
    let initial_diameter = initial.diameter();

    let mut engine = Engine::new(initial, visibility, algorithm, scheduler, seed);
    if let Some(radii) = visibility_radii.clone() {
        engine.set_visibility_radii(radii);
    }

    let v = visibility;
    let pair_threshold: Box<dyn Fn(usize, usize) -> f64> = match visibility_radii {
        None => Box::new(move |_, _| v),
        Some(radii) => Box::new(move |a, b| radii[a].min(radii[b])),
    };
    let cohesion_tol = 1e-9 * (1.0 + v);
    let mut violations = Vec::new();
    let mut violated: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut strong_pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut strong_ok = true;
    let mut hulls_nested = true;
    let mut prev_hull: Option<cohesion_geometry::ConvexHull> = None;
    let mut diameter_series: Vec<(f64, f64)> = vec![(0.0, initial_diameter)];
    let mut round_diameters: Vec<(usize, f64)> = Vec::new();
    let mut rounds = 0usize;
    let mut round_base: Vec<u64> = vec![0; n];
    let mut events = 0usize;
    let mut converged = false;
    let mut hull_points: Vec<Vec2> = Vec::new();

    loop {
        if events >= max_events {
            break;
        }
        let Some(event) = engine.step() else { break };
        events += 1;

        let config = engine.configuration_at(event.time);
        let positions = config.positions();

        for &(a, b) in &initial_edges {
            let d = positions[a].dist(positions[b]);
            if d > pair_threshold(a, b) + cohesion_tol && violated.insert((a, b)) {
                violations.push(cohesion_engine::report::CohesionViolation {
                    pair: RobotPair::new(a.into(), b.into()),
                    time: event.time,
                    distance: d,
                });
            }
        }

        if track_strong_visibility {
            for a in 0..n {
                for b in (a + 1)..n {
                    let d = positions[a].dist(positions[b]);
                    if d <= v / 2.0 + cohesion_tol {
                        strong_pairs.insert((a, b));
                    } else if d > v + cohesion_tol && strong_pairs.contains(&(a, b)) {
                        strong_ok = false;
                    }
                }
            }
        }

        if hull_check_every > 0 && events % hull_check_every == 0 {
            engine.positions_with_targets_into(&mut hull_points);
            let hull = convex_hull(&hull_points);
            if let Some(prev) = &prev_hull {
                if !prev.contains_hull(&hull, 1e-7 * (1.0 + initial_diameter)) {
                    hulls_nested = false;
                }
            }
            prev_hull = Some(hull);
        }

        let cycles = engine.completed_cycles();
        if (0..n).all(|i| cycles[i] > round_base[i]) {
            rounds += 1;
            round_base = cycles.to_vec();
            round_diameters.push((rounds, config.diameter()));
        }

        if diameter_sample_every > 0 && events % diameter_sample_every == 0 {
            let d = config.diameter();
            diameter_series.push((event.time, d));
            if d <= epsilon {
                converged = true;
                break;
            }
        }
    }

    let final_configuration = engine.configuration();
    let final_diameter = final_configuration.diameter();
    if final_diameter <= epsilon {
        converged = true;
    }
    diameter_series.push((engine.time(), final_diameter));

    SimulationReport {
        algorithm: engine.algorithm().name().to_string(),
        scheduler: engine.scheduler().name().to_string(),
        robots: n,
        visibility: v,
        converged,
        cohesion_maintained: violations.is_empty(),
        cohesion_violations: violations,
        strong_visibility_ok: track_strong_visibility.then_some(strong_ok),
        hulls_nested: (hull_check_every > 0).then_some(hulls_nested),
        initial_diameter,
        final_diameter,
        events,
        rounds,
        end_time: engine.time(),
        diameter_series,
        round_diameters,
        final_configuration,
    }
}

fn compare(
    label: &str,
    config: &Configuration<Vec2>,
    make_algorithm: impl Fn() -> Box<dyn Algorithm<Vec2>>,
    make_scheduler: impl Fn() -> Box<dyn Scheduler>,
    visibility_radii: Option<Vec<f64>>,
    max_events: usize,
) -> SimulationReport<Vec2> {
    const SEED: u64 = 0xE01D_C0DE;
    let mut builder = SimulationBuilder::new(config.clone(), make_algorithm())
        .visibility(1.0)
        .scheduler(make_scheduler())
        .seed(SEED)
        .epsilon(0.05)
        .max_events(max_events)
        .track_strong_visibility(true)
        .hull_check_every(16)
        .diameter_sample_every(8);
    if let Some(radii) = &visibility_radii {
        builder = builder.visibility_radii(radii.clone());
    }
    let refactored = builder.run();
    let reference = reference_run(
        config,
        make_algorithm(),
        make_scheduler(),
        1.0,
        visibility_radii,
        0.05,
        max_events,
        SEED,
        true,
        16,
        8,
    );
    assert_eq!(refactored, reference, "{label}: reports diverged");
    assert!(refactored.events > 0, "{label}: nothing simulated");
    refactored
}

fn cloud(n: usize, seed: u64) -> Configuration<Vec2> {
    cohesion_workloads::random_connected(n, 1.0, seed)
}

/// Two tight clusters bridged by a pair 0.4 apart (within `V/2`, so
/// acquired from the start). Each bridge robot sees only its own cluster
/// and its partner, so center-of-gravity moves pull the pair apart.
fn dumbbell(cluster: usize) -> Configuration<Vec2> {
    let mut pts = vec![Vec2::new(0.0, 0.0), Vec2::new(0.4, 0.0)];
    for i in 0..cluster {
        let y = (i as f64 - (cluster as f64 - 1.0) / 2.0) * 0.05;
        pts.push(Vec2::new(-0.85, y));
        pts.push(Vec2::new(1.25, y));
    }
    Configuration::new(pts)
}

#[test]
fn fsync_reports_are_identical() {
    compare(
        "fsync",
        &cloud(10, 41),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(1)),
        || Box::new(FSyncScheduler::new()),
        None,
        4_000,
    );
}

#[test]
fn ssync_reports_are_identical() {
    compare(
        "ssync",
        &cloud(10, 42),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(1)),
        || Box::new(SSyncScheduler::new(5)),
        None,
        4_000,
    );
}

#[test]
fn nest_a_reports_are_identical() {
    compare(
        "2-nesta",
        &cloud(10, 43),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(2)),
        || Box::new(NestAScheduler::new(2, 5)),
        None,
        4_000,
    );
}

#[test]
fn k_async_reports_are_identical() {
    compare(
        "2-async",
        &cloud(10, 44),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(2)),
        || Box::new(KAsyncScheduler::new(2, 9)),
        None,
        4_000,
    );
}

#[test]
fn unbounded_async_reports_are_identical() {
    compare(
        "async",
        &cloud(10, 45),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(4)),
        || Box::new(AsyncScheduler::new(13)),
        None,
        4_000,
    );
}

#[test]
fn per_robot_radii_reports_are_identical() {
    // Exercises the min(rᵢ, rⱼ) cohesion thresholds and directional
    // perception on the non-uniform branch of both paths.
    let config = cloud(8, 46);
    let radii: Vec<f64> = (0..8).map(|i| 1.0 + 0.25 * (i % 3) as f64).collect();
    compare(
        "hetero-radii",
        &config,
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(2)),
        || Box::new(KAsyncScheduler::new(2, 17)),
        Some(radii),
        3_000,
    );
}

#[test]
fn converging_run_reports_are_identical() {
    // A run that actually reaches ε, so the early-break path (convergence
    // observed at a sampled event) is compared too.
    compare(
        "fsync-converges",
        &cloud(6, 47),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(1)),
        || Box::new(FSyncScheduler::new()),
        None,
        200_000,
    );
}

#[test]
fn grid_sized_swarm_reports_are_identical() {
    // Enough robots that the strong-visibility grid spans many cells and
    // acquisitions come from range queries, not a handful of neighbours.
    compare(
        "fsync-64",
        &cloud(64, 48),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(1)),
        || Box::new(FSyncScheduler::new()),
        None,
        1_500,
    );
    compare(
        "async-64",
        &cloud(64, 49),
        || Box::new(cohesion_core::KirkpatrickAlgorithm::new(4)),
        || Box::new(AsyncScheduler::new(50)),
        None,
        1_500,
    );
}

#[test]
fn strong_visibility_violation_reports_are_identical() {
    // Center of gravity under unbounded Async splits an acquired pair, so
    // the violation path is compared against the all-pairs sweep.
    let report = compare(
        "cog-async-dumbbell",
        &dumbbell(4),
        || Box::new(cohesion_algorithms::CogAlgorithm::new()),
        || Box::new(AsyncScheduler::new(13)),
        None,
        4_000,
    );
    assert_eq!(report.strong_visibility_ok, Some(false));
}
