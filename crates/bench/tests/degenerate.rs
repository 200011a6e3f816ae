//! Degenerate inputs through every algorithm under every scheduler class.
//!
//! The paper's configurations are connected clouds of distinct robots, but
//! nothing stops a caller from handing the engine one robot, two robots,
//! robots stacked on one point, or a collinear line — exactly the inputs
//! where smallest enclosing circles, hulls and angular gaps degenerate.
//! Every [`AlgorithmSpec`] family runs each such configuration under FSync,
//! SSync, NestA, k-Async and Async for a fixed event budget and must not
//! panic, must process events, and must leave every robot at a finite
//! position. The do-nothing control must leave the configuration exactly
//! where it started.

use cohesion_bench::{AlgorithmSpec, SchedulerSpec};
use cohesion_engine::SimulationBuilder;
use cohesion_geometry::Vec2;
use cohesion_model::Configuration;
use std::panic::{catch_unwind, AssertUnwindSafe};

const V: f64 = 1.0;
const EVENTS: usize = 3000;
const SEED: u64 = 0xDE6E_0001;

const ALGORITHMS: [AlgorithmSpec; 7] = [
    AlgorithmSpec::Kirkpatrick { k: 2 },
    AlgorithmSpec::KirkpatrickTolerant {
        k: 2,
        delta: 0.05,
        skew: 0.05,
    },
    AlgorithmSpec::Ando { v: V },
    AlgorithmSpec::Katreniak,
    AlgorithmSpec::Cog,
    AlgorithmSpec::Gcm,
    AlgorithmSpec::Nil,
];

const SCHEDULERS: [SchedulerSpec; 5] = [
    SchedulerSpec::FSync,
    SchedulerSpec::SSync { seed: SEED },
    SchedulerSpec::NestA { k: 2, seed: SEED },
    SchedulerSpec::KAsync { k: 2, seed: SEED },
    SchedulerSpec::Async { seed: SEED },
];

/// The degenerate starting configurations, labelled for failure messages.
fn configurations() -> Vec<(&'static str, Vec<Vec2>)> {
    let p = Vec2::new(0.3, -0.2);
    vec![
        ("one robot", vec![p]),
        ("two robots within V", vec![Vec2::ZERO, Vec2::new(0.6, 0.0)]),
        ("two robots beyond V", vec![Vec2::ZERO, Vec2::new(1.7, 0.0)]),
        ("stack of 2", vec![p; 2]),
        ("stack of 5", vec![p; 5]),
        (
            "coincident pair plus one",
            vec![Vec2::ZERO, Vec2::ZERO, Vec2::new(0.8, 0.0)],
        ),
        (
            "axis-aligned line",
            (0..5).map(|i| Vec2::new(0.45 * i as f64, 0.0)).collect(),
        ),
        (
            "diagonal line",
            (0..5)
                .map(|i| Vec2::new(0.3 * i as f64, 0.3 * i as f64))
                .collect(),
        ),
    ]
}

#[test]
fn degenerate_configurations_run_under_every_algorithm_and_scheduler() {
    let mut failures = Vec::new();
    let mut runs = 0;
    for (label, positions) in configurations() {
        for algorithm in ALGORITHMS {
            for scheduler in SCHEDULERS {
                runs += 1;
                let case = format!("{label} / {algorithm:?} / {scheduler:?}");
                let initial = Configuration::new(positions.clone());
                let run = catch_unwind(AssertUnwindSafe(|| {
                    SimulationBuilder::new(initial.clone(), algorithm.build())
                        .visibility(V)
                        .scheduler(scheduler.build())
                        .max_events(EVENTS)
                        .run()
                }));
                let report = match run {
                    Ok(report) => report,
                    Err(_) => {
                        failures.push(format!("{case}: panicked"));
                        continue;
                    }
                };
                let finals = report.final_configuration.positions();
                if report.events == 0 {
                    failures.push(format!("{case}: processed no events"));
                }
                if !finals.iter().all(|p| p.x.is_finite() && p.y.is_finite()) {
                    failures.push(format!("{case}: non-finite final position {finals:?}"));
                }
                if algorithm == AlgorithmSpec::Nil && finals != initial.positions() {
                    failures.push(format!("{case}: Nil moved a robot to {finals:?}"));
                }
            }
        }
    }
    assert_eq!(runs, 8 * ALGORITHMS.len() * SCHEDULERS.len());
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
