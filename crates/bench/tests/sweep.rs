//! Determinism of the sweep harness across thread counts.
//!
//! The contract `sweep.rs` documents: a sweep's output is a pure function of
//! its spec list — independent of how many workers executed it and of the
//! order work items happened to finish in. These tests pin that contract at
//! three levels: full `SimulationReport` equality on a real scenario grid,
//! byte equality of the serialized JSON rows (the form `lab`
//! writes), and a property test over arbitrary item lists and thread counts.

use cohesion_bench::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, SweepRunner, WorkloadSpec};
use proptest::prelude::*;

/// A small but heterogeneous scenario grid: two workload shapes, two
/// algorithms, three scheduler classes — enough that workers genuinely
/// interleave, cheap enough for `cargo test -q`.
fn scenario_grid() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for (i, workload) in [
        WorkloadSpec::RandomConnected {
            n: 8,
            v: 1.0,
            seed: 21,
        },
        WorkloadSpec::Line { n: 6, spacing: 0.9 },
    ]
    .into_iter()
    .enumerate()
    {
        for algorithm in [
            AlgorithmSpec::Kirkpatrick { k: 2 },
            AlgorithmSpec::Ando { v: 1.0 },
        ] {
            for scheduler in [
                SchedulerSpec::FSync,
                SchedulerSpec::SSync { seed: 5 },
                SchedulerSpec::KAsync { k: 2, seed: 7 },
            ] {
                specs.push(ScenarioSpec {
                    seed: 100 + i as u64,
                    max_events: 1_500,
                    ..ScenarioSpec::new(workload, algorithm, scheduler)
                });
            }
        }
    }
    specs
}

#[test]
fn scenario_reports_identical_for_one_vs_many_threads() {
    let specs = scenario_grid();
    let serial = SweepRunner::with_threads(1).run(&specs, |_, s| s.run());
    let parallel = SweepRunner::with_threads(8).run(&specs, |_, s| s.run());
    assert_eq!(serial.len(), specs.len());
    assert_eq!(serial, parallel, "reports must not depend on thread count");
}

#[test]
fn json_rows_identical_for_one_vs_many_threads() {
    // The lab's acceptance bar: the dumped JSON rows diff clean
    // against a serial reference run.
    let specs: Vec<ScenarioSpec> = scenario_grid().into_iter().take(6).collect();
    #[derive(serde::Serialize)]
    struct Row {
        algorithm: String,
        scheduler: String,
        converged: bool,
        cohesive: bool,
        rounds: usize,
        events: usize,
    }
    let rows = |threads: usize| -> Vec<String> {
        SweepRunner::with_threads(threads)
            .run(&specs, |_, s| s.run())
            .iter()
            .map(|r| {
                serde_json::to_string(&Row {
                    algorithm: r.algorithm.clone(),
                    scheduler: r.scheduler.clone(),
                    converged: r.converged,
                    cohesive: r.cohesion_maintained,
                    rounds: r.rounds,
                    events: r.events,
                })
                .expect("serialize row")
            })
            .collect()
    };
    assert_eq!(rows(1), rows(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generic_runner_output_independent_of_thread_count(
        items in proptest::collection::vec(0u64..10_000, 0..48),
        threads in 1usize..10,
    ) {
        let job = |i: usize, &x: &u64| (i, x.wrapping_mul(0x9E37_79B9));
        let serial = SweepRunner::with_threads(1).run(&items, job);
        let parallel = SweepRunner::with_threads(threads).run(&items, job);
        prop_assert_eq!(serial, parallel);
    }
}
