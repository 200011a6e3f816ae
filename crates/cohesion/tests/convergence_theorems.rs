//! End-to-end checks of the paper's positive results: Theorems 3–4
//! (visibility preservation under k-NestA / k-Async) plus the §5
//! congregation argument — together, Cohesive Convergence under bounded
//! asynchrony.

use cohesion::prelude::*;
use cohesion::scheduler::NestAScheduler;

fn run(
    config: Configuration,
    k: u32,
    scheduler: impl cohesion::scheduler::Scheduler + 'static,
    seed: u64,
) -> SimulationReport {
    SimulationBuilder::new(config, KirkpatrickAlgorithm::new(k))
        .visibility(1.0)
        .scheduler(scheduler)
        .seed(seed)
        .epsilon(0.08)
        .max_events(400_000)
        .run()
}

#[test]
fn converges_cohesively_under_fsync() {
    let report = run(
        workloads::random_connected(12, 1.0, 1),
        1,
        FSyncScheduler::new(),
        1,
    );
    assert!(
        report.cohesively_converged(),
        "final diameter {}",
        report.final_diameter
    );
    assert_eq!(report.strong_visibility_ok, Some(true));
    assert_eq!(report.hulls_nested, Some(true));
}

#[test]
fn converges_cohesively_under_ssync() {
    let report = run(
        workloads::random_connected(12, 1.0, 2),
        1,
        SSyncScheduler::new(5),
        2,
    );
    assert!(
        report.cohesively_converged(),
        "final diameter {}",
        report.final_diameter
    );
}

#[test]
fn converges_cohesively_under_k_nesta() {
    for k in [1u32, 3] {
        let report = run(
            workloads::random_connected(10, 1.0, 3),
            k,
            NestAScheduler::new(k, 11),
            3,
        );
        assert!(
            report.cohesively_converged(),
            "k={k}: final diameter {}",
            report.final_diameter
        );
        assert_eq!(
            report.strong_visibility_ok,
            Some(true),
            "acquired-visibility clause (k={k})"
        );
    }
}

#[test]
fn converges_cohesively_under_k_async() {
    for k in [1u32, 2, 4] {
        let report = run(
            workloads::random_connected(10, 1.0, 4),
            k,
            KAsyncScheduler::new(k, 13),
            4,
        );
        assert!(
            report.cohesively_converged(),
            "k={k}: final diameter {}",
            report.final_diameter
        );
    }
}

#[test]
fn line_workload_converges() {
    // The near-threshold line is the classic worst case for cohesion.
    let report = run(workloads::line(8, 0.95), 2, KAsyncScheduler::new(2, 17), 5);
    assert!(
        report.cohesively_converged(),
        "final diameter {}",
        report.final_diameter
    );
}

#[test]
fn ring_workload_converges() {
    let report = run(workloads::ring(9, 0.95), 2, KAsyncScheduler::new(2, 19), 6);
    assert!(
        report.cohesively_converged(),
        "final diameter {}",
        report.final_diameter
    );
}

#[test]
fn dumbbell_workload_converges() {
    let report = run(
        workloads::dumbbell(4, 1.0, 7),
        2,
        KAsyncScheduler::new(2, 23),
        7,
    );
    assert!(
        report.cohesively_converged(),
        "final diameter {}",
        report.final_diameter
    );
}

#[test]
fn over_provisioned_k_still_converges() {
    // Algorithm provisioned for k = 6 under a 2-Async scheduler: smaller
    // steps, same guarantees (the paper's scaling is monotone in k).
    let report = run(
        workloads::random_connected(8, 1.0, 8),
        6,
        KAsyncScheduler::new(2, 29),
        8,
    );
    assert!(
        report.cohesively_converged(),
        "final diameter {}",
        report.final_diameter
    );
}

#[test]
fn hull_nesting_holds_along_the_run() {
    let report = SimulationBuilder::new(
        workloads::random_connected(10, 1.0, 9),
        KirkpatrickAlgorithm::new(2),
    )
    .visibility(1.0)
    .scheduler(KAsyncScheduler::new(2, 31))
    .epsilon(0.05)
    .hull_check_every(8)
    .max_events(400_000)
    .run();
    assert_eq!(report.hulls_nested, Some(true), "CH_{{t+}} ⊆ CH_t (§5)");
}

#[test]
fn engine_trace_respects_the_scheduling_model() {
    // The engine replays exactly what the scheduler emits; certify the trace
    // rebuilt from its event stream.
    let config = workloads::random_connected(6, 1.0, 10);
    let recorder = std::rc::Rc::new(std::cell::RefCell::new(TraceRecorder::new()));
    let mut session = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(2))
        .visibility(1.0)
        .scheduler(KAsyncScheduler::new(2, 37))
        .seed(99)
        .max_events(600)
        .build();
    session.observe(std::rc::Rc::clone(&recorder));
    while !session.step().is_terminal() {}
    let recorder = recorder.borrow();
    let trace = recorder
        .trace(recorder.complete_prefix())
        .expect("the complete prefix");
    assert!(trace.len() >= 190, "600 events hold ~200 activations");
    let k = cohesion::scheduler::validate::minimal_async_k(&trace);
    assert!(k <= 2, "2-Async scheduler produced a k={k} trace");
    cohesion::scheduler::validate::validate_no_self_overlap(&trace).unwrap();
}

#[test]
fn rounds_are_counted() {
    let report = run(
        workloads::random_connected(8, 1.0, 11),
        1,
        FSyncScheduler::new(),
        11,
    );
    assert!(
        report.rounds >= 5,
        "FSync run must complete many rounds, got {}",
        report.rounds
    );
    assert!(
        report
            .round_diameters
            .windows(2)
            .all(|w| w[1].1 <= w[0].1 + 1e-9),
        "diameter must be non-increasing across rounds for a hull-diminishing algorithm"
    );
}
