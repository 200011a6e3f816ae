//! The session API's equivalence contract.
//!
//! PR 5 split the monolithic `SimulationBuilder::run()` into
//! `build() -> Simulation` plus incremental drivers (`step`, `run_for`,
//! `run_to_completion`). The refactor must be *invisible* in
//! the output: this suite pins
//!
//! 1. **frozen pre-refactor hashes** — the serialized `SimulationReport`
//!    JSON of six frozen-seed runs (all five scheduler classes plus the
//!    scripted Figure 4(a) adversary schedule) hashed with FNV-1a, captured
//!    from the monolithic loop immediately before the split. `run()` (now
//!    `build().run_to_completion()`) must keep reproducing them
//!    byte-for-byte;
//! 2. **slice-invariance** — driving a session in arbitrarily-sized
//!    interleaved `run_for` slices (property-tested over random slice
//!    sequences) or via per-event `step()` produces the identical report.

use cohesion_engine::{Budget, SimulationBuilder, SimulationReport};
use cohesion_geometry::Vec2;
use cohesion_model::{Configuration, FrameMode, NilAlgorithm};
use cohesion_scheduler::{
    AsyncScheduler, FSyncScheduler, KAsyncScheduler, NestAScheduler, SSyncScheduler, Scheduler,
};
use proptest::prelude::*;

/// FNV-1a 64-bit, the hash the pre-refactor capture used.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One frozen golden case: a scheduler class, the algorithm `k` the class
/// needs for cohesion, and the FNV-1a hash of the report JSON produced by
/// the pre-refactor monolithic `run()` loop.
struct GoldenCase {
    label: &'static str,
    make: fn(u64) -> Box<dyn Scheduler>,
    k: u32,
    json_fnv1a: u64,
}

/// Captured from the monolithic loop at the commit boundary (config
/// `random_connected(12, 1.0, 303)`, engine seed `0xC0FF_EE00 + k`,
/// scheduler seed `0x5E55_10F1`, `ε = 0.05`, 3000-event budget, strong
/// visibility on, hull cadence 16, diameter cadence 8).
const GOLDEN: [GoldenCase; 5] = [
    GoldenCase {
        label: "fsync",
        make: |_| Box::new(FSyncScheduler::new()),
        k: 1,
        json_fnv1a: 0x286E_DFD7_7B15_B981,
    },
    GoldenCase {
        label: "ssync",
        make: |s| Box::new(SSyncScheduler::new(s)),
        k: 1,
        json_fnv1a: 0xC4A3_20FE_D622_B83E,
    },
    GoldenCase {
        label: "nest-a",
        make: |s| Box::new(NestAScheduler::new(2, s)),
        k: 2,
        json_fnv1a: 0x8C25_4B32_F0E1_0767,
    },
    GoldenCase {
        label: "k-async",
        make: |s| Box::new(KAsyncScheduler::new(2, s)),
        k: 2,
        json_fnv1a: 0x2B37_C862_7359_6970,
    },
    GoldenCase {
        label: "async",
        make: |s| Box::new(AsyncScheduler::new(s)),
        k: 4,
        json_fnv1a: 0x1ABF_721E_4DB2_3B01,
    },
];

/// Hash of the scripted Figure 4(a) adversary-schedule report (the engine
/// knobs `cohesion_adversary::run_figure4` pins), captured the same way.
const GOLDEN_FIGURE4A: u64 = 0x0691_BAC5_35FA_9156;

fn golden_builder(case: &GoldenCase) -> SimulationBuilder {
    SimulationBuilder::new(
        cohesion_workloads::random_connected(12, 1.0, 303),
        cohesion_core::KirkpatrickAlgorithm::new(case.k),
    )
    .visibility(1.0)
    .scheduler((case.make)(0x5E55_10F1))
    .seed(0xC0FF_EE00 + case.k as u64)
    .epsilon(0.05)
    .max_events(3_000)
    .track_strong_visibility(true)
    .hull_check_every(16)
    .diameter_sample_every(8)
}

fn figure4a_builder() -> SimulationBuilder {
    SimulationBuilder::new(
        cohesion_adversary::ando_counterexample::figure4_configuration(),
        cohesion_core::KirkpatrickAlgorithm::new(1),
    )
    .visibility(cohesion_adversary::ando_counterexample::V)
    .scheduler(cohesion_scheduler::ScriptedScheduler::new(
        "figure4",
        cohesion_adversary::ando_counterexample::figure4a_schedule(),
    ))
    .epsilon(1e-6)
    .frame_mode(FrameMode::Aligned)
}

fn report_hash(report: &SimulationReport) -> u64 {
    fnv1a(serde_json::to_string(report).expect("serialize").as_bytes())
}

/// `build().run_to_completion()` reproduces the pre-refactor monolithic
/// loop byte-for-byte across all five scheduler classes.
#[test]
fn run_matches_frozen_pre_refactor_hashes() {
    for case in &GOLDEN {
        let report = golden_builder(case).run();
        assert!(report.events > 0, "{}: nothing simulated", case.label);
        assert_eq!(
            report_hash(&report),
            case.json_fnv1a,
            "{}: report JSON diverged from the pre-refactor capture",
            case.label
        );
    }
}

/// Same pin for the scripted Figure 4(a) adversary schedule.
#[test]
fn run_matches_frozen_adversary_schedule_hash() {
    let report = figure4a_builder().run();
    assert_eq!(
        report_hash(&report),
        GOLDEN_FIGURE4A,
        "figure4a: report JSON diverged from the pre-refactor capture"
    );
}

/// Fixed-size `run_for` slices and per-event `step()` both land on the
/// identical report for every golden case.
#[test]
fn sliced_drivers_match_the_one_shot_run() {
    for case in &GOLDEN {
        let one_shot = golden_builder(case).run();

        let mut sliced = golden_builder(case).build();
        while !sliced.run_for(Budget::events(137)).is_terminal() {}
        let sliced = sliced.into_report();
        assert_eq!(one_shot, sliced, "{}: run_for slices diverged", case.label);

        let mut stepped = golden_builder(case).build();
        while !stepped.step().is_terminal() {}
        let stepped = stepped.into_report();
        assert_eq!(one_shot, stepped, "{}: step loop diverged", case.label);
    }

    let one_shot = figure4a_builder().run();
    let mut sliced = figure4a_builder().build();
    while !sliced.run_for(Budget::events(7)).is_terminal() {}
    assert_eq!(one_shot, sliced.into_report(), "figure4a: slices diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaved `run_for` slices of *random* sizes reproduce the
    /// uninterrupted `run_to_completion()` report exactly (frozen seeds;
    /// the scheduler class is drawn per case).
    #[test]
    fn random_slices_reproduce_the_uninterrupted_report(
        case_idx in 0usize..GOLDEN.len(),
        slices in proptest::collection::vec(1usize..400, 1..40),
    ) {
        let case = &GOLDEN[case_idx];
        let one_shot = golden_builder(case).run();

        let mut session = golden_builder(case).build();
        for &slice in &slices {
            if session.run_for(Budget::events(slice)).is_terminal() {
                break;
            }
        }
        // Whatever the slice schedule left unfinished, finish it.
        while !session.step().is_terminal() {}
        prop_assert_eq!(one_shot, session.into_report());
    }
}

/// The builder's radii validation fails at configuration time.
#[test]
#[should_panic(expected = "one radius per robot")]
fn mismatched_visibility_radii_fail_in_the_setter() {
    let line = Configuration::new(vec![Vec2::ZERO, Vec2::new(0.9, 0.0)]);
    let _ = SimulationBuilder::new(line, NilAlgorithm).visibility_radii(vec![1.0; 3]);
}
