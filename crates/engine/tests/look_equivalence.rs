//! Bit-exact equivalence of the grid-backed Look phase and the historical
//! brute-force observation loop.
//!
//! The engine's Look used to rebuild `all_positions` (an `O(n)` allocation)
//! and scan all `n` robots linearly. The grid-backed pipeline gathers the
//! `O(deg)` stationary candidates from an incremental
//! [`cohesion_geometry::DynamicGrid`], checks the motile few at interpolated
//! positions, and reuses pooled scratch buffers — but sorts merged
//! candidates into ascending robot order, the historical scan order, so
//! every RNG draw happens in the same sequence and the two paths must
//! produce **identical** [`SimulationReport`]s.
//!
//! The old loop is carried verbatim inside the engine as
//! [`LookPath::BruteReference`]; this suite sweeps the full equivalence
//! matrix — all five scheduler classes × heterogeneous radii on/off — over
//! frozen-seed random connected configurations, one of them with
//! co-located robots for the Look-time multiplicity collapse (§2.2), and
//! compares reports both structurally and as serialized JSON bytes (the
//! format the sweep harness persists).

use cohesion_engine::{LookPath, SimulationBuilder, SimulationReport};
use cohesion_geometry::Vec2;
use cohesion_model::{Algorithm, Configuration};
use cohesion_scheduler::{
    AsyncScheduler, FSyncScheduler, KAsyncScheduler, NestAScheduler, SSyncScheduler, Scheduler,
};

/// One cell of the equivalence matrix: a scheduler class paired with the
/// algorithm `k` the class needs for cohesion.
struct SchedulerCase {
    label: &'static str,
    make: fn(u64) -> Box<dyn Scheduler>,
    k: u32,
}

const SCHEDULER_CASES: [SchedulerCase; 5] = [
    SchedulerCase {
        label: "fsync",
        make: |_| Box::new(FSyncScheduler::new()),
        k: 1,
    },
    SchedulerCase {
        label: "ssync",
        make: |seed| Box::new(SSyncScheduler::new(seed)),
        k: 1,
    },
    SchedulerCase {
        label: "nest-a",
        make: |seed| Box::new(NestAScheduler::new(2, seed)),
        k: 2,
    },
    SchedulerCase {
        label: "k-async",
        make: |seed| Box::new(KAsyncScheduler::new(2, seed)),
        k: 2,
    },
    SchedulerCase {
        label: "async",
        make: |seed| Box::new(AsyncScheduler::new(seed)),
        k: 4,
    },
];

fn run_with(
    path: LookPath,
    config: &Configuration<Vec2>,
    algorithm: impl Algorithm<Vec2> + 'static,
    scheduler: Box<dyn Scheduler>,
    radii: Option<Vec<f64>>,
    seed: u64,
) -> SimulationReport<Vec2> {
    let mut builder = SimulationBuilder::new(config.clone(), algorithm)
        .visibility(1.0)
        .scheduler(scheduler)
        .seed(seed)
        .epsilon(0.05)
        .max_events(2_500)
        .track_strong_visibility(true)
        .hull_check_every(16)
        .diameter_sample_every(8)
        .look_path(path);
    if let Some(radii) = radii {
        builder = builder.visibility_radii(radii);
    }
    builder.run()
}

/// Heterogeneous radii within a small constant factor (paper §6.2), frozen
/// per robot index.
fn hetero_radii(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.25 * (i % 3) as f64).collect()
}

/// The property: for every matrix cell and every frozen seed, the two Look
/// paths yield byte-identical reports.
#[test]
fn grid_look_reports_are_byte_identical_across_the_matrix() {
    // Frozen rng stream: configuration seeds drive random_connected, run
    // seeds drive engine randomness and scheduler jitter. The last case adds
    // twins of robots 0, 0 and 3 (`random_connected` never places two robots
    // on one point), so the Look-time collapse has observations to merge.
    let cases: &[(usize, u64, u64, &[usize])] = &[
        (10, 101, 0xE01D_C0DE, &[]),
        (13, 202, 0xBADC_0FFE, &[]),
        (10, 101, 0xE01D_C0DE, &[0, 0, 3]),
    ];
    for case in &SCHEDULER_CASES {
        for &(n, config_seed, run_seed, twins) in cases {
            let mut positions = cohesion_workloads::random_connected(n, 1.0, config_seed)
                .positions()
                .to_vec();
            for &i in twins {
                positions.push(positions[i]);
            }
            let config = Configuration::new(positions);
            for hetero in [false, true] {
                let radii = hetero.then(|| hetero_radii(config.len()));
                let mut reports =
                    [LookPath::Grid, LookPath::BruteReference]
                        .into_iter()
                        .map(|path| {
                            run_with(
                                path,
                                &config,
                                cohesion_core::KirkpatrickAlgorithm::new(case.k),
                                (case.make)(run_seed ^ config_seed),
                                radii.clone(),
                                run_seed,
                            )
                        });
                let grid = reports.next().unwrap();
                let brute = reports.next().unwrap();
                let label = format!("{} n={n} twins={twins:?} hetero={hetero}", case.label);
                assert!(grid.events > 0, "{label}: nothing simulated");
                assert_eq!(grid, brute, "{label}: reports diverged");
                let grid_json = serde_json::to_string(&grid).expect("serialize");
                let brute_json = serde_json::to_string(&brute).expect("serialize");
                assert_eq!(grid_json, brute_json, "{label}: JSON bytes diverged");
            }
        }
    }
}

/// Distorted frames + distance error: the RNG-hungriest perception pipeline
/// (a distortion sample and a factor draw per observed robot) stays in
/// lockstep between the paths.
#[test]
fn grid_look_matches_under_perception_error() {
    use cohesion_model::PerceptionModel;
    let config = cohesion_workloads::random_connected(12, 1.0, 77);
    let perception = PerceptionModel {
        distance_error: 0.02,
        skew: 0.1,
    };
    let run = |path: LookPath| {
        SimulationBuilder::new(config.clone(), cohesion_core::KirkpatrickAlgorithm::new(2))
            .visibility(1.0)
            .scheduler(KAsyncScheduler::new(2, 5))
            .seed(0xD15_7027)
            .epsilon(0.05)
            .max_events(2_000)
            .perception(perception)
            .look_path(path)
            .run()
    };
    assert_eq!(
        serde_json::to_string(&run(LookPath::Grid)).expect("serialize"),
        serde_json::to_string(&run(LookPath::BruteReference)).expect("serialize"),
    );
}
