//! Deterministic parallel scenario sweeps.
//!
//! The paper's tables are grids: algorithm × scheduler × workload × seed,
//! thousands of independent simulation runs. Every experiment binary used to
//! hand-roll the same serial loop; this module gives them one harness:
//!
//! * [`ScenarioSpec`] — a plain-data description of one run (workload,
//!   algorithm, scheduler, budgets), cheap to clone and `Send + Sync`, so a
//!   whole sweep is just a `Vec<ScenarioSpec>`;
//! * [`SweepRunner`] — executes any spec slice on a hand-rolled scoped
//!   thread pool (`std::thread::scope` + an atomic work counter — no
//!   external dependency, the build environment is offline). Results are
//!   written into per-spec slots and merged **in spec order**, so the output
//!   is byte-identical whether the sweep ran on 1 thread or 64.
//!
//! Each simulation is already deterministic in its seed; the runner adds no
//! nondeterminism because work items never share mutable state and ordering
//! is re-imposed at merge time, so the outputs match for any thread count,
//! which `tests/sweep.rs` asserts.

use cohesion_algorithms::{AndoAlgorithm, CogAlgorithm, GcmAlgorithm, KatreniakAlgorithm};
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{Simulation, SimulationBuilder, SimulationReport};
use cohesion_geometry::{Vec2, Vec3};
use cohesion_model::frame::Ambient;
use cohesion_model::{
    Algorithm, Budget, Configuration, FrameMode, MotionModel, NilAlgorithm, PerceptionModel,
    Progress,
};
use cohesion_scheduler::{
    AsyncScheduler, FSyncScheduler, KAsyncScheduler, NestAScheduler, SSyncScheduler, Scheduler,
    ScriptedScheduler,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which convergence algorithm a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgorithmSpec {
    /// The paper's algorithm, provisioned for `k`-bounded asynchrony.
    Kirkpatrick {
        /// The asynchrony bound the safe regions are scaled for.
        k: u32,
    },
    /// The paper's algorithm with its §6.1 error-tolerance parameters.
    KirkpatrickTolerant {
        /// The asynchrony bound the safe regions are scaled for.
        k: u32,
        /// Relative distance-error bound `δ` the safe regions absorb.
        delta: f64,
        /// Angular-skew bound `λ` the safe regions absorb.
        skew: f64,
    },
    /// Ando's SSync smallest-enclosing-circle baseline.
    Ando {
        /// Visibility radius the destination rule caps at.
        v: f64,
    },
    /// Katreniak's 1-Async algorithm.
    Katreniak,
    /// Centre-of-gravity baseline (unlimited-visibility literature).
    Cog,
    /// Centre-of-minbox baseline (needs axis agreement).
    Gcm,
    /// The do-nothing algorithm (control runs).
    Nil,
}

impl AlgorithmSpec {
    /// Instantiates the algorithm.
    #[must_use]
    pub fn build(&self) -> Box<dyn Algorithm<Vec2>> {
        match *self {
            AlgorithmSpec::Kirkpatrick { k } => Box::new(KirkpatrickAlgorithm::new(k)),
            AlgorithmSpec::KirkpatrickTolerant { k, delta, skew } => {
                Box::new(KirkpatrickAlgorithm::with_error_tolerance(k, delta, skew))
            }
            AlgorithmSpec::Ando { v } => Box::new(AndoAlgorithm::new(v)),
            AlgorithmSpec::Katreniak => Box::new(KatreniakAlgorithm::new()),
            AlgorithmSpec::Cog => Box::new(CogAlgorithm::new()),
            AlgorithmSpec::Gcm => Box::new(GcmAlgorithm::new()),
            AlgorithmSpec::Nil => Box::new(NilAlgorithm),
        }
    }

    /// Instantiates the 3D variant (the §6.3.2 extension). Only the paper's
    /// algorithm and the nil control generalize to `Vec3`.
    ///
    /// # Panics
    ///
    /// Panics for the 2D-only baselines.
    #[must_use]
    pub fn build3(&self) -> Box<dyn Algorithm<Vec3>> {
        match *self {
            AlgorithmSpec::Kirkpatrick { k } => Box::new(KirkpatrickAlgorithm::new(k)),
            AlgorithmSpec::KirkpatrickTolerant { k, delta, skew } => {
                Box::new(KirkpatrickAlgorithm::with_error_tolerance(k, delta, skew))
            }
            AlgorithmSpec::Nil => Box::new(NilAlgorithm),
            other => panic!("{other:?} has no 3D generalization"),
        }
    }

    /// The algorithm's family label, as the experiment tables print it.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            AlgorithmSpec::Kirkpatrick { .. } | AlgorithmSpec::KirkpatrickTolerant { .. } => {
                "kirkpatrick"
            }
            AlgorithmSpec::Ando { .. } => "ando",
            AlgorithmSpec::Katreniak => "katreniak",
            AlgorithmSpec::Cog => "cog",
            AlgorithmSpec::Gcm => "gcm",
            AlgorithmSpec::Nil => "nil",
        }
    }
}

/// Which activation scheduler a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// Fully synchronous rounds.
    FSync,
    /// Semi-synchronous random subsets.
    SSync {
        /// Scheduler RNG seed.
        seed: u64,
    },
    /// `k`-bounded nested asynchrony.
    NestA {
        /// Nesting bound.
        k: u32,
        /// Scheduler RNG seed.
        seed: u64,
    },
    /// `k`-bounded asynchrony.
    KAsync {
        /// Overlap bound.
        k: u32,
        /// Scheduler RNG seed.
        seed: u64,
    },
    /// Unbounded asynchrony.
    Async {
        /// Scheduler RNG seed.
        seed: u64,
    },
    /// The scripted Figure 4(a) schedule (the 1-Async Ando counterexample).
    Figure4a,
    /// The scripted Figure 4(b) schedule (the 2-NestA Ando counterexample).
    Figure4b,
    /// The §7 sliver-flattening adversary with unbounded nesting. This is a
    /// *driver*, not an engine scheduler: scenarios carrying it must use a
    /// [`WorkloadSpec::SpiralTail`] workload and run through the lab's
    /// outcome dispatch (`crate::lab::Outcome::compute`), which hands the
    /// victim algorithm to `cohesion_adversary::run_impossibility`.
    AdversaryNested {
        /// Budget of flattening sweeps over the spiral tail.
        max_sweeps: usize,
    },
}

impl SchedulerSpec {
    /// Instantiates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics for [`SchedulerSpec::AdversaryNested`], whose schedule is
    /// constructed adaptively by the impossibility driver rather than
    /// replayed through the engine.
    #[must_use]
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerSpec::FSync => Box::new(FSyncScheduler::new()),
            SchedulerSpec::SSync { seed } => Box::new(SSyncScheduler::new(seed)),
            SchedulerSpec::NestA { k, seed } => Box::new(NestAScheduler::new(k, seed)),
            SchedulerSpec::KAsync { k, seed } => Box::new(KAsyncScheduler::new(k, seed)),
            SchedulerSpec::Async { seed } => Box::new(AsyncScheduler::new(seed)),
            SchedulerSpec::Figure4a => Box::new(ScriptedScheduler::new(
                "figure4",
                cohesion_adversary::ando_counterexample::figure4a_schedule(),
            )),
            SchedulerSpec::Figure4b => Box::new(ScriptedScheduler::new(
                "figure4",
                cohesion_adversary::ando_counterexample::figure4b_schedule(),
            )),
            SchedulerSpec::AdversaryNested { .. } => {
                panic!(
                    "the §7 adversary drives its own schedule; run it via the lab outcome dispatch"
                )
            }
        }
    }
}

/// Which initial configuration a scenario starts from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// A connected random cloud at visibility scale `v`.
    RandomConnected {
        /// Robot count.
        n: usize,
        /// Visibility radius used for the connectivity guarantee.
        v: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A line with fixed spacing (the classic slow-convergence workload).
    Line {
        /// Robot count.
        n: usize,
        /// Neighbour spacing.
        spacing: f64,
    },
    /// A regular `n`-gon with the given side length.
    Ring {
        /// Robot count (≥ 3).
        n: usize,
        /// Side length.
        side: f64,
    },
    /// A `rows × cols` grid with the given spacing.
    Grid {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Lattice spacing.
        spacing: f64,
    },
    /// Two dense clusters bridged by a single chain (sparse-cut stress).
    Dumbbell {
        /// Robots per cluster.
        per_side: usize,
        /// Visibility scale.
        v: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A generic Archimedean spiral (stress workload).
    Spiral {
        /// Robot count.
        n: usize,
        /// Radial step.
        step: f64,
    },
    /// Two connected clouds `gap` apart — the §6.3.1 disconnected start.
    TwoClusters {
        /// Robots per cluster.
        per_cluster: usize,
        /// Visibility scale.
        v: f64,
        /// Horizontal translation of the second cluster.
        gap: f64,
        /// Generator seed of the first cluster.
        seed_a: u64,
        /// Generator seed of the second cluster.
        seed_b: u64,
    },
    /// Observer + two distant neighbours at `±γ` (the Figure 15 half-sector).
    Wedge {
        /// The half-sector angle `γ` in radians.
        half_angle: f64,
    },
    /// Observer surrounded by `arms` distant neighbours (the §5 nil-move case).
    Star {
        /// Number of surrounding neighbours (≥ 3).
        arms: usize,
    },
    /// The doomed-engagement pair + pinned anchors (Figures 10–14 search).
    EngagementPair {
        /// Visibility scale.
        v: f64,
        /// Anchor-placement seed.
        seed: u64,
    },
    /// The exact Figure 4 counterexample geometry.
    Figure4,
    /// The §7 spiral-tail construction for turn angle `ψ` (robot count grows
    /// like `e^{3π/(8 sin ψ)}`).
    SpiralTail {
        /// The spiral's turn angle `ψ`.
        psi: f64,
    },
    /// A connected random 3D ball — the §6.3.2 extension workload. Build it
    /// with [`WorkloadSpec::build3`]; scenarios carrying it run through the
    /// lab's 3D dispatch.
    Ball3 {
        /// Robot count.
        n: usize,
        /// Visibility radius used for the connectivity guarantee.
        v: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl WorkloadSpec {
    /// Materializes the initial configuration.
    ///
    /// # Panics
    ///
    /// Panics for [`WorkloadSpec::Ball3`] — use [`WorkloadSpec::build3`].
    #[must_use]
    pub fn build(&self) -> Configuration<Vec2> {
        match *self {
            WorkloadSpec::RandomConnected { n, v, seed } => {
                cohesion_workloads::random_connected(n, v, seed)
            }
            WorkloadSpec::Line { n, spacing } => cohesion_workloads::line(n, spacing),
            WorkloadSpec::Ring { n, side } => cohesion_workloads::ring(n, side),
            WorkloadSpec::Grid {
                rows,
                cols,
                spacing,
            } => cohesion_workloads::grid(rows, cols, spacing),
            WorkloadSpec::Dumbbell { per_side, v, seed } => {
                cohesion_workloads::dumbbell(per_side, v, seed)
            }
            WorkloadSpec::Spiral { n, step } => cohesion_workloads::spiral(n, step),
            WorkloadSpec::TwoClusters {
                per_cluster,
                v,
                gap,
                seed_a,
                seed_b,
            } => cohesion_workloads::two_clusters(per_cluster, v, gap, seed_a, seed_b),
            WorkloadSpec::Wedge { half_angle } => cohesion_workloads::wedge(half_angle),
            WorkloadSpec::Star { arms } => cohesion_workloads::star(arms),
            WorkloadSpec::EngagementPair { v, seed } => {
                cohesion_workloads::engagement_pair(v, seed)
            }
            WorkloadSpec::Figure4 => {
                cohesion_adversary::ando_counterexample::figure4_configuration()
            }
            WorkloadSpec::SpiralTail { psi } => {
                cohesion_adversary::SpiralConstruction::paper(psi).configuration
            }
            WorkloadSpec::Ball3 { .. } => {
                panic!("Ball3 is a 3D workload; materialize it with build3()")
            }
        }
    }

    /// Materializes the 3D initial configuration of [`WorkloadSpec::Ball3`].
    ///
    /// # Panics
    ///
    /// Panics for every 2D workload.
    #[must_use]
    pub fn build3(&self) -> Configuration<Vec3> {
        match *self {
            WorkloadSpec::Ball3 { n, v, seed } => cohesion_workloads::ball3(n, v, seed),
            other => panic!("{other:?} is a 2D workload; materialize it with build()"),
        }
    }
}

/// A plain-data description of one simulation run — one cell of an
/// experiment grid. Build a `Vec<ScenarioSpec>`, hand it to a
/// [`SweepRunner`], get a `Vec<SimulationReport>` back in the same order.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Initial configuration.
    pub workload: WorkloadSpec,
    /// Convergence algorithm.
    pub algorithm: AlgorithmSpec,
    /// Activation scheduler.
    pub scheduler: SchedulerSpec,
    /// Visibility radius `V`.
    pub visibility: f64,
    /// Convergence threshold `ε`.
    pub epsilon: f64,
    /// Engine-event budget.
    pub max_events: usize,
    /// Engine RNG seed (frames, error models).
    pub seed: u64,
    /// Local-frame sampling mode.
    pub frame_mode: FrameMode,
    /// Enable the acquired-visibility tracking of Theorems 3–4.
    pub track_strong_visibility: bool,
    /// Hull-nesting cadence (`0` disables).
    pub hull_check_every: usize,
    /// Diameter-sampling cadence (`0` disables).
    pub diameter_sample_every: usize,
    /// Perception-error model (Look phases).
    pub perception: PerceptionModel,
    /// Motion-imperfection model (Move phases).
    pub motion: MotionModel,
    /// Experiment-local cell discriminator for grid cells whose computation
    /// is driven by the experiment itself (Monte-Carlo trials, timeline
    /// renders, …) rather than one engine run. Empty for plain scenarios.
    pub tag: &'static str,
    /// Trial budget for Monte-Carlo cells (`0` when not applicable).
    pub trials: usize,
}

impl ScenarioSpec {
    /// A spec with experiment-friendly defaults: `V = 1`, `ε = 0.05`, 900k
    /// events, and the diameter sampled every 32 events. Strong-visibility
    /// and hull-nesting checks are off — dedicated experiments measure
    /// those, and sweeps should not pay for them (note this differs from
    /// `SimulationBuilder`'s defaults, which keep hull checks on).
    #[must_use]
    pub fn new(workload: WorkloadSpec, algorithm: AlgorithmSpec, scheduler: SchedulerSpec) -> Self {
        ScenarioSpec {
            workload,
            algorithm,
            scheduler,
            visibility: 1.0,
            epsilon: 0.05,
            max_events: 900_000,
            seed: 0xC0E510,
            frame_mode: FrameMode::RandomOrtho,
            track_strong_visibility: false,
            hull_check_every: 0,
            diameter_sample_every: 32,
            perception: PerceptionModel::EXACT,
            motion: MotionModel::RIGID,
            tag: "",
            trials: 0,
        }
    }

    /// A spec replaying one of the scripted Figure 4 schedules against
    /// `algorithm` on the exact counterexample geometry, with the engine
    /// knobs `cohesion_adversary::run_figure4` pins (aligned frames,
    /// `ε = 10⁻⁶`, builder-default budgets and monitors) so the two paths
    /// produce identical reports.
    ///
    /// # Panics
    ///
    /// Panics unless `scheduler` is `Figure4a` or `Figure4b`.
    #[must_use]
    pub fn figure4(algorithm: AlgorithmSpec, scheduler: SchedulerSpec) -> Self {
        assert!(
            matches!(scheduler, SchedulerSpec::Figure4a | SchedulerSpec::Figure4b),
            "figure4 scenarios need a scripted Figure 4 schedule"
        );
        ScenarioSpec {
            visibility: cohesion_adversary::ando_counterexample::V,
            epsilon: 1e-6,
            max_events: 100_000,
            frame_mode: FrameMode::Aligned,
            track_strong_visibility: true,
            hull_check_every: 64,
            ..ScenarioSpec::new(WorkloadSpec::Figure4, algorithm, scheduler)
        }
    }

    /// A spec with an experiment-local cell `tag`. Tags discriminate cells
    /// the owning experiment drives itself (Monte-Carlo trials, pure
    /// geometry, timeline renders) or label cells for reduction; the
    /// workload/algorithm/scheduler still describe the cell's subject
    /// declaratively.
    #[must_use]
    pub fn tagged(
        tag: &'static str,
        workload: WorkloadSpec,
        algorithm: AlgorithmSpec,
        scheduler: SchedulerSpec,
    ) -> Self {
        ScenarioSpec {
            tag,
            ..ScenarioSpec::new(workload, algorithm, scheduler)
        }
    }

    /// The fully-configured builder this spec describes, for a
    /// caller-chosen initial configuration and algorithm (the 2D/3D split
    /// materializes those two; every other knob is shared).
    fn configure<P: Ambient>(
        &self,
        initial: Configuration<P>,
        algorithm: Box<dyn Algorithm<P>>,
    ) -> SimulationBuilder<P> {
        SimulationBuilder::new(initial, algorithm)
            .visibility(self.visibility)
            .scheduler(self.scheduler.build())
            .seed(self.seed)
            .epsilon(self.epsilon)
            .max_events(self.max_events)
            .frame_mode(self.frame_mode)
            .track_strong_visibility(self.track_strong_visibility)
            .hull_check_every(self.hull_check_every)
            .diameter_sample_every(self.diameter_sample_every)
            .perception(self.perception)
            .motion(self.motion)
    }

    /// Builds the resumable session this spec describes — the unit the
    /// sweep and lab layers drive in budgeted slices. Attach observers or
    /// drive it directly; `run()` is the one-shot convenience.
    ///
    /// # Panics
    ///
    /// Panics for specs that are not a single 2D engine run (3D workloads,
    /// the §7 adversary) — the lab's `Outcome::compute` dispatches those.
    #[must_use]
    pub fn session(&self) -> Simulation<Vec2> {
        self.configure(self.workload.build(), self.algorithm.build())
            .build()
    }

    /// Builds the 3D session of a [`WorkloadSpec::Ball3`] spec.
    ///
    /// # Panics
    ///
    /// Panics for 2D workloads or algorithms without a 3D generalization.
    #[must_use]
    pub fn session3(&self) -> Simulation<Vec3> {
        self.configure(self.workload.build3(), self.algorithm.build3())
            .build()
    }

    /// Runs the scenario to a full report.
    ///
    /// # Panics
    ///
    /// Panics for specs that are not a single 2D engine run (3D workloads,
    /// the §7 adversary) — the lab's `Outcome::compute` dispatches those.
    #[must_use]
    pub fn run(&self) -> SimulationReport<Vec2> {
        self.session().run_to_completion()
    }

    /// Runs a 3D scenario ([`WorkloadSpec::Ball3`]) to a full report.
    ///
    /// # Panics
    ///
    /// Panics for 2D workloads or algorithms without a 3D generalization.
    #[must_use]
    pub fn run3(&self) -> SimulationReport<Vec3> {
        self.session3().run_to_completion()
    }

    /// Runs the 2D scenario in `every`-event slices, reporting a
    /// [`Progress`] view between slices — the driver behind the lab's
    /// per-cell heartbeats. Slicing is invisible in the report (the session
    /// equivalence suite pins sliced ≡ uninterrupted byte-for-byte).
    #[must_use]
    pub fn run_with_heartbeat(
        &self,
        every: usize,
        on_beat: impl FnMut(&Progress),
    ) -> SimulationReport<Vec2> {
        drive_with_heartbeat(self.session(), every, on_beat)
    }

    /// The 3D counterpart of [`ScenarioSpec::run_with_heartbeat`].
    #[must_use]
    pub fn run3_with_heartbeat(
        &self,
        every: usize,
        on_beat: impl FnMut(&Progress),
    ) -> SimulationReport<Vec3> {
        drive_with_heartbeat(self.session3(), every, on_beat)
    }
}

/// Drives a session to termination in `every`-event slices, invoking
/// `on_beat` with a fresh progress view after each incomplete slice.
fn drive_with_heartbeat<P: Ambient>(
    mut session: Simulation<P>,
    every: usize,
    mut on_beat: impl FnMut(&Progress),
) -> SimulationReport<P> {
    assert!(every > 0, "heartbeat cadence must be positive");
    while !session.run_for(Budget::events(every)).is_terminal() {
        on_beat(&session.progress());
    }
    session.into_report()
}

/// Executes work items in parallel on a scoped thread pool and merges
/// results in item order.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner sized to the machine: the available parallelism (1 when
    /// unknown).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        SweepRunner { threads }
    }

    /// A runner with an explicit thread count (≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker");
        SweepRunner { threads }
    }

    /// The worker count this runner was sized to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job` over every spec, in parallel, and returns the results in
    /// spec order — output is independent of the thread count, so a sweep's
    /// JSON rows diff clean against a serial reference run.
    ///
    /// Work is claimed from an atomic counter (dynamic load balancing: long
    /// simulations don't convoy short ones), each result lands in its own
    /// slot, and worker panics propagate at scope exit.
    pub fn run<S, R, F>(&self, specs: &[S], job: F) -> Vec<R>
    where
        S: Sync,
        R: Send,
        F: Fn(usize, &S) -> R + Sync,
    {
        let total = specs.len();
        let workers = self.threads.min(total.max(1));
        if workers <= 1 {
            return specs.iter().enumerate().map(|(i, s)| job(i, s)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let result = job(i, &specs[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot filled once the scope joins")
            })
            .collect()
    }

    /// Convenience: run a whole [`ScenarioSpec`] grid to reports.
    pub fn run_scenarios(&self, specs: &[ScenarioSpec]) -> Vec<SimulationReport<Vec2>> {
        self.run(specs, |_, spec| spec.run())
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_spec_order() {
        let specs: Vec<usize> = (0..64).collect();
        let runner = SweepRunner::with_threads(8);
        let out = runner.run(&specs, |i, &s| {
            assert_eq!(i, s);
            // Stagger so completion order differs from spec order.
            if s % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            s * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_empty_input() {
        let runner = SweepRunner::with_threads(1);
        assert_eq!(runner.run(&[1, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
        assert!(runner.run::<i32, i32, _>(&[], |_, &x| x).is_empty());
    }

    #[test]
    fn thread_count_oversubscription_is_harmless() {
        let runner = SweepRunner::with_threads(32);
        let out = runner.run(&[10, 20], |_, &x| x);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn scenario_spec_runs_deterministically() {
        let spec = ScenarioSpec {
            max_events: 2_000,
            ..ScenarioSpec::new(
                WorkloadSpec::RandomConnected {
                    n: 8,
                    v: 1.0,
                    seed: 5,
                },
                AlgorithmSpec::Kirkpatrick { k: 2 },
                SchedulerSpec::KAsync { k: 2, seed: 7 },
            )
        };
        let (a, b) = (spec.run(), spec.run());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = SweepRunner::with_threads(0);
    }

    #[test]
    fn heartbeat_driver_beats_and_matches_the_plain_run() {
        let spec = ScenarioSpec {
            max_events: 1_000,
            ..ScenarioSpec::new(
                WorkloadSpec::Line { n: 3, spacing: 0.9 },
                AlgorithmSpec::Nil,
                SchedulerSpec::FSync,
            )
        };
        let mut beats = 0usize;
        let mut last_events = 0usize;
        let observed = spec.run_with_heartbeat(100, |p| {
            beats += 1;
            assert!(p.events > last_events, "beats carry fresh progress");
            last_events = p.events;
            assert!(p.cohesion_ok && !p.converged);
        });
        assert!(
            beats >= 9,
            "a 1000-event run in 100-event slices beats ≥ 9×, got {beats}"
        );
        assert_eq!(observed, spec.run(), "slicing must not perturb the report");
    }

    #[test]
    fn every_2d_workload_spec_materializes() {
        let cases: [(WorkloadSpec, usize); 10] = [
            (
                WorkloadSpec::RandomConnected {
                    n: 6,
                    v: 1.0,
                    seed: 1,
                },
                6,
            ),
            (WorkloadSpec::Line { n: 4, spacing: 0.9 }, 4),
            (WorkloadSpec::Ring { n: 5, side: 1.0 }, 5),
            (
                WorkloadSpec::Grid {
                    rows: 2,
                    cols: 3,
                    spacing: 0.5,
                },
                6,
            ),
            (
                WorkloadSpec::Dumbbell {
                    per_side: 3,
                    v: 1.0,
                    seed: 2,
                },
                // Two 3-robot clusters plus the bridge chain.
                9,
            ),
            (WorkloadSpec::Spiral { n: 7, step: 0.4 }, 7),
            (
                WorkloadSpec::TwoClusters {
                    per_cluster: 3,
                    v: 1.0,
                    gap: 10.0,
                    seed_a: 3,
                    seed_b: 4,
                },
                6,
            ),
            (WorkloadSpec::Wedge { half_angle: 0.4 }, 3),
            (WorkloadSpec::Star { arms: 4 }, 5),
            (WorkloadSpec::EngagementPair { v: 1.0, seed: 5 }, 4),
        ];
        for (spec, robots) in cases {
            assert_eq!(spec.build().len(), robots, "{spec:?}");
        }
        // The scripted/constructed workloads have their own invariants.
        assert_eq!(WorkloadSpec::Figure4.build().len(), 5);
        assert!(WorkloadSpec::SpiralTail { psi: 0.35 }.build().len() > 3);
        assert_eq!(
            WorkloadSpec::Ball3 {
                n: 5,
                v: 1.0,
                seed: 6
            }
            .build3()
            .len(),
            5
        );
    }

    #[test]
    #[should_panic(expected = "3D workload")]
    fn ball3_rejected_by_2d_build() {
        let _ = WorkloadSpec::Ball3 {
            n: 3,
            v: 1.0,
            seed: 0,
        }
        .build();
    }
}
