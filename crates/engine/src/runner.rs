//! The simulation builder: configures a [`Simulation`] session (or runs one
//! to completion in a single call).
//!
//! The session's only budget is an event count (`max_events`): the paper's
//! verdicts are per activation schedule, so nothing here bounds simulated
//! time.

use crate::engine::{Engine, LookPath};
use crate::monitors::{CohesionMonitor, DiameterMonitor, HullMonitor, StrongVisibilityMonitor};
use crate::report::SimulationReport;
use crate::session::Simulation;
use cohesion_geometry::Vec2;
use cohesion_model::frame::{Ambient, FrameMode};
use cohesion_model::{Algorithm, Budget, Configuration, MotionModel, PerceptionModel};
use cohesion_scheduler::Scheduler;

/// Configures one simulation. [`SimulationBuilder::build`] yields a
/// resumable [`Simulation`] session; [`SimulationBuilder::run`] is the
/// one-shot convenience (`build().run_to_completion()`) producing a
/// [`SimulationReport`].
///
/// ```
/// use cohesion_engine::SimulationBuilder;
/// use cohesion_core::KirkpatrickAlgorithm;
/// use cohesion_scheduler::FSyncScheduler;
/// use cohesion_model::Configuration;
/// use cohesion_geometry::Vec2;
///
/// let config = Configuration::new(vec![
///     Vec2::new(0.0, 0.0),
///     Vec2::new(0.9, 0.0),
///     Vec2::new(1.8, 0.0),
/// ]);
/// let report = SimulationBuilder::new(config, KirkpatrickAlgorithm::new(1))
///     .visibility(1.0)
///     .scheduler(FSyncScheduler::new())
///     .epsilon(0.05)
///     .max_events(50_000)
///     .run();
/// assert!(report.converged && report.cohesion_maintained);
/// ```
pub struct SimulationBuilder<P: Ambient = Vec2> {
    initial: Configuration<P>,
    algorithm: Box<dyn Algorithm<P>>,
    scheduler: Box<dyn Scheduler>,
    visibility: f64,
    visibility_radii: Option<Vec<f64>>,
    epsilon: f64,
    max_events: usize,
    seed: u64,
    perception: PerceptionModel,
    motion: MotionModel,
    frame_mode: FrameMode,
    look_path: LookPath,
    track_strong_visibility: bool,
    hull_check_every: usize,
    diameter_sample_every: usize,
}

impl<P: Ambient> SimulationBuilder<P> {
    /// Starts a builder with an initial configuration and an algorithm;
    /// the default scheduler is FSync with visibility `1.0`, convergence
    /// threshold `0.01`, and a `100_000`-event budget.
    pub fn new(initial: Configuration<P>, algorithm: impl Algorithm<P> + 'static) -> Self {
        SimulationBuilder {
            initial,
            algorithm: Box::new(algorithm),
            scheduler: Box::new(cohesion_scheduler::FSyncScheduler::new()),
            visibility: 1.0,
            visibility_radii: None,
            epsilon: 0.01,
            max_events: 100_000,
            seed: 0xC0E510,
            perception: PerceptionModel::EXACT,
            motion: MotionModel::RIGID,
            frame_mode: FrameMode::RandomOrtho,
            look_path: LookPath::default(),
            track_strong_visibility: true,
            hull_check_every: 64,
            diameter_sample_every: 32,
        }
    }

    /// Sets the visibility radius `V`.
    pub fn visibility(mut self, v: f64) -> Self {
        assert!(v > 0.0, "visibility must be positive");
        self.visibility = v;
        self
    }

    /// Gives each robot its own visibility radius (paper §6.2). Perception
    /// becomes directional (robot `i` sees `j` iff `|ij| ≤ radii[i]`);
    /// the cohesion predicate is evaluated over the initial *mutual*
    /// visibility graph (edges where `|ij| ≤ min(radii[i], radii[j])`).
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one radius per robot and every radius
    /// is positive and finite — a misconfiguration fails here, at
    /// construction, not after the session is built.
    pub fn visibility_radii(mut self, radii: Vec<f64>) -> Self {
        assert_eq!(radii.len(), self.initial.len(), "one radius per robot");
        assert!(
            radii.iter().all(|r| *r > 0.0 && r.is_finite()),
            "radii must be positive and finite"
        );
        self.visibility_radii = Some(radii);
        self
    }

    /// Sets the scheduler.
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Sets the convergence threshold `ε`.
    pub fn epsilon(mut self, eps: f64) -> Self {
        assert!(eps > 0.0, "epsilon must be positive");
        self.epsilon = eps;
        self
    }

    /// Sets the engine-event budget.
    pub fn max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Sets the RNG seed (frames, error models, scheduler jitter all derive
    /// from engine randomness seeded here; the scheduler's own seed is set at
    /// its construction).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the perception-error model.
    pub fn perception(mut self, p: PerceptionModel) -> Self {
        self.perception = p;
        self
    }

    /// Sets the motion model.
    pub fn motion(mut self, m: MotionModel) -> Self {
        self.motion = m;
        self
    }

    /// Sets the local-frame sampling mode.
    pub fn frame_mode(mut self, mode: FrameMode) -> Self {
        self.frame_mode = mode;
        self
    }

    /// Selects the engine's Look-phase pipeline — the grid-backed default
    /// or the historical brute-force reference (for differential testing
    /// and benchmarking; both produce bit-identical reports).
    pub fn look_path(mut self, path: LookPath) -> Self {
        self.look_path = path;
        self
    }

    /// Enables/disables strong-visibility tracking (the acquired-visibility
    /// clause of Theorems 3–4). It costs a range query on the engine's grid
    /// plus an acquired-partner walk per breakpoint, and a walk of its watch
    /// list per event; see [`StrongVisibilityMonitor`].
    pub fn track_strong_visibility(mut self, enabled: bool) -> Self {
        self.track_strong_visibility = enabled;
        self
    }

    /// Hull-nesting check cadence in events (`0` disables).
    pub fn hull_check_every(mut self, every: usize) -> Self {
        self.hull_check_every = every;
        self
    }

    /// Diameter sampling cadence in events (`0` disables).
    pub fn diameter_sample_every(mut self, every: usize) -> Self {
        self.diameter_sample_every = every;
        self
    }

    /// Builds a resumable [`Simulation`] session: the engine, the monitor
    /// pipeline, and the dirty-set bookkeeping, ready to be stepped, driven
    /// in budgeted slices, and observed mid-flight.
    ///
    /// Predicate checking is delegated to the incremental monitors of
    /// [`crate::monitors`]. The engine is the one owner of robot positions:
    /// they are piecewise-linear in time, and monitors read a robot's
    /// position at the event time from the engine on demand instead of
    /// from a per-event copy of the [`Configuration`]. The pair monitors
    /// re-classify a robot's pairs only at its breakpoints (`MoveStart`,
    /// `MoveEnd`), from the engine's motion envelopes, and at other events
    /// measure only the few watched pairs whose envelopes can cross a
    /// threshold.
    pub fn build(self) -> Simulation<P> {
        let mut engine = Engine::new(
            &self.initial,
            self.visibility,
            self.algorithm,
            self.scheduler,
            self.seed,
        );
        engine.set_perception(self.perception);
        engine.set_motion(self.motion);
        engine.set_frame_mode(self.frame_mode);
        if let Some(radii) = self.visibility_radii.clone() {
            engine.set_visibility_radii(radii);
        }
        engine.set_look_path(self.look_path);

        // Cohesion is judged on the mutual visibility graph, read off the
        // engine's grid (every robot is indexed at its start until the first
        // event) in the all-pairs loop's order: with a common radius that is
        // the usual E(0); with per-robot radii, an edge needs distance ≤ min
        // of the two radii (both endpoints see each other), tested on the
        // pairs within the largest radius, to which the grid is re-celled.
        let positions = self.initial.positions();
        let grid = engine.envelopes().grid;
        let initial_edges: Vec<(usize, usize)> = match &self.visibility_radii {
            None => grid.pairs_within(self.visibility),
            Some(radii) => grid
                .pairs_within(radii.iter().copied().fold(0.0, f64::max))
                .into_iter()
                .filter(|&(i, j)| positions[i].dist(positions[j]) <= radii[i].min(radii[j]))
                .collect(),
        };
        let initial_diameter = self.initial.diameter();

        let v = self.visibility;
        let cohesion_tol = 1e-9 * (1.0 + v);
        let cohesion = match &self.visibility_radii {
            None => CohesionMonitor::new(positions, &initial_edges, |_, _| v, cohesion_tol),
            Some(radii) => CohesionMonitor::new(
                positions,
                &initial_edges,
                |a, b| radii[a].min(radii[b]),
                cohesion_tol,
            ),
        };
        let strong = self
            .track_strong_visibility
            .then(|| StrongVisibilityMonitor::new(v, cohesion_tol, &engine.envelopes()));
        // 2D-only hull checks: the ConvexHull type is planar. For other
        // dimensions the check is skipped (reported as None).
        let hull_checks_possible = P::DIM == 2;
        let hull = (hull_checks_possible && self.hull_check_every > 0)
            .then(|| HullMonitor::new(self.hull_check_every, 1e-7 * (1.0 + initial_diameter)));
        let diameter = DiameterMonitor::new(
            self.diameter_sample_every,
            self.epsilon,
            (0.0, initial_diameter),
        );

        Simulation::from_parts(
            engine,
            self.epsilon,
            Budget::events(self.max_events),
            initial_diameter,
            crate::session::MonitorPipeline {
                cohesion,
                strong,
                hull,
                diameter,
            },
        )
    }

    /// Runs the simulation to convergence or budget exhaustion — the
    /// one-shot convenience, literally `build().run_to_completion()`.
    pub fn run(self) -> SimulationReport<P> {
        self.build().run_to_completion()
    }
}

impl<P: Ambient> std::fmt::Debug for SimulationBuilder<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("robots", &self.initial.len())
            .field("visibility", &self.visibility)
            .field("epsilon", &self.epsilon)
            .field("max_events", &self.max_events)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_core::KirkpatrickAlgorithm;
    use cohesion_model::{NilAlgorithm, VisibilityGraph};
    use cohesion_scheduler::{FSyncScheduler, KAsyncScheduler, SSyncScheduler};

    fn line(n: usize, spacing: f64) -> Configuration {
        Configuration::new((0..n).map(|i| Vec2::new(i as f64 * spacing, 0.0)).collect())
    }

    #[test]
    fn nil_algorithm_never_converges_but_keeps_cohesion() {
        let report = SimulationBuilder::new(line(3, 0.9), NilAlgorithm)
            .scheduler(FSyncScheduler::new())
            .max_events(500)
            .run();
        assert!(!report.converged);
        assert!(report.cohesion_maintained);
        assert_eq!(report.final_diameter, report.initial_diameter);
        assert_eq!(report.hulls_nested, Some(true));
    }

    #[test]
    fn kirkpatrick_converges_in_fsync() {
        let report = SimulationBuilder::new(line(4, 0.9), KirkpatrickAlgorithm::new(1))
            .scheduler(FSyncScheduler::new())
            .epsilon(0.05)
            .max_events(60_000)
            .run();
        assert!(report.converged, "final diameter {}", report.final_diameter);
        assert!(report.cohesion_maintained);
        assert_eq!(report.strong_visibility_ok, Some(true));
        assert_eq!(report.hulls_nested, Some(true));
        assert!(report.rounds > 0);
    }

    #[test]
    fn kirkpatrick_converges_in_ssync_and_k_async() {
        for (name, report) in [
            (
                "ssync",
                SimulationBuilder::new(line(4, 0.9), KirkpatrickAlgorithm::new(1))
                    .scheduler(SSyncScheduler::new(5))
                    .epsilon(0.05)
                    .max_events(80_000)
                    .run(),
            ),
            (
                "2-async",
                SimulationBuilder::new(line(4, 0.9), KirkpatrickAlgorithm::new(2))
                    .scheduler(KAsyncScheduler::new(2, 5))
                    .epsilon(0.05)
                    .max_events(80_000)
                    .run(),
            ),
        ] {
            assert!(
                report.converged,
                "{name}: diameter {}",
                report.final_diameter
            );
            assert!(report.cohesion_maintained, "{name}");
        }
    }

    /// A session reads E(0) off the engine's grid at every n: on a lattice
    /// whose edges all lie at exactly `V`, plus a twin coincident with one
    /// robot, that must be the all-pairs builder's edge list.
    #[test]
    fn session_e0_matches_the_all_pairs_builder() {
        for n in [1usize, 2, 5, 16, 31, 32, 256] {
            let mut pts: Vec<Vec2> = (0..n - 1)
                .map(|i| Vec2::new((i % 16) as f64, (i / 16) as f64))
                .collect();
            pts.push(pts.get(n / 3).copied().unwrap_or(Vec2::ZERO));
            let config = Configuration::new(pts);
            let brute: Vec<(usize, usize)> =
                VisibilityGraph::from_configuration_brute(&config, 1.0)
                    .edges()
                    .iter()
                    .map(|e| (e.a.index(), e.b.index()))
                    .collect();
            let session = SimulationBuilder::new(config, NilAlgorithm).build();
            assert_eq!(session.cohesion().initial_edges(), brute, "n = {n}");
        }
    }

    /// Under per-robot radii a session reads its mutual E(0) off the
    /// engine's grid, re-celled to the largest radius: that must be the
    /// all-pairs loop's edge list.
    #[test]
    fn mutual_edges_match_the_all_pairs_loop() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut configs: Vec<Configuration> = [1, 2, 10, 50, 200]
            .into_iter()
            .map(|n| cohesion_workloads::random_connected(n, 1.0, n as u64))
            .collect();
        // Exact ties: lattice neighbours at exactly the smaller radius.
        configs.push(cohesion_workloads::grid(4, 5, 0.5));
        configs.push(cohesion_workloads::grid(12, 12, 0.5));
        for config in &configs {
            let pos = config.positions();
            for spread in [0.0, 0.5, 3.0] {
                let radii: Vec<f64> = (0..pos.len())
                    .map(|i| {
                        if i % 3 == 0 {
                            0.5
                        } else {
                            0.5 + spread * unit()
                        }
                    })
                    .collect();
                let mut brute = Vec::new();
                for i in 0..pos.len() {
                    for j in (i + 1)..pos.len() {
                        if pos[i].dist(pos[j]) <= radii[i].min(radii[j]) {
                            brute.push((i, j));
                        }
                    }
                }
                let builder = SimulationBuilder::new(config.clone(), NilAlgorithm);
                let session = builder.visibility_radii(radii).build();
                let edges = session.cohesion().initial_edges();
                assert_eq!(edges, brute, "n = {}", pos.len());
            }
        }
    }

    #[test]
    fn determinism() {
        let run = || {
            SimulationBuilder::new(line(4, 0.9), KirkpatrickAlgorithm::new(2))
                .scheduler(KAsyncScheduler::new(2, 9))
                .seed(1234)
                .epsilon(0.05)
                .max_events(5_000)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.final_configuration, b.final_configuration);
        assert_eq!(a.events, b.events);
    }
}
