//! The event loop: dispatching activations, taking snapshots, resolving
//! motion.
//!
//! # The grid-backed Look phase
//!
//! The Look phase is the engine's hot path: one observation per activation,
//! thousands of activations per run, thousands of runs per sweep. The
//! historical pipeline rebuilt an `all_positions` vector (an `O(n)`
//! allocation) and scanned all `n` robots linearly — `O(n)` per Look. Under
//! limited visibility each robot actually sees only `O(deg)` neighbours, so
//! the engine keeps one incremental [`DynamicGrid`] over **all** robots (cells
//! sized to half the largest perception radius), indexed at their *base*
//! positions:
//!
//! * a stationary robot (`Idle`/`Computing`) is indexed where it stands; a
//!   motile robot stays indexed at its Move *origin* — which is where it
//!   already was when the Move started, so `MoveStart` touches nothing and
//!   `MoveEnd` relocates one entry origin → destination;
//! * a motile robot's interpolated position never strays farther from its
//!   origin than the *displacement high-water mark* (the largest `|to −
//!   from|` since the motile set was last empty), so one query padded by
//!   that mark is a guaranteed superset of the robots in range, trimmed by
//!   the exact range predicate — `O(deg)` per Look, no side-list scan;
//! * interpolations of motile robots are memoized per *tick* (exact
//!   timestamp × motile epoch), so a same-timestamp Look burst — a whole
//!   FSync round — interpolates each motile robot at most once;
//! * all working sets live in pooled scratch buffers (`LookScratch`),
//!   including the [`Snapshot`] handed to the algorithm — the steady-state
//!   Look performs no heap allocation.
//!
//! Candidates are merged and sorted into ascending robot order — exactly the
//! order of the historical linear scan — so every RNG draw (one
//! `sample_distance_factor` per observed robot) happens in the same sequence
//! and outputs are bit-for-bit identical to the old loop. That old loop is
//! kept verbatim as [`LookPath::BruteReference`], the property-tested
//! reference and bench baseline. Both paths observe the §2.2 model: robots
//! are points that block no sight line and have no multiplicity detection,
//! so coincident observations collapse ([`Snapshot::dedup_multiplicity`])
//! before Compute. Pending phase events wait in a `BinaryHeap`, popped in
//! `(time, seq)` order (see `queue.rs`).

use crate::monitors::Envelopes;
use crate::queue::Pending;
use crate::state::{Phase, RobotStates};
use cohesion_geometry::DynamicGrid;
use cohesion_model::frame::{Ambient, Frame, FrameMode};
use cohesion_model::{
    Algorithm, Configuration, Distortion, MotionModel, PerceptionModel, RobotId, Snapshot,
};
use cohesion_scheduler::{ActivationInterval, ScheduleContext, Scheduler};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BinaryHeap;

/// What happened at an engine step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEventKind {
    /// A robot performed its instantaneous Look (and, in our execution
    /// model, determined its destination from the snapshot).
    Look,
    /// A robot's Move phase began; rigidity and motion error were resolved.
    MoveStart,
    /// A robot's Move phase ended; the robot is idle again.
    MoveEnd,
}

/// A timed engine event, reported back to the driver after processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineEvent {
    /// Simulation time of the event.
    pub time: f64,
    /// Which robot.
    pub robot: RobotId,
    /// What happened.
    pub kind: EngineEventKind,
}

/// Which observation pipeline the Look phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LookPath {
    /// Grid-backed `O(deg + motile)` observation with pooled scratch
    /// buffers — the production path (default).
    #[default]
    Grid,
    /// The historical `O(n)` linear scan, kept verbatim as the
    /// property-tested reference implementation and the bench baseline
    /// (mirroring how `VisibilityGraph` keeps its brute-force builder).
    BruteReference,
}

/// Reusable working memory for the Look phase, owned by the engine so the
/// steady-state observation pipeline allocates nothing.
#[derive(Debug)]
struct LookScratch<P> {
    /// Visible-candidate indices: grid hits merged with motile hits, sorted
    /// ascending before observation (the historical scan order).
    candidates: Vec<usize>,
    /// Raw padded-range hits awaiting their exact range check.
    range_hits: Vec<usize>,
    /// Pooled observation buffer handed to the algorithm's Compute.
    snapshot: Snapshot<P>,
    /// All-robot position buffer for the brute-force reference path (the
    /// historical per-Look `collect()`, pooled so the reference stays usable
    /// at `n = 1024` in the equivalence matrix).
    brute_positions: Vec<P>,
}

impl<P> Default for LookScratch<P> {
    fn default() -> Self {
        LookScratch {
            candidates: Vec::new(),
            range_hits: Vec::new(),
            snapshot: Snapshot::default(),
            brute_positions: Vec::new(),
        }
    }
}

/// The same-tick motile working set: interpolated positions of motile
/// robots, each computed at most once per `(timestamp, motile-set)` pair.
///
/// Same-timestamp Look bursts are the synchronous schedulers' signature (a
/// whole FSync round Looks at one instant) and occur under every scheduler
/// whenever activations coincide; without the cache each of those Looks
/// re-interpolated every motile robot it examined. Entries memoize lazily —
/// only robots a query actually touches are interpolated — so the cache
/// costs `O(hits)`, not `O(motile)`, per tick. Validity is a per-robot
/// stamp against the current *tick id*; the tick id advances whenever the
/// timestamp bits or the motile epoch (bumped at every `MoveStart` /
/// `MoveEnd`) change, so a cached read is bitwise the interpolation it
/// replaced.
#[derive(Debug)]
struct MotileCache<P> {
    /// `f64::to_bits` of the timestamp the current tick was opened at.
    time_bits: u64,
    /// The engine's `motile_version` the current tick was opened under.
    version: u64,
    /// Monotone tick id; a robot's entry is valid iff its stamp matches.
    tick: u64,
    /// Per-robot stamp of the tick its cached position was computed in.
    stamps: Vec<u64>,
    /// Per-robot memoized interpolated position (valid iff stamped).
    positions: Vec<P>,
}

/// The discrete-event simulator for one robot system.
///
/// Drive it with [`Engine::step`] until it returns `None` (scripted schedule
/// exhausted) or until an external budget is hit; the
/// [`SimulationBuilder`](crate::runner::SimulationBuilder) wraps this loop
/// with metrics and convergence/cohesion checks.
pub struct Engine<P: Ambient, A, S> {
    states: RobotStates<P>,
    visibility: f64,
    visibility_radii: Option<Vec<f64>>,
    algorithm: A,
    scheduler: S,
    perception: PerceptionModel,
    motion: MotionModel,
    frame_mode: FrameMode,
    rng: SmallRng,
    time: f64,
    seq: u64,
    queue: BinaryHeap<Pending>,
    staged: Option<ActivationInterval>,
    completed_cycles: Vec<u64>,
    /// Every robot, indexed at its *base* position — its true position while
    /// stationary (`Idle`/`Computing`), its Move origin (`from`) while
    /// motile. An interpolated position never strays farther than
    /// `motile_pad` from the origin, so one range query at
    /// `radius + motile_pad` is a guaranteed superset of all robots in
    /// range — `O(deg)` per Look with no per-Look side-list scan. Lifecycle:
    /// a robot's entry moves origin → destination at `MoveEnd` (nothing to
    /// do at `MoveStart`; it is already indexed at the origin).
    grid: DynamicGrid<P>,
    /// Dense indices of the robots currently in their Move phase, in
    /// arbitrary order (swap-remove set: under asynchronous scheduling most
    /// of the swarm is mid-Move at any instant, and keeping this sorted cost
    /// an `O(n)` shift on every MoveStart/MoveEnd). `collect_motile` sorts
    /// on the way out for callers that need ascending order.
    motile: Vec<u32>,
    /// Per-robot slot in `motile` (`u32::MAX` when not motile).
    motile_slot: Vec<u32>,
    /// Largest `|to − from|` over the *currently* motile robots — the bound
    /// on every origin-to-interpolation distance. Maintained exactly (not as
    /// a sticky high-water mark): under asynchronous scheduling the motile
    /// set essentially never empties, and a high-water pad would permanently
    /// widen every Look query to the largest Move ever taken.
    motile_pad: f64,
    /// Set when the robot carrying `motile_pad` departed and the max was
    /// not re-taken yet. While set, `motile_pad` only *over*estimates (still
    /// a correct superset bound); the next observation refreshes it. The
    /// recompute is deferred to the read because doing it at `MoveEnd`
    /// degenerates: a synchronous round ends with a burst of `n` MoveEnds,
    /// and when displacements tie (all-zero under the Nil algorithm) every
    /// one of them re-scans the shrinking motile set — `O(n²)` per round.
    motile_pad_stale: bool,
    /// `|to − from|` per motile robot, `0` for every other robot: with the
    /// base position, the radius of the robot's motion envelope (see
    /// [`Engine::envelopes`]).
    motile_disp: Vec<f64>,
    /// Motile epoch: bumped whenever `motile` changes, invalidating the
    /// per-tick cache below.
    motile_version: u64,
    /// Per-tick interpolated positions of the motile robots.
    motile_cache: MotileCache<P>,
    scratch: LookScratch<P>,
    look_path: LookPath,
}

impl<P, A, S> Engine<P, A, S>
where
    P: Ambient,
    A: Algorithm<P>,
    S: Scheduler,
{
    /// Creates an engine over an initial configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is empty or `visibility ≤ 0`.
    pub fn new(
        initial: &Configuration<P>,
        visibility: f64,
        algorithm: A,
        scheduler: S,
        seed: u64,
    ) -> Self {
        assert!(!initial.is_empty(), "need at least one robot");
        assert!(visibility > 0.0, "visibility radius must be positive");
        // Dense grid extent over the initial configuration: the paper's
        // hull-diminishing dynamics keep the swarm inside it, so probes stay
        // on the direct-addressed fast path (strays spill gracefully).
        let grid = DynamicGrid::from_points(initial.positions(), grid_cell(visibility));
        Engine {
            states: RobotStates::new(initial.positions()),
            visibility,
            visibility_radii: None,
            algorithm,
            scheduler,
            perception: PerceptionModel::EXACT,
            motion: MotionModel::RIGID,
            frame_mode: FrameMode::RandomOrtho,
            rng: SmallRng::seed_from_u64(seed),
            time: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
            staged: None,
            completed_cycles: vec![0; initial.len()],
            grid,
            motile: Vec::new(),
            motile_slot: vec![u32::MAX; initial.len()],
            motile_pad: 0.0,
            motile_pad_stale: false,
            motile_disp: vec![0.0; initial.len()],
            motile_version: 1,
            motile_cache: MotileCache {
                time_bits: 0,
                version: 0,
                tick: 1,
                stamps: vec![0; initial.len()],
                positions: initial.positions().to_vec(),
            },
            scratch: LookScratch::default(),
            look_path: LookPath::default(),
        }
    }

    /// Sets the perception-error model.
    pub fn set_perception(&mut self, perception: PerceptionModel) {
        self.perception = perception;
    }

    /// Sets the motion model (rigidity + trajectory error).
    pub fn set_motion(&mut self, motion: MotionModel) {
        self.motion = motion;
    }

    /// Sets how local frames are sampled at each activation.
    pub fn set_frame_mode(&mut self, mode: FrameMode) {
        self.frame_mode = mode;
    }

    /// Selects the Look-phase observation pipeline. The default
    /// [`LookPath::Grid`] and the [`LookPath::BruteReference`] produce
    /// bit-identical results (pinned by the equivalence suite); the
    /// reference exists for differential testing and benchmarking.
    pub fn set_look_path(&mut self, path: LookPath) {
        self.look_path = path;
    }

    /// Number of robots.
    pub fn robot_count(&self) -> usize {
        self.states.len()
    }

    /// The common visibility radius `V` (per-robot radii, when set, are
    /// capped nowhere — `V` then only scales the quadratic motion-error
    /// bound and reporting).
    pub fn visibility(&self) -> f64 {
        self.visibility
    }

    /// Gives each robot its own visibility radius (paper §6.2: radii may
    /// differ, provided the initial *mutual* visibility graph is connected
    /// and the radii are within a small constant factor of each other —
    /// conditions the caller is responsible for; the engine simulates any
    /// radii faithfully). Perception becomes directional: robot `i` sees `j`
    /// iff `|ij| ≤ radii[i]`.
    ///
    /// The observation grid is re-celled to the largest radius (see
    /// `grid_cell`) so every per-robot range query stays a few-cell probe.
    ///
    /// # Panics
    ///
    /// Panics when the count mismatches the robots or a radius is not
    /// positive and finite.
    pub fn set_visibility_radii(&mut self, radii: Vec<f64>) {
        assert_eq!(radii.len(), self.states.len(), "one radius per robot");
        assert!(
            radii.iter().all(|r| *r > 0.0 && r.is_finite()),
            "radii must be positive and finite"
        );
        let largest = radii.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Every robot indexes at its base position (= Move origin while
        // motile), with the dense extent re-anchored there; the
        // displacement pad stays valid across the re-cell.
        self.grid = DynamicGrid::from_points(self.states.base_positions(), grid_cell(largest));
        self.visibility_radii = Some(radii);
    }

    /// The perception radius of one robot.
    pub fn radius_of(&self, robot: RobotId) -> f64 {
        match &self.visibility_radii {
            Some(radii) => radii[robot.index()],
            None => self.visibility,
        }
    }

    /// Current simulation time (time of the last processed event).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The configuration at time `t` (positions of all robots, interpolated
    /// for motile robots).
    pub fn configuration_at(&self, t: f64) -> Configuration<P> {
        let mut positions = Vec::new();
        self.positions_at_into(t, &mut positions);
        Configuration::new(positions)
    }

    /// The configuration at the current time.
    pub fn configuration(&self) -> Configuration<P> {
        self.configuration_at(self.time)
    }

    /// The position of one robot (by dense index) at time `t`. The session's
    /// pair monitors read every position they measure through this lookup
    /// (`MonitorContext::position`), so no event copies the swarm.
    pub fn position_of_at(&self, index: usize, t: f64) -> P {
        self.states.position_at(index, t)
    }

    /// Fills `out` (cleared first) with the position of every robot at time
    /// `t` — the buffer-reusing counterpart of [`Engine::configuration_at`],
    /// which the session's diameter samples and round boundaries read.
    ///
    /// Struct-of-arrays fast path: a bulk copy of the base-position array
    /// (exact for every stationary robot), then interpolation fix-ups for
    /// the motile few.
    pub fn positions_at_into(&self, t: f64, out: &mut Vec<P>) {
        out.clear();
        out.extend_from_slice(self.states.base_positions());
        for &m in &self.motile {
            let m = m as usize;
            out[m] = self.states.position_at(m, t);
        }
    }

    /// Appends (after clearing) the dense indices of all robots currently in
    /// their Move phase, ascending. Together with the robot of a `MoveEnd`
    /// event, these are the only robots whose positions can have changed
    /// since the previous event — the set the session keeps incrementally
    /// as its *dirty set*. Served from the maintained side-list and sorted
    /// on the way out: `O(motile log motile)`, not `O(n)`.
    pub fn collect_motile(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.motile.iter().map(|&m| m as usize));
        out.sort_unstable();
    }

    /// Every robot's motion envelope, read-only: its base position (the
    /// Move origin while motile) with radius `|to − from|` while motile and
    /// `0` otherwise, plus the displacement pad as a bound on every radius
    /// and the observation grid (cells half the largest perception radius),
    /// which indexes every robot at its base position: before the first
    /// event, at its start. Until a robot's next breakpoint (`MoveStart` or
    /// `MoveEnd`) every position it takes lies in its envelope, up to
    /// interpolation rounding.
    pub fn envelopes(&self) -> Envelopes<'_, P> {
        Envelopes {
            origins: self.states.base_positions(),
            reach: &self.motile_disp,
            max_reach: self.motile_pad,
            grid: &self.grid,
        }
    }

    /// Fills `out` (cleared first) with current positions plus all pending
    /// (planned or in-flight) destinations — the vertex set of the paper's
    /// `CH_t`, which the session hands to `HullMonitor::sample`. The first
    /// [`Engine::robot_count`] entries are [`Engine::positions_at_into`] at
    /// the current time. Buffer-reusing by design so samplers never allocate
    /// per sample.
    pub fn positions_with_targets_into(&self, out: &mut Vec<P>) {
        self.positions_at_into(self.time, out);
        for i in 0..self.states.len() {
            if let Some(target) = self.states.pending_target(i) {
                out.push(target);
            }
        }
    }

    /// Completed activation cycles per robot.
    pub fn completed_cycles(&self) -> &[u64] {
        &self.completed_cycles
    }

    /// Reference to the scheduler (for reporting).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Reference to the algorithm (for reporting).
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// Keeps one upcoming activation staged so it can be ordered against
    /// pending phase events.
    fn stage_next_activation(&mut self) {
        if self.staged.is_none() {
            let ctx = ScheduleContext {
                robot_count: self.states.len(),
            };
            self.staged = self.scheduler.next_activation(&ctx);
        }
    }

    /// Processes the next event; `None` when the schedule is exhausted and
    /// all in-flight phases have completed.
    pub fn step(&mut self) -> Option<EngineEvent> {
        self.stage_next_activation();
        let staged = self.staged.as_ref().map(|iv| iv.look);
        let take_staged = match (staged, self.queue.peek().map(|p| p.time)) {
            (Some(look), Some(t)) => look <= t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_staged {
            let iv = self.staged.take().expect("staged activation");
            self.dispatch_look(iv)
        } else {
            let p = self.queue.pop().expect("pending event");
            self.time = p.time;
            match p.kind {
                EngineEventKind::MoveStart => self.dispatch_move_start(p),
                EngineEventKind::MoveEnd => self.dispatch_move_end(p),
                EngineEventKind::Look => unreachable!("Looks are never queued"),
            }
        }
    }

    fn dispatch_look(&mut self, iv: ActivationInterval) -> Option<EngineEvent> {
        assert!(
            iv.look >= self.time - 1e-9,
            "scheduler emitted a Look in the past ({} < {})",
            iv.look,
            self.time
        );
        self.time = self.time.max(iv.look);
        let robot = iv.robot;
        assert!(
            self.states.is_idle(robot.index()),
            "robot {robot} activated while not idle (scheduler bug)"
        );

        let here = self.states.position_at(robot.index(), iv.look);
        // Perception pipeline: relative position → local frame → distortion → distance error.
        let frame = P::sample_frame(self.frame_mode, &mut self.rng);
        let distortion = self.perception.sample_distortion(&mut self.rng);
        let local_target = match self.look_path {
            LookPath::Grid => self.observe_grid(robot, here, iv.look, &frame, &distortion),
            LookPath::BruteReference => {
                self.observe_brute(robot, here, iv.look, &frame, &distortion)
            }
        };
        // Motion executes in the robot's own (distorted) coordinate system:
        // pull the intended displacement back through the inverse distortion
        // and frame.
        let global_delta = frame.to_global(P::undistort(local_target, &distortion));
        let target = here + global_delta;
        self.states
            .begin_computing(robot.index(), target, iv.move_start, iv.end);
        assert!(!iv.move_start.is_nan(), "finite event times");
        self.seq += 1;
        self.queue.push(Pending {
            time: iv.move_start,
            seq: self.seq,
            robot,
            kind: EngineEventKind::MoveStart,
        });
        Some(EngineEvent {
            time: iv.look,
            robot,
            kind: EngineEventKind::Look,
        })
    }

    /// Opens (or re-enters) the motile-interpolation tick for this exact
    /// timestamp and motile epoch: advancing the tick id invalidates every
    /// memoized entry in `O(1)` (see [`MotileCache`]).
    fn prepare_motile_tick(&mut self, look: f64) {
        let time_bits = look.to_bits();
        let cache = &mut self.motile_cache;
        if cache.time_bits != time_bits || cache.version != self.motile_version {
            cache.time_bits = time_bits;
            cache.version = self.motile_version;
            cache.tick += 1;
        }
    }

    /// The interpolated position of motile robot `i` at the current tick's
    /// timestamp, memoized per tick so coincident Looks share one
    /// interpolation. Caller must have opened the tick for `look`.
    #[inline]
    fn motile_position_cached(&mut self, i: usize, look: f64) -> P {
        debug_assert_eq!(
            self.motile_cache.time_bits,
            look.to_bits(),
            "motile read outside the prepared tick"
        );
        if self.motile_cache.stamps[i] == self.motile_cache.tick {
            return self.motile_cache.positions[i];
        }
        let p = self.states.position_at(i, look);
        self.motile_cache.positions[i] = p;
        self.motile_cache.stamps[i] = self.motile_cache.tick;
        p
    }

    /// Re-takes the motile-pad max if a departure left it stale. `O(motile)`,
    /// at most once per observation no matter how many MoveEnds intervened.
    fn refresh_motile_pad(&mut self) {
        if self.motile_pad_stale {
            self.motile_pad = self
                .motile
                .iter()
                .map(|&j| self.motile_disp[j as usize])
                .fold(0.0, f64::max);
            self.motile_pad_stale = false;
        }
    }

    /// The grid-backed observation pipeline: `O(deg + motile)` candidate
    /// gathering and pooled buffers, with a result bit-identical to
    /// [`Engine::observe_brute`].
    fn observe_grid(
        &mut self,
        robot: RobotId,
        here: P,
        look: f64,
        frame: &P::AmbientFrame,
        distortion: &Distortion,
    ) -> P {
        let idx = robot.index();
        let radius = self.radius_of(robot);
        // Open the motile-interpolation tick: coincident Looks (a whole
        // round of them under the synchronous schedulers) share the memoized
        // positions instead of re-interpolating.
        self.prepare_motile_tick(look);
        self.refresh_motile_pad();
        let mut scratch = std::mem::take(&mut self.scratch);
        // One grid query covers everyone (the observer itself included —
        // skipped below by index): stationary robots are indexed exactly,
        // motile ones at their Move origin, never farther than `motile_pad`
        // from where they are now. A query padded by the motile bound is
        // therefore a superset, trimmed by the exact range check the
        // historical scan applied; with no motile robots the pad is zero and
        // the grid's own exact filter needs no trimming at all.
        scratch.candidates.clear();
        if self.motile_pad == 0.0 {
            self.grid
                .query_within(here, radius, &mut scratch.candidates);
        } else {
            scratch.range_hits.clear();
            self.grid.query_within_banded(
                here,
                radius,
                self.motile_pad,
                &mut scratch.candidates,
                &mut scratch.range_hits,
            );
            // The inner band's verdict is exact for stationary robots (they
            // are indexed at their true position — no distance re-derivation
            // needed); a motile robot was judged at its Move origin, so it
            // re-checks against the interpolated position whichever band it
            // landed in.
            let mut keep = 0;
            for k in 0..scratch.candidates.len() {
                let j = scratch.candidates[k];
                if !self.states.is_motile(j)
                    || (self.motile_position_cached(j, look) - here).norm() <= radius
                {
                    scratch.candidates[keep] = j;
                    keep += 1;
                }
            }
            scratch.candidates.truncate(keep);
            for k in 0..scratch.range_hits.len() {
                let j = scratch.range_hits[k];
                if self.states.is_motile(j)
                    && (self.motile_position_cached(j, look) - here).norm() <= radius
                {
                    scratch.candidates.push(j);
                }
            }
        }
        // Ascending robot order = the historical scan order: the per-robot
        // RNG draws below happen in exactly the old sequence.
        scratch.candidates.sort_unstable();
        scratch.snapshot.clear();
        for k in 0..scratch.candidates.len() {
            let j = scratch.candidates[k];
            if j == idx {
                continue;
            }
            // The trim above already interpolated every motile candidate
            // into the per-tick memo; stationary robots read their base.
            let pos = if self.states.is_motile(j) {
                self.motile_position_cached(j, look)
            } else {
                self.states.base_positions()[j]
            };
            let rel = pos - here;
            let local = frame.to_local(rel);
            let distorted = P::distort(local, distortion);
            let factor = self.perception.sample_distance_factor(&mut self.rng);
            scratch.snapshot.push(distorted * factor);
        }
        scratch.snapshot.dedup_multiplicity(1e-12);
        let local_target = self.algorithm.compute(&scratch.snapshot);
        self.scratch = scratch;
        local_target
    }

    /// The historical `O(n)` observation loop, kept as the
    /// differential-testing reference and bench baseline. The loop structure
    /// is verbatim; its two per-Look `collect()`s now draw from the pooled
    /// [`LookScratch`] (the all-robot position buffer and the snapshot), so
    /// the reference path stays allocation-free and usable at `n = 1024` in
    /// the equivalence matrix.
    fn observe_brute(
        &mut self,
        robot: RobotId,
        here: P,
        look: f64,
        frame: &P::AmbientFrame,
        distortion: &Distortion,
    ) -> P {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.positions_at_into(look, &mut scratch.brute_positions);
        scratch.snapshot.clear();
        for (j, &pos) in scratch.brute_positions.iter().enumerate() {
            if j == robot.index() {
                continue;
            }
            let rel = pos - here;
            if rel.norm() <= self.radius_of(robot) {
                let local = frame.to_local(rel);
                let distorted = P::distort(local, distortion);
                let factor = self.perception.sample_distance_factor(&mut self.rng);
                scratch.snapshot.push(distorted * factor);
            }
        }
        scratch.snapshot.dedup_multiplicity(1e-12);
        let local_target = self.algorithm.compute(&scratch.snapshot);
        self.scratch = scratch;
        local_target
    }

    fn dispatch_move_start(&mut self, p: Pending) -> Option<EngineEvent> {
        let idx = p.robot.index();
        assert_eq!(
            self.states.phase(idx),
            Phase::Computing,
            "MoveStart of robot {}",
            p.robot
        );
        let position = self.states.base_positions()[idx];
        let target = self.states.pending_target(idx).expect("planned target");
        let move_end = self.states.move_end(idx);
        let realized = self
            .motion
            .resolve(position, target, self.visibility, &mut self.rng);
        // Grid lifecycle: nothing to move — the robot is already indexed at
        // `position`, which is exactly its Move origin. Only the pad and the
        // side-list update.
        let displacement = (realized - position).norm();
        self.motile_disp[idx] = displacement;
        self.motile_pad = self.motile_pad.max(displacement);
        debug_assert_eq!(
            self.motile_slot[idx],
            u32::MAX,
            "robot cannot already be motile at MoveStart"
        );
        self.motile_slot[idx] = self.motile.len() as u32;
        self.motile.push(idx as u32);
        self.motile_version += 1;
        self.states.begin_move(idx, realized, p.time);
        assert!(!move_end.is_nan(), "finite event times");
        self.seq += 1;
        self.queue.push(Pending {
            time: move_end,
            seq: self.seq,
            robot: p.robot,
            kind: EngineEventKind::MoveEnd,
        });
        Some(EngineEvent {
            time: p.time,
            robot: p.robot,
            kind: EngineEventKind::MoveStart,
        })
    }

    fn dispatch_move_end(&mut self, p: Pending) -> Option<EngineEvent> {
        let idx = p.robot.index();
        assert_eq!(
            self.states.phase(idx),
            Phase::Moving,
            "MoveEnd of robot {}",
            p.robot
        );
        let slot = self.motile_slot[idx] as usize;
        debug_assert_eq!(self.motile[slot], idx as u32, "motile robot is side-listed");
        self.motile.swap_remove(slot);
        if let Some(&moved) = self.motile.get(slot) {
            self.motile_slot[moved as usize] = slot as u32;
        }
        self.motile_slot[idx] = u32::MAX;
        if self.motile.is_empty() {
            self.motile_pad = 0.0;
            self.motile_pad_stale = false;
        } else if self.motile_pad > 0.0 && self.motile_disp[idx] >= self.motile_pad {
            // The departing robot carried the pad; defer re-taking the max
            // to the next observation (see `motile_pad_stale`).
            self.motile_pad_stale = true;
        }
        self.motile_disp[idx] = 0.0;
        self.motile_version += 1;
        // Grid lifecycle: the entry relocates from the Move origin to the
        // realized destination.
        let final_pos = self.states.end_move(idx);
        self.grid.relocate(idx, final_pos);
        self.completed_cycles[idx] += 1;
        Some(EngineEvent {
            time: p.time,
            robot: p.robot,
            kind: EngineEventKind::MoveEnd,
        })
    }
}

/// Observation-grid cell edge for a given largest perception radius: half
/// the radius. A radius query's cell box then hugs the disc much tighter
/// than radius-sized cells would (the padded motile-superset query visits
/// roughly half the points, each of which costs an exact distance check),
/// while the box stays a handful of contiguous row runs.
#[inline]
fn grid_cell(max_radius: f64) -> f64 {
    max_radius * 0.5
}

impl<P: Ambient, A: std::fmt::Debug, S: std::fmt::Debug> std::fmt::Debug for Engine<P, A, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("robots", &self.states.len())
            .field("time", &self.time)
            .field("visibility", &self.visibility)
            .field("algorithm", &self.algorithm)
            .field("scheduler", &self.scheduler)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_geometry::Vec2;
    use cohesion_model::NilAlgorithm;
    use cohesion_scheduler::FSyncScheduler;

    fn two_robots() -> Configuration {
        Configuration::new(vec![Vec2::ZERO, Vec2::new(1.0, 0.0)])
    }

    #[test]
    fn nil_algorithm_never_moves() {
        let mut engine = Engine::new(&two_robots(), 1.0, NilAlgorithm, FSyncScheduler::new(), 1);
        for _ in 0..30 {
            engine.step().unwrap();
        }
        let c = engine.configuration();
        assert_eq!(c.position(RobotId(0)), Vec2::ZERO);
        assert_eq!(c.position(RobotId(1)), Vec2::new(1.0, 0.0));
        assert!(engine.completed_cycles().iter().all(|&c| c >= 4));
    }

    #[test]
    fn events_are_time_ordered() {
        let mut engine = Engine::new(&two_robots(), 1.0, NilAlgorithm, FSyncScheduler::new(), 1);
        let mut last = f64::NEG_INFINITY;
        for _ in 0..50 {
            let ev = engine.step().unwrap();
            assert!(
                ev.time >= last - 1e-12,
                "event at {} after {}",
                ev.time,
                last
            );
            last = ev.time;
        }
    }

    #[test]
    fn trace_is_recorded() {
        // The engine keeps no trace of its own; a session's TraceRecorder
        // rebuilds it from the event stream.
        let recorder = std::rc::Rc::new(std::cell::RefCell::new(crate::TraceRecorder::new()));
        let mut session = crate::SimulationBuilder::new(two_robots(), NilAlgorithm)
            .visibility(1.0)
            .scheduler(FSyncScheduler::new())
            .seed(1)
            .max_events(30)
            .build();
        session.observe(std::rc::Rc::clone(&recorder));
        while !session.step().is_terminal() {}
        assert_eq!(
            recorder.borrow().complete_prefix(),
            10,
            "30 events = 10 full cycles of 3 events"
        );
        let trace = recorder.borrow().trace(10).expect("10 complete intervals");
        cohesion_scheduler::validate::validate_fsync(&trace, 2).unwrap();
    }

    #[test]
    fn co_located_observations_count_once() {
        use cohesion_scheduler::ScriptedScheduler;
        // §2.2: no multiplicity detection. The twins at 0.4 collapse into one
        // observation at Look, the far robot at 0.8 is a second one.
        let config = Configuration::new([0.0, 0.4, 0.4, 0.8].map(|x| Vec2::new(x, 0.0)).to_vec());
        for path in [LookPath::Grid, LookPath::BruteReference] {
            let script = ScriptedScheduler::new(
                "one-look",
                vec![ActivationInterval::new(RobotId(0), 0.0, 0.3, 0.6)],
            );
            let mut engine = Engine::new(&config, 1.0, CountingAlgorithm, script, 1);
            engine.set_frame_mode(cohesion_model::FrameMode::Aligned);
            engine.set_look_path(path);
            while engine.step().is_some() {}
            // The counting algorithm moves by 0.001 per observation.
            let x = engine.configuration().position(RobotId(0)).x;
            assert!(
                (x - 0.002).abs() < 1e-12,
                "twins count once, far robot once ({path:?}): {x}"
            );
        }
    }

    /// Moves 0.001·(number of visible robots) along +x; test-only probe.
    #[derive(Debug)]
    struct CountingAlgorithm;
    impl<P: Ambient> Algorithm<P> for CountingAlgorithm {
        fn compute(&self, snapshot: &Snapshot<P>) -> P {
            P::from_coords(&[0.001 * snapshot.len() as f64, 0.0, 0.0][..P::DIM])
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn heterogeneous_radii_are_directional() {
        use cohesion_scheduler::ScriptedScheduler;
        // Robot 0 has a long radius and sees robot 1; robot 1 has a short
        // radius and sees nobody: activating each once must move only 0.
        let config = Configuration::new(vec![Vec2::ZERO, Vec2::new(1.0, 0.0)]);
        let script = ScriptedScheduler::new(
            "hetero",
            vec![
                ActivationInterval::new(RobotId(0), 0.0, 0.3, 0.6),
                ActivationInterval::new(RobotId(1), 1.0, 1.3, 1.6),
            ],
        );
        let mut engine = Engine::new(
            &config,
            1.0,
            cohesion_core_stub::StepTowardFurthest,
            script,
            1,
        );
        engine.set_visibility_radii(vec![1.5, 0.5]);
        assert_eq!(engine.radius_of(RobotId(0)), 1.5);
        while engine.step().is_some() {}
        let c = engine.configuration();
        assert!(
            c.position(RobotId(0)).x > 0.0,
            "robot 0 saw its neighbour and moved"
        );
        assert_eq!(
            c.position(RobotId(1)),
            Vec2::new(1.0, 0.0),
            "robot 1 saw nobody"
        );
    }

    /// Minimal local algorithm for the heterogeneous-radii test (avoids a
    /// dev-dependency on cohesion-core).
    mod cohesion_core_stub {
        use super::*;
        #[derive(Debug)]
        pub struct StepTowardFurthest;
        impl Algorithm<Vec2> for StepTowardFurthest {
            fn compute(&self, snapshot: &Snapshot<Vec2>) -> Vec2 {
                snapshot
                    .positions()
                    .max_by(|a, b| a.norm().partial_cmp(&b.norm()).expect("finite"))
                    .map(|p| p * 0.1)
                    .unwrap_or(Vec2::ZERO)
            }
            fn name(&self) -> &str {
                "step-toward-furthest"
            }
        }
    }

    #[test]
    fn scripted_schedule_terminates() {
        use cohesion_scheduler::ScriptedScheduler;
        let script = ScriptedScheduler::new(
            "one-shot",
            vec![ActivationInterval::new(RobotId(0), 0.0, 0.5, 1.0)],
        );
        let mut engine = Engine::new(&two_robots(), 1.0, NilAlgorithm, script, 1);
        let mut events = 0;
        while engine.step().is_some() {
            events += 1;
        }
        assert_eq!(events, 3, "Look, MoveStart, MoveEnd");
    }

    #[test]
    fn buffered_position_accessors_match_first_principles() {
        let mut engine = Engine::new(&two_robots(), 1.0, NilAlgorithm, FSyncScheduler::new(), 1);
        for _ in 0..7 {
            engine.step().unwrap();
        }
        let t = engine.time();
        let mut buf = Vec::new();
        engine.positions_at_into(t, &mut buf);
        assert_eq!(buf, engine.configuration_at(t).positions().to_vec());
        // positions_with_targets_into = positions at `t` followed by every
        // pending target in robot order, rebuilt here from the raw state.
        let mut expected = engine.configuration_at(t).positions().to_vec();
        for i in 0..engine.states.len() {
            if let Some(target) = engine.states.pending_target(i) {
                expected.push(target);
            }
        }
        engine.positions_with_targets_into(&mut buf);
        assert_eq!(buf, expected);
    }

    #[test]
    fn grid_and_side_list_track_the_move_phase() {
        // The strong-visibility monitor reads its candidates off the grid,
        // so the invariant is pinned on the plane, on a grid re-celled to
        // per-robot radii, and in space.
        track_the_move_phase::<Vec2>(None);
        track_the_move_phase::<Vec2>(Some((0..9).map(|i| 0.8 + 0.2 * (i % 3) as f64).collect()));
        track_the_move_phase::<cohesion_geometry::Vec3>(None);
    }

    /// Steps an engine over nine robots, with per-robot `radii` if given,
    /// and checks the lifecycle invariant after every event: every robot is
    /// indexed in the envelopes' grid (the engine's) at its base position
    /// (true position while stationary, Move origin while motile),
    /// `collect_motile` yields exactly the motile set ascending, and every
    /// robot's motion envelope (centred at its base position, radius its
    /// displacement while motile and 0 otherwise, bounded by the pad) holds
    /// its position.
    fn track_the_move_phase<P: Ambient>(radii: Option<Vec<f64>>) {
        let config = cohesion_workloads_stub::<P>(9);
        let scheduler = cohesion_scheduler::KAsyncScheduler::new(3, 5);
        let mut engine = Engine::new(&config, 1.0, CountingAlgorithm, scheduler, 7);
        if let Some(radii) = radii {
            engine.set_visibility_radii(radii);
        }
        let mut motile = Vec::new();
        for _ in 0..300 {
            let Some(_) = engine.step() else { break };
            engine.collect_motile(&mut motile);
            let scan: Vec<usize> = (0..engine.states.len())
                .filter(|&i| engine.states.is_motile(i))
                .collect();
            assert_eq!(motile, scan, "side-list diverged from a state scan");
            for i in 0..engine.states.len() {
                let base = engine.states.base_positions()[i];
                let envelopes = engine.envelopes();
                assert_eq!(
                    envelopes.grid.position(i),
                    base,
                    "grid entry of robot {i} is not its base position"
                );
                assert_eq!(envelopes.origins[i], base, "envelope centre of robot {i}");
                assert!(envelopes.reach[i] <= envelopes.max_reach);
                if engine.states.is_motile(i) {
                    let now = engine.states.position_at(i, engine.time());
                    assert!(
                        now.dist(base) <= envelopes.reach[i] + 1e-12,
                        "motile robot {i} strayed past its envelope"
                    );
                } else {
                    assert_eq!(
                        base,
                        engine.states.position_at(i, engine.time()),
                        "stationary robot {i}'s base position is stale"
                    );
                    assert_eq!(envelopes.reach[i], 0.0, "stationary robot {i}'s envelope");
                }
            }
        }
    }

    /// A small connected line configuration, zigzagging in `z` in space
    /// (inline to avoid a circular dev-dependency on cohesion-workloads).
    fn cohesion_workloads_stub<P: Ambient>(n: usize) -> Configuration<P> {
        let at = |i: usize| [i as f64 * 0.7, 0.0, (i % 2) as f64 * 0.3];
        Configuration::new((0..n).map(|i| P::from_coords(&at(i)[..P::DIM])).collect())
    }
}
