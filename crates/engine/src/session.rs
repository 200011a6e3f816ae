//! The resumable simulation session: incremental drivers + streaming
//! observers.
//!
//! [`SimulationBuilder::build`](crate::SimulationBuilder::build) turns a
//! configured builder into a [`Simulation`] — a first-class session that
//! owns the engine, the monitor pipeline, and the dirty-set bookkeeping the
//! one-shot `run()` used to keep as loop locals. A session can be
//!
//! * **stepped** one engine event at a time ([`Simulation::step`]),
//! * **driven in budgeted slices** ([`Simulation::run_for`] with an event
//!   [`Budget`]),
//! * **observed mid-flight** ([`Simulation::progress`] for a [`Progress`]
//!   view; registered [`Observer`]s for a streaming one), and
//! * **finished** into the exact [`SimulationReport`] the historical
//!   monolithic loop produced ([`Simulation::run_to_completion`] /
//!   [`Simulation::into_report`]) — the equivalence suite pins the reports
//!   byte-for-byte across all five scheduler classes.
//!
//! # Lifecycle
//!
//! ```text
//! SimulationBuilder ──build()──▶ Simulation (Running)
//!        │                          │  step() / run_for(Budget)
//!        │                          ▼
//!        │                 Converged │ BudgetExhausted │ ScheduleExhausted
//!        │                          │
//!        └────run()────▶            └──into_report()──▶ SimulationReport
//!              (≡ build().run_to_completion())
//! ```
//!
//! # Observers
//!
//! An [`Observer`] receives every engine event as it is processed
//! ([`Observer::on_event`]), together with the [`MonitorContext`] the
//! session's monitors read — the same stream the report is computed from.
//! Rounds, violations and diameter samples are not streamed separately:
//! [`Simulation::progress`] and the finished [`SimulationReport`] carry
//! them. The session calls the pair monitors of [`crate::monitors`] at every
//! event ([`CohesionMonitor::on_event`],
//! [`StrongVisibilityMonitor::on_event`]), and the hull and diameter
//! samplers through their `due` cadence, so that a sample on a round
//! boundary reuses the boundary's diameter.
//!
//! # Positions
//!
//! The engine is the only owner of robot positions. The pair monitors and
//! observers read a robot's position at the event time through
//! [`MonitorContext::position`], which
//! [`Engine::position_of_at`](crate::Engine::position_of_at) backs, so an
//! event costs no work per moving robot beyond the dirty-set upkeep at its
//! breakpoints. The whole swarm is copied out of the engine only when a
//! hull sample, a diameter sample or a round boundary fires, into one
//! session buffer. The samplers compare that buffer with the input they
//! last computed from and reuse their result when it repeats bit for bit,
//! as it does at the FSync instants with no MoveEnd in between (see
//! [`crate::monitors`]), so the session fills the buffer at every sample
//! and decides nothing about reuse itself.
//!
//! To read an observer's state *while the session still owns it*, register
//! a shared handle: `Rc<RefCell<O>>` implements [`Observer`] whenever `O`
//! does, so keep one clone and hand the other to the session.

use crate::engine::{Engine, EngineEvent, EngineEventKind};
use crate::monitors::{
    CohesionMonitor, DiameterMonitor, HullMonitor, MonitorContext, StrongVisibilityMonitor,
};
use crate::report::SimulationReport;
use cohesion_geometry::Vec2;
use cohesion_model::frame::Ambient;
use cohesion_model::{Algorithm, Budget, Progress};
use cohesion_scheduler::{ActivationInterval, ScheduleTrace, Scheduler};
use std::cell::RefCell;
use std::rc::Rc;

/// What state a [`Simulation`] session is in after a driver call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session can process more events (a slice budget may have been
    /// exhausted, but the run itself has not terminated).
    Running,
    /// A sampled diameter reached the convergence threshold `ε`.
    Converged,
    /// The session's overall event budget (the builder's `max_events`) is
    /// exhausted.
    BudgetExhausted,
    /// The scheduler produced no further activations and no phase is in
    /// flight (scripted schedules end; generative ones never do).
    ScheduleExhausted,
}

impl SessionStatus {
    /// `true` for every status except [`SessionStatus::Running`]: the
    /// session will process no further events.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        self != SessionStatus::Running
    }
}

/// What an [`Observer`] may look at for one engine event: the event itself
/// plus the monitor-grade context (a position lookup, the dirty set, the
/// motion envelopes) the pair monitors read.
pub struct EventView<'a, P: Ambient = Vec2> {
    /// The event just processed.
    pub event: EngineEvent,
    /// The monitor context for this event — any robot's position at
    /// `event.time`, the dirty set, and the motion envelopes.
    pub monitors: MonitorContext<'a, P>,
}

/// A streaming consumer of a session's event stream: one hook, called once
/// per processed engine event after the session's own monitors have seen
/// it (see the module docs).
///
/// ```
/// use cohesion_engine::{Observer, EventView, SimulationBuilder};
/// use cohesion_model::NilAlgorithm;
/// use cohesion_geometry::Vec2;
///
/// #[derive(Default)]
/// struct EventCounter(usize);
///
/// impl Observer for EventCounter {
///     fn on_event(&mut self, _view: &EventView<'_>) {
///         self.0 += 1;
///     }
/// }
///
/// // Keep a shared handle to read the count back mid-run.
/// let counter = std::rc::Rc::new(std::cell::RefCell::new(EventCounter::default()));
/// let config = cohesion_model::Configuration::new(vec![
///     Vec2::new(0.0, 0.0),
///     Vec2::new(0.9, 0.0),
/// ]);
/// let mut session = SimulationBuilder::new(config, NilAlgorithm)
///     .max_events(30)
///     .build();
/// session.observe(std::rc::Rc::clone(&counter));
/// let report = session.run_to_completion();
/// assert_eq!(counter.borrow().0, report.events);
/// ```
pub trait Observer<P: Ambient = Vec2> {
    /// Called once per processed engine event.
    fn on_event(&mut self, view: &EventView<'_, P>);
}

/// Shared-handle registration: keep one clone, give the session the other.
impl<P: Ambient, O: Observer<P>> Observer<P> for Rc<RefCell<O>> {
    fn on_event(&mut self, view: &EventView<'_, P>) {
        self.borrow_mut().on_event(view);
    }
}

/// An [`Observer`] that reconstructs the [`ScheduleTrace`] of activation
/// intervals from the engine's event stream.
///
/// Each activation surfaces as three events — `Look`, `MoveStart`,
/// `MoveEnd` — at exactly the interval's times, and a robot is never
/// re-activated before its Move ends, so pairing a robot's phase events in
/// arrival order rebuilds its intervals exactly. This replaces the bespoke
/// scheduler-driving recorder the timelines experiment used: the trace now
/// comes from the *same* event stream the simulation actually executed.
///
/// A recorder registered mid-run starts at the first Look it sees: the
/// `MoveStart`/`MoveEnd` of an activation already in flight at
/// registration are skipped.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    /// Reconstructed intervals in Look (= schedule) order. `move_start` and
    /// `end` hold NaN until the matching phase event arrives.
    intervals: Vec<(cohesion_model::RobotId, f64, f64, f64)>,
    /// Per robot: index into `intervals` of its open activation, if any.
    open: Vec<Option<usize>>,
}

impl TraceRecorder {
    /// A fresh recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Number of activation intervals whose three phase events have all
    /// been observed. Complete intervals form a prefix *per robot*, not
    /// globally, so this counts the globally-complete prefix — the longest
    /// leading run of intervals that are fully reconstructed.
    #[must_use]
    pub fn complete_prefix(&self) -> usize {
        self.intervals
            .iter()
            .take_while(|&&(_, _, _, end)| !end.is_nan())
            .count()
    }

    /// The first `count` reconstructed intervals as a [`ScheduleTrace`], or
    /// `None` while fewer than `count` are complete.
    #[must_use]
    pub fn trace(&self, count: usize) -> Option<ScheduleTrace> {
        if self.complete_prefix() < count {
            return None;
        }
        let mut trace = ScheduleTrace::new();
        for &(robot, look, move_start, end) in self.intervals.iter().take(count) {
            trace.push(ActivationInterval::new(robot, look, move_start, end));
        }
        Some(trace)
    }
}

impl<P: Ambient> Observer<P> for TraceRecorder {
    fn on_event(&mut self, view: &EventView<'_, P>) {
        let EngineEvent { time, robot, kind } = view.event;
        let idx = robot.index();
        if idx >= self.open.len() {
            self.open.resize(idx + 1, None);
        }
        match kind {
            EngineEventKind::Look => {
                self.open[idx] = Some(self.intervals.len());
                self.intervals.push((robot, time, f64::NAN, f64::NAN));
            }
            EngineEventKind::MoveStart => {
                if let Some(slot) = self.open[idx] {
                    self.intervals[slot].2 = time;
                }
            }
            EngineEventKind::MoveEnd => {
                if let Some(slot) = self.open[idx].take() {
                    self.intervals[slot].3 = time;
                }
            }
        }
    }
}

/// A live simulation session: the engine, the monitor pipeline, and the
/// round/diameter accounting behind an incremental driver API.
///
/// Built by [`SimulationBuilder::build`](crate::SimulationBuilder::build);
/// the one-shot [`SimulationBuilder::run`](crate::SimulationBuilder::run) is
/// now literally `build().run_to_completion()`, and the equivalence suite
/// pins that a session driven in arbitrary `run_for` slices produces the
/// same report byte-for-byte.
///
/// ```
/// use cohesion_engine::{SessionStatus, SimulationBuilder};
/// use cohesion_core::KirkpatrickAlgorithm;
/// use cohesion_model::{Budget, Configuration};
/// use cohesion_geometry::Vec2;
///
/// let config = Configuration::new(vec![
///     Vec2::new(0.0, 0.0),
///     Vec2::new(0.9, 0.0),
///     Vec2::new(1.8, 0.0),
/// ]);
/// let builder = || {
///     SimulationBuilder::new(config.clone(), KirkpatrickAlgorithm::new(1))
///         .epsilon(0.05)
///         .max_events(50_000)
/// };
///
/// // Drive the session in 1000-event slices, watching progress between.
/// let mut session = builder().build();
/// while !session.run_for(Budget::events(1000)).is_terminal() {
///     let p = session.progress();
///     assert!(p.cohesion_ok && p.diameter <= 1.8);
/// }
/// assert_eq!(session.status(), SessionStatus::Converged);
///
/// // The sliced run reproduces the one-shot report exactly.
/// assert_eq!(session.into_report(), builder().run());
/// ```
pub struct Simulation<P: Ambient = Vec2> {
    pub(crate) engine: Engine<P, Box<dyn Algorithm<P>>, Box<dyn Scheduler>>,
    pub(crate) epsilon: f64,
    /// The session's overall event budget (the builder's `max_events`).
    pub(crate) budget: Budget,
    pub(crate) initial_diameter: f64,
    pub(crate) dirty: Vec<usize>,
    pub(crate) dirty_mask: Vec<bool>,
    pub(crate) cohesion: CohesionMonitor,
    pub(crate) strong: Option<StrongVisibilityMonitor>,
    pub(crate) hull: Option<HullMonitor<P>>,
    pub(crate) diameter: DiameterMonitor<P>,
    pub(crate) round_diameters: Vec<(usize, f64)>,
    pub(crate) rounds: usize,
    pub(crate) round_base: Vec<u64>,
    /// Robots that have not completed a cycle since the last round
    /// boundary (`cycles[i] ≤ round_base[i]`); the round closes at zero.
    round_pending: usize,
    pub(crate) events: usize,
    pub(crate) converged: bool,
    pub(crate) status: SessionStatus,
    observers: Vec<Box<dyn Observer<P>>>,
}

/// The four standard monitors a session is built around, bundled for
/// construction (the builder materializes them, the session owns them).
pub(crate) struct MonitorPipeline<P: Ambient> {
    pub(crate) cohesion: CohesionMonitor,
    pub(crate) strong: Option<StrongVisibilityMonitor>,
    pub(crate) hull: Option<HullMonitor<P>>,
    pub(crate) diameter: DiameterMonitor<P>,
}

impl<P: Ambient> Simulation<P> {
    pub(crate) fn from_parts(
        engine: Engine<P, Box<dyn Algorithm<P>>, Box<dyn Scheduler>>,
        epsilon: f64,
        budget: Budget,
        initial_diameter: f64,
        monitors: MonitorPipeline<P>,
    ) -> Self {
        let MonitorPipeline {
            cohesion,
            strong,
            hull,
            diameter,
        } = monitors;
        let n = engine.robot_count();
        Simulation {
            engine,
            epsilon,
            budget,
            initial_diameter,
            dirty: Vec::with_capacity(n),
            dirty_mask: vec![false; n],
            cohesion,
            strong,
            hull,
            diameter,
            round_diameters: Vec::new(),
            rounds: 0,
            round_base: vec![0; n],
            round_pending: n,
            events: 0,
            converged: false,
            status: SessionStatus::Running,
            observers: Vec::new(),
        }
    }

    /// Registers a streaming observer. Observers see every event processed
    /// *after* registration; register before the first driver call to see
    /// the whole stream. To read the observer back mid-run, register an
    /// `Rc<RefCell<O>>` handle and keep a clone.
    pub fn observe(&mut self, observer: impl Observer<P> + 'static) {
        self.observers.push(Box::new(observer));
    }

    /// The session's current status. [`SessionStatus::Running`] until a
    /// driver call hits convergence, the overall budget, or the end of the
    /// schedule.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        self.status
    }

    /// Engine events processed so far.
    #[must_use]
    pub fn events(&self) -> usize {
        self.events
    }

    /// Simulated time of the last processed event (`0` before the first).
    #[must_use]
    pub fn time(&self) -> f64 {
        self.engine.time()
    }

    /// The underlying engine (read-only), e.g. for its recorded
    /// [`ScheduleTrace`] or current
    /// configuration.
    #[must_use]
    pub fn engine(&self) -> &Engine<P, Box<dyn Algorithm<P>>, Box<dyn Scheduler>> {
        &self.engine
    }

    /// The cohesion monitor (read-only), e.g. for its watch list or work
    /// counter mid-run.
    #[must_use]
    pub fn cohesion(&self) -> &CohesionMonitor {
        &self.cohesion
    }

    /// The strong-visibility monitor (read-only), when tracking is on.
    #[must_use]
    pub fn strong_visibility(&self) -> Option<&StrongVisibilityMonitor> {
        self.strong.as_ref()
    }

    /// The diameter monitor (read-only), e.g. for its sample series or the
    /// work counter of every diameter the session has taken.
    #[must_use]
    pub fn diameter_monitor(&self) -> &DiameterMonitor<P> {
        &self.diameter
    }

    /// The hull monitor (read-only), when hull checking is on, e.g. for the
    /// work counter of the hulls its samples built.
    #[must_use]
    pub fn hull_monitor(&self) -> Option<&HullMonitor<P>> {
        self.hull.as_ref()
    }

    /// A point-in-time progress view: events, rounds, simulated time, the
    /// current configuration diameter, and cohesion-so-far. Costs a copy of
    /// the positions and one diameter computation — `O(n)` plus a few pairs
    /// for planar swarms of 32 or more (see [`cohesion_geometry::diameter`]),
    /// all pairs below that and in 3D — cheap next to an event slice, but
    /// meant for heartbeats between slices, not per-event polling.
    #[must_use]
    pub fn progress(&self) -> Progress {
        Progress {
            events: self.events,
            rounds: self.rounds,
            time: self.engine.time(),
            diameter: self.engine.configuration().diameter(),
            cohesion_ok: self.cohesion.maintained(),
            converged: self.converged,
        }
    }

    /// Processes one engine event; returns the status afterwards. A
    /// terminal session is left untouched (the call is a no-op).
    pub fn step(&mut self) -> SessionStatus {
        if self.status.is_terminal() {
            return self.status;
        }
        if self.budget.events_exhausted(self.events) {
            self.status = SessionStatus::BudgetExhausted;
            return self.status;
        }
        let Some(event) = self.engine.step() else {
            self.status = SessionStatus::ScheduleExhausted;
            return self.status;
        };
        self.events += 1;
        self.process(event);
        if self.diameter.converged() {
            self.converged = true;
            self.status = SessionStatus::Converged;
        }
        self.status
    }

    /// The per-event pipeline: dirty-set maintenance, the pair monitors,
    /// the registered observers, round accounting, and the hull and
    /// diameter samples — the body of the historical `run()` loop, verbatim
    /// where it affects the report.
    fn process(&mut self, event: EngineEvent) {
        let n = self.engine.robot_count();
        let robot = event.robot.index();

        // The dirty set: robots mid-Move plus the robot whose Move just
        // ended — the only positions that changed since the last event. It
        // is kept ascending across events and changes only at breakpoints:
        // a robot joins at its MoveStart and leaves after its MoveEnd.
        if event.kind == EngineEventKind::MoveStart {
            let slot = self
                .dirty
                .binary_search(&robot)
                .expect_err("a robot starts one Move at a time");
            self.dirty.insert(slot, robot);
            self.dirty_mask[robot] = true;
        }

        // The pair monitors at every event: a breakpoint re-classifies its
        // robot's pairs from the motion envelopes, and only the watched
        // pairs with a dirty endpoint are measured, at positions looked up
        // in the engine — every other pair provably keeps its status until
        // one of its endpoints' next breakpoint (see `crate::monitors`).
        let engine = &self.engine;
        let position = |i: usize| engine.position_of_at(i, event.time);
        let view = EventView {
            event,
            monitors: MonitorContext {
                time: event.time,
                position: &position,
                dirty: &self.dirty,
                dirty_mask: &self.dirty_mask,
                breakpoint: (event.kind != EngineEventKind::Look).then_some(robot),
                envelopes: engine.envelopes(),
            },
        };
        self.cohesion.on_event(&view.monitors);
        if let Some(m) = self.strong.as_mut() {
            m.on_event(&view.monitors);
        }
        for obs in &mut self.observers {
            obs.on_event(&view);
        }

        // Round accounting. Cycles only advance at a MoveEnd, by one, so a
        // robot completes its first cycle of the round exactly when its
        // MoveEnd lifts it to `round_base + 1`.
        if event.kind == EngineEventKind::MoveEnd
            && self.engine.completed_cycles()[robot] == self.round_base[robot] + 1
        {
            self.round_pending -= 1;
        }
        let round_closed = self.round_pending == 0;
        let diameter_due = self.diameter.due(self.events);

        // The samples read the whole swarm, so the engine writes it into a
        // sampler's buffer only when one fires. A hull sample reads the
        // positions at the engine's clock, and the diameters of its event
        // read them there too; other diameters read them at the event time.
        // (A Look the scheduler places up to 1e-9 before the clock leaves
        // the clock where it was.)
        let engine = &self.engine;
        let mut at = event.time;
        if let Some(hull) = self.hull.as_mut().filter(|m| m.due(self.events)) {
            at = engine.time();
            hull.sample(|points| engine.positions_with_targets_into(points));
        }

        // The configuration diameter at this event, computed at most once:
        // a round boundary and a diameter sample often fall on one event.
        let mut diameter = None;
        if round_closed {
            self.rounds += 1;
            self.round_base
                .copy_from_slice(self.engine.completed_cycles());
            self.round_pending = n;
            let d = *diameter.get_or_insert_with(|| {
                self.diameter
                    .measure(|points| engine.positions_at_into(at, points))
            });
            self.round_diameters.push((self.rounds, d));
        }

        // Diameter sampling + convergence test.
        if diameter_due {
            let d = diameter.unwrap_or_else(|| {
                self.diameter
                    .measure(|points| engine.positions_at_into(at, points))
            });
            self.diameter.record(event.time, d);
        }

        if event.kind == EngineEventKind::MoveEnd {
            let slot = self
                .dirty
                .binary_search(&robot)
                .expect("a moving robot is dirty");
            self.dirty.remove(slot);
            self.dirty_mask[robot] = false;
        }
    }

    /// Runs until the *slice* budget is exhausted or the session
    /// terminates. `slice.max_events` is relative (that many more events).
    /// Returns [`SessionStatus::Running`] when only the slice — not the
    /// session — is spent.
    pub fn run_for(&mut self, slice: Budget) -> SessionStatus {
        let end_events = self.events.saturating_add(slice.max_events);
        while !self.status.is_terminal() && self.events < end_events {
            self.step();
        }
        self.status
    }

    /// Drives the session to a terminal status and finishes the report —
    /// exactly what the historical one-shot `run()` did.
    #[must_use]
    pub fn run_to_completion(mut self) -> SimulationReport<P> {
        while !self.step().is_terminal() {}
        self.into_report()
    }

    /// Finishes the session into a [`SimulationReport`]. Usable from any
    /// state: the report covers the horizon simulated so far (the final
    /// diameter sample and the `diameter ≤ ε` re-check happen here, as they
    /// did at the end of the historical loop).
    #[must_use]
    pub fn into_report(self) -> SimulationReport<P> {
        let final_configuration = self.engine.configuration();
        let final_diameter = final_configuration.diameter();
        let converged = self.converged || final_diameter <= self.epsilon;
        let mut diameter_series = self.diameter.into_series();
        diameter_series.push((self.engine.time(), final_diameter));

        SimulationReport {
            algorithm: self.engine.algorithm().name().to_string(),
            scheduler: self.engine.scheduler().name().to_string(),
            robots: final_configuration.len(),
            visibility: self.engine.visibility(),
            converged,
            cohesion_maintained: self.cohesion.maintained(),
            cohesion_violations: self.cohesion.into_violations(),
            strong_visibility_ok: self.strong.map(|m| m.ok()),
            hulls_nested: self.hull.map(|m| m.nested()),
            initial_diameter: self.initial_diameter,
            final_diameter,
            events: self.events,
            rounds: self.rounds,
            end_time: self.engine.time(),
            diameter_series,
            round_diameters: self.round_diameters,
            final_configuration,
        }
    }
}

impl<P: Ambient> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("robots", &self.engine.robot_count())
            .field("events", &self.events)
            .field("rounds", &self.rounds)
            .field("time", &self.engine.time())
            .field("status", &self.status)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulationBuilder;
    use cohesion_model::{Configuration, NilAlgorithm};
    use cohesion_scheduler::FSyncScheduler;

    fn line(n: usize, spacing: f64) -> Configuration {
        Configuration::new((0..n).map(|i| Vec2::new(i as f64 * spacing, 0.0)).collect())
    }

    #[test]
    fn session_statuses_and_progress() {
        let mut session = SimulationBuilder::new(line(3, 0.9), NilAlgorithm)
            .scheduler(FSyncScheduler::new())
            .max_events(10)
            .build();
        assert_eq!(session.status(), SessionStatus::Running);
        assert_eq!(session.events(), 0);
        let p0 = session.progress();
        assert_eq!(p0.events, 0);
        assert_eq!(p0.diameter, 1.8);
        assert!(p0.cohesion_ok && !p0.converged);

        assert_eq!(session.run_for(Budget::events(4)), SessionStatus::Running);
        assert_eq!(session.events(), 4);
        assert_eq!(
            session.run_for(Budget::UNLIMITED),
            SessionStatus::BudgetExhausted
        );
        assert_eq!(session.events(), 10);
        // Terminal sessions are inert.
        assert_eq!(session.step(), SessionStatus::BudgetExhausted);
        assert_eq!(session.events(), 10);
        let report = session.into_report();
        assert_eq!(report.events, 10);
        assert!(!report.converged);
    }

    #[test]
    fn observers_see_the_event_stream() {
        #[derive(Default)]
        struct Counts {
            events: usize,
        }
        impl Observer for Counts {
            fn on_event(&mut self, _view: &EventView<'_>) {
                self.events += 1;
            }
        }
        let counts = Rc::new(RefCell::new(Counts::default()));
        let mut session = SimulationBuilder::new(line(3, 0.9), NilAlgorithm)
            .scheduler(FSyncScheduler::new())
            .max_events(90)
            .diameter_sample_every(10)
            .build();
        session.observe(Rc::clone(&counts));
        let report = session.run_to_completion();
        let counts = counts.borrow();
        assert_eq!(counts.events, report.events);
    }

    #[test]
    fn trace_recorder_rebuilds_the_engine_trace() {
        // The engine dispatches exactly the scripted intervals, so the script
        // is the trace it executes. Robots overlap, so their phase events
        // interleave.
        let script: Vec<ActivationInterval> = (0..15)
            .map(|i| {
                let look = (i / 3) as f64 + (i % 3) as f64 * 0.3;
                ActivationInterval::new(
                    cohesion_model::RobotId(i % 3),
                    look,
                    look + 0.2,
                    look + 0.7,
                )
            })
            .collect();
        let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
        let mut session = SimulationBuilder::new(line(3, 0.9), NilAlgorithm)
            .scheduler(cohesion_scheduler::ScriptedScheduler::new(
                "script",
                script.clone(),
            ))
            .max_events(60)
            .build();
        session.observe(Rc::clone(&recorder));
        while recorder.borrow().complete_prefix() < 12 {
            assert!(
                !session.step().is_terminal(),
                "budget too small for 12 intervals"
            );
        }
        let rebuilt = recorder.borrow().trace(12).expect("12 complete intervals");
        assert_eq!(rebuilt.intervals(), &script[..12]);
    }

    #[test]
    fn trace_recorder_registered_mid_activation_starts_at_the_next_look() {
        // One robot, so every activation's MoveStart and MoveEnd follow its
        // Look directly; registering after the first Look puts the recorder
        // inside an activation it never saw begin.
        let script: Vec<ActivationInterval> = (0..5)
            .map(|i| {
                let look = i as f64;
                ActivationInterval::new(cohesion_model::RobotId(0), look, look + 0.2, look + 0.7)
            })
            .collect();
        let mut session = SimulationBuilder::new(line(1, 0.9), NilAlgorithm)
            .scheduler(cohesion_scheduler::ScriptedScheduler::new(
                "script",
                script.clone(),
            ))
            .max_events(60)
            .build();
        assert_eq!(session.step(), SessionStatus::Running);
        let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
        session.observe(Rc::clone(&recorder));
        while !session.step().is_terminal() {}
        assert_eq!(session.status(), SessionStatus::ScheduleExhausted);
        let recorder = recorder.borrow();
        assert_eq!(recorder.complete_prefix(), script.len() - 1);
        let rebuilt = recorder
            .trace(script.len() - 1)
            .expect("every later interval");
        assert_eq!(rebuilt.intervals(), &script[1..]);
    }
}
