//! Continuous-time discrete-event simulation of Look–Compute–Move robot
//! systems.
//!
//! The engine executes an [`Algorithm`](cohesion_model::Algorithm) under a
//! [`Scheduler`](cohesion_scheduler::Scheduler) with adversarial error models
//! and records everything the paper's predicates quantify over:
//!
//! * positions are **piecewise-linear in continuous time** — a robot whose
//!   Move spans `[t₀, t₁]` is observed mid-trajectory by any Look that lands
//!   inside, which is precisely the capability separating the asynchronous
//!   models from SSync (Figure 4 exploits it twice);
//! * cohesion (`E(0) ⊆ E(t)`) is checked at every event time — positions are
//!   piecewise linear, so pairwise distances attain extrema at event
//!   boundaries and the check is exhaustive, not sampled; the engine owns
//!   the trajectories, and the monitors read the positions they measure
//!   from it ([`Engine::position_of_at`]);
//! * optional strong-visibility tracking asserts the acquired-visibility
//!   clause of Theorems 3–4 (pairs once within `V/2` stay within `V`);
//! * hull monotonicity (`CH_{t⁺} ⊆ CH_t`, including planned trajectories) is
//!   verified on a configurable cadence;
//! * rounds are counted in the standard way (a round ends when every robot
//!   has completed at least one full cycle), giving the convergence-rate
//!   measure used by the rate experiments;
//! * runs are **resumable sessions** ([`session`]): `SimulationBuilder::build`
//!   yields a [`Simulation`] that can be stepped, driven in budgeted slices
//!   (`run_for`), inspected mid-flight (`progress`), and
//!   streamed through registered [`Observer`]s — with `run()` remaining the
//!   one-shot `build().run_to_completion()` convenience.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod engine;
pub mod monitors;
mod queue;

pub mod report;
pub mod runner;
pub mod session;
pub mod state;

pub use engine::{Engine, EngineEvent, EngineEventKind, LookPath};
pub use monitors::{
    CohesionMonitor, DiameterMonitor, Envelopes, HullMonitor, MonitorContext,
    StrongVisibilityMonitor,
};
pub use report::{fnv1a, SimulationReport};
pub use runner::SimulationBuilder;
pub use session::{EventView, Observer, SessionStatus, Simulation, TraceRecorder};

// Driver-facing plain data, re-exported from the model crate so session
// consumers need only one import path.
pub use cohesion_model::{Budget, Progress};
