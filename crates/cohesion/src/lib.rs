//! # cohesion — Point Convergence with Limited Visibility
//!
//! A faithful, executable reproduction of *“Separating Bounded and Unbounded
//! Asynchrony for Autonomous Robots: Point Convergence with Limited
//! Visibility”* (Kirkpatrick, Kostitsyna, Navarra, Prencipe, Santoro —
//! PODC 2021).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`geometry`] — vectors, hulls, smallest enclosing balls, cones, and
//!   the uniform spatial grid behind near-linear radius queries;
//! * [`model`] — the OBLOT robot model: configurations, CSR visibility
//!   graphs, snapshots, local frames, error models;
//! * [`scheduler`] — FSync / SSync / k-NestA / k-Async / Async activation
//!   schedulers, scripted adversarial schedules, and trace validators;
//! * [`engine`] — the continuous-time discrete-event simulation engine and
//!   its incremental run-time monitors (cohesion, strong visibility, hull
//!   nesting, diameter);
//! * [`core`] — the paper's contribution: the k-Async cohesive-convergence
//!   algorithm, safe and reach regions, and the lemma-level analysis;
//! * [`algorithms`] — baselines (Ando SEC, Katreniak, CoG, GCM minbox);
//! * [`adversary`] — the Figure 4 counterexamples and the §7 Async
//!   impossibility construction;
//! * [`workloads`] — seeded initial-configuration generators.
//!
//! # Quickstart
//!
//! ```
//! use cohesion::prelude::*;
//!
//! // 20 robots in a random connected configuration, visibility radius 1.
//! let config = workloads::random_connected(20, 1.0, 42);
//! // The paper's algorithm, provisioned for 2-bounded asynchrony.
//! let algorithm = KirkpatrickAlgorithm::new(2);
//! // A fair random 2-Async scheduler.
//! let scheduler = KAsyncScheduler::new(2, 7);
//! let report = SimulationBuilder::new(config, algorithm)
//!     .visibility(1.0)
//!     .scheduler(scheduler)
//!     .epsilon(0.05)
//!     .max_events(200_000)
//!     .run();
//! assert!(report.converged, "k-Async convergence is the paper's Theorem 4 + §5");
//! assert!(report.cohesion_maintained);
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub use cohesion_adversary as adversary;
pub use cohesion_algorithms as algorithms;
pub use cohesion_core as core;
pub use cohesion_engine as engine;
pub use cohesion_geometry as geometry;
pub use cohesion_model as model;
pub use cohesion_scheduler as scheduler;
pub use cohesion_workloads as workloads;

/// One-stop imports for examples and downstream quickstarts.
pub mod prelude {
    pub use crate::algorithms::{AndoAlgorithm, CogAlgorithm, GcmAlgorithm, KatreniakAlgorithm};
    pub use crate::core::KirkpatrickAlgorithm;
    pub use crate::engine::{
        Budget, EventView, MonitorContext, Observer, Progress, SessionStatus, Simulation,
        SimulationBuilder, SimulationReport, TraceRecorder,
    };
    pub use crate::geometry::{Vec2, Vec3};
    pub use crate::model::{Configuration, RobotId, VisibilityGraph};
    pub use crate::scheduler::{
        AsyncScheduler, FSyncScheduler, KAsyncScheduler, NestAScheduler, SSyncScheduler,
    };
    pub use crate::workloads;
}
