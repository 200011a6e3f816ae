//! Activation scheduling for Look–Compute–Move robot systems (paper §2.3.1).
//!
//! The scheduler is the adversary: it decides when each robot is activated
//! and how long its Compute and Move phases last, constrained only by the
//! synchronization model in force. This crate provides:
//!
//! * [`ActivationInterval`] / [`ScheduleTrace`] — the timed artifacts;
//! * online generators for every model in the paper: [`FSyncScheduler`],
//!   [`SSyncScheduler`], [`KAsyncScheduler`] (*k*-Async), [`NestAScheduler`]
//!   (*k*-NestA), [`AsyncScheduler`] (unbounded), plus [`ScriptedScheduler`]
//!   for hand-built adversarial timelines (Figure 4, §7);
//! * [`validate`] — checkers proving a trace satisfies (or violates) each
//!   model's constraints, including the exact “at most `k` activations of one
//!   robot within a single active interval of another” condition;
//! * [`render`] — ASCII timelines reproducing the shape of Figures 1–2.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

mod argmin;
pub mod generators;
pub mod interval;
pub mod render;
pub mod trace;
pub mod validate;

pub use generators::{
    interleaved_engagement, AsyncScheduler, CentralizedScheduler, FSyncScheduler, KAsyncScheduler,
    NestAScheduler, SSyncScheduler, ScriptedScheduler,
};
pub use interval::{ActivationInterval, Phase};
pub use trace::ScheduleTrace;
pub use validate::{max_nesting_depth, minimal_async_k, SchedulerModel};

use std::fmt::Debug;

/// Context handed to scheduler generators on every pull.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleContext {
    /// Number of robots in the system.
    pub robot_count: usize,
}

/// An online activation-schedule generator.
///
/// Implementations must emit intervals with non-decreasing Look times and
/// must never overlap two intervals of the same robot. Infinite schedulers
/// (all the random models) never return `None`; scripted schedules do when
/// exhausted.
pub trait Scheduler: Debug + Send {
    /// Produces the next activation interval.
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval>;

    /// A short human-readable name used in experiment tables.
    fn name(&self) -> &str;
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        (**self).next_activation(ctx)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}
