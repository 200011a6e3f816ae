//! F1–F2 — the scheduling models as validated, rendered timelines.
//!
//! Each cell is *analytic*: the scheduler spec itself is the subject — the
//! cell collects a trace prefix, validates it against its model's
//! structural invariants, and renders the Look/Compute/Move timeline.
//!
//! The trace comes from the engine's **event stream**: the cell builds the
//! session its spec describes (Nil algorithm — nobody moves), registers a
//! [`TraceRecorder`] observer, and steps until the first `trials`
//! activation intervals are fully reconstructed. This replaced a bespoke
//! recorder that pulled activations straight off the scheduler; the
//! regression test below pins that both produce the identical trace, so
//! the rows are byte-for-byte what they were.

use crate::lab::{CellProgress, Declared, Outcome, Profile};
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_engine::TraceRecorder;
use cohesion_scheduler::render::render_timeline;
use cohesion_scheduler::validate::{
    max_nesting_depth, minimal_async_k, validate_fairness, validate_fsync, validate_nested,
    validate_ssync,
};
use cohesion_scheduler::ScheduleTrace;
use serde::Serialize;
use std::cell::RefCell;
use std::fmt::Write;
use std::rc::Rc;

#[derive(Serialize)]
pub struct Row {
    model: String,
    intervals: usize,
    rounds: Option<usize>,
    minimal_k: u32,
    max_nesting_depth: usize,
    validated: bool,
}

const ROBOTS: usize = 3;

/// The unbounded model: the one row whose minimal k the claim leaves free.
const ASYNC: &str = "Async";

/// The first `count` activation intervals of the spec's schedule, rebuilt
/// from a live session's event stream by a [`TraceRecorder`] observer.
fn collect(spec: &ScenarioSpec, count: usize) -> ScheduleTrace {
    let recorder = Rc::new(RefCell::new(TraceRecorder::new()));
    let mut session = spec.session();
    session.observe(Rc::clone(&recorder));
    while recorder.borrow().complete_prefix() < count {
        assert!(
            !session.step().is_terminal(),
            "session ended before {count} activation intervals completed"
        );
    }
    let trace = recorder
        .borrow()
        .trace(count)
        .expect("prefix is complete by the loop condition");
    trace
}

/// The model's row label, its figure, and what its timeline shows.
fn model(scheduler: SchedulerSpec) -> (&'static str, &'static str, &'static str) {
    match scheduler {
        SchedulerSpec::FSync => (
            "FSync",
            "Figure 1 top",
            "rounds validated; fairness checked",
        ),
        SchedulerSpec::SSync { .. } => ("SSync", "Figure 1 middle", "rounds validated"),
        SchedulerSpec::Async { .. } => (
            ASYNC,
            "Figure 1 bottom",
            "minimal k over this prefix (unbounded in the limit)",
        ),
        SchedulerSpec::NestA { .. } => (
            "1-NestA",
            "Figure 2 top",
            "nesting validated; minimal k and max nesting depth",
        ),
        SchedulerSpec::KAsync { .. } => (
            "1-Async",
            "Figure 2 bottom",
            "minimal k ≤ 1 by construction; nested pairs not required",
        ),
        other => panic!("unexpected timeline scheduler {other:?}"),
    }
}

pub struct Timelines;

impl Declared for Timelines {
    type Row = Row;

    fn name(&self) -> &'static str {
        "timelines"
    }

    fn id(&self) -> &'static str {
        "F1-F2"
    }

    fn title(&self) -> &'static str {
        "scheduler timelines (L = Look, c = Compute, m = Move)"
    }

    fn claim(&self) -> &'static str {
        "§2.3.1: the five synchronization models produce structurally \
         valid timelines, and every bounded model's minimal k is at most 1"
    }

    fn output_stem(&self) -> &'static str {
        "f1_timelines"
    }

    fn grid(&self, _profile: Profile) -> Vec<ScenarioSpec> {
        // The timeline cells are already instant; the quick grid is the
        // full grid. Workload Line{3} fixes the robot count the traces use.
        let workload = WorkloadSpec::Line {
            n: ROBOTS,
            spacing: 0.9,
        };
        [
            (SchedulerSpec::FSync, 12),
            (SchedulerSpec::SSync { seed: 5 }, 12),
            (SchedulerSpec::Async { seed: 5 }, 14),
            (SchedulerSpec::NestA { k: 1, seed: 5 }, 10),
            (SchedulerSpec::KAsync { k: 1, seed: 5 }, 12),
        ]
        .into_iter()
        .map(|(scheduler, trials)| ScenarioSpec {
            trials,
            ..ScenarioSpec::tagged("timeline", workload, AlgorithmSpec::Nil, scheduler)
        })
        .collect()
    }

    fn engine_driven(&self) -> bool {
        false // the cell is analytic (trace collected in row)
    }

    fn run(&self, _spec: &ScenarioSpec, _progress: &CellProgress<'_>) -> Outcome {
        // The trace is collected in row; the cell itself is analytic.
        Outcome::Analytic
    }

    fn row(&self, spec: &ScenarioSpec, _outcome: &Outcome) -> Row {
        let trace = collect(spec, spec.trials);
        let (rounds, validated) = match spec.scheduler {
            SchedulerSpec::FSync => {
                let r = validate_fsync(&trace, ROBOTS).expect("FSync trace validates");
                (Some(r), validate_fairness(&trace, ROBOTS, 2.0).is_ok())
            }
            SchedulerSpec::SSync { .. } => {
                let r = validate_ssync(&trace).expect("SSync trace validates");
                (Some(r), true)
            }
            SchedulerSpec::NestA { .. } => (None, validate_nested(&trace).is_ok()),
            _ => (None, true),
        };
        Row {
            model: model(spec.scheduler).0.to_string(),
            intervals: trace.intervals().len(),
            rounds,
            minimal_k: minimal_async_k(&trace),
            max_nesting_depth: max_nesting_depth(&trace),
            validated,
        }
    }

    /// Every row validates, and every bounded model (all but Async) keeps
    /// its overlap bound of 1.
    fn holds(&self, r: &Row, _rows: &[Row]) -> bool {
        r.validated && (r.model == ASYNC || r.minimal_k <= 1)
    }

    fn table(&self, r: &Row) -> Vec<(&'static str, String)> {
        vec![
            ("model", r.model.clone()),
            ("intervals", r.intervals.to_string()),
            ("rounds", r.rounds.map_or("-".into(), |x| x.to_string())),
            ("minimal k", r.minimal_k.to_string()),
            ("max nesting depth", r.max_nesting_depth.to_string()),
            ("validated", r.validated.to_string()),
        ]
    }

    fn notes(&self) -> String {
        let mut out = String::new();
        for spec in self.grid(Profile::Full) {
            let (label, figure, shows) = model(spec.scheduler);
            let trace = collect(&spec, spec.trials);
            writeln!(out, "{label} ({figure}): {shows}").expect("write to a String");
            writeln!(out, "{}", render_timeline(&trace, ROBOTS, 68)).expect("write to a String");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_scheduler::{ScheduleContext, Scheduler};

    #[test]
    fn claim_leaves_only_the_async_overlap_unbounded() {
        let row = |model: &str, minimal_k, validated| Row {
            model: model.to_string(),
            intervals: 12,
            rounds: None,
            minimal_k,
            max_nesting_depth: 1,
            validated,
        };
        assert!(Timelines.holds(&row("1-Async", 1, true), &[]));
        assert!(!Timelines.holds(&row("1-NestA", 2, true), &[]));
        assert!(!Timelines.holds(&row("FSync", 1, false), &[]));
        assert!(Timelines.holds(&row(ASYNC, 5, true), &[]));
        assert!(!Timelines.holds(&row(ASYNC, 5, false), &[]));
    }

    /// The historical bespoke recorder: pull `count` activations straight
    /// off the scheduler. Kept only as the reference for the pin below.
    fn collect_from_scheduler(mut s: Box<dyn Scheduler>, count: usize) -> ScheduleTrace {
        let ctx = ScheduleContext {
            robot_count: ROBOTS,
        };
        let mut trace = ScheduleTrace::new();
        for _ in 0..count {
            match s.next_activation(&ctx) {
                Some(iv) => trace.push(iv),
                None => break,
            }
        }
        trace
    }

    /// The observer-backed trace is byte-identical to the bespoke
    /// scheduler-driving recorder it replaced, for every grid cell — the
    /// engine surfaces each activation as Look/MoveStart/MoveEnd events at
    /// exactly the interval's times, in schedule order.
    #[test]
    fn observer_trace_matches_the_bespoke_recorder() {
        for spec in Timelines.grid(Profile::Full) {
            let from_session = collect(&spec, spec.trials);
            let from_scheduler = collect_from_scheduler(spec.scheduler.build(), spec.trials);
            assert_eq!(
                from_session.intervals(),
                from_scheduler.intervals(),
                "{:?}",
                spec.scheduler
            );
        }
    }
}
