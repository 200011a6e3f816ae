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

use crate::lab::{CellProgress, Experiment, JsonRow, LabCell, Outcome, Profile};
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
use std::rc::Rc;

#[derive(Serialize)]
struct Row {
    model: String,
    intervals: usize,
    rounds: Option<usize>,
    minimal_k: u32,
    max_nesting_depth: usize,
    validated: bool,
}

const ROBOTS: usize = 3;

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

fn model_label(scheduler: SchedulerSpec) -> &'static str {
    match scheduler {
        SchedulerSpec::FSync => "FSync",
        SchedulerSpec::SSync { .. } => "SSync",
        SchedulerSpec::Async { .. } => "Async",
        SchedulerSpec::NestA { .. } => "1-NestA",
        SchedulerSpec::KAsync { .. } => "1-Async",
        other => panic!("unexpected timeline scheduler {other:?}"),
    }
}

fn cell_row(spec: &ScenarioSpec) -> (ScheduleTrace, Row) {
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
    let row = Row {
        model: model_label(spec.scheduler).to_string(),
        intervals: trace.intervals().len(),
        rounds,
        minimal_k: minimal_async_k(&trace),
        max_nesting_depth: max_nesting_depth(&trace),
        validated,
    };
    (trace, row)
}

pub struct Timelines;

impl Experiment for Timelines {
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
         valid timelines (rounds, overlap bound k, nesting)"
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
        false // the cell is analytic (trace collected in reduce)
    }

    fn run(&self, _spec: &ScenarioSpec, _progress: &CellProgress<'_>) -> Outcome {
        // The trace is collected in reduce; the cell itself is analytic.
        Outcome::Analytic
    }

    fn reduce(&self, spec: &ScenarioSpec, _outcome: &Outcome) -> Vec<JsonRow> {
        let (_, row) = cell_row(spec);
        vec![JsonRow::of(&row)]
    }

    fn render(&self, cells: &[LabCell]) {
        for cell in cells {
            let (trace, row) = cell_row(&cell.spec);
            let figure = match cell.spec.scheduler {
                SchedulerSpec::FSync => "Figure 1 top",
                SchedulerSpec::SSync { .. } => "Figure 1 middle",
                SchedulerSpec::Async { .. } => "Figure 1 bottom",
                SchedulerSpec::NestA { .. } => "Figure 2 top",
                _ => "Figure 2 bottom",
            };
            println!("\n{} ({figure}):", row.model);
            print!("{}", render_timeline(&trace, ROBOTS, 68));
            match cell.spec.scheduler {
                SchedulerSpec::FSync => println!(
                    "  validated FSync: {} rounds; fairness ok: {}",
                    row.rounds.expect("validated"),
                    row.validated
                ),
                SchedulerSpec::SSync { .. } => println!(
                    "  validated SSync: {} rounds",
                    row.rounds.expect("validated")
                ),
                SchedulerSpec::Async { .. } => println!(
                    "  minimal k over this prefix: {} (unbounded in the limit)",
                    row.minimal_k
                ),
                SchedulerSpec::NestA { .. } => println!(
                    "  validated nested; minimal k = {}, max nesting depth = {}",
                    row.minimal_k, row.max_nesting_depth
                ),
                _ => println!(
                    "  minimal k = {} (≤ 1 by construction); nested pairs not required",
                    row.minimal_k
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_scheduler::{ScheduleContext, Scheduler};

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
