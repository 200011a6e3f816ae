//! F4 — Figure 4(a)/(b): the exact counterexamples against unmodified Ando,
//! and the survival of the paper's algorithm on identical timelines.
//!
//! The scripted schedules are first-class [`SchedulerSpec`] variants, so
//! each `(figure, algorithm)` cell is a plain [`ScenarioSpec`] replay.

use crate::lab::{Declared, Outcome, Profile};
use crate::mark;
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec};
use cohesion_adversary::ando_counterexample::{
    figure4_configuration, figure4a_schedule, figure4b_schedule, schedule_properties,
    xy_separation, V,
};
use cohesion_scheduler::render::render_timeline;
use cohesion_scheduler::{ActivationInterval, ScheduleTrace};
use serde::Serialize;
use std::fmt::Write;

#[derive(Serialize)]
pub struct Row {
    figure: String,
    algorithm: String,
    xy_separation: f64,
    cohesive: bool,
    schedule_k: u32,
    schedule_nested: bool,
}

/// Row labels of the two scripts; 1-Async is Katreniak's home model.
const FIGURE_4A: &str = "4a (1-Async)";
const FIGURE_4B: &str = "4b (2-NestA)";

fn schedule(scheduler: SchedulerSpec) -> (&'static str, Vec<ActivationInterval>) {
    match scheduler {
        SchedulerSpec::Figure4a => (FIGURE_4A, figure4a_schedule()),
        SchedulerSpec::Figure4b => (FIGURE_4B, figure4b_schedule()),
        other => panic!("unexpected F4 scheduler {other:?}"),
    }
}

fn algorithm_label(algorithm: AlgorithmSpec) -> String {
    match algorithm {
        AlgorithmSpec::Kirkpatrick { k } => format!("kirkpatrick(k={k})"),
        other => other.family().to_string(),
    }
}

/// The F4 claim for one row: Ando separates (> V) under both scripts, and
/// Katreniak under 1-Async and the paper's algorithm (`kirkpatrick(k=…)`)
/// under both stay within V. Katreniak under 2-NestA, outside its home
/// model, is a diagnostic.
fn holds(r: &Row) -> bool {
    match r.algorithm.as_str() {
        "ando" => r.xy_separation > V,
        "katreniak" => r.figure != FIGURE_4A || r.xy_separation <= V,
        _ => r.xy_separation <= V,
    }
}

pub struct AndoSeparation;

impl Declared for AndoSeparation {
    type Row = Row;

    fn name(&self) -> &'static str {
        "ando_separation"
    }

    fn id(&self) -> &'static str {
        "F4"
    }

    fn title(&self) -> &'static str {
        "Ando counterexamples under 1-Async and 2-NestA"
    }

    fn claim(&self) -> &'static str {
        "Figure 4: Ando separates (>V) under both scripts; Katreniak survives \
         1-Async; the paper's algorithm survives both"
    }

    fn output_stem(&self) -> &'static str {
        "f4_ando_separation"
    }

    fn grid(&self, _profile: Profile) -> Vec<ScenarioSpec> {
        // Six scripted replays — already instant, so the quick grid is the
        // full grid. The paper's algorithm runs with the schedule's own k.
        [SchedulerSpec::Figure4a, SchedulerSpec::Figure4b]
            .into_iter()
            .flat_map(|scheduler| {
                let (_, script) = schedule(scheduler);
                let (k, _) = schedule_properties(&script);
                [
                    AlgorithmSpec::Ando { v: V },
                    AlgorithmSpec::Katreniak,
                    AlgorithmSpec::Kirkpatrick { k: k.max(1) },
                ]
                .into_iter()
                .map(move |alg| ScenarioSpec::figure4(alg, scheduler))
            })
            .collect()
    }

    fn row(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Row {
        let report = outcome.report();
        let (figure, script) = schedule(spec.scheduler);
        let (k, nested) = schedule_properties(&script);
        Row {
            figure: figure.to_string(),
            algorithm: algorithm_label(spec.algorithm),
            xy_separation: xy_separation(report),
            cohesive: report.cohesion_maintained,
            schedule_k: k,
            schedule_nested: nested,
        }
    }

    fn holds(&self, r: &Row, _rows: &[Row]) -> bool {
        holds(r)
    }

    fn table(&self, r: &Row) -> Vec<(&'static str, String)> {
        vec![
            ("figure", r.figure.clone()),
            ("algorithm", r.algorithm.clone()),
            ("|XY| final", format!("{:.4}", r.xy_separation)),
            ("cohesive", mark(r.cohesive).to_string()),
        ]
    }

    fn notes(&self) -> String {
        let mut out = format!("configuration (V = {V}):\n");
        for (id, p) in figure4_configuration().iter() {
            writeln!(out, "  {id} at {p}").expect("write to a String");
        }
        for scheduler in [SchedulerSpec::Figure4a, SchedulerSpec::Figure4b] {
            let (figure, script) = schedule(scheduler);
            let (k, nested) = schedule_properties(&script);
            writeln!(
                out,
                "\n--- Figure {figure}: minimal k = {k}, nested = {nested} ---\n{}",
                render_timeline(&ScheduleTrace::from_intervals(script), 2, 64)
            )
            .expect("write to a String");
        }
        writeln!(
            out,
            "paper: Figure 4 — Ando separates (>V = {V}) in both models; Katreniak survives\n\
             1-Async (its home model); the paper's algorithm survives both (Theorems 3–4)."
        )
        .expect("write to a String");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{holds, Row, FIGURE_4A, FIGURE_4B, V};

    fn row(figure: &str, algorithm: &str, xy_separation: f64) -> Row {
        Row {
            figure: figure.to_string(),
            algorithm: algorithm.to_string(),
            xy_separation,
            cohesive: xy_separation <= V,
            schedule_k: 1,
            schedule_nested: false,
        }
    }

    #[test]
    fn claim_exempts_katreniak_outside_its_home_model_only() {
        // Today's rows hold.
        for r in [
            row(FIGURE_4A, "ando", 1.12),
            row(FIGURE_4A, "katreniak", 0.829),
            row(FIGURE_4A, "kirkpatrick(k=1)", 0.5),
            row(FIGURE_4B, "ando", 1.12),
            row(FIGURE_4B, "katreniak", 0.829),
            row(FIGURE_4B, "kirkpatrick(k=2)", 0.5),
        ] {
            assert!(holds(&r), "{} under {}", r.algorithm, r.figure);
        }
        // One failing row per clause.
        assert!(!holds(&row(FIGURE_4B, "ando", V)));
        assert!(!holds(&row(FIGURE_4A, "katreniak", 1.12)));
        assert!(!holds(&row(FIGURE_4B, "kirkpatrick(k=2)", 1.12)));
        // Katreniak under 2-NestA is a diagnostic.
        assert!(holds(&row(FIGURE_4B, "katreniak", 1.12)));
    }
}
