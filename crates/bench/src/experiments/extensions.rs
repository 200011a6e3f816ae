//! T5 — the §6.2/§6.3 extensions: unlimited visibility under full Async,
//! disconnected starts, and the 3D generalization.
//!
//! Three declarative cells: the disconnected start is a
//! [`WorkloadSpec::TwoClusters`] workload, the 3D ball a
//! [`WorkloadSpec::Ball3`] one (dispatched to the `Vec3` engine).

use crate::lab::{Experiment, JsonRow, LabCell, Outcome, Profile};
use crate::mark;
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_geometry::diameter::diameter;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    experiment: String,
    converged: bool,
    cohesive: bool,
    final_diameter: f64,
    events: usize,
}

const TAG_UNLIMITED: &str = "unlimited_v_async";
const TAG_DISCONNECTED: &str = "disconnected_start";
const TAG_3D: &str = "three_dimensional";

fn table_label(tag: &str) -> &'static str {
    match tag {
        TAG_UNLIMITED => "unlimited V, full Async",
        TAG_DISCONNECTED => "disconnected start (per-component)",
        TAG_3D => "3D ball, 2-Async (cone rule)",
        other => panic!("unknown extension cell '{other}'"),
    }
}

fn row(spec: &ScenarioSpec, outcome: &Outcome) -> Row {
    match (spec.tag, outcome) {
        (TAG_DISCONNECTED, Outcome::Report(report)) => {
            // Convergence is per connected component: each cluster must
            // collapse below ε on its own.
            let WorkloadSpec::TwoClusters { per_cluster, .. } = spec.workload else {
                unreachable!("the disconnected cell is a TwoClusters workload")
            };
            let pos = report.final_configuration.positions();
            let comp = |r: std::ops::Range<usize>| diameter(&pos[r]);
            let (a, b) = (comp(0..per_cluster), comp(per_cluster..2 * per_cluster));
            Row {
                experiment: spec.tag.to_string(),
                converged: a < 0.05 && b < 0.05,
                cohesive: report.cohesion_maintained,
                final_diameter: a.max(b),
                events: report.events,
            }
        }
        (_, Outcome::Report(report)) => Row {
            experiment: spec.tag.to_string(),
            converged: report.converged,
            cohesive: report.cohesion_maintained,
            final_diameter: report.final_diameter,
            events: report.events,
        },
        (_, Outcome::Report3(report)) => Row {
            experiment: spec.tag.to_string(),
            converged: report.converged,
            cohesive: report.cohesion_maintained,
            final_diameter: report.final_diameter,
            events: report.events,
        },
        (tag, other) => panic!("unexpected outcome for extension cell '{tag}': {other:?}"),
    }
}

pub struct Extensions;

impl Experiment for Extensions {
    fn name(&self) -> &'static str {
        "extensions"
    }

    fn id(&self) -> &'static str {
        "T5"
    }

    fn title(&self) -> &'static str {
        "extensions: unlimited-V Async, disconnected start, 3D"
    }

    fn claim(&self) -> &'static str {
        "§6.2-§6.3: unlimited visibility under full Async, per-component \
         convergence from disconnected starts, and the 3D cone rule all hold"
    }

    fn output_stem(&self) -> &'static str {
        "t5_extensions"
    }

    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec> {
        // Unlimited visibility + full Async (§6.2): V = 2× the initial
        // diameter (computed from the deterministic workload).
        let unlimited_workload = WorkloadSpec::RandomConnected {
            n: 14,
            v: 1.0,
            seed: 71,
        };
        let unlimited = ScenarioSpec {
            visibility: 2.0 * unlimited_workload.build().diameter(),
            max_events: profile.pick(300_000, 1_200_000),
            hull_check_every: 64,
            ..ScenarioSpec::tagged(
                TAG_UNLIMITED,
                unlimited_workload,
                AlgorithmSpec::Kirkpatrick { k: 1 },
                SchedulerSpec::Async { seed: 9 },
            )
        };
        // Disconnected start (§6.3.1): two far-apart clusters converge
        // per-component.
        let disconnected = ScenarioSpec {
            max_events: profile.pick(300_000, 900_000),
            hull_check_every: 64,
            ..ScenarioSpec::tagged(
                TAG_DISCONNECTED,
                WorkloadSpec::TwoClusters {
                    per_cluster: 6,
                    v: 1.0,
                    gap: 40.0,
                    seed_a: 72,
                    seed_b: 73,
                },
                AlgorithmSpec::Kirkpatrick { k: 1 },
                SchedulerSpec::SSync { seed: 21 },
            )
        };
        // 3D (§6.3.2).
        let ball = ScenarioSpec {
            epsilon: 0.06,
            max_events: profile.pick(400_000, 1_500_000),
            track_strong_visibility: true,
            hull_check_every: 64,
            ..ScenarioSpec::tagged(
                TAG_3D,
                WorkloadSpec::Ball3 {
                    n: 16,
                    v: 1.0,
                    seed: 74,
                },
                AlgorithmSpec::Kirkpatrick { k: 2 },
                SchedulerSpec::KAsync { k: 2, seed: 75 },
            )
        };
        vec![unlimited, disconnected, ball]
    }

    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow> {
        vec![JsonRow::of(&row(spec, outcome))]
    }

    fn render(&self, cells: &[LabCell]) {
        println!(
            "{:<38} {:>10} {:>9} {:>12} {:>9}",
            "experiment", "converged", "cohesive", "final diam", "events"
        );
        for cell in cells {
            let r = row(&cell.spec, &cell.outcome);
            println!(
                "{:<38} {:>10} {:>9} {:>12.4} {:>9}",
                table_label(cell.spec.tag),
                mark(r.converged),
                mark(r.cohesive),
                r.final_diameter,
                r.events
            );
        }
        println!("\npaper (§6.2-§6.3): all three rows converge cohesively.");
    }
}
