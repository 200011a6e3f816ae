//! T3 + F18 — error-tolerance sweeps (§6.1).
//!
//! Sweeps the four error knobs independently under 2-Async scheduling and
//! records the Cohesive Convergence success rate over seeds. The paper's
//! claims: the algorithm (with matched tolerance parameters) survives
//! bounded relative distance error `δ`, bounded skew `λ`, any rigidity
//! `ξ ∈ (0,1]`, and quadratic motion error. *Linear* motion error is fatal
//! only in the worst case: Figure 18 is a geometric construction
//! (demonstrated in tests/error_tolerance.rs), and random linear noise may
//! survive, so the linear rows are diagnostic.
//!
//! One cell per `(knob, value)`; the knob values live in the spec's
//! perception/motion models and tolerance-parameterized algorithm, and the
//! cell driver re-runs the spec across its seed batch.

use crate::lab::{check_rows, CellProgress, Experiment, JsonRow, LabCell, Outcome, Profile};
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_model::{MotionError, MotionModel, PerceptionModel};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    knob: String,
    value: f64,
    runs: usize,
    cohesive_converged: usize,
    cohesion_failures: usize,
}

const KNOB_DELTA: &str = "distance error δ";
const KNOB_SKEW: &str = "angular skew λ";
const KNOB_RIGIDITY: &str = "rigidity ξ";
const KNOB_QUADRATIC: &str = "quadratic motion error c";
const KNOB_LINEAR: &str = "LINEAR motion error c";

fn cell(
    tag: &'static str,
    perception: PerceptionModel,
    motion: MotionModel,
    delta: f64,
    skew: f64,
    profile: Profile,
) -> ScenarioSpec {
    ScenarioSpec {
        epsilon: 0.08,
        max_events: 500_000,
        seed: 300,
        perception,
        motion,
        trials: profile.pick(3, 8),
        ..ScenarioSpec::tagged(
            tag,
            WorkloadSpec::RandomConnected {
                n: 10,
                v: 1.0,
                seed: 100,
            },
            AlgorithmSpec::KirkpatrickTolerant { k: 2, delta, skew },
            SchedulerSpec::KAsync { k: 2, seed: 200 },
        )
    }
}

/// The knob value a cell sweeps, recovered from its spec.
fn knob_value(spec: &ScenarioSpec) -> f64 {
    match spec.tag {
        KNOB_DELTA => spec.perception.distance_error,
        KNOB_SKEW => spec.perception.skew,
        KNOB_RIGIDITY => spec.motion.rigidity,
        KNOB_QUADRATIC | KNOB_LINEAR => match spec.motion.error {
            MotionError::Quadratic { coefficient } | MotionError::Linear { coefficient } => {
                coefficient
            }
            MotionError::None => 0.0,
        },
        other => panic!("unknown error-tolerance knob '{other}'"),
    }
}

/// The spec for one seed of a cell's batch: workload, scheduler, and engine
/// seeds all shift together from the cell's own base seeds, exactly the old
/// binary's seeding.
fn seeded(spec: &ScenarioSpec, s: u64) -> ScenarioSpec {
    let WorkloadSpec::RandomConnected { n, v, seed } = spec.workload else {
        unreachable!("every error-tolerance cell sweeps a random cloud")
    };
    let SchedulerSpec::KAsync { k, seed: sched } = spec.scheduler else {
        unreachable!("every error-tolerance cell runs under k-Async")
    };
    ScenarioSpec {
        workload: WorkloadSpec::RandomConnected {
            n,
            v,
            seed: seed + s,
        },
        scheduler: SchedulerSpec::KAsync { k, seed: sched + s },
        seed: spec.seed + s,
        ..spec.clone()
    }
}

/// The T3 claim for one row: every run of a tolerated knob converges
/// cohesively. The linear-motion-error rows are diagnostic (Figure 18's
/// break is a geometric worst case), so the claim skips them by name.
fn holds(r: &Row) -> bool {
    r.knob == KNOB_LINEAR || r.cohesive_converged == r.runs
}

fn row(spec: &ScenarioSpec, outcome: &Outcome) -> Row {
    let s = outcome.stats();
    Row {
        knob: spec.tag.to_string(),
        value: knob_value(spec),
        runs: spec.trials,
        cohesive_converged: s[0] as usize,
        cohesion_failures: s[1] as usize,
    }
}

pub struct ErrorTolerance;

impl Experiment for ErrorTolerance {
    fn name(&self) -> &'static str {
        "error_tolerance"
    }

    fn id(&self) -> &'static str {
        "T3+F18"
    }

    fn title(&self) -> &'static str {
        "error-tolerance sweeps under 2-Async"
    }

    fn claim(&self) -> &'static str {
        "§6.1: matched tolerance absorbs δ/λ/ξ/quadratic error; Figure 18's \
         linear-motion-error break is a geometric worst case, random linear \
         noise may survive (diagnostic row)"
    }

    fn output_stem(&self) -> &'static str {
        "t3_error_tolerance"
    }

    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec> {
        let mut cells = Vec::new();
        for &delta in &[0.0, 0.02, 0.05, 0.1] {
            cells.push(cell(
                KNOB_DELTA,
                PerceptionModel::new(delta, 0.0),
                MotionModel::RIGID,
                delta,
                0.0,
                profile,
            ));
        }
        for &skew in &[0.0, 0.05, 0.1, 0.2] {
            cells.push(cell(
                KNOB_SKEW,
                PerceptionModel::new(0.0, skew),
                MotionModel::RIGID,
                0.0,
                skew,
                profile,
            ));
        }
        for &xi in &[1.0, 0.5, 0.25, 0.1] {
            cells.push(cell(
                KNOB_RIGIDITY,
                PerceptionModel::EXACT,
                MotionModel::with_rigidity(xi),
                0.0,
                0.0,
                profile,
            ));
        }
        for &c in &[0.0, 0.2, 0.5] {
            cells.push(cell(
                KNOB_QUADRATIC,
                PerceptionModel::EXACT,
                MotionModel::new(1.0, MotionError::Quadratic { coefficient: c }),
                0.0,
                0.0,
                profile,
            ));
        }
        // Linear motion error: fatal in the worst case (Figure 18's geometric
        // construction); random noise may survive, so these rows are
        // diagnostic.
        for &c in &[0.2, 0.5] {
            cells.push(cell(
                KNOB_LINEAR,
                PerceptionModel::EXACT,
                MotionModel::new(1.0, MotionError::Linear { coefficient: c }),
                0.0,
                0.0,
                profile,
            ));
        }
        cells
    }

    fn engine_driven(&self) -> bool {
        false // bespoke multi-trial driver below
    }

    fn run(&self, spec: &ScenarioSpec, _progress: &CellProgress<'_>) -> Outcome {
        let mut ok = 0usize;
        let mut broken = 0usize;
        for s in 0..spec.trials as u64 {
            let report = seeded(spec, s).run();
            if report.cohesively_converged() {
                ok += 1;
            }
            if !report.cohesion_maintained {
                broken += 1;
            }
        }
        Outcome::Stats(vec![ok as f64, broken as f64])
    }

    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow> {
        vec![JsonRow::of(&row(spec, outcome))]
    }

    fn render(&self, cells: &[LabCell]) {
        println!(
            "{:<28} {:>8} {:>10} {:>12} {:>12}",
            "knob", "value", "runs", "cohesive+ε", "edge breaks"
        );
        let mut runs = 0;
        for cell in cells {
            let r = row(&cell.spec, &cell.outcome);
            println!(
                "{:<28} {:>8.3} {:>10} {:>12} {:>12}",
                r.knob, r.value, r.runs, r.cohesive_converged, r.cohesion_failures
            );
            runs = r.runs;
        }
        println!(
            "\npaper (§6.1): all tolerated knobs keep 'cohesive+ε' at {runs}/{runs}; linear motion"
        );
        println!("error breaks only in Figure 18's geometric worst case — random linear noise");
        println!("may still let runs through, so its row is diagnostic, not a guarantee; the");
        println!("worst-case geometric break is asserted in tests/error_tolerance.rs.");
    }

    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        check_rows(
            cells,
            row,
            "every run of a tolerated knob must converge cohesively",
            holds,
            |r| {
                format!(
                    "{} = {:?}: cohesive+ε {}/{}",
                    r.knob, r.value, r.cohesive_converged, r.runs
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::{holds, Row, KNOB_LINEAR, KNOB_SKEW};

    fn row(knob: &str, cohesive_converged: usize) -> Row {
        Row {
            knob: knob.to_string(),
            value: 0.2,
            runs: 8,
            cohesive_converged,
            cohesion_failures: 8 - cohesive_converged,
        }
    }

    #[test]
    fn claim_skips_the_linear_rows_only() {
        assert!(holds(&row(KNOB_SKEW, 8)));
        assert!(!holds(&row(KNOB_SKEW, 7)));
        assert!(!holds(&row(KNOB_SKEW, 0)));
        assert!(holds(&row(KNOB_LINEAR, 0)));
        assert!(holds(&row(KNOB_LINEAR, 8)));
    }
}
