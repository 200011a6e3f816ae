//! T1 — the headline separation matrix.
//!
//! Rows: algorithms. Columns: scheduling models. Cells: did the run converge
//! and did it keep every initial visibility edge? The paper's claims to
//! reproduce:
//!
//! * the paper's algorithm (with matching `k`): cohesively converges in all
//!   bounded models;
//! * Ando: broken by the scripted 1-Async schedule (the 2-NestA script is
//!   `ando_separation`'s); the random schedulers here rarely realize it;
//! * Katreniak: sound through 1-Async, broken by the unbounded (spiral)
//!   adversary;
//! * every victim: broken by the §7 Async spiral adversary.
//!
//! Every cell — random schedulers, the scripted Figure 4 column, and the §7
//! spiral column — is a plain [`ScenarioSpec`]; the lab runtime executes the
//! 18-cell grid in parallel and merges rows in cell order, so the JSON is
//! identical to a serial run.

use crate::lab::{check_rows, Experiment, JsonRow, LabCell, Outcome, Profile};
use crate::mark;
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    scheduler: String,
    converged: bool,
    cohesive: bool,
}

/// The matrix's algorithm rows: `(row algorithm, §7 spiral victim)`. The
/// spiral victim for the paper's algorithm is the base `k = 1` variant:
/// under Async no finite `k` is "matched", and the adversary's leverage
/// scales with the victim's step length `ζ ~ V/8k` (larger `k` would need
/// smaller `ψ` and exponentially more robots to break — see the
/// impossibility experiment).
const ROWS: [(AlgorithmSpec, AlgorithmSpec); 3] = [
    (
        AlgorithmSpec::Kirkpatrick { k: 8 },
        AlgorithmSpec::Kirkpatrick { k: 1 },
    ),
    (
        AlgorithmSpec::Ando { v: 1.0 },
        AlgorithmSpec::Ando { v: 1.0 },
    ),
    (AlgorithmSpec::Katreniak, AlgorithmSpec::Katreniak),
];

const COLUMNS: usize = 6;

fn random_spec(
    alg: AlgorithmSpec,
    scheduler: SchedulerSpec,
    seed: u64,
    profile: Profile,
) -> ScenarioSpec {
    ScenarioSpec {
        seed,
        max_events: profile.pick(120_000, 900_000),
        ..ScenarioSpec::new(
            WorkloadSpec::RandomConnected {
                n: profile.pick(8, 14),
                v: 1.0,
                seed,
            },
            alg,
            scheduler,
        )
    }
}

/// The column label a cell serializes under — the matrix's header names.
fn column_label(scheduler: SchedulerSpec) -> String {
    match scheduler {
        SchedulerSpec::SSync { .. } => "SSync".into(),
        SchedulerSpec::NestA { k, .. } => format!("{k}-NestA"),
        SchedulerSpec::KAsync { k, .. } => format!("{k}-Async"),
        SchedulerSpec::Figure4a => "1-Async script".into(),
        SchedulerSpec::AdversaryNested { .. } => "Async spiral".into(),
        other => panic!("unexpected T1 column scheduler {other:?}"),
    }
}

fn verdict(outcome: &Outcome) -> (bool, bool) {
    match outcome {
        Outcome::Report(r) => (r.converged, r.cohesion_maintained),
        Outcome::Adversary(o) => (false, !o.separated),
        other => panic!("unexpected T1 outcome {other:?}"),
    }
}

fn row(spec: &ScenarioSpec, outcome: &Outcome) -> Row {
    let (converged, cohesive) = verdict(outcome);
    Row {
        algorithm: spec.algorithm.family().to_string(),
        scheduler: column_label(spec.scheduler),
        converged,
        cohesive,
    }
}

/// The T1 claim for one cell: the §7 spiral separates every victim, the
/// paper's algorithm keeps cohesion in every other column, and the
/// scripted 1-Async schedule separates Ando. The remaining baseline cells
/// are diagnostics.
fn holds(r: &Row) -> bool {
    match (r.algorithm.as_str(), r.scheduler.as_str()) {
        (_, "Async spiral") | ("ando", "1-Async script") => !r.cohesive,
        ("kirkpatrick", _) => r.cohesive,
        _ => true,
    }
}

pub struct SeparationMatrix;

impl Experiment for SeparationMatrix {
    fn name(&self) -> &'static str {
        "separation_matrix"
    }

    fn id(&self) -> &'static str {
        "T1"
    }

    fn title(&self) -> &'static str {
        "separation matrix: algorithm × scheduling model"
    }

    fn claim(&self) -> &'static str {
        "Theorems 3-4 + §3.1/§7: ours survives every bounded model; \
         Ando falls to the scripted 1-Async schedule; all three fall to the §7 spiral"
    }

    fn output_stem(&self) -> &'static str {
        "t1_separation_matrix"
    }

    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec> {
        let spiral_sweeps = profile.pick(5_000, 30_000);
        ROWS.iter()
            .flat_map(|&(alg, spiral_alg)| {
                [
                    random_spec(alg, SchedulerSpec::SSync { seed: 3 }, 51, profile),
                    random_spec(alg, SchedulerSpec::NestA { k: 2, seed: 5 }, 52, profile),
                    random_spec(alg, SchedulerSpec::KAsync { k: 2, seed: 7 }, 53, profile),
                    random_spec(alg, SchedulerSpec::KAsync { k: 8, seed: 9 }, 54, profile),
                    ScenarioSpec::figure4(alg, SchedulerSpec::Figure4a),
                    ScenarioSpec::new(
                        WorkloadSpec::SpiralTail { psi: 0.3 },
                        spiral_alg,
                        SchedulerSpec::AdversaryNested {
                            max_sweeps: spiral_sweeps,
                        },
                    ),
                ]
            })
            .collect()
    }

    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow> {
        vec![JsonRow::of(&row(spec, outcome))]
    }

    fn render(&self, cells: &[LabCell]) {
        let mut header = format!("{:<18}", "algorithm");
        for cell in cells.iter().take(COLUMNS) {
            let label = column_label(cell.spec.scheduler);
            let width = if label.len() > 10 { 16 } else { 14 };
            header.push_str(&format!(" {label:>width$}"));
        }
        println!("{header}");
        for row in cells.chunks(COLUMNS) {
            print!("{:<18}", row[0].spec.algorithm.family());
            for cell in row {
                let label = column_label(cell.spec.scheduler);
                let width = if label.len() > 10 { 16 } else { 14 };
                let (_, cohesive) = verdict(&cell.outcome);
                print!(" {:>width$}", mark(cohesive));
            }
            println!();
        }
        println!("\ncell = cohesion maintained? (\"NO\" marks a lost initial visibility edge)");
        println!(
            "kirkpatrick runs with k = 8 (covers every bounded column; scripted 1-Async uses k≥1)."
        );
        println!(
            "paper: Theorems 3–4 (bounded columns yes), §3.1/Fig. 4 (Ando loses the 1-Async script),"
        );
        println!("       §7 (everyone loses the Async spiral column).");
    }

    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        check_rows(
            cells,
            row,
            "the spiral must separate every victim, kirkpatrick must keep cohesion \
             elsewhere, and the 1-Async script must separate ando",
            holds,
            |r| {
                format!(
                    "{} under {}: cohesive {}",
                    r.algorithm, r.scheduler, r.cohesive
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn claim_covers_the_spiral_kirkpatrick_and_the_ando_script_only() {
        let row = |algorithm: &str, scheduler: &str, cohesive| super::Row {
            algorithm: algorithm.to_string(),
            scheduler: scheduler.to_string(),
            converged: cohesive,
            cohesive,
        };
        for algorithm in ["kirkpatrick", "ando", "katreniak"] {
            assert!(super::holds(&row(algorithm, "Async spiral", false)));
            assert!(!super::holds(&row(algorithm, "Async spiral", true)));
        }
        assert!(super::holds(&row("kirkpatrick", "2-NestA", true)));
        assert!(!super::holds(&row("kirkpatrick", "1-Async script", false)));
        assert!(super::holds(&row("ando", "1-Async script", false)));
        assert!(!super::holds(&row("ando", "1-Async script", true)));
        assert!(super::holds(&row("ando", "2-Async", false)));
        assert!(super::holds(&row("katreniak", "1-Async script", true)));
        assert!(super::holds(&row("katreniak", "1-Async script", false)));
    }
}
