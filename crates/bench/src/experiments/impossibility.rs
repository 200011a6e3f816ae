//! F19–F22 — the §7 Async impossibility construction.
//!
//! For each victim algorithm and several turn angles `ψ`, build the spiral
//! (Figure 19), run the sliver-flattening nested adversary (Figures 20–22),
//! and report the outcome: separation achieved, the stale-move length `ζ`,
//! the nesting bound `k` the schedule consumed, and the radial drift of the
//! tail (the paper's construction bounds its drift by `4ψ²`).
//!
//! Each `(ψ, victim)` cell is a [`ScenarioSpec`] whose workload is the
//! spiral tail and whose scheduler is the unbounded-nesting adversary.

use crate::lab::{check_rows, Experiment, JsonRow, LabCell, Outcome, Profile};
use crate::mark;
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_adversary::SpiralConstruction;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    psi: f64,
    robots: usize,
    zeta: f64,
    separated: bool,
    final_ab: f64,
    nesting_k: usize,
    sweeps: usize,
    max_radial_drift: f64,
    drift_bound_4psi2: f64,
}

const VICTIMS: [AlgorithmSpec; 3] = [
    AlgorithmSpec::Ando { v: 1.0 },
    AlgorithmSpec::Katreniak,
    AlgorithmSpec::Kirkpatrick { k: 1 },
];

fn cell_psi(spec: &ScenarioSpec) -> f64 {
    let WorkloadSpec::SpiralTail { psi } = spec.workload else {
        unreachable!("every impossibility cell is a spiral tail")
    };
    psi
}

fn row(spec: &ScenarioSpec, outcome: &Outcome) -> Row {
    let o = outcome.adversary();
    let psi = cell_psi(spec);
    Row {
        algorithm: o.algorithm.clone(),
        psi,
        robots: o.robots,
        zeta: o.zeta,
        separated: o.separated,
        final_ab: o.final_ab_distance,
        nesting_k: o.nesting_k,
        sweeps: o.sweeps,
        max_radial_drift: o.max_radial_drift,
        drift_bound_4psi2: 4.0 * psi * psi,
    }
}

pub struct Impossibility;

impl Experiment for Impossibility {
    fn name(&self) -> &'static str {
        "impossibility"
    }

    fn id(&self) -> &'static str {
        "F19-F22"
    }

    fn title(&self) -> &'static str {
        "the Async spiral adversary vs three victims"
    }

    fn claim(&self) -> &'static str {
        "§7: unbounded nesting separates every error-tolerant victim; \
         larger ζ needs shallower nesting"
    }

    fn output_stem(&self) -> &'static str {
        "f19_impossibility"
    }

    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec> {
        let psis: &[f64] = profile.pick(&[0.35][..], &[0.35, 0.3, 0.25][..]);
        psis.iter()
            .flat_map(|&psi| {
                VICTIMS.into_iter().map(move |victim| {
                    ScenarioSpec::new(
                        WorkloadSpec::SpiralTail { psi },
                        victim,
                        SchedulerSpec::AdversaryNested { max_sweeps: 60_000 },
                    )
                })
            })
            .collect()
    }

    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow> {
        vec![JsonRow::of(&row(spec, outcome))]
    }

    fn render(&self, cells: &[LabCell]) {
        println!(
            "{:<22} {:>5} {:>6} {:>8} {:>10} {:>9} {:>9} {:>8} {:>9} {:>9}",
            "victim", "ψ", "n", "ζ", "separated", "|AB| end", "nest k", "sweeps", "drift", "4ψ²"
        );
        for group in cells.chunks(VICTIMS.len()) {
            for cell in group {
                let r = row(&cell.spec, &cell.outcome);
                println!(
                    "{:<22} {:>5.2} {:>6} {:>8.4} {:>10} {:>9.4} {:>9} {:>8} {:>9.4} {:>9.4}",
                    r.algorithm,
                    r.psi,
                    r.robots,
                    r.zeta,
                    mark(r.separated),
                    r.final_ab,
                    r.nesting_k,
                    r.sweeps,
                    r.max_radial_drift,
                    r.drift_bound_4psi2
                );
            }
            println!();
        }
        println!("spiral sizes follow n ≈ 3 + e^{{3π/(8 sin ψ)}}:");
        for &psi in &[0.35, 0.3, 0.25, 0.2] {
            let built = SpiralConstruction::paper(psi).robot_count();
            println!(
                "  ψ = {psi:?}: built n = {built} (estimate {:.0})",
                SpiralConstruction::paper_size_estimate(psi)
            );
        }
        println!("\npaper (§7): every error-tolerant algorithm is separated by unbounded nesting.");
        println!("Shape reproduced: larger ζ ⇒ shallower nesting suffices (Ando breaks in a few");
        println!("sweeps, matching its 2-NestA failure); smaller ζ ⇒ the adversary needs deeper");
        println!("nesting and smaller ψ — the paper's 'ψ sufficiently small relative to ζ'.");
    }

    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        check_rows(
            cells,
            row,
            "unbounded nesting must separate every victim",
            |r| r.separated,
            |r| format!("{} at ψ {:?}", r.algorithm, r.psi),
        )
    }
}
