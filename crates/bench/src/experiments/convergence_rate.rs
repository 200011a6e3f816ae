//! T2 — convergence rates: rounds to halve the diameter vs swarm size.
//!
//! Reproduces the shape of the rate landscape the paper surveys (§1.2.2).
//! Under FSync with unlimited visibility every robot jumps to the same
//! global target, so CoG and GCM halve the diameter in one round at every
//! `n` (at n = 48 they converge before the first round closes and read
//! `-`); CoG's `O(n²)` worst case (with an `Ω(n)` lower bound) needs
//! adversarial SSync subsets, which this grid does not realize. The
//! limited-visibility cohesive algorithms' halving time grows with `n`, the
//! hop-diameter of the line workload's visibility graph.
//!
//! [`Experiment::check`] holds both: `cog` and `gcm` halve in 1 round
//! wherever measured, and every other algorithm's `rounds_to_halve` is
//! measured and grows strictly with `n`.
//!
//! Every `(algorithm, n)` cell is an independent [`ScenarioSpec`]; the lab
//! runtime executes them in parallel and merges rows in spec order.

use crate::lab::{check_rows, Experiment, JsonRow, LabCell, Outcome, Profile};
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_model::FrameMode;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    n: usize,
    rounds_to_halve: Option<usize>,
    rounds_to_eps: Option<usize>,
    converged: bool,
}

const BIG_V: f64 = 1e6; // "unlimited" visibility for the global baselines

/// Algorithms per `n` group (sets the blank-line cadence of the table).
const PER_N: usize = 5;

fn spec(
    algorithm: AlgorithmSpec,
    n: usize,
    visibility: f64,
    frame: FrameMode,
    profile: Profile,
) -> ScenarioSpec {
    // The line at near-threshold spacing is the classic worst case: hop
    // diameter = n − 1.
    ScenarioSpec {
        visibility,
        frame_mode: frame,
        max_events: profile.pick(400_000, 3_000_000),
        diameter_sample_every: 64,
        ..ScenarioSpec::new(
            WorkloadSpec::Line { n, spacing: 0.9 },
            algorithm,
            SchedulerSpec::FSync,
        )
    }
}

fn row(spec: &ScenarioSpec, outcome: &Outcome) -> Row {
    let report = outcome.report();
    let WorkloadSpec::Line { n, .. } = spec.workload else {
        unreachable!("every T2 workload is a line")
    };
    Row {
        algorithm: report.algorithm.clone(),
        n,
        rounds_to_halve: report.rounds_to_halve_diameter(),
        rounds_to_eps: report.rounds_to_reach(0.05),
        converged: report.converged,
    }
}

/// The T2 claim for one row, given the same algorithm's row at the next
/// smaller `n`: `cog` and `gcm` halve in one round wherever a halving was
/// measured; every other algorithm halves, in more rounds than at the
/// smaller `n` (a smaller row that did not halve fails on its own).
fn holds(r: &Row, smaller: Option<&Row>) -> bool {
    let before = smaller.and_then(|s| s.rounds_to_halve);
    match (r.algorithm.as_str(), r.rounds_to_halve, before) {
        ("cog" | "gcm", halve, _) => halve.map_or(true, |h| h == 1),
        (_, Some(h), Some(before)) => h > before,
        (_, halve, _) => halve.is_some(),
    }
}

pub struct ConvergenceRate;

impl Experiment for ConvergenceRate {
    fn name(&self) -> &'static str {
        "convergence_rate"
    }

    fn id(&self) -> &'static str {
        "T2"
    }

    fn title(&self) -> &'static str {
        "rounds to halve the diameter vs n (FSync, line workload)"
    }

    fn claim(&self) -> &'static str {
        "§1.2.2 rate survey: global baselines collapse in O(1) FSync rounds; \
         limited-visibility algorithms grow with the hop diameter"
    }

    fn output_stem(&self) -> &'static str {
        "t2_convergence_rate"
    }

    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec> {
        let ns: &[usize] = profile.pick(&[8, 16], &[8, 16, 32, 48]);
        ns.iter()
            .flat_map(|&n| {
                [
                    spec(
                        AlgorithmSpec::Kirkpatrick { k: 1 },
                        n,
                        1.0,
                        FrameMode::RandomOrtho,
                        profile,
                    ),
                    spec(
                        AlgorithmSpec::Ando { v: 1.0 },
                        n,
                        1.0,
                        FrameMode::RandomOrtho,
                        profile,
                    ),
                    spec(
                        AlgorithmSpec::Katreniak,
                        n,
                        1.0,
                        FrameMode::RandomOrtho,
                        profile,
                    ),
                    spec(
                        AlgorithmSpec::Cog,
                        n,
                        BIG_V,
                        FrameMode::RandomOrtho,
                        profile,
                    ),
                    spec(AlgorithmSpec::Gcm, n, BIG_V, FrameMode::Aligned, profile),
                ]
            })
            .collect()
    }

    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow> {
        vec![JsonRow::of(&row(spec, outcome))]
    }

    fn render(&self, cells: &[LabCell]) {
        println!(
            "{:<22} {:>4} {:>14} {:>12} {:>10}",
            "algorithm", "n", "halve rounds", "eps rounds", "converged"
        );
        for (i, cell) in cells.iter().enumerate() {
            let r = row(&cell.spec, &cell.outcome);
            println!(
                "{:<22} {:>4} {:>14} {:>12} {:>10}",
                r.algorithm,
                r.n,
                r.rounds_to_halve.map_or("-".into(), |x| x.to_string()),
                r.rounds_to_eps.map_or("-".into(), |x| x.to_string()),
                r.converged
            );
            if (i + 1) % PER_N == 0 {
                println!();
            }
        }
        println!("shape to check against the paper's survey (§1.2.2):");
        println!("  * under FSync with unlimited visibility, cog and gcm collapse in O(1) rounds");
        println!("    (every robot jumps to the same global target; cog's O(n²) worst case needs");
        println!("    adversarial SSync subsets, which random rounds do not realize);");
        println!("  * limited-visibility algorithms grow with the hop diameter (≈ n on a line);");
        println!("  * ours is slower than Ando's by roughly the 1/8-vs-1/2 step-size ratio;");
        println!("  * '-' cells: the run converged before the measurement round completed.");
    }

    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        let rows: Vec<Row> = cells.iter().map(|c| row(&c.spec, &c.outcome)).collect();
        let smaller = |r: &Row| {
            rows.iter()
                .filter(|s| s.algorithm == r.algorithm && s.n < r.n)
                .max_by_key(|s| s.n)
        };
        check_rows(
            cells,
            row,
            "cog and gcm must halve in 1 round, and every other algorithm's rounds to \
             halve must grow with n",
            |r| holds(r, smaller(r)),
            |r| {
                let show = |c: Option<usize>| c.map_or("-".into(), |x: usize| x.to_string());
                let before = show(smaller(r).and_then(|s| s.rounds_to_halve));
                let halve = show(r.rounds_to_halve);
                format!(
                    "{} at n = {}: {halve} rounds to halve, {before} at the previous n",
                    r.algorithm, r.n
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::{holds, Row};

    #[test]
    fn claim_pins_one_round_globals_and_growing_local_rates() {
        let row = |algorithm: &str, n, rounds_to_halve| Row {
            algorithm: algorithm.to_string(),
            n,
            rounds_to_halve,
            rounds_to_eps: None,
            converged: true,
        };
        let (one, two) = (row("gcm", 8, Some(1)), row("cog", 16, Some(2)));
        assert!(holds(&one, None) && holds(&row("gcm", 48, None), Some(&one)));
        assert!(!holds(&two, None));
        let small = row("ando(V=1)", 8, Some(9));
        assert!(holds(&small, None) && holds(&row("ando(V=1)", 16, Some(25)), Some(&small)));
        assert!(!holds(&row("ando(V=1)", 16, Some(9)), Some(&small)));
        assert!(!holds(&row("katreniak", 8, None), None));
    }
}
