//! F10–F14 — the Lemma 5 chain invariant under adversarial schedule search.
//!
//! The paper's 1-Async analysis walks the checkpoint chain of a hypothetical
//! *doomed engagement* of two robots and proves no such chain exists:
//! every edge must satisfy `|e_t| ≥ V·cosθ_t` with
//! `cosθ_t ≥ √((2+√3)/4) ≈ 0.9659`, and the chain's final edge would then
//! contradict initial visibility. Here we *search* for separating schedules:
//! randomized interleaved engagements of a robot pair running the paper's
//! algorithm (the rest of the swarm adversarially pinned), recording the
//! worst separation ever achieved and the chain statistics.
//!
//! One cell per overlap bound `k`; the engagement workloads and interleaved
//! scripts come from the spec types (`WorkloadSpec::EngagementPair`,
//! `cohesion_scheduler::interleaved_engagement`).

use crate::lab::{CellProgress, Declared, Outcome, Profile};
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_core::analysis::lemma5::{verify_chain, COS_THETA_MIN};
use cohesion_engine::Engine;
use cohesion_model::{FrameMode, RobotId};
use cohesion_scheduler::{interleaved_engagement, ScriptedScheduler};
use serde::Serialize;

#[derive(Serialize)]
pub struct SearchRow {
    k: u32,
    engagements: usize,
    worst_separation: f64,
    min_cos_turn_seen: f64,
    violations: usize,
}

/// One randomized interleaved engagement: X and Y alternate overlapping
/// activations (the Figure 10 pattern), each seeing the other mid-move.
/// Returns `(worst |XY| seen, min cosθ over the realized chain)`.
fn engagement(k: u32, seed: u64, algorithm: AlgorithmSpec) -> (f64, f64) {
    let config = cohesion_workloads::engagement_pair(1.0, seed);
    let script = interleaved_engagement(k, seed);
    let mut engine = Engine::new(
        &config,
        1.0,
        algorithm.build(),
        ScriptedScheduler::new("engagement", script),
        seed,
    );
    engine.set_frame_mode(FrameMode::RandomOrtho);
    let x0 = config.positions()[0];
    let y0 = config.positions()[1];
    let mut xs = vec![x0];
    let mut ys = vec![y0];
    let mut worst: f64 = x0.dist(y0);
    while let Some(ev) = engine.step() {
        let c = engine.configuration_at(ev.time);
        worst = worst.max(c.position(RobotId(0)).dist(c.position(RobotId(1))));
        if ev.kind == cohesion_engine::EngineEventKind::MoveEnd {
            match ev.robot {
                RobotId(0) => xs.push(c.position(RobotId(0))),
                RobotId(1) => ys.push(c.position(RobotId(1))),
                _ => {}
            }
        }
    }
    let m = xs.len().min(ys.len());
    let report = verify_chain(&xs[..m], &ys[..m], 1.0);
    (worst, report.min_cos_turn)
}

fn cell_k(spec: &ScenarioSpec) -> u32 {
    let SchedulerSpec::KAsync { k, .. } = spec.scheduler else {
        unreachable!("every chain-invariant cell is a k-Async search")
    };
    k
}

pub struct ChainInvariant;

impl Declared for ChainInvariant {
    type Row = SearchRow;

    fn name(&self) -> &'static str {
        "chain_invariant"
    }

    fn id(&self) -> &'static str {
        "F10-F14"
    }

    fn title(&self) -> &'static str {
        "chain-invariant search: can interleaved k-Async schedules separate a pair?"
    }

    fn claim(&self) -> &'static str {
        "Theorem 4 / Lemma 5: no interleaved k-Async engagement separates a \
         visible pair — worst |XY| stays ≤ V across randomized searches"
    }

    fn output_stem(&self) -> &'static str {
        "f10_chain_invariant"
    }

    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec> {
        [1u32, 2, 4]
            .into_iter()
            .map(|k| ScenarioSpec {
                trials: profile.pick(60, 400),
                ..ScenarioSpec::tagged(
                    "engagement_search",
                    WorkloadSpec::EngagementPair { v: 1.0, seed: 0 },
                    AlgorithmSpec::Kirkpatrick { k },
                    SchedulerSpec::KAsync {
                        k,
                        seed: 1_000 * u64::from(k),
                    },
                )
            })
            .collect()
    }

    fn engine_driven(&self) -> bool {
        false // bespoke analytic driver below
    }

    fn run(&self, spec: &ScenarioSpec, _progress: &CellProgress<'_>) -> Outcome {
        let k = cell_k(spec);
        let mut worst: f64 = 0.0;
        let mut min_cos: f64 = 1.0;
        let mut violations = 0usize;
        for i in 0..spec.trials {
            let (sep, cos) = engagement(k, 1_000 * u64::from(k) + i as u64, spec.algorithm);
            worst = worst.max(sep);
            min_cos = min_cos.min(cos);
            if sep > 1.0 + 1e-9 {
                violations += 1;
            }
        }
        Outcome::Stats(vec![worst, min_cos, violations as f64])
    }

    fn row(&self, spec: &ScenarioSpec, outcome: &Outcome) -> SearchRow {
        let s = outcome.stats();
        SearchRow {
            k: cell_k(spec),
            engagements: spec.trials,
            worst_separation: s[0],
            min_cos_turn_seen: s[1],
            violations: s[2] as usize,
        }
    }

    fn holds(&self, r: &SearchRow, _rows: &[SearchRow]) -> bool {
        r.violations == 0
    }

    fn table(&self, r: &SearchRow) -> Vec<(&'static str, String)> {
        vec![
            ("k", r.k.to_string()),
            ("engagements", r.engagements.to_string()),
            ("worst |XY| seen", format!("{:.6}", r.worst_separation)),
            ("min cosθ (chains)", format!("{:.6}", r.min_cos_turn_seen)),
            ("separations", r.violations.to_string()),
        ]
    }

    fn notes(&self) -> String {
        format!(
            "Lemma 5 constant: cos θ ≥ √((2+√3)/4) = {COS_THETA_MIN:.6} (= cos 15°)\n\n\
             paper: Theorem 4 — no legal k-Async schedule separates the pair; worst |XY| stays ≤ V = 1.\n\
             (The min-cosθ column describes realized checkpoint chains; Lemma 5's bound constrains\n\
             only *separating* chains, whose nonexistence is exactly the 0 in the last column.)"
        )
    }
}
