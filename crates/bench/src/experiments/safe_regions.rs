//! F3 + F15 — safe-region geometry across the three algorithms, and the
//! paper's target-destination rule.
//!
//! Figure 3 compares, for an observer `Y` seeing a neighbour `X` at distance
//! `d` (with `V_Y = V = 1`): Ando's disk (radius `V/2` at the midpoint),
//! Katreniak's two-disk union, and the paper's direction-only disk
//! (radius `V_Y/8` at distance `V_Y/8` toward `X`). We tabulate region area
//! and the maximal admissible step toward the neighbour, and check the
//! paper's observations: its region depends only on direction, is the
//! smallest, and admits steps up to its diameter `V/4`.
//!
//! Figure 15's target rule — the step is `r·cosγ` along the bisector, with
//! `r = V/8`, and nil when surrounded — is pinned by `cohesion-core`'s
//! algorithm tests; the notes print its steps on the `Wedge`/`Star`
//! workloads.
//!
//! All cells are analytic — pure geometry, no engine runs. The region cells
//! are literally two-robot `Line` workloads at distance `d`.

use crate::lab::{CellProgress, Declared, Outcome, Profile};
use crate::sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use cohesion_algorithms::{AndoAlgorithm, KatreniakAlgorithm};
use cohesion_core::SafeRegion;
use cohesion_geometry::{Circle, Vec2};
use cohesion_model::{Algorithm, Snapshot};
use serde::Serialize;
use std::f64::consts::PI;
use std::fmt::Write;

#[derive(Serialize)]
pub struct Row {
    distance: f64,
    ando_area: f64,
    katreniak_area: f64,
    ours_area: f64,
    ando_step: f64,
    katreniak_step: f64,
    ours_step: f64,
}

const V: f64 = 1.0;

/// The Figure 3 comparison at neighbour distance `d` — pure geometry.
fn region_row(d: f64) -> Row {
    let ando = AndoAlgorithm::new(V);
    let kat = KatreniakAlgorithm::new();
    let x = Vec2::new(d, 0.0);
    // Areas.
    let ando_area = Circle::new(x * 0.5, V / 2.0).area();
    let (near, own) = kat.safe_disks(x, V);
    // The union area (the disks overlap near the origin).
    let kat_area = near.area() + own.area() - near.lens_area(&own);
    let ours = SafeRegion::new(Vec2::ZERO, x, V / 8.0).expect("direction");
    let ours_area = ours.ball().radius * ours.ball().radius * PI;
    // Maximal admissible step straight toward the neighbour.
    let u = Vec2::new(1.0, 0.0);
    let ando_step = ando.limit_toward(u, x).unwrap_or(0.0).min(d);
    let kat_step = kat.limit_toward(u, x, V);
    // The disk's far point along the neighbour direction.
    let ours_step = ours.center().dot(ours.direction) + ours.radius;
    Row {
        distance: d,
        ando_area,
        katreniak_area: kat_area,
        ours_area,
        ando_step,
        katreniak_step: kat_step,
        ours_step,
    }
}

/// The Figure 15 target-rule step for a workload: the computed step
/// length for the observer (robot 0) running the paper's algorithm.
fn target_step(workload: WorkloadSpec) -> f64 {
    let config = workload.build();
    let origin = config.positions()[0];
    let neighbours: Vec<Vec2> = config.positions()[1..]
        .iter()
        .map(|&p| p - origin)
        .collect();
    let alg = AlgorithmSpec::Kirkpatrick { k: 1 }.build();
    alg.compute(&Snapshot::from_positions(neighbours)).norm()
}

pub struct SafeRegions;

impl Declared for SafeRegions {
    type Row = Row;

    fn name(&self) -> &'static str {
        "safe_regions"
    }

    fn id(&self) -> &'static str {
        "F3+F15"
    }

    fn title(&self) -> &'static str {
        "safe regions: Ando vs Katreniak vs the paper's rule"
    }

    fn claim(&self) -> &'static str {
        "§3.2.1: the paper's region is direction-only and the smallest, and \
         admits steps up to its diameter V/4"
    }

    fn output_stem(&self) -> &'static str {
        "f3_safe_regions"
    }

    fn grid(&self, _profile: Profile) -> Vec<ScenarioSpec> {
        // Instant geometry — the quick grid is the full grid.
        [0.3, 0.5, 0.7, 0.9, 1.0]
            .into_iter()
            .map(|d| {
                ScenarioSpec::tagged(
                    "region",
                    WorkloadSpec::Line { n: 2, spacing: d },
                    AlgorithmSpec::Nil,
                    SchedulerSpec::FSync,
                )
            })
            .collect()
    }

    fn engine_driven(&self) -> bool {
        false // the cell is analytic (geometry computed in row)
    }

    fn run(&self, _spec: &ScenarioSpec, _progress: &CellProgress<'_>) -> Outcome {
        Outcome::Analytic
    }

    fn row(&self, spec: &ScenarioSpec, _outcome: &Outcome) -> Row {
        let WorkloadSpec::Line { spacing: d, .. } = spec.workload else {
            unreachable!("region cells are two-robot lines")
        };
        region_row(d)
    }

    /// Ours is strictly the smallest region, its area does not depend on
    /// the distance (it equals the first row's), and its step is its
    /// diameter V/4 at every distance.
    fn holds(&self, r: &Row, rows: &[Row]) -> bool {
        r.ours_area < r.ando_area
            && r.ours_area < r.katreniak_area
            && r.ours_area == rows[0].ours_area
            && r.ours_step == V / 4.0
    }

    fn table(&self, r: &Row) -> Vec<(&'static str, String)> {
        vec![
            ("d", format!("{:.2}", r.distance)),
            ("area:ando", format!("{:.4}", r.ando_area)),
            ("area:katreniak", format!("{:.4}", r.katreniak_area)),
            ("area:ours", format!("{:.4}", r.ours_area)),
            ("step:ando", format!("{:.4}", r.ando_step)),
            ("step:katreniak", format!("{:.4}", r.katreniak_step)),
            ("step:ours", format!("{:.4}", r.ours_step)),
        ]
    }

    fn notes(&self) -> String {
        let mut out = String::from(
            "observations reproduced:\n  \
             * ours is independent of d (direction-only, §3.2.1) and by far the smallest;\n  \
             * Ando's region (V/2-disk at the midpoint) allows the longest steps;\n  \
             * Katreniak's union shrinks as d → V (own-disk radius (V−d)/4 → 0).\n\n\
             F15 — target rule checks (γ = half-sector angle, r = V_Z/8):\n",
        );
        for deg in [10.0f64, 30.0, 60.0, 80.0, 89.0] {
            let g = deg.to_radians();
            writeln!(
                out,
                "  γ = {:>4}°: step = {:.4} (= r·cosγ = {:.4}), direction = bisector",
                deg,
                target_step(WorkloadSpec::Wedge { half_angle: g }),
                (1.0 / 8.0) * g.cos()
            )
            .expect("write to a String");
        }
        writeln!(
            out,
            "  surrounded (three 120°-spread distant neighbours): step = {:.4} (nil, §5)",
            target_step(WorkloadSpec::Star { arms: 3 })
        )
        .expect("write to a String");
        out
    }
}
