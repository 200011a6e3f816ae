//! The `lab_full` workload: every registry experiment at the full profile,
//! replayed in-process through the public `grid` → `run` → `reduce` →
//! `check` surface on a `SweepRunner`, exactly the path `lab all` takes
//! (minus writing the row files).

use crate::metrics::{fnv1a, median, min_into, Deadline, RunResult};
use crate::pins;
use crate::wrap::{CallStats, TimedAlgorithm};
use crate::Layers;
use cohesion_adversary::{run_impossibility, SpiralConstruction};
use cohesion_bench::experiments::REGISTRY;
use cohesion_bench::lab::{Experiment, LabCell, Outcome, Profile, NO_PROGRESS};
use cohesion_bench::{ScenarioSpec, SchedulerSpec, SweepRunner, WorkloadSpec};
use cohesion_engine::SimulationBuilder;
use cohesion_model::frame::Ambient;
use cohesion_model::{Algorithm, Configuration};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Registry set-ups timed before every pass for `setup_s`, so its samples
/// spread over the whole run instead of its first milliseconds.
const SETUPS_PER_PASS: usize = 5;

/// The `SweepRunner` thread count. One worker: with two on a two-vCPU host,
/// dynamic cell claiming and any other tenant's load made the pass time and
/// the RSS peak (which cells overlap) vary by ±10% from run to run.
const THREADS: usize = 1;

/// Passes over the whole registry per run, at least.
const MIN_PASSES: usize = 3;

/// What kind of work a cell did — the lab's outcome kinds, with the 2D and
/// 3D engine runs folded together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Engine,
    Adversary,
    Stats,
    Analytic,
}

/// One executed cell: its kind, busy time, engine events (engine cells
/// only), and whether its scheduler is one of the synchronous ones.
#[derive(Debug, Clone, Copy)]
struct CellTime {
    kind: Kind,
    secs: f64,
    events: u64,
    synchronous: bool,
}

/// One experiment over its whole grid: runner wall time, per-cell times,
/// and the outcome of its output checks.
struct ExpPass {
    name: &'static str,
    wall: f64,
    cells: Vec<CellTime>,
    rows_hash: u64,
    check: Result<(), String>,
}

pub fn grids() -> Vec<Vec<ScenarioSpec>> {
    REGISTRY.iter().map(|e| e.grid(Profile::Full)).collect()
}

fn kind_of(outcome: &Outcome) -> (Kind, u64) {
    match outcome {
        Outcome::Report(r) => (Kind::Engine, r.events as u64),
        Outcome::Report3(r) => (Kind::Engine, r.events as u64),
        Outcome::Adversary(_) => (Kind::Adversary, 0),
        Outcome::Stats(_) => (Kind::Stats, 0),
        Outcome::Analytic => (Kind::Analytic, 0),
    }
}

/// Runs one cell. Untraced (`compute == None`) this is `Experiment::run`.
/// Traced, the engine and adversary cells of engine-driven experiments are
/// rebuilt from the public spec fields with a timed `Algorithm` handed in —
/// the same knobs `ScenarioSpec` applies, so the rows stay byte-identical.
fn run_cell(
    exp: &dyn Experiment,
    spec: &ScenarioSpec,
    compute: Option<&Arc<CallStats>>,
) -> Outcome {
    let Some(stats) = compute.filter(|_| exp.engine_driven()) else {
        return exp.run(spec, &NO_PROGRESS);
    };
    match (spec.workload, spec.scheduler) {
        (WorkloadSpec::SpiralTail { psi }, SchedulerSpec::AdversaryNested { max_sweeps }) => {
            let victim = TimedAlgorithm::new(spec.algorithm.build(), stats);
            Outcome::Adversary(Box::new(run_impossibility(&victim, psi, max_sweeps)))
        }
        (WorkloadSpec::Ball3 { .. }, _) => {
            let algorithm = TimedAlgorithm::new(spec.algorithm.build3(), stats);
            Outcome::Report3(Box::new(
                configure(spec, spec.workload.build3(), algorithm).run(),
            ))
        }
        _ => {
            let algorithm = TimedAlgorithm::new(spec.algorithm.build(), stats);
            Outcome::Report(Box::new(
                configure(spec, spec.workload.build(), algorithm).run(),
            ))
        }
    }
}

fn configure<P: Ambient>(
    spec: &ScenarioSpec,
    initial: Configuration<P>,
    algorithm: impl Algorithm<P> + 'static,
) -> SimulationBuilder<P> {
    SimulationBuilder::new(initial, algorithm)
        .visibility(spec.visibility)
        .scheduler(spec.scheduler.build())
        .seed(spec.seed)
        .epsilon(spec.epsilon)
        .max_events(spec.max_events)
        .frame_mode(spec.frame_mode)
        .track_strong_visibility(spec.track_strong_visibility)
        .hull_check_every(spec.hull_check_every)
        .diameter_sample_every(spec.diameter_sample_every)
        .perception(spec.perception)
        .motion(spec.motion)
}

/// One pass over the registry. Each experiment's grid runs on a fresh
/// `SweepRunner`; its rows are hashed against the pin and its own
/// `Experiment::check` runs — both outside the timed region. A panic in any
/// cell fails the experiment.
fn pass(grids: &[Vec<ScenarioSpec>], compute: Option<&Arc<CallStats>>) -> Vec<ExpPass> {
    let runner = SweepRunner::with_threads(THREADS);
    REGISTRY
        .iter()
        .zip(grids)
        .map(|(&exp, grid)| {
            let start = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                runner.run(grid, |_, spec| {
                    let t = Instant::now();
                    let outcome = run_cell(exp, spec, compute);
                    let rows = exp.reduce(spec, &outcome);
                    (outcome, rows, t.elapsed().as_secs_f64())
                })
            }));
            let wall = start.elapsed().as_secs_f64();
            let Ok(results) = ran else {
                return ExpPass {
                    name: exp.name(),
                    wall,
                    cells: Vec::new(),
                    rows_hash: 0,
                    check: Err("a cell panicked".to_string()),
                };
            };
            let mut cells = Vec::with_capacity(results.len());
            let mut lab_cells = Vec::with_capacity(results.len());
            let mut bytes = Vec::new();
            for (spec, (outcome, rows, secs)) in grid.iter().zip(results) {
                let (kind, events) = kind_of(&outcome);
                cells.push(CellTime {
                    kind,
                    secs,
                    events,
                    synchronous: matches!(
                        spec.scheduler,
                        SchedulerSpec::FSync | SchedulerSpec::SSync { .. }
                    ),
                });
                for row in &rows {
                    bytes.extend_from_slice(row.as_str().as_bytes());
                    bytes.push(b'\n');
                }
                lab_cells.push(LabCell {
                    spec: spec.clone(),
                    outcome,
                    rows,
                });
            }
            let rows_hash = fnv1a(&bytes);
            let check = check_rows(exp.name(), rows_hash).and_then(|()| {
                catch_unwind(AssertUnwindSafe(|| exp.check(&lab_cells)))
                    .unwrap_or_else(|_| Err("check panicked".to_string()))
            });
            ExpPass {
                name: exp.name(),
                wall,
                cells,
                rows_hash,
                check,
            }
        })
        .collect()
}

fn check_rows(name: &str, hash: u64) -> Result<(), String> {
    match pins::LAB_ROWS.iter().find(|(n, _)| *n == name) {
        Some(&(_, pinned)) if pinned == hash => Ok(()),
        Some(&(_, pinned)) => Err(format!(
            "row bytes hash {hash:#018x}, pinned {pinned:#018x}"
        )),
        None => Err("no pinned row hash".to_string()),
    }
}

/// Events per busy second over the engine cells of one scheduler class.
fn events_per_s(cells: &[CellTime], synchronous: bool) -> f64 {
    let (events, secs) = cells
        .iter()
        .filter(|c| c.kind == Kind::Engine && c.synchronous == synchronous)
        .fold((0u64, 0.0), |(n, s), c| (n + c.events, s + c.secs));
    events as f64 / secs
}

/// The registry's set-up, the lab counterpart of a swarm session's: every
/// grid, and for every engine-driven cell its workload and `build()` (or
/// the §7 spiral the adversary starts from). The cells redo this work when
/// they run; here it is timed on its own.
fn set_up() {
    for (exp, grid) in REGISTRY.iter().zip(grids()) {
        if !exp.engine_driven() {
            continue;
        }
        for spec in &grid {
            match (spec.workload, spec.scheduler) {
                (WorkloadSpec::SpiralTail { psi }, SchedulerSpec::AdversaryNested { .. }) => {
                    std::hint::black_box(SpiralConstruction::paper(psi));
                }
                (WorkloadSpec::Ball3 { .. }, _) => {
                    std::hint::black_box(spec.session3());
                }
                _ => {
                    std::hint::black_box(spec.session());
                }
            }
        }
    }
}

fn time_set_up() -> f64 {
    let t = Instant::now();
    set_up();
    t.elapsed().as_secs_f64()
}

/// The untraced run: registry passes until `seconds` have elapsed (at least
/// [`MIN_PASSES`]). Every pass runs the same cells, so each cell's time is
/// taken as its fastest pass (see [`min_into`]); `wall_s` is their sum — on
/// one worker thread, the pass time less its interference. A pass in which
/// any experiment fails its checks is discarded from the timings.
pub fn run(seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut setups = Vec::new();
    let grids = grids();
    let mut best = Vec::new();
    let mut cells = Vec::new();
    let mut deadline = Deadline::new(seconds, MIN_PASSES);
    while deadline.next() {
        setups.extend((0..SETUPS_PER_PASS).map(|_| time_set_up()));
        let exps = pass(&grids, None);
        let mut ok = true;
        for e in &exps {
            ok &= result.check(e.name, e.check.clone());
        }
        if ok {
            cells = exps.into_iter().flat_map(|e| e.cells).collect::<Vec<_>>();
            min_into(&mut best, &cells.iter().map(|c| c.secs).collect::<Vec<_>>());
        } else if result.failed >= REGISTRY.len() * MIN_PASSES {
            break;
        }
    }
    for (cell, secs) in cells.iter_mut().zip(&best) {
        cell.secs = *secs;
    }
    result.push("wall_s", best.iter().sum(), "s");
    result.push("setup_s", median(&setups), "s");
    result.push("events_per_s.fsync", events_per_s(&cells, true), "events/s");
    result.push(
        "events_per_s.async",
        events_per_s(&cells, false),
        "events/s",
    );
    result
}

/// One traced pass: per-experiment and per-cell times, time by outcome
/// kind, sweep utilization, and the Compute layer through the timed
/// algorithm, paired with a plain pass for the tracing overhead. Exact
/// counts are marked so repeated passes can be compared.
pub fn layers(grids: &[Vec<ScenarioSpec>], result: &mut RunResult, out: &mut Layers) {
    let plain: f64 = pass(grids, None).iter().map(|e| e.wall).sum();
    let compute = Arc::new(CallStats::default());
    let exps = pass(grids, Some(&compute));
    for e in &exps {
        result.check(e.name, e.check.clone());
    }
    let wall: f64 = exps.iter().map(|e| e.wall).sum();
    let cells: Vec<CellTime> = exps.iter().flat_map(|e| e.cells.iter().copied()).collect();
    let busy: f64 = cells.iter().map(|c| c.secs).sum();
    let of_kind = |k: Kind| cells.iter().filter(move |c| c.kind == k);

    out.time("trace.overhead_x.lab_full", wall / plain, "x");
    for e in &exps {
        out.time(format!("lab.{}.s", e.name), e.wall, "s");
    }
    out.time(
        "lab.straggler_s",
        cells.iter().map(|c| c.secs).fold(0.0, f64::max),
        "s",
    );
    out.time(
        "sweep.busy_frac",
        busy / (THREADS as f64 * wall),
        "fraction",
    );
    out.time(
        "adversary.s",
        of_kind(Kind::Adversary).map(|c| c.secs).sum(),
        "s",
    );
    out.time("stats.s", of_kind(Kind::Stats).map(|c| c.secs).sum(), "s");
    out.time(
        "engine_cells.s",
        of_kind(Kind::Engine).map(|c| c.secs).sum(),
        "s",
    );
    out.exact(
        "engine_cells.events",
        of_kind(Kind::Engine).map(|c| c.events).sum::<u64>() as f64,
        "count",
    );
    for (name, kind) in [
        ("lab.cells.engine", Kind::Engine),
        ("lab.cells.adversary", Kind::Adversary),
        ("lab.cells.stats", Kind::Stats),
        ("lab.cells.analytic", Kind::Analytic),
    ] {
        out.exact(name, of_kind(kind).count() as f64, "count");
    }
    out.exact("compute.calls", compute.calls() as f64, "count");
    out.time(
        "compute.ns_per_call",
        compute.ns() as f64 / compute.calls() as f64,
        "ns",
    );
    out.exact(
        "compute.snapshot_mean",
        compute.items() as f64 / compute.calls() as f64,
        "robots",
    );
}

/// Row-byte hashes of one untraced pass, as `pins::LAB_ROWS` entries.
pub fn pin_lines() -> Vec<String> {
    pass(&grids(), None)
        .iter()
        .map(|e| format!("    (\"{}\", {:#018x}),", e.name, e.rows_hash))
        .collect()
}
