//! The declarative experiment layer and its `lab` CLI.
//!
//! Every paper figure/table family is a [`Declared`] registry entry: it
//! declares its parameter grid as [`ScenarioSpec`]s, the one typed row each
//! cell yields, the predicate every row must satisfy, the row's table line
//! and the paper notes. The blanket [`Experiment`] impl derives the rest
//! from that row: the JSONL line ([`Experiment::reduce`]), the table
//! ([`Experiment::render`]) and the check ([`Experiment::check`]), whose
//! failure names the claim `lab list` prints and every rejected cell. No
//! experiment writes rows, tables or checks by hand. One shared runtime
//! owns:
//!
//! * CLI parsing (`--quick`, `--threads`, `--out`, `--progress`) behind the
//!   single `lab` binary (`lab list`, `lab run <name>...`, `lab all`);
//! * the [`Profile`] (quick CI smoke vs full reproduction);
//! * one cell pool ([`run_experiments`]): the cells of every selected
//!   experiment run on a single [`SweepRunner`], with no barrier between
//!   experiments, and rows merge in spec order, so the row files do not
//!   depend on the thread count;
//! * JSONL sinks under `target/experiments/`.

use crate::sweep::{timed, Guarded, ScenarioSpec, SchedulerSpec, SweepRunner, WorkloadSpec};
use cohesion_adversary::{run_impossibility, ImpossibilityOutcome};
use cohesion_engine::{Simulation, SimulationReport};
use cohesion_geometry::{Vec2, Vec3};
use cohesion_model::frame::Ambient;
use cohesion_model::{Budget, Progress};
use serde::Serialize;
use std::io::Write;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Profile
// ---------------------------------------------------------------------------

/// Which grid an experiment materializes: the CI smoke grid (shrunken
/// budgets, same code paths) or the full paper reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Shrunken grids and budgets for CI smoke runs (`--quick`).
    Quick,
    /// The full reproduction grids (the default).
    #[default]
    Full,
}

impl Profile {
    /// Picks the quick or full variant of a grid parameter.
    #[must_use]
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Profile::Quick => quick,
            Profile::Full => full,
        }
    }
}

// ---------------------------------------------------------------------------
// Progress sidecar
// ---------------------------------------------------------------------------

/// Heartbeat cadence for engine-driven cells, in events: each cell's
/// session is driven in slices of this size and a heartbeat record lands in
/// the sidecar between slices. Deterministic per cell (event counts are),
/// though sidecar *line interleaving* across worker threads is not — the
/// sidecar is a progress channel, not part of the byte-identity contract.
pub const PROGRESS_HEARTBEAT_EVENTS: usize = 100_000;

/// One line of the progress sidecar (`<stem>.progress.jsonl`).
///
/// Every cell contributes a `start` record, zero or more `heartbeat`
/// records (engine-driven cells only, every
/// [`PROGRESS_HEARTBEAT_EVENTS`] events), and a `done` record carrying the
/// cell's final accounting and the number of JSONL rows it reduced to.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgressRecord {
    /// Registry name of the experiment.
    pub experiment: String,
    /// Cell index in the experiment's grid.
    pub cell: usize,
    /// The cell's experiment-local tag (`""` for plain scenarios).
    pub tag: String,
    /// `"start"`, `"heartbeat"`, or `"done"`.
    pub phase: String,
    /// Engine events processed so far (0 for `start` and non-engine cells).
    pub events: usize,
    /// Completed rounds so far.
    pub rounds: usize,
    /// Simulated time so far.
    pub time: f64,
    /// Configuration diameter at the record (0 when not applicable).
    pub diameter: f64,
    /// Cohesion-so-far (`true` when not applicable).
    pub cohesion_ok: bool,
    /// Whether the run has converged — distinguishes a `done` record's
    /// convergence from mere budget exhaustion (`false` when not
    /// applicable).
    pub converged: bool,
    /// Rows the cell reduced to (`done` records only, else 0).
    pub rows: usize,
}

/// The progress sink one experiment run emits through: stamps each record
/// with the experiment name and appends it to the JSONL sidecar as one
/// compact-JSON line. Lines are written atomically
/// through the closure-scoped [`Guarded`] lock, so concurrent cells
/// interleave whole records, never bytes — and the only concurrency
/// primitive lives in the audited [`crate::sweep`] module.
#[derive(Debug)]
pub struct ProgressSink {
    experiment: &'static str,
    out: Guarded<std::fs::File>,
}

impl ProgressSink {
    /// Creates (truncating) the JSONL sidecar file for one experiment run.
    pub fn create(path: &Path, experiment: &'static str) -> Result<ProgressSink, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("create progress sidecar {}: {e}", path.display()))?;
        Ok(ProgressSink {
            experiment,
            out: Guarded::new(file),
        })
    }

    fn emit(&self, cell: usize, tag: &str, phase: &str, p: &Progress, rows: usize) {
        let record = ProgressRecord {
            experiment: self.experiment.to_string(),
            cell,
            tag: tag.to_string(),
            phase: phase.to_string(),
            events: p.events,
            rounds: p.rounds,
            time: p.time,
            diameter: p.diameter,
            cohesion_ok: p.cohesion_ok,
            converged: p.converged,
            rows,
        };
        let line = serde_json::to_string(&record).expect("serialize progress record");
        self.out
            .with(|out| writeln!(out, "{line}"))
            .expect("write progress record");
    }
}

/// A zeroed progress view for records without a live session behind them.
fn idle_progress() -> Progress {
    Progress {
        events: 0,
        rounds: 0,
        time: 0.0,
        diameter: 0.0,
        cohesion_ok: true,
        converged: false,
    }
}

/// The per-cell progress handle the runtime hands to [`Experiment::run`].
///
/// Disabled (the default, when `--progress` was not given) it is a no-op;
/// enabled, [`CellProgress::heartbeat`] appends a heartbeat record for this
/// cell to the experiment's sidecar. Bespoke cell drivers may call
/// `heartbeat` at their own cadence; the default engine dispatch
/// ([`Outcome::compute_with`]) beats every [`PROGRESS_HEARTBEAT_EVENTS`]
/// events.
#[derive(Debug, Clone, Copy)]
pub struct CellProgress<'a> {
    sink: Option<&'a ProgressSink>,
    cell: usize,
    tag: &'a str,
}

/// The inert handle, for driving an experiment cell outside the lab
/// runtime (tests, ad-hoc harnesses).
pub const NO_PROGRESS: CellProgress<'static> = CellProgress {
    sink: None,
    cell: 0,
    tag: "",
};

impl<'a> CellProgress<'a> {
    /// A live handle appending to `sink` for grid cell `cell` — for ad-hoc
    /// harnesses that drive cells outside `run_experiments`.
    #[must_use]
    pub fn new(sink: Option<&'a ProgressSink>, cell: usize, tag: &'a str) -> Self {
        CellProgress { sink, cell, tag }
    }

    /// Appends a heartbeat record for this cell. `progress` is called only
    /// when a sidecar is attached, so a disabled handle costs nothing (a
    /// session's [`Simulation::progress`] copies the configuration and
    /// takes its diameter).
    pub fn heartbeat(&self, progress: impl FnOnce() -> Progress) {
        if let Some(sink) = self.sink {
            sink.emit(self.cell, self.tag, "heartbeat", &progress(), 0);
        }
    }

    pub(crate) fn start(&self) {
        if let Some(sink) = self.sink {
            sink.emit(self.cell, self.tag, "start", &idle_progress(), 0);
        }
    }

    pub(crate) fn done(&self, outcome: &Outcome, rows: usize) {
        let Some(sink) = self.sink else { return };
        let p = match outcome {
            Outcome::Report(r) => Progress {
                events: r.events,
                rounds: r.rounds,
                time: r.end_time,
                diameter: r.final_diameter,
                cohesion_ok: r.cohesion_maintained,
                converged: r.converged,
            },
            Outcome::Report3(r) => Progress {
                events: r.events,
                rounds: r.rounds,
                time: r.end_time,
                diameter: r.final_diameter,
                cohesion_ok: r.cohesion_maintained,
                converged: r.converged,
            },
            _ => idle_progress(),
        };
        sink.emit(self.cell, self.tag, "done", &p, rows);
    }
}

// ---------------------------------------------------------------------------
// Rows and outcomes
// ---------------------------------------------------------------------------

/// One serialized JSONL line (without the trailing newline). Rows are the
/// unit of the byte-identity contract: a cell's rows depend only on its
/// [`ScenarioSpec`], so a row file does not depend on which worker ran
/// which cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonRow(String);

impl JsonRow {
    /// Serializes one row.
    #[must_use]
    pub fn of<T: Serialize>(row: &T) -> JsonRow {
        JsonRow(serde_json::to_string(row).expect("serialize row"))
    }

    /// The serialized line.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// What running one grid cell produced.
#[derive(Debug)]
pub enum Outcome {
    /// A 2D engine run.
    Report(Box<SimulationReport<Vec2>>),
    /// A 3D engine run ([`WorkloadSpec::Ball3`]).
    Report3(Box<SimulationReport<Vec3>>),
    /// A §7 adversary run ([`SchedulerSpec::AdversaryNested`]).
    Adversary(Box<ImpossibilityOutcome>),
    /// Summary statistics from an experiment-specific driver (Monte-Carlo
    /// trials, schedule searches, pure geometry).
    Stats(Vec<f64>),
    /// The cell needed no computation beyond its spec.
    Analytic,
}

impl Outcome {
    /// The default cell driver: dispatches a spec to the engine (2D or 3D)
    /// or to the §7 impossibility adversary. Experiments with bespoke
    /// drivers override [`Experiment::run`] instead. Every engine cell runs
    /// as a session in [`PROGRESS_HEARTBEAT_EVENTS`]-event slices, with a
    /// heartbeat between slices; the report is byte-identical to a one-shot
    /// run (the session equivalence suite pins sliced ≡ one-shot).
    ///
    /// # Panics
    ///
    /// Panics on a [`SchedulerSpec::AdversaryNested`] scheduler without a
    /// [`WorkloadSpec::SpiralTail`] workload.
    #[must_use]
    pub fn compute_with(spec: &ScenarioSpec, progress: &CellProgress<'_>) -> Outcome {
        match (spec.workload, spec.scheduler) {
            (WorkloadSpec::SpiralTail { psi }, SchedulerSpec::AdversaryNested { max_sweeps }) => {
                let victim = spec.algorithm.build();
                Outcome::Adversary(Box::new(run_impossibility(&*victim, psi, max_sweeps)))
            }
            (_, SchedulerSpec::AdversaryNested { .. }) => {
                panic!("AdversaryNested schedules require a SpiralTail workload")
            }
            (WorkloadSpec::Ball3 { .. }, _) => Outcome::Report3(drive(spec.session3(), progress)),
            _ => Outcome::Report(drive(spec.session(), progress)),
        }
    }

    /// The 2D report, when this outcome is one.
    ///
    /// # Panics
    ///
    /// Panics otherwise.
    #[must_use]
    pub fn report(&self) -> &SimulationReport<Vec2> {
        match self {
            Outcome::Report(r) => r,
            other => panic!("expected a 2D simulation report, got {other:?}"),
        }
    }

    /// The adversary outcome, when this outcome is one.
    ///
    /// # Panics
    ///
    /// Panics otherwise.
    #[must_use]
    pub fn adversary(&self) -> &ImpossibilityOutcome {
        match self {
            Outcome::Adversary(o) => o,
            other => panic!("expected an adversary outcome, got {other:?}"),
        }
    }

    /// The driver statistics, when this outcome carries them.
    ///
    /// # Panics
    ///
    /// Panics otherwise.
    #[must_use]
    pub fn stats(&self) -> &[f64] {
        match self {
            Outcome::Stats(s) => s,
            other => panic!("expected driver statistics, got {other:?}"),
        }
    }
}

/// Drives an engine cell's session to termination in
/// [`PROGRESS_HEARTBEAT_EVENTS`]-event slices, beating after each slice
/// that leaves it running.
fn drive<P: Ambient>(
    mut session: Simulation<P>,
    progress: &CellProgress<'_>,
) -> Box<SimulationReport<P>> {
    while !session
        .run_for(Budget::events(PROGRESS_HEARTBEAT_EVENTS))
        .is_terminal()
    {
        progress.heartbeat(|| session.progress());
    }
    Box::new(session.into_report())
}

/// One executed grid cell: the spec, what running it produced, and the JSONL
/// rows it reduced to.
#[derive(Debug)]
pub struct LabCell {
    /// The declarative cell description.
    pub spec: ScenarioSpec,
    /// What running the cell produced.
    pub outcome: Outcome,
    /// The rows the cell contributed to the experiment's JSONL file.
    pub rows: Vec<JsonRow>,
}

// ---------------------------------------------------------------------------
// The Experiment trait
// ---------------------------------------------------------------------------

/// The lab's object-safe view of an experiment: what [`run_experiments`]
/// (and any external harness) drives through `&dyn Experiment`. Every
/// registry entry gets it from the blanket impl over [`Declared`], which
/// derives [`Experiment::reduce`], [`Experiment::render`] and
/// [`Experiment::check`] from one typed row.
///
/// The contract: [`Experiment::run`] and [`Experiment::reduce`] must be
/// pure functions of the spec (every port in this workspace is), so the
/// rows do not depend on the thread count or on which worker ran a cell.
pub trait Experiment: Sync {
    /// The registry name (`lab run <name>`).
    fn name(&self) -> &'static str;

    /// The paper figure/table family this reproduces (e.g. `"T1"`).
    fn id(&self) -> &'static str;

    /// One-line banner title.
    fn title(&self) -> &'static str;

    /// The paper claim the experiment checks (for `lab list` and the
    /// README experiments table).
    fn claim(&self) -> &'static str;

    /// Stem of the JSONL output file under the experiments directory.
    fn output_stem(&self) -> &'static str;

    /// The parameter grid for a profile. Order is the output order.
    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec>;

    /// Runs one cell.
    fn run(&self, spec: &ScenarioSpec, progress: &CellProgress<'_>) -> Outcome;

    /// `true` when cells run through [`Outcome::compute_with`], so a
    /// harness may rebuild a cell's session (or §7 adversary run) from the
    /// spec's public fields — the benchmark's traced run does, to time
    /// Compute. Otherwise such harnesses call [`Experiment::run`] as is.
    fn engine_driven(&self) -> bool;

    /// Reduces one cell's outcome to its JSONL rows.
    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow>;

    /// Prints the human-readable table and paper notes after a run.
    fn render(&self, cells: &[LabCell]);

    /// Checks the experiment's claim over the executed cells. A failure
    /// makes the run exit non-zero after the rows are written.
    fn check(&self, cells: &[LabCell]) -> Result<(), String>;
}

/// A declarative experiment: a named parameter grid plus one typed row per
/// cell, and the claim each row must satisfy. The row's JSONL line, its
/// table line and its check all derive from [`Declared::row`], so they
/// cannot disagree; the runtime owns everything else — parallel execution
/// ([`SweepRunner`]), sinks, and the CLI.
pub trait Declared: Sync {
    /// One cell's result, serialized as one JSONL line in field order.
    type Row: Serialize;

    /// The registry name (`lab run <name>`).
    fn name(&self) -> &'static str;

    /// The paper figure/table family this reproduces (e.g. `"T1"`).
    fn id(&self) -> &'static str;

    /// One-line banner title.
    fn title(&self) -> &'static str;

    /// The paper claim [`Declared::holds`] checks (for `lab list`, the
    /// README experiments table, and a failed check's message).
    fn claim(&self) -> &'static str;

    /// Stem of the JSONL output file under the experiments directory.
    fn output_stem(&self) -> &'static str;

    /// The parameter grid for a profile. Order is the output order.
    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec>;

    /// Runs one cell. The default dispatches to the engine or the §7
    /// adversary, streaming heartbeats through `progress` when the run has
    /// a sidecar; experiments with bespoke drivers (Monte-Carlo searches,
    /// pure geometry) override this — they may ignore `progress` or beat at
    /// their own cadence.
    fn run(&self, spec: &ScenarioSpec, progress: &CellProgress<'_>) -> Outcome {
        Outcome::compute_with(spec, progress)
    }

    /// `true` when cells run through the default engine dispatch above.
    /// Experiments that override [`Declared::run`] with a bespoke driver
    /// must also override this to `false`.
    fn engine_driven(&self) -> bool {
        true
    }

    /// The one row a cell contributes — a pure function of the spec and
    /// its outcome.
    fn row(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Self::Row;

    /// Whether `row` satisfies the claim. `rows` is every row of the run,
    /// in grid order, for claims that compare a row with its neighbours.
    fn holds(&self, row: &Self::Row, rows: &[Self::Row]) -> bool;

    /// The row's table line as `(header, cell)` pairs, in column order.
    fn table(&self, row: &Self::Row) -> Vec<(&'static str, String)>;

    /// Paper notes printed under the table: text that does not depend on
    /// the run.
    fn notes(&self) -> String;
}

/// Every cell's row, rebuilt from its spec and outcome.
fn rows_of<T: Declared>(exp: &T, cells: &[LabCell]) -> Vec<T::Row> {
    cells.iter().map(|c| exp.row(&c.spec, &c.outcome)).collect()
}

/// Lays out table lines (`(header, cell)` pairs, one list per line, the
/// same headers in each) as a header line plus one line per row, every
/// column padded to its widest entry: the first left-aligned, the rest
/// right-aligned.
fn layout_table(lines: &[Vec<(&'static str, String)>]) -> String {
    let Some(first) = lines.first() else {
        return String::new();
    };
    let widths: Vec<usize> = (0..first.len())
        .map(|c| {
            lines
                .iter()
                .map(|l| l[c].1.chars().count())
                .fold(first[c].0.chars().count(), usize::max)
        })
        .collect();
    let line = |cells: Vec<&str>| {
        let mut out = String::new();
        for (c, (cell, &w)) in cells.into_iter().zip(&widths).enumerate() {
            if c == 0 {
                out.push_str(&format!("{cell:<w$}"));
            } else {
                out.push_str(&format!("  {cell:>w$}"));
            }
        }
        out.trim_end().to_string() + "\n"
    };
    let mut out = line(first.iter().map(|(header, _)| *header).collect());
    for l in lines {
        out.push_str(&line(l.iter().map(|(_, cell)| cell.as_str()).collect()));
    }
    out
}

impl<T: Declared> Experiment for T {
    fn name(&self) -> &'static str {
        Declared::name(self)
    }

    fn id(&self) -> &'static str {
        Declared::id(self)
    }

    fn title(&self) -> &'static str {
        Declared::title(self)
    }

    fn claim(&self) -> &'static str {
        Declared::claim(self)
    }

    fn output_stem(&self) -> &'static str {
        Declared::output_stem(self)
    }

    fn grid(&self, profile: Profile) -> Vec<ScenarioSpec> {
        Declared::grid(self, profile)
    }

    fn run(&self, spec: &ScenarioSpec, progress: &CellProgress<'_>) -> Outcome {
        Declared::run(self, spec, progress)
    }

    fn engine_driven(&self) -> bool {
        Declared::engine_driven(self)
    }

    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow> {
        vec![JsonRow::of(&self.row(spec, outcome))]
    }

    fn render(&self, cells: &[LabCell]) {
        let lines: Vec<_> = rows_of(self, cells).iter().map(|r| self.table(r)).collect();
        print!("{}", layout_table(&lines));
        println!("\n{}", self.notes().trim_end());
    }

    /// Fails with the claim and every cell whose row it rejects, named by
    /// its index in `cells` and its table line.
    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        let rows = rows_of(self, cells);
        let failing: Vec<String> = rows
            .iter()
            .enumerate()
            .filter(|&(_, r)| !self.holds(r, &rows))
            .map(|(i, r)| {
                let fields: Vec<String> = self
                    .table(r)
                    .into_iter()
                    .map(|(header, cell)| format!("{header} = {cell}"))
                    .collect();
                format!("cell {i} ({})", fields.join(", "))
            })
            .collect();
        if failing.is_empty() {
            Ok(())
        } else {
            Err(format!("{}; fails at {}", self.claim(), failing.join(", ")))
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Options the CLI resolves before handing control to the runtime.
#[derive(Debug, Clone, Default)]
pub struct LabOptions {
    /// Quick (CI smoke) or full grids.
    pub profile: Profile,
    /// Worker override; `None` sizes the pool to the machine.
    pub threads: Option<usize>,
    /// Output directory override; `None` uses `target/experiments/`.
    pub out_dir: Option<PathBuf>,
    /// Write per-cell progress heartbeats to a `<stem>.progress.jsonl`
    /// sidecar (`--progress`).
    pub progress: bool,
}

/// What one experiment run produced.
#[derive(Debug)]
pub struct RunSummary {
    /// Registry name.
    pub name: &'static str,
    /// Cells executed.
    pub cells: usize,
    /// Rows written.
    pub rows: usize,
    /// Wall-clock seconds summed over the cells (on any worker).
    pub seconds: f64,
    /// The cell that took longest, when any ran: its index in the grid,
    /// its [`ScenarioSpec::tag`] and its seconds.
    pub slowest: Option<(usize, &'static str, f64)>,
    /// The JSONL file written.
    pub path: PathBuf,
}

fn out_dir(opts: &LabOptions) -> PathBuf {
    opts.out_dir.clone().unwrap_or_else(crate::experiments_dir)
}

/// The sidecar file name for an output stem: `<stem>.progress.jsonl`.
#[must_use]
pub fn progress_file_name(stem: &str) -> String {
    format!("{stem}.progress.jsonl")
}

/// One selected experiment inside [`run_experiments`]: its cells and, with
/// `--progress`, its sidecar.
struct Planned<'a> {
    exp: &'a dyn Experiment,
    specs: Vec<ScenarioSpec>,
    sink: Option<(ProgressSink, PathBuf)>,
}

/// Executes experiments as one cell pool: every given experiment's grid is
/// flattened, in the order given, into one list run on a single
/// [`SweepRunner`], so no thread idles behind one experiment's slowest
/// cell while another's wait. Then, per experiment in
/// the same order, the rows are written in spec order, rendered and
/// checked. A failed check does not stop the others: every row file is
/// written and every check runs before the failures are reported together.
pub fn run_experiments(
    exps: &[&dyn Experiment],
    opts: &LabOptions,
) -> Result<Vec<RunSummary>, String> {
    let dir = out_dir(opts);
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create output dir {}: {e}", dir.display()))?;
    let mut plans = Vec::with_capacity(exps.len());
    for &exp in exps {
        let sink = if opts.progress {
            let path = dir.join(progress_file_name(exp.output_stem()));
            Some((ProgressSink::create(&path, exp.name())?, path))
        } else {
            None
        };
        plans.push(Planned {
            exp,
            specs: exp.grid(opts.profile),
            sink,
        });
    }

    let items: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(p, plan)| (0..plan.specs.len()).map(move |i| (p, i)))
        .collect();
    let runner = match opts.threads {
        Some(t) => SweepRunner::with_threads(t),
        None => SweepRunner::new(),
    };
    let mut results = runner
        .run(&items, |_, &(p, i)| {
            let plan = &plans[p];
            let spec = &plan.specs[i];
            let progress = CellProgress::new(plan.sink.as_ref().map(|(s, _)| s), i, spec.tag);
            progress.start();
            let ((outcome, rows), seconds) = timed(|| {
                let outcome = plan.exp.run(spec, &progress);
                let rows = plan.exp.reduce(spec, &outcome);
                (outcome, rows)
            });
            progress.done(&outcome, rows.len());
            (outcome, rows, seconds)
        })
        .into_iter();

    let mut summaries = Vec::with_capacity(plans.len());
    let mut failures = Vec::new();
    for plan in plans {
        let exp = plan.exp;
        crate::banner(exp.id(), exp.title());
        let mut times = Vec::with_capacity(plan.specs.len());
        let cells: Vec<LabCell> = plan
            .specs
            .into_iter()
            .zip(results.by_ref())
            .map(|(spec, (outcome, rows, seconds))| {
                times.push(seconds);
                LabCell {
                    spec,
                    outcome,
                    rows,
                }
            })
            .collect();
        let slowest = (0..cells.len())
            .max_by(|&a, &b| times[a].total_cmp(&times[b]))
            .map(|i| (i, cells[i].spec.tag, times[i]));
        let path = dir.join(format!("{}.jsonl", exp.output_stem()));
        let rows = write_rows(&path, &cells)?;
        exp.render(&cells);
        println!("\n[{rows} rows -> {}]", path.display());
        if let Some((_, sidecar)) = &plan.sink {
            println!("[progress sidecar -> {}]", sidecar.display());
        }
        if let Err(e) = exp.check(&cells) {
            failures.push(format!("{}: invariant check failed: {e}", exp.name()));
        }
        println!();
        summaries.push(RunSummary {
            name: exp.name(),
            cells: cells.len(),
            rows,
            seconds: times.iter().sum(),
            slowest,
            path,
        });
    }
    if failures.is_empty() {
        Ok(summaries)
    } else {
        Err(failures.join("\n"))
    }
}

/// Writes every cell's rows, in order, to `path`; returns the row count.
fn write_rows(path: &Path, cells: &[LabCell]) -> Result<usize, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut f = std::io::BufWriter::new(file);
    let mut rows = 0usize;
    for row in cells.iter().flat_map(|c| &c.rows) {
        writeln!(f, "{}", row.as_str()).map_err(|e| format!("write row: {e}"))?;
        rows += 1;
    }
    f.flush()
        .map_err(|e| format!("flush {}: {e}", path.display()))?;
    Ok(rows)
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

const USAGE: &str = "\
the cohesion experiment lab — every paper figure/table behind one CLI

usage:
  lab list                                   index of registered experiments
  lab run <name>... [options]                run the named experiments
  lab all [options]                          run every experiment

`run` and `all` feed every selected experiment's cells through one worker
pool, then write, render and check each experiment in registry order; a
failed check fails the run after every row file is written.

options:
  --quick          shrunken CI smoke grids (default: full reproduction)
  --full           the full reproduction grids (the default)
  --threads N      worker threads (default: all cores)
  --out DIR        output directory (default: target/experiments)
  --progress       stream per-cell heartbeats to a <stem>.progress.jsonl
                   sidecar per experiment: one start/done record per cell
                   plus a heartbeat per 100k engine events";

/// Resolves a registry experiment by name.
pub fn find_experiment(name: &str) -> Result<&'static dyn Experiment, String> {
    crate::experiments::REGISTRY
        .iter()
        .copied()
        .find(|e| e.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = crate::experiments::REGISTRY
                .iter()
                .map(|e| e.name())
                .collect();
            format!("unknown experiment '{name}' (known: {})", names.join(", "))
        })
}

struct Parsed {
    opts: LabOptions,
    names: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        opts: LabOptions::default(),
        names: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.opts.profile = Profile::Quick,
            "--full" => parsed.opts.profile = Profile::Full,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let t: usize = v
                    .parse()
                    .map_err(|_| format!("--threads '{v}' is not an integer"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                parsed.opts.threads = Some(t);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                parsed.opts.out_dir = Some(PathBuf::from(v));
            }
            "--progress" => parsed.opts.progress = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'\n\n{USAGE}"));
            }
            name => parsed.names.push(name.to_string()),
        }
    }
    Ok(parsed)
}

/// The `lab` CLI entry point. Returns an error message for the binary to
/// print and exit non-zero on.
pub fn lab_main(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "list" => {
            println!("{:<20} {:<10} {:<28} claim", "name", "paper", "output");
            for exp in crate::experiments::REGISTRY {
                println!(
                    "{:<20} {:<10} {:<28} {}",
                    exp.name(),
                    exp.id(),
                    format!("{}.jsonl", exp.output_stem()),
                    exp.claim()
                );
            }
            println!("\nrun one with `lab run <name>`; all with `lab all --quick`.");
            Ok(())
        }
        "run" => {
            let parsed = parse_args(rest)?;
            if parsed.names.is_empty() {
                return Err(format!("`lab run` needs an experiment name\n\n{USAGE}"));
            }
            // A repeated name would have two runs of one experiment write
            // its row file and sidecar at once.
            if let Some(dup) = (1..parsed.names.len()).find_map(|i| {
                parsed.names[..i]
                    .contains(&parsed.names[i])
                    .then_some(&parsed.names[i])
            }) {
                return Err(format!("`lab run` names '{dup}' twice"));
            }
            let exps = parsed
                .names
                .iter()
                .map(|n| find_experiment(n))
                .collect::<Result<Vec<_>, _>>()?;
            run_experiments(&exps, &parsed.opts)?;
            Ok(())
        }
        "all" => {
            let parsed = parse_args(rest)?;
            if !parsed.names.is_empty() {
                return Err(format!(
                    "`lab all` takes no experiment names (got {:?})\n\n{USAGE}",
                    parsed.names
                ));
            }
            let summaries = run_experiments(crate::experiments::REGISTRY, &parsed.opts)?;
            println!("=== lab all: {} experiments ===", summaries.len());
            for s in &summaries {
                let slowest = s.slowest.map_or("-".to_string(), |(index, tag, seconds)| {
                    format!("#{index} {tag:?} {seconds:.3} s")
                });
                println!(
                    "  {:<20} {:>4} cells {:>5} rows {:>7.3} s  slowest {:<26} {}",
                    s.name,
                    s.cells,
                    s.rows,
                    s.seconds,
                    slowest,
                    s.path.display()
                );
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_pick() {
        assert_eq!(Profile::Quick.pick(1, 2), 1);
        assert_eq!(Profile::Full.pick(1, 2), 2);
        assert_eq!(Profile::default(), Profile::Full);
    }
}
