//! The declarative experiment layer and its sharded `lab` CLI.
//!
//! Every paper figure/table family is an [`Experiment`]: a registry entry
//! that *declares* its parameter grid as [`ScenarioSpec`]s and *reduces*
//! each cell's outcome to JSONL rows, instead of hand-rolling its own loop,
//! arg parsing, and file emission. One shared runtime owns:
//!
//! * CLI parsing (`--quick`, `--threads`, `--out`, `--shard I/M`) behind the
//!   single `lab` binary (`lab list`, `lab run <name>...`, `lab all`,
//!   `lab merge <name>`);
//! * the [`Profile`] (quick CI smoke vs full reproduction);
//! * one cell pool ([`run_experiments`]): the cells of every selected
//!   experiment run on a single [`SweepRunner`], with no barrier between
//!   experiments;
//! * deterministic **process-level sharding**: `--shard I/M` slices each
//!   spec grid into `M` contiguous chunks, so concatenating the shard files
//!   in index order (`lab merge`) is *byte-identical* to an unsharded run —
//!   rows are a pure per-spec function, merged in spec order, exactly the
//!   [`SweepRunner`] contract lifted across processes;
//! * JSONL sinks under `target/experiments/`.

use crate::sweep::{Guarded, ScenarioSpec, SchedulerSpec, SweepRunner, WorkloadSpec};
use cohesion_adversary::{run_impossibility, ImpossibilityOutcome};
use cohesion_engine::SimulationReport;
use cohesion_geometry::{Vec2, Vec3};
use cohesion_model::Progress;
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
    /// `true` for [`Profile::Quick`].
    #[must_use]
    pub fn is_quick(self) -> bool {
        self == Profile::Quick
    }

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

/// One line of the progress sidecar (`<stem>.progress.jsonl`, or
/// `<stem>.shardIofM.progress.jsonl` under `--shard`).
///
/// Every cell contributes a `start` record, zero or more `heartbeat`
/// records (engine-driven cells only, every
/// [`PROGRESS_HEARTBEAT_EVENTS`] events), and a `done` record carrying the
/// cell's final accounting and the number of JSONL rows it reduced to.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgressRecord {
    /// Registry name of the experiment.
    pub experiment: String,
    /// Shard assignment as `"I/M"`, or `""` for an unsharded run.
    pub shard: String,
    /// Absolute cell index in the experiment's (unsharded) grid.
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
/// with the experiment name and shard assignment and appends it to the
/// JSONL sidecar as one compact-JSON line. Lines are written atomically
/// through the closure-scoped [`Guarded`] lock, so concurrent cells
/// interleave whole records, never bytes — and the only concurrency
/// primitive lives in the audited [`crate::sweep`] module.
#[derive(Debug)]
pub struct ProgressSink {
    experiment: &'static str,
    shard: String,
    out: Guarded<std::fs::File>,
}

impl ProgressSink {
    /// Creates (truncating) the JSONL sidecar file for one experiment run.
    pub fn create(
        path: &Path,
        experiment: &'static str,
        shard: Option<Shard>,
    ) -> Result<ProgressSink, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("create progress sidecar {}: {e}", path.display()))?;
        Ok(ProgressSink {
            experiment,
            shard: shard.map_or(String::new(), |s| format!("{}/{}", s.index, s.count)),
            out: Guarded::new(file),
        })
    }

    fn emit(&self, cell: usize, tag: &str, phase: &str, p: &Progress, rows: usize) {
        let record = ProgressRecord {
            experiment: self.experiment.to_string(),
            shard: self.shard.clone(),
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

    /// `true` when heartbeats actually land in a sidecar — lets a bespoke
    /// driver skip progress bookkeeping entirely when nobody is listening.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Appends a heartbeat record for this cell.
    pub fn heartbeat(&self, progress: &Progress) {
        if let Some(sink) = self.sink {
            sink.emit(self.cell, self.tag, "heartbeat", progress, 0);
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
/// [`ScenarioSpec`], so any contiguous sharding of the grid concatenates
/// back to the unsharded file.
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
    /// drivers override [`Experiment::run`] instead. Engine-driven cells run
    /// as sessions in [`PROGRESS_HEARTBEAT_EVENTS`]-event slices, emitting a
    /// heartbeat between slices. With a disabled handle the session is
    /// driven uninterrupted — either way the report is byte-identical (the
    /// session equivalence suite pins sliced ≡ one-shot).
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
            (WorkloadSpec::Ball3 { .. }, _) if progress.enabled() => Outcome::Report3(Box::new(
                spec.run3_with_heartbeat(PROGRESS_HEARTBEAT_EVENTS, |p| progress.heartbeat(p)),
            )),
            (WorkloadSpec::Ball3 { .. }, _) => Outcome::Report3(Box::new(spec.run3())),
            _ if progress.enabled() => Outcome::Report(Box::new(
                spec.run_with_heartbeat(PROGRESS_HEARTBEAT_EVENTS, |p| progress.heartbeat(p)),
            )),
            _ => Outcome::Report(Box::new(spec.run())),
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

/// A claim checked row by row, for [`Experiment::check`]: an error states
/// `claim` and names each cell whose row `holds` rejects by its index in
/// `cells` and its `describe`d key fields.
pub(crate) fn check_rows<R>(
    cells: &[LabCell],
    row: impl Fn(&ScenarioSpec, &Outcome) -> R,
    claim: &str,
    holds: impl Fn(&R) -> bool,
    describe: impl Fn(&R) -> String,
) -> Result<(), String> {
    let failing: Vec<String> = cells
        .iter()
        .enumerate()
        .filter_map(|(i, cell)| {
            let r = row(&cell.spec, &cell.outcome);
            (!holds(&r)).then(|| format!("cell {i} ({})", describe(&r)))
        })
        .collect();
    if failing.is_empty() {
        Ok(())
    } else {
        Err(format!("{claim}; fails at {}", failing.join(", ")))
    }
}

// ---------------------------------------------------------------------------
// The Experiment trait
// ---------------------------------------------------------------------------

/// A declarative experiment: a named parameter grid plus a per-cell
/// reduction to JSONL rows. The shared runtime owns everything else —
/// parallel execution ([`SweepRunner`]), sharding, sinks, and the CLI.
///
/// The sharding contract: [`Experiment::run`] and [`Experiment::reduce`]
/// must be pure functions of the spec (every port in this workspace is),
/// so the runtime may execute any contiguous sub-range of the grid and
/// concatenate outputs byte-identically.
pub trait Experiment: Sync {
    /// The registry name (`lab run <name>`).
    fn name(&self) -> &'static str;

    /// The paper figure/table family this reproduces (e.g. `"T1"`).
    fn id(&self) -> &'static str;

    /// One-line banner title.
    fn title(&self) -> &'static str;

    /// The paper claim the experiment demonstrates (for `lab list` and the
    /// README experiments table).
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

    /// `true` when cells run through the default engine dispatch above, so
    /// a harness may rebuild a cell's session (or §7 adversary run) from
    /// the spec's public fields — the benchmark's traced run does, to time
    /// Compute. Experiments that override [`Experiment::run`] with a
    /// bespoke driver (Monte-Carlo trials, schedule searches, pure
    /// geometry) must also override this to `false`; such harnesses then
    /// call [`Experiment::run`] as is.
    fn engine_driven(&self) -> bool {
        true
    }

    /// Reduces one cell's outcome to its JSONL rows (possibly none).
    fn reduce(&self, spec: &ScenarioSpec, outcome: &Outcome) -> Vec<JsonRow>;

    /// Renders the human-readable tables and paper notes after a run. Under
    /// `--shard` only the shard's cells are rendered.
    fn render(&self, cells: &[LabCell]) {
        let _ = cells;
    }

    /// Post-run invariant checks (e.g. "zero lemma violations"). A failure
    /// makes the run exit non-zero after the rows are written.
    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        let _ = cells;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// A contiguous shard assignment `index/count` over a spec grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index (`0 ≤ index < count`).
    pub index: usize,
    /// Total shard count (`≥ 1`).
    pub count: usize,
}

impl Shard {
    /// Parses an `I/M` shard argument, rejecting malformed or out-of-range
    /// values with a message that names the failure.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, m) = s
            .split_once('/')
            .ok_or_else(|| format!("invalid --shard '{s}': expected I/M (e.g. 0/4)"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("invalid --shard '{s}': index '{i}' is not an integer"))?;
        let count: usize = m
            .trim()
            .parse()
            .map_err(|_| format!("invalid --shard '{s}': count '{m}' is not an integer"))?;
        if count == 0 {
            return Err(format!(
                "invalid --shard '{s}': shard count must be at least 1"
            ));
        }
        if index >= count {
            return Err(format!(
                "invalid --shard '{s}': index {index} out of range for {count} shard(s) \
                 (valid indices: 0..={})",
                count - 1
            ));
        }
        Ok(Shard { index, count })
    }

    /// The contiguous sub-range of a `len`-cell grid this shard owns.
    /// Ranges of shards `0..count` partition `0..len` in order, so
    /// concatenating per-shard outputs by index reproduces the unsharded
    /// output byte-for-byte. The bounds are computed in `u128`, so no
    /// shard count that [`Shard::parse`] accepts can overflow them.
    #[must_use]
    pub fn slice(self, len: usize) -> std::ops::Range<usize> {
        let bound = |i: usize| (i as u128 * len as u128 / self.count as u128) as usize;
        bound(self.index)..bound(self.index + 1)
    }

    /// The shard-qualified file name for an output stem.
    #[must_use]
    pub fn file_name(self, stem: &str) -> String {
        format!("{stem}.shard{}of{}.jsonl", self.index, self.count)
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
    /// Worker override; `None` uses [`SweepRunner::new`] sizing.
    pub threads: Option<usize>,
    /// Output directory override; `None` uses `target/experiments/`.
    pub out_dir: Option<PathBuf>,
    /// Process-level shard assignment.
    pub shard: Option<Shard>,
    /// Write per-cell progress heartbeats to a `<stem>.progress.jsonl`
    /// sidecar (`--progress`).
    pub progress: bool,
}

/// What one experiment run produced.
#[derive(Debug)]
pub struct RunSummary {
    /// Registry name.
    pub name: &'static str,
    /// Cells executed (the shard's slice of the grid).
    pub cells: usize,
    /// Rows written.
    pub rows: usize,
    /// The JSONL file written.
    pub path: PathBuf,
}

fn out_dir(opts: &LabOptions) -> PathBuf {
    opts.out_dir.clone().unwrap_or_else(crate::experiments_dir)
}

/// The sidecar file name for an output stem under an optional shard
/// assignment: `<stem>.progress.jsonl`, or
/// `<stem>.shard<I>of<M>.progress.jsonl` — shard-qualified exactly like the
/// row files, so concurrent shard processes never contend on one sidecar.
#[must_use]
pub fn progress_file_name(stem: &str, shard: Option<Shard>) -> String {
    match shard {
        Some(s) => format!("{stem}.shard{}of{}.progress.jsonl", s.index, s.count),
        None => format!("{stem}.progress.jsonl"),
    }
}

/// One selected experiment inside [`run_experiments`]: its (shard-sliced)
/// cells and, with `--progress`, its sidecar.
struct Planned<'a> {
    exp: &'a dyn Experiment,
    /// Absolute index of `specs[0]` in the unsharded grid.
    base: usize,
    total: usize,
    specs: Vec<ScenarioSpec>,
    sink: Option<(ProgressSink, PathBuf)>,
}

/// Executes experiments as one cell pool: every given experiment's grid
/// (its `--shard` slice) is flattened, in the order given, into one list
/// run on a single [`SweepRunner`], so no thread idles behind one
/// experiment's slowest cell while another's wait. Then, per experiment in
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
        let mut specs = exp.grid(opts.profile);
        let total = specs.len();
        let range = opts.shard.map_or(0..total, |s| s.slice(total));
        specs.truncate(range.end);
        specs.drain(..range.start);
        let sink = if opts.progress {
            let path = dir.join(progress_file_name(exp.output_stem(), opts.shard));
            Some((ProgressSink::create(&path, exp.name(), opts.shard)?, path))
        } else {
            None
        };
        plans.push(Planned {
            exp,
            base: range.start,
            total,
            specs,
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
            let progress =
                CellProgress::new(plan.sink.as_ref().map(|(s, _)| s), plan.base + i, spec.tag);
            progress.start();
            let outcome = plan.exp.run(spec, &progress);
            let rows = plan.exp.reduce(spec, &outcome);
            progress.done(&outcome, rows.len());
            (outcome, rows)
        })
        .into_iter();

    let mut summaries = Vec::with_capacity(plans.len());
    let mut failures = Vec::new();
    for plan in plans {
        let exp = plan.exp;
        crate::banner(exp.id(), exp.title());
        if let Some(s) = opts.shard {
            println!(
                "[shard {}/{}: cells {}..{} of {}]",
                s.index,
                s.count,
                plan.base,
                plan.base + plan.specs.len(),
                plan.total
            );
        }
        let cells: Vec<LabCell> = plan
            .specs
            .into_iter()
            .zip(results.by_ref())
            .map(|(spec, (outcome, rows))| LabCell {
                spec,
                outcome,
                rows,
            })
            .collect();
        let file = match opts.shard {
            Some(s) => s.file_name(exp.output_stem()),
            None => format!("{}.jsonl", exp.output_stem()),
        };
        let path = dir.join(file);
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

/// Merges an experiment's shard files (`<stem>.shard<I>of<M>.jsonl`) from
/// `dir` into `<stem>.jsonl`, in shard-index order. Fails unless exactly one
/// complete shard set is present.
pub fn merge_shards(stem: &str, dir: &Path) -> Result<PathBuf, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    // Collect (index, count, path) for names matching the shard pattern.
    let prefix = format!("{stem}.shard");
    let mut shards: Vec<(usize, usize, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name
            .strip_prefix(&prefix)
            .and_then(|r| r.strip_suffix(".jsonl"))
        else {
            continue;
        };
        let Some((i, m)) = rest.split_once("of") else {
            continue;
        };
        let (Ok(i), Ok(m)) = (i.parse::<usize>(), m.parse::<usize>()) else {
            continue;
        };
        shards.push((i, m, entry.path()));
    }
    if shards.is_empty() {
        return Err(format!(
            "no shard files matching {prefix}<I>of<M>.jsonl in {}",
            dir.display()
        ));
    }
    let count = shards[0].1;
    if shards.iter().any(|&(_, m, _)| m != count) {
        return Err(format!(
            "mixed shard counts for '{stem}' in {} — remove stale shard files first",
            dir.display()
        ));
    }
    shards.sort_by_key(|&(i, _, _)| i);
    let indices: Vec<usize> = shards.iter().map(|&(i, _, _)| i).collect();
    if indices != (0..count).collect::<Vec<_>>() {
        let missing: Vec<String> = (0..count)
            .filter(|i| !indices.contains(i))
            .map(|i| format!("{i} of {count}"))
            .collect();
        return Err(format!(
            "incomplete shard set for '{stem}': missing shard(s) [{}] (have indices {indices:?} \
             of 0..{count})",
            missing.join(", ")
        ));
    }
    let out = dir.join(format!("{stem}.jsonl"));
    // Stream each shard through a fixed-size copy buffer instead of
    // buffering whole files: shards merge in O(1) memory.
    let mut w = std::io::BufWriter::new(
        std::fs::File::create(&out).map_err(|e| format!("create {}: {e}", out.display()))?,
    );
    for (_, _, path) in &shards {
        let mut r = std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?,
        );
        std::io::copy(&mut r, &mut w).map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    w.flush()
        .map_err(|e| format!("flush {}: {e}", out.display()))?;
    Ok(out)
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
  lab merge <name>... [--out DIR]            merge shard files into <stem>.jsonl
  lab merge --all [--out DIR]                merge every complete shard set
  lab lint [--json]                          run cohesion-lint over the whole
                                             workspace (non-zero exit on any
                                             violation not allowlisted in
                                             lint.toml)

`run` and `all` feed every selected experiment's cells through one worker
pool, then write, render and check each experiment in registry order; a
failed check fails the run after every row file is written.

options:
  --quick          shrunken CI smoke grids (default: full reproduction)
  --full           the full reproduction grids (the default)
  --threads N      worker threads (default: all cores)
  --out DIR        output directory (default: target/experiments)
  --shard I/M      run only the I-th of M contiguous chunks of each grid;
                   outputs to <stem>.shardIofM.jsonl — concatenating shards
                   0..M in order (lab merge) is byte-identical to an
                   unsharded run
  --progress       stream per-cell heartbeats to a <stem>.progress.jsonl
                   sidecar per experiment (shard-qualified under --shard):
                   one start/done record per cell plus a heartbeat per 100k
                   engine events";

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
    all: bool,
}

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        opts: LabOptions::default(),
        names: Vec::new(),
        all: false,
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
            "--shard" => {
                let v = it.next().ok_or("--shard needs an I/M value")?;
                parsed.opts.shard = Some(Shard::parse(v)?);
            }
            "--progress" => parsed.opts.progress = true,
            "--all" => parsed.all = true,
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
                println!(
                    "  {:<20} {:>4} cells {:>5} rows  {}",
                    s.name,
                    s.cells,
                    s.rows,
                    s.path.display()
                );
            }
            Ok(())
        }
        "merge" => {
            let parsed = parse_args(rest)?;
            let dir = out_dir(&parsed.opts);
            if parsed.all {
                let mut merged_any = false;
                for exp in crate::experiments::REGISTRY {
                    match merge_shards(exp.output_stem(), &dir) {
                        Ok(path) => {
                            println!("merged {} -> {}", exp.name(), path.display());
                            merged_any = true;
                        }
                        Err(e) if e.starts_with("no shard files") => {}
                        Err(e) => return Err(e),
                    }
                }
                if !merged_any {
                    return Err(format!("no shard files found in {}", dir.display()));
                }
                Ok(())
            } else {
                if parsed.names.is_empty() {
                    return Err(format!(
                        "`lab merge` needs experiment names or --all\n\n{USAGE}"
                    ));
                }
                for name in &parsed.names {
                    let exp = find_experiment(name)?;
                    let path = merge_shards(exp.output_stem(), &dir)?;
                    println!("merged {} -> {}", exp.name(), path.display());
                }
                Ok(())
            }
        }
        "lint" => {
            let mut json = false;
            for arg in rest {
                match arg.as_str() {
                    "--json" => json = true,
                    other => return Err(format!("unknown `lab lint` option '{other}'\n\n{USAGE}")),
                }
            }
            let root = std::env::current_dir()
                .ok()
                .and_then(|d| cohesion_lint::find_workspace_root(&d))
                .or_else(|| {
                    cohesion_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
                })
                .ok_or("no workspace root (Cargo.toml + crates/) above the current directory")?;
            let report = cohesion_lint::lint_workspace(&root)?;
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!(
                    "cohesion-lint found {} violation(s)",
                    report.violations.len()
                ))
            }
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
    fn shard_parse_accepts_valid() {
        assert_eq!(Shard::parse("0/1").unwrap(), Shard { index: 0, count: 1 });
        assert_eq!(Shard::parse("2/7").unwrap(), Shard { index: 2, count: 7 });
    }

    #[test]
    fn shard_parse_rejects_malformed_and_out_of_range() {
        for bad in ["", "3", "a/b", "1/0", "2/2", "5/3", "-1/2"] {
            let err = Shard::parse(bad).unwrap_err();
            assert!(err.contains("invalid --shard"), "{bad}: {err}");
        }
        let err = Shard::parse("2/2").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(
            err.contains("0..=1"),
            "error should name the valid range: {err}"
        );
    }

    #[test]
    fn shard_slices_partition_in_order() {
        for len in [0usize, 1, 5, 16, 97] {
            for count in [1usize, 2, 3, 7] {
                let mut covered = Vec::new();
                let mut expected_start = 0;
                for index in 0..count {
                    let r = Shard { index, count }.slice(len);
                    assert_eq!(r.start, expected_start, "gap at shard {index}/{count}");
                    expected_start = r.end;
                    covered.extend(r);
                }
                assert_eq!(covered, (0..len).collect::<Vec<_>>());
            }
        }
    }

    /// A shard count near `usize::MAX` (which `Shard::parse` accepts) must
    /// not overflow the bounds: the last shard owns the last cell, and the
    /// shards at either end still chain contiguously over `0..len`.
    #[test]
    fn huge_shard_counts_still_partition() {
        for count in [usize::MAX, usize::MAX - 1] {
            for len in [1usize, 8, 97] {
                let last = Shard {
                    index: count - 1,
                    count,
                }
                .slice(len);
                assert_eq!(last, len - 1..len, "last of {count} shards, {len} cells");
                let window = |lo: usize, hi: usize| {
                    let ranges: Vec<_> = (lo..hi)
                        .map(|index| Shard { index, count }.slice(len))
                        .collect();
                    for pair in ranges.windows(2) {
                        assert_eq!(pair[0].end, pair[1].start, "gap in {count} shards");
                    }
                    ranges
                };
                assert_eq!(window(0, 4)[0].start, 0);
                assert_eq!(window(count - 4, count).last().map(|r| r.end), Some(len));
            }
        }
    }

    #[test]
    fn profile_pick() {
        assert_eq!(Profile::Quick.pick(1, 2), 1);
        assert_eq!(Profile::Full.pick(1, 2), 2);
        assert!(Profile::Quick.is_quick());
        assert_eq!(Profile::default(), Profile::Full);
    }
}
