//! The lab runtime's pool and progress contracts.
//!
//! The one cell pool must be invisible in the output: the row files of a
//! whole registry run do not depend on the thread count, and a failing
//! check neither hides the other experiments' rows nor skips their checks.
//! The progress sidecar must be invisible too: it never perturbs a row
//! file, and the one sliced engine driver lands on the one-shot report
//! whether or not a sidecar listens.

use cohesion_bench::experiments::REGISTRY;
use cohesion_bench::lab::{
    find_experiment, lab_main, progress_file_name, run_experiments, CellProgress, Declared,
    Experiment, LabOptions, Outcome, Profile,
};
use cohesion_bench::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A synthetic experiment with a configurable cell count: each cell is
/// analytic and reduces to a row that depends only on its spec, like every
/// real registry entry. Its `holds` counts its calls and rejects every row
/// when `fail` is set.
struct SyntheticGrid {
    name: &'static str,
    cells: usize,
    fail: bool,
    holds: AtomicUsize,
}

impl SyntheticGrid {
    fn named(name: &'static str, cells: usize, fail: bool) -> SyntheticGrid {
        SyntheticGrid {
            name,
            cells,
            fail,
            holds: AtomicUsize::new(0),
        }
    }
}

#[derive(Serialize)]
struct SyntheticRow {
    cell: u64,
    mixed: u64,
}

impl Declared for SyntheticGrid {
    type Row = SyntheticRow;

    fn name(&self) -> &'static str {
        self.name
    }

    fn id(&self) -> &'static str {
        "TEST"
    }

    fn title(&self) -> &'static str {
        "synthetic pool fixture"
    }

    fn claim(&self) -> &'static str {
        "test fixture"
    }

    fn output_stem(&self) -> &'static str {
        self.name
    }

    fn grid(&self, _profile: Profile) -> Vec<ScenarioSpec> {
        (0..self.cells)
            .map(|i| ScenarioSpec {
                seed: i as u64,
                ..ScenarioSpec::tagged(
                    "synthetic",
                    WorkloadSpec::Line { n: 1, spacing: 0.0 },
                    AlgorithmSpec::Nil,
                    SchedulerSpec::FSync,
                )
            })
            .collect()
    }

    fn run(&self, _spec: &ScenarioSpec, _progress: &CellProgress<'_>) -> Outcome {
        Outcome::Analytic
    }

    fn row(&self, spec: &ScenarioSpec, _outcome: &Outcome) -> SyntheticRow {
        SyntheticRow {
            cell: spec.seed,
            mixed: spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn holds(&self, _row: &SyntheticRow, _rows: &[SyntheticRow]) -> bool {
        self.holds.fetch_add(1, Ordering::Relaxed);
        !self.fail
    }

    fn table(&self, row: &SyntheticRow) -> Vec<(&'static str, String)> {
        vec![("cell", row.cell.to_string())]
    }

    fn notes(&self) -> String {
        String::new()
    }
}

/// A fresh scratch directory under the target dir (kept out of
/// `target/experiments/` so test artifacts never mix with real outputs).
fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/lab-test-scratch")
        .join(format!("{label}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn quick(threads: usize, dir: &Path) -> LabOptions {
    LabOptions {
        profile: Profile::Quick,
        threads: Some(threads),
        out_dir: Some(dir.to_path_buf()),
        progress: false,
    }
}

/// Every registry experiment's row file in `dir`, in registry order.
fn registry_rows(dir: &Path) -> Vec<(&'static str, Vec<u8>)> {
    REGISTRY
        .iter()
        .map(|e| {
            let path = dir.join(format!("{}.jsonl", e.output_stem()));
            let bytes =
                std::fs::read(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()));
            (e.name(), bytes)
        })
        .collect()
}

/// The whole registry as one pool writes the same 11 files on 1 thread as
/// on 3: which worker ran a cell, and which experiment's cells it ran in
/// between, never reaches the rows.
#[test]
fn pool_rows_are_independent_of_the_thread_count() {
    let (one, three) = (scratch_dir("pool-1"), scratch_dir("pool-3"));
    let serial = run_experiments(REGISTRY, &quick(1, &one)).expect("registry runs");
    run_experiments(REGISTRY, &quick(3, &three)).expect("registry runs");
    assert_eq!(serial.len(), 11, "one summary per registry experiment");
    assert_eq!(registry_rows(&one), registry_rows(&three));
    std::fs::remove_dir_all(&one).ok();
    std::fs::remove_dir_all(&three).ok();
}

/// A failing check between real experiments fails the run, naming only
/// the failing experiment and each cell its claim rejects — after every
/// row file is written and every other check has run.
#[test]
fn a_failed_check_still_writes_every_file_and_runs_every_check() {
    let dir = scratch_dir("pool-check");
    let failing = SyntheticGrid::named("failing_check", 4, true);
    let last = SyntheticGrid::named("last_check", 3, false);
    let [safe_regions, k_scaling] =
        ["safe_regions", "k_scaling"].map(|n| find_experiment(n).expect("registered"));
    let exps: [&dyn Experiment; 4] = [safe_regions, &failing, k_scaling, &last];
    let err = run_experiments(&exps, &quick(2, &dir)).unwrap_err();
    assert_eq!(
        err,
        "failing_check: invariant check failed: test fixture; fails at cell 0 (cell = 0), \
         cell 1 (cell = 1), cell 2 (cell = 2), cell 3 (cell = 3)",
        "the error names the failing experiment and its rejected cells only"
    );
    for exp in exps {
        let path = dir.join(format!("{}.jsonl", exp.output_stem()));
        assert!(path.exists(), "{} was not written", path.display());
    }
    assert_eq!(failing.holds.load(Ordering::Relaxed), 4, "one call per row");
    assert_eq!(last.holds.load(Ordering::Relaxed), 3, "later checks run");
    std::fs::remove_dir_all(&dir).ok();
}

/// One JSONL sidecar line parses as a single JSON object carrying every
/// schema key.
fn assert_well_formed_progress_line(line: &str) {
    let record = serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    let fields = record
        .as_object()
        .unwrap_or_else(|| panic!("not a JSON object: {line}"));
    for key in [
        "experiment",
        "cell",
        "tag",
        "phase",
        "events",
        "rounds",
        "time",
        "diameter",
        "cohesion_ok",
        "converged",
        "rows",
    ] {
        assert!(fields.contains_key(key), "missing {key}: {line}");
    }
}

/// `--progress` writes a well-formed JSONL sidecar — exactly one start and
/// one done record for each cell `0..N-1`, heartbeats for engine cells —
/// while the row file stays byte-identical to a run without it.
#[test]
fn progress_sidecar_is_written_and_well_formed() {
    let name = "k_scaling";
    let exp = find_experiment(name).expect("registered");
    let dir = scratch_dir("progress");
    run_experiments(&[exp], &quick(2, &dir)).expect("experiment runs");
    let rows_plain = std::fs::read(dir.join(format!("{}.jsonl", exp.output_stem()))).expect("rows");

    let opts = LabOptions {
        progress: true,
        ..quick(2, &dir)
    };
    let summary = run_experiments(&[exp], &opts)
        .expect("experiment runs")
        .remove(0);
    let rows_observed =
        std::fs::read(dir.join(format!("{}.jsonl", exp.output_stem()))).expect("rows");
    assert_eq!(
        rows_plain, rows_observed,
        "the sidecar must not perturb the row file"
    );

    let sidecar = dir.join(progress_file_name(exp.output_stem()));
    let content = std::fs::read_to_string(&sidecar).expect("sidecar written");
    assert!(!content.is_empty(), "sidecar is empty");
    let mut starts = vec![0usize; summary.cells];
    let mut dones = vec![0usize; summary.cells];
    for line in content.lines() {
        assert_well_formed_progress_line(line);
        let record = serde_json::from_str(line).expect("parses");
        assert_eq!(
            record.get("experiment").and_then(|v| v.as_str()),
            Some(name)
        );
        let cell = record.get("cell").and_then(|v| v.as_u64()).expect("cell") as usize;
        match record.get("phase").and_then(|v| v.as_str()) {
            Some("start") => starts[cell] += 1,
            Some("done") => dones[cell] += 1,
            _ => {}
        }
    }
    assert_eq!(starts, vec![1; summary.cells], "one start record per cell");
    assert_eq!(dones, vec![1; summary.cells], "one done record per cell");
    std::fs::remove_dir_all(&dir).ok();
}

/// The heartbeat records of `sidecar`, each checked well formed and landing
/// on the next multiple of the cadence.
fn assert_beats_at_the_cadence(sidecar: &Path, expected: usize) {
    use cohesion_bench::lab::PROGRESS_HEARTBEAT_EVENTS;
    let content = std::fs::read_to_string(sidecar).expect("sidecar written");
    let beats: Vec<&str> = content
        .lines()
        .filter(|l| l.contains("\"phase\":\"heartbeat\""))
        .collect();
    assert_eq!(beats.len(), expected, "{}", sidecar.display());
    for (i, line) in beats.iter().enumerate() {
        assert_well_formed_progress_line(line);
        let events = (i + 1) * PROGRESS_HEARTBEAT_EVENTS;
        assert!(
            line.contains(&format!("\"events\":{events},")),
            "beat {i} should land at {events} events: {line}"
        );
    }
}

/// A cell whose budget exceeds the 100k-event heartbeat cadence runs through
/// `Outcome::compute_with` in slices: with a sidecar it streams heartbeats
/// with increasing event counts, and with or without one it lands on the
/// one-shot report — in 2D, and in 3D for a [`WorkloadSpec::Ball3`] cell.
#[test]
fn engine_cells_past_the_cadence_emit_heartbeats() {
    use cohesion_bench::lab::{ProgressSink, NO_PROGRESS, PROGRESS_HEARTBEAT_EVENTS};
    let dir = scratch_dir("heartbeat");
    let max_events = 2 * PROGRESS_HEARTBEAT_EVENTS + PROGRESS_HEARTBEAT_EVENTS / 2;

    let spec = ScenarioSpec {
        max_events,
        ..ScenarioSpec::new(
            WorkloadSpec::Line { n: 3, spacing: 0.9 },
            AlgorithmSpec::Nil,
            SchedulerSpec::FSync,
        )
    };
    let sidecar = dir.join("heartbeat.progress.jsonl");
    let sink = ProgressSink::create(&sidecar, "heartbeat_fixture").expect("sink");
    let outcome = Outcome::compute_with(&spec, &CellProgress::new(Some(&sink), 0, spec.tag));
    drop(sink);
    assert_beats_at_the_cadence(&sidecar, 2);
    let one_shot = spec.run();
    assert_eq!(
        outcome.report(),
        &one_shot,
        "heartbeat-driven cell must reproduce the plain run"
    );
    assert_eq!(
        Outcome::compute_with(&spec, &NO_PROGRESS).report(),
        &one_shot,
        "the sliced driver without a sidecar must reproduce the plain run"
    );

    let spec3 = ScenarioSpec {
        max_events,
        ..ScenarioSpec::new(
            WorkloadSpec::Ball3 {
                n: 3,
                v: 1.0,
                seed: 1,
            },
            AlgorithmSpec::Nil,
            SchedulerSpec::FSync,
        )
    };
    let sidecar3 = dir.join("heartbeat3.progress.jsonl");
    let sink = ProgressSink::create(&sidecar3, "heartbeat_fixture").expect("sink");
    let outcome3 = Outcome::compute_with(&spec3, &CellProgress::new(Some(&sink), 0, spec3.tag));
    drop(sink);
    assert_beats_at_the_cadence(&sidecar3, 2);
    let Outcome::Report3(report3) = outcome3 else {
        panic!("a Ball3 cell yields a 3D report, got {outcome3:?}");
    };
    assert_eq!(
        *report3,
        spec3.session3().run_to_completion(),
        "heartbeat-driven 3D cell must reproduce the plain run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `lab run` refuses a repeated experiment name: both runs would write the
/// same row file and sidecar concurrently.
#[test]
fn lab_run_rejects_a_repeated_name() {
    let args: Vec<String> = ["run", "k_scaling", "timelines", "k_scaling", "--quick"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = lab_main(&args).unwrap_err();
    assert_eq!(err, "`lab run` names 'k_scaling' twice");
}
