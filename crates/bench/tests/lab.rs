//! The lab runtime's pool and sharding contracts.
//!
//! `--shard I/M` must be invisible in the output: running the `M` contiguous
//! shards of a grid and concatenating their JSONL files in index order is
//! byte-identical to one unsharded run. These tests pin that at three
//! levels: a property test over random grid sizes and shard counts with a
//! synthetic experiment, an end-to-end check on real registry experiments
//! (including `merge_shards`), and the CLI's rejection of malformed or
//! out-of-range `--shard` arguments.
//!
//! The one cell pool must be invisible too: the row files of a whole
//! registry run do not depend on the thread count or on sharding, and a
//! failing check neither hides the other experiments' rows nor skips their
//! checks.

use cohesion_bench::experiments::REGISTRY;
use cohesion_bench::lab::{
    find_experiment, lab_main, merge_shards, progress_file_name, run_experiments, CellProgress,
    Experiment, JsonRow, LabCell, LabOptions, Outcome, Profile, Shard,
};
use cohesion_bench::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use proptest::prelude::*;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A synthetic experiment with a configurable cell count: each cell is
/// analytic and reduces to a row that depends only on its spec, like every
/// real registry entry. Its `check` counts its calls and fails when `fail`
/// is set.
struct SyntheticGrid {
    name: &'static str,
    cells: usize,
    fail: bool,
    checks: AtomicUsize,
}

impl SyntheticGrid {
    fn new(cells: usize) -> SyntheticGrid {
        SyntheticGrid::named("synthetic_grid", cells, false)
    }

    fn named(name: &'static str, cells: usize, fail: bool) -> SyntheticGrid {
        SyntheticGrid {
            name,
            cells,
            fail,
            checks: AtomicUsize::new(0),
        }
    }
}

#[derive(Serialize)]
struct SyntheticRow {
    cell: u64,
    mixed: u64,
}

impl Experiment for SyntheticGrid {
    fn name(&self) -> &'static str {
        self.name
    }

    fn id(&self) -> &'static str {
        "TEST"
    }

    fn title(&self) -> &'static str {
        "synthetic sharding fixture"
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

    fn reduce(&self, spec: &ScenarioSpec, _outcome: &Outcome) -> Vec<JsonRow> {
        vec![JsonRow::of(&SyntheticRow {
            cell: spec.seed,
            mixed: spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        })]
    }

    fn check(&self, cells: &[LabCell]) -> Result<(), String> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.fail {
            Err(format!("{} cells, all rejected", cells.len()))
        } else {
            Ok(())
        }
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

fn quick(threads: usize, dir: &Path, shard: Option<Shard>) -> LabOptions {
    LabOptions {
        profile: Profile::Quick,
        threads: Some(threads),
        out_dir: Some(dir.to_path_buf()),
        shard,
        progress: false,
    }
}

fn run_sharded(exp: &dyn Experiment, dir: &Path, shard: Option<Shard>) {
    run_experiments(&[exp], &quick(2, dir, shard)).expect("experiment runs");
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
    let serial = run_experiments(REGISTRY, &quick(1, &one, None)).expect("registry runs");
    run_experiments(REGISTRY, &quick(3, &three, None)).expect("registry runs");
    assert_eq!(serial.len(), 11, "one summary per registry experiment");
    assert_eq!(registry_rows(&one), registry_rows(&three));
    std::fs::remove_dir_all(&one).ok();
    std::fs::remove_dir_all(&three).ok();
}

/// Shards 0/2 and 1/2 of a whole-registry pool, merged per experiment,
/// reproduce the unsharded pool's files byte for byte.
#[test]
fn pool_shards_merge_to_the_unsharded_pool() {
    let dir = scratch_dir("pool-shards");
    run_experiments(REGISTRY, &quick(2, &dir, None)).expect("registry runs");
    let unsharded = registry_rows(&dir);
    for index in 0..2 {
        let shard = Some(Shard { index, count: 2 });
        run_experiments(REGISTRY, &quick(2, &dir, shard)).expect("shard runs");
    }
    for exp in REGISTRY {
        merge_shards(exp.output_stem(), &dir).expect("merge");
    }
    assert_eq!(registry_rows(&dir), unsharded);
    std::fs::remove_dir_all(&dir).ok();
}

/// A failing check between real experiments fails the run, naming only
/// the failing experiment — after every row file is written and every
/// other check has run.
#[test]
fn a_failed_check_still_writes_every_file_and_runs_every_check() {
    let dir = scratch_dir("pool-check");
    let failing = SyntheticGrid::named("failing_check", 4, true);
    let last = SyntheticGrid::named("last_check", 3, false);
    let [safe_regions, k_scaling] =
        ["safe_regions", "k_scaling"].map(|n| find_experiment(n).expect("registered"));
    let exps: [&dyn Experiment; 4] = [safe_regions, &failing, k_scaling, &last];
    let err = run_experiments(&exps, &quick(2, &dir, None)).unwrap_err();
    assert_eq!(
        err, "failing_check: invariant check failed: 4 cells, all rejected",
        "the error names the failing experiment only"
    );
    for exp in exps {
        let path = dir.join(format!("{}.jsonl", exp.output_stem()));
        assert!(path.exists(), "{} was not written", path.display());
    }
    assert_eq!(failing.checks.load(Ordering::Relaxed), 1);
    assert_eq!(last.checks.load(Ordering::Relaxed), 1, "later checks run");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concatenating `--shard i/m` outputs in index order must reproduce
    /// the unsharded JSONL byte-for-byte, for arbitrary grid sizes and
    /// shard counts.
    #[test]
    fn sharded_concatenation_matches_unsharded_synthetic(
        cells in 0usize..40,
        m in (0usize..4).prop_map(|i| [1usize, 2, 3, 7][i]),
    ) {
        let exp = SyntheticGrid::new(cells);
        let dir = scratch_dir("prop");
        run_sharded(&exp, &dir, None);
        let unsharded =
            std::fs::read(dir.join("synthetic_grid.jsonl")).expect("unsharded output");
        let mut concatenated = Vec::new();
        for index in 0..m {
            let shard = Shard { index, count: m };
            run_sharded(&exp, &dir, Some(shard));
            let bytes = std::fs::read(dir.join(shard.file_name("synthetic_grid")))
                .expect("shard output");
            concatenated.extend_from_slice(&bytes);
        }
        prop_assert_eq!(&unsharded, &concatenated);
        // And merge_shards agrees (it overwrites the unsharded file).
        let merged = merge_shards("synthetic_grid", &dir).expect("merge");
        prop_assert_eq!(&std::fs::read(merged).expect("merged bytes"), &unsharded);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The same contract end-to-end on real registry experiments (quick
/// profile): every instant-grid entry plus one engine-backed sweep.
#[test]
fn sharded_concatenation_matches_unsharded_registry() {
    for name in ["safe_regions", "ando_separation", "k_scaling"] {
        let exp = *cohesion_bench::experiments::REGISTRY
            .iter()
            .find(|e| e.name() == name)
            .expect("registered");
        let dir = scratch_dir(name);
        run_sharded(exp, &dir, None);
        let unsharded = std::fs::read(dir.join(format!("{}.jsonl", exp.output_stem())))
            .expect("unsharded output");
        for index in 0..2 {
            run_sharded(exp, &dir, Some(Shard { index, count: 2 }));
        }
        let merged = merge_shards(exp.output_stem(), &dir).expect("merge");
        assert_eq!(
            std::fs::read(merged).expect("merged bytes"),
            unsharded,
            "{name}: shard-and-merge must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
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
        "shard",
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

/// `--progress` writes a well-formed JSONL sidecar — one start and one done
/// record per cell, heartbeats for engine cells — while the row file stays
/// byte-identical to a run without it.
#[test]
fn progress_sidecar_is_written_and_well_formed() {
    let name = "k_scaling";
    let exp = *cohesion_bench::experiments::REGISTRY
        .iter()
        .find(|e| e.name() == name)
        .expect("registered");
    let dir = scratch_dir("progress");
    run_sharded(exp, &dir, None);
    let rows_plain = std::fs::read(dir.join(format!("{}.jsonl", exp.output_stem()))).expect("rows");

    let opts = LabOptions {
        profile: Profile::Quick,
        threads: Some(2),
        out_dir: Some(dir.clone()),
        shard: None,
        progress: true,
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

    let sidecar = dir.join(progress_file_name(exp.output_stem(), None));
    let content = std::fs::read_to_string(&sidecar).expect("sidecar written");
    let lines: Vec<&str> = content.lines().collect();
    assert!(!lines.is_empty(), "sidecar is empty");
    let mut starts = 0usize;
    let mut dones = 0usize;
    for line in &lines {
        assert_well_formed_progress_line(line);
        assert!(
            line.contains(&format!("\"experiment\":\"{name}\"")),
            "{line}"
        );
        assert!(line.contains("\"shard\":\"\""), "unsharded run: {line}");
        if line.contains("\"phase\":\"start\"") {
            starts += 1;
        }
        if line.contains("\"phase\":\"done\"") {
            dones += 1;
        }
    }
    assert_eq!(starts, summary.cells, "one start record per cell");
    assert_eq!(dones, summary.cells, "one done record per cell");
    std::fs::remove_dir_all(&dir).ok();
}

/// A cell whose budget exceeds the 100k-event heartbeat cadence actually
/// streams heartbeats through `Outcome::compute_with`, with monotonically
/// increasing event counts, and still lands on the plain-run report.
#[test]
fn engine_cells_past_the_cadence_emit_heartbeats() {
    use cohesion_bench::lab::{CellProgress, ProgressSink, PROGRESS_HEARTBEAT_EVENTS};
    let dir = scratch_dir("heartbeat");
    let spec = ScenarioSpec {
        max_events: 2 * PROGRESS_HEARTBEAT_EVENTS + PROGRESS_HEARTBEAT_EVENTS / 2,
        ..ScenarioSpec::new(
            WorkloadSpec::Line { n: 3, spacing: 0.9 },
            AlgorithmSpec::Nil,
            SchedulerSpec::FSync,
        )
    };
    let sidecar = dir.join("heartbeat.progress.jsonl");
    let sink = ProgressSink::create(&sidecar, "heartbeat_fixture", None).expect("sink");
    let outcome = Outcome::compute_with(&spec, &CellProgress::new(Some(&sink), 0, spec.tag));
    drop(sink);

    let content = std::fs::read_to_string(&sidecar).expect("sidecar written");
    let beats: Vec<&str> = content
        .lines()
        .filter(|l| l.contains("\"phase\":\"heartbeat\""))
        .collect();
    assert_eq!(beats.len(), 2, "250k events at a 100k cadence beat twice");
    for (i, line) in beats.iter().enumerate() {
        assert_well_formed_progress_line(line);
        let expected = (i + 1) * PROGRESS_HEARTBEAT_EVENTS;
        assert!(
            line.contains(&format!("\"events\":{expected},")),
            "beat {i} should land at {expected} events: {line}"
        );
    }
    assert_eq!(
        outcome.report(),
        &spec.run(),
        "heartbeat-driven cell must reproduce the plain run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Under `--shard` the sidecar is shard-qualified (no cross-process file
/// contention) and its cell indices are absolute grid positions.
#[test]
fn progress_sidecar_is_shard_qualified() {
    let exp = SyntheticGrid::new(10);
    let dir = scratch_dir("progress-shard");
    let shard = Shard { index: 1, count: 2 };
    let opts = LabOptions {
        profile: Profile::Quick,
        threads: Some(2),
        out_dir: Some(dir.clone()),
        shard: Some(shard),
        progress: true,
    };
    run_experiments(&[&exp], &opts).expect("experiment runs");
    let sidecar = dir.join(progress_file_name("synthetic_grid", Some(shard)));
    let content = std::fs::read_to_string(&sidecar).expect("sharded sidecar written");
    for line in content.lines() {
        assert_well_formed_progress_line(line);
        assert!(line.contains("\"shard\":\"1/2\""), "{line}");
    }
    // Shard 1/2 of 10 cells owns the absolute range 5..10.
    for cell in 5..10 {
        assert!(
            content.contains(&format!("\"cell\":{cell},")),
            "missing absolute cell {cell}"
        );
    }
    assert!(
        !content.contains("\"cell\":0,"),
        "cell 0 belongs to shard 0"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Out-of-range and malformed `--shard` arguments fail with a clear error,
/// both at the parser and through the CLI entry point.
#[test]
fn out_of_range_shard_arguments_fail_clearly() {
    let err = Shard::parse("2/2").unwrap_err();
    assert!(err.contains("out of range"), "{err}");
    assert!(err.contains("0..=1"), "{err}");

    let args: Vec<String> = ["run", "k_scaling", "--shard", "5/3"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = lab_main(&args).unwrap_err();
    assert!(err.contains("invalid --shard '5/3'"), "{err}");
    assert!(err.contains("out of range"), "{err}");

    let args: Vec<String> = ["run", "k_scaling", "--shard", "0/0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let err = lab_main(&args).unwrap_err();
    assert!(err.contains("at least 1"), "{err}");
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

/// `merge_shards` streams: a multi-megabyte synthetic shard set merges into
/// exactly the concatenation of its shard files, in index order — including
/// double-digit indices, where lexicographic file-name order would
/// interleave `10` before `2`.
#[test]
fn merge_streams_large_shard_sets_in_index_order() {
    use std::io::Write;
    let dir = scratch_dir("merge-large");
    let shards = 12usize;
    let mut expected: Vec<u8> = Vec::new();
    for index in 0..shards {
        let shard = Shard {
            index,
            count: shards,
        };
        let path = dir.join(shard.file_name("synthetic_big"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("shard file"));
        // ~0.5 MB per shard: large enough that a merge that slurped whole
        // files would be visibly memory-hungry, small enough for CI.
        for row in 0..8_000u64 {
            let line = format!(
                "{{\"shard\":{index},\"row\":{row},\"mix\":{}}}\n",
                (index as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(row)
            );
            f.write_all(line.as_bytes()).expect("write row");
            expected.extend_from_slice(line.as_bytes());
        }
        f.flush().expect("flush shard");
    }
    let merged = merge_shards("synthetic_big", &dir).expect("merge");
    let bytes = std::fs::read(&merged).expect("merged bytes");
    assert_eq!(bytes.len(), expected.len(), "merged size must match");
    assert_eq!(
        bytes, expected,
        "merge must concatenate in shard-index order"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `merge_shards` refuses incomplete or mixed shard sets instead of
/// silently producing a short file.
#[test]
fn merge_rejects_incomplete_and_mixed_shard_sets() {
    let exp = SyntheticGrid::new(6);
    let dir = scratch_dir("merge");
    run_sharded(&exp, &dir, Some(Shard { index: 0, count: 3 }));
    let err = merge_shards("synthetic_grid", &dir).unwrap_err();
    assert!(err.contains("incomplete shard set"), "{err}");
    // The error names exactly which shards are absent — with only 0/3 on
    // disk, that's 1 of 3 and 2 of 3, and nothing else.
    assert!(err.contains("missing shard(s) [1 of 3, 2 of 3]"), "{err}");
    assert!(
        !err.contains("0 of 3"),
        "present shards are not missing: {err}"
    );

    run_sharded(&exp, &dir, Some(Shard { index: 1, count: 2 }));
    let err = merge_shards("synthetic_grid", &dir).unwrap_err();
    assert!(err.contains("mixed shard counts"), "{err}");

    let err = merge_shards("no_such_stem", &dir).unwrap_err();
    assert!(err.contains("no shard files"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
