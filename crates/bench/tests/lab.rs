//! The lab runtime's sharding contract.
//!
//! `--shard I/M` must be invisible in the output: running the `M` contiguous
//! shards of a grid and concatenating their JSONL files in index order is
//! byte-identical to one unsharded run. These tests pin that at three
//! levels: a property test over random grid sizes and shard counts with a
//! synthetic experiment, an end-to-end check on real registry experiments
//! (including `merge_shards`), and the CLI's rejection of malformed or
//! out-of-range `--shard` arguments.

use cohesion_bench::lab::{
    lab_main, merge_shards, progress_file_name, run_experiment, CellProgress, Experiment, JsonRow,
    LabOptions, Outcome, Profile, Shard,
};
use cohesion_bench::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, WorkloadSpec};
use proptest::prelude::*;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A synthetic experiment with a configurable cell count: each cell is
/// analytic and reduces to a row that depends only on its spec, like every
/// real registry entry.
struct SyntheticGrid {
    cells: usize,
}

#[derive(Serialize)]
struct SyntheticRow {
    cell: u64,
    mixed: u64,
}

impl Experiment for SyntheticGrid {
    fn name(&self) -> &'static str {
        "synthetic_grid"
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
        "synthetic_grid"
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

fn run_sharded(exp: &dyn Experiment, dir: &Path, shard: Option<Shard>) {
    let opts = LabOptions {
        profile: Profile::Quick,
        threads: Some(2),
        out_dir: Some(dir.to_path_buf()),
        shard,
        progress: false,
    };
    run_experiment(exp, &opts).expect("experiment runs");
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
        let exp = SyntheticGrid { cells };
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

/// Minimal structural well-formedness for one JSONL sidecar line (the
/// offline serde_json stand-in has no decoder): one object per line with
/// balanced quoting and every schema key present.
fn assert_well_formed_progress_line(line: &str) {
    assert!(
        line.starts_with('{') && line.ends_with('}'),
        "not a JSON object: {line}"
    );
    let quotes = line.matches('"').count() - line.matches("\\\"").count();
    assert_eq!(quotes % 2, 0, "unbalanced quotes: {line}");
    for key in [
        "\"experiment\":",
        "\"shard\":",
        "\"cell\":",
        "\"tag\":",
        "\"phase\":",
        "\"events\":",
        "\"rounds\":",
        "\"time\":",
        "\"diameter\":",
        "\"cohesion_ok\":",
        "\"converged\":",
        "\"rows\":",
    ] {
        assert!(line.contains(key), "missing {key}: {line}");
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
    let summary = run_experiment(exp, &opts).expect("experiment runs");
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
    let exp = SyntheticGrid { cells: 10 };
    let dir = scratch_dir("progress-shard");
    let shard = Shard { index: 1, count: 2 };
    let opts = LabOptions {
        profile: Profile::Quick,
        threads: Some(2),
        out_dir: Some(dir.clone()),
        shard: Some(shard),
        progress: true,
    };
    run_experiment(&exp, &opts).expect("experiment runs");
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
    let exp = SyntheticGrid { cells: 6 };
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
