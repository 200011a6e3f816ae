//! The experiment lab: declarative experiment registry, sharded runtime,
//! and shared harness utilities.
//!
//! Every paper figure/table family is an [`lab::Experiment`] registry entry
//! (see [`experiments::REGISTRY`]), run through the single `lab` binary
//! (`lab list` / `lab run <name>` / `lab all --quick` /
//! `lab merge <name>`). Output goes to stdout as aligned text tables, and —
//! for diffable regeneration — as JSON rows under `target/experiments/`.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod experiments;
pub mod lab;
pub mod lookbench;
pub mod net;
pub mod resume;
pub mod sweep;

pub use sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, SweepRunner, WorkloadSpec};

use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

/// Prints a header banner for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("{}", "=".repeat(72));
    println!("{id}: {title}");
    println!("{}", "=".repeat(72));
}

/// Where JSON experiment rows are written.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Dumps serializable rows as JSON lines next to the printed table.
pub fn dump_json<T: Serialize>(name: &str, rows: &[T]) {
    let path = experiments_dir().join(format!("{name}.jsonl"));
    let mut f = std::fs::File::create(&path).expect("create json dump");
    for row in rows {
        let line = serde_json::to_string(row).expect("serialize row");
        writeln!(f, "{line}").expect("write row");
    }
    println!("\n[rows dumped to {}]", path.display());
}

/// Formats a boolean as a compact check mark for tables.
pub fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks() {
        assert_eq!(mark(true), "yes");
        assert_eq!(mark(false), "NO");
    }

    #[test]
    fn dump_roundtrip() {
        #[derive(serde::Serialize)]
        struct Row {
            x: u32,
        }
        dump_json("selftest", &[Row { x: 1 }, Row { x: 2 }]);
        let content = std::fs::read_to_string(experiments_dir().join("selftest.jsonl")).unwrap();
        assert_eq!(content.lines().count(), 2);
    }
}
