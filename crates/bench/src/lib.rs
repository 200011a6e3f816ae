//! The experiment lab: declarative experiment registry, its one-pool
//! runtime, and shared harness utilities.
//!
//! Every paper figure/table family is an [`lab::Experiment`] registry entry
//! (see [`experiments::REGISTRY`]), run through the single `lab` binary
//! (`lab list` / `lab run <name>` / `lab all --quick`). Output goes to
//! stdout as aligned text tables, and — for diffable regeneration — as JSON
//! rows under `target/experiments/`.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod experiments;
pub mod lab;
pub mod lookbench;
pub mod sweep;

pub use sweep::{AlgorithmSpec, ScenarioSpec, SchedulerSpec, SweepRunner, WorkloadSpec};

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
}
