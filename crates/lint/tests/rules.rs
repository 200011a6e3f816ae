//! Per-rule fixture tests: every rule has at least one tripping and one
//! passing fixture, plus scope tests proving each rule stops where its
//! path gate says it does.

use cohesion_lint::check_source;
use cohesion_lint::rules::Violation;

const D1_TRIP: &str = include_str!("fixtures/d1_trip.rs");
const D1_PASS: &str = include_str!("fixtures/d1_pass.rs");
const D2_TRIP: &str = include_str!("fixtures/d2_trip.rs");
const D2_PASS: &str = include_str!("fixtures/d2_pass.rs");
const D3_TRIP: &str = include_str!("fixtures/d3_trip.rs");
const D3_PASS: &str = include_str!("fixtures/d3_pass.rs");
const D4_TRIP: &str = include_str!("fixtures/d4_trip.rs");
const D4_PASS: &str = include_str!("fixtures/d4_pass.rs");
const D5_TRIP: &str = include_str!("fixtures/d5_trip.rs");
const D5_PASS: &str = include_str!("fixtures/d5_pass.rs");
const D6_TRIP: &str = include_str!("fixtures/d6_trip.rs");
const D6_PASS: &str = include_str!("fixtures/d6_pass.rs");

/// A path inside a deterministic crate's src/ — every D-rule is in scope.
const DET_SRC: &str = "crates/engine/src/fixture.rs";

fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
    violations.iter().map(|v| v.rule).collect()
}

// --- D1 -------------------------------------------------------------------

#[test]
fn d1_trips_on_unordered_iteration() {
    let v = check_source(DET_SRC, D1_TRIP);
    assert_eq!(rules_of(&v), ["D1", "D1"], "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("for … in")
        && v.message.contains("HashMap")
        && v.message.contains("`counts`")));
    assert!(v
        .iter()
        .any(|v| v.message.contains(".into_iter()") && v.message.contains("HashSet")));
    // Diagnostics point at real positions.
    assert!(v.iter().all(|v| v.line > 0 && v.col > 0));
}

#[test]
fn d1_passes_ordered_iteration_and_keyed_lookup() {
    let v = check_source(DET_SRC, D1_PASS);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn d1_out_of_scope_outside_deterministic_crates() {
    // The Look micro-benchmark is not on the deterministic surface.
    let v = check_source("crates/bench/src/lookbench.rs", D1_TRIP);
    assert!(!v.iter().any(|v| v.rule == "D1"), "{v:#?}");
}

#[test]
fn d1_applies_on_the_bench_emission_path() {
    let v = check_source("crates/bench/src/lab.rs", D1_TRIP);
    assert!(v.iter().any(|v| v.rule == "D1"), "{v:#?}");
}

// --- D2 -------------------------------------------------------------------

#[test]
fn d2_trips_on_wall_clock_reads() {
    let v = check_source(DET_SRC, D2_TRIP);
    assert_eq!(rules_of(&v), ["D2", "D2"], "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("Instant::now")));
    assert!(v.iter().any(|v| v.message.contains("SystemTime::now")));
}

#[test]
fn d2_ignores_clock_mentions_in_comments_strings_and_idents() {
    let v = check_source(DET_SRC, D2_PASS);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn d2_out_of_scope_in_the_sweep_pool_and_test_harnesses() {
    for rel in [
        "crates/bench/src/sweep.rs",
        "crates/telemetry/src/sync.rs",
        "crates/bench/tests/fixture.rs",
    ] {
        let v = check_source(rel, D2_TRIP);
        assert!(!v.iter().any(|v| v.rule == "D2"), "{rel}: {v:#?}");
    }
}

// --- D3 -------------------------------------------------------------------

#[test]
fn d3_trips_on_entropy_rng_construction() {
    let v = check_source(DET_SRC, D3_TRIP);
    assert_eq!(rules_of(&v), ["D3", "D3"], "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("from_entropy")));
    assert!(v.iter().any(|v| v.message.contains("rand::random")));
}

#[test]
fn d3_passes_seeded_construction() {
    let v = check_source(DET_SRC, D3_PASS);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn d3_applies_even_in_tests() {
    // A seeded test is replayable; an entropic one is not.
    let v = check_source("crates/engine/tests/fixture.rs", D3_TRIP);
    assert!(v.iter().any(|v| v.rule == "D3"), "{v:#?}");
}

// --- D4 -------------------------------------------------------------------

#[test]
fn d4_trips_on_concurrency_primitives() {
    let v = check_source(DET_SRC, D4_TRIP);
    assert!(!v.is_empty());
    assert!(v.iter().all(|v| v.rule == "D4"), "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("`thread::spawn`")));
    assert!(v.iter().any(|v| v.message.contains("`Mutex`")));
    assert!(v.iter().any(|v| v.message.contains("`mpsc`")));
}

#[test]
fn d4_passes_single_threaded_shared_state() {
    let v = check_source(DET_SRC, D4_PASS);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn d4_out_of_scope_in_approved_concurrency_modules() {
    for rel in [
        "crates/bench/src/sweep.rs",
        "crates/telemetry/src/sync.rs",
        "crates/bench/tests/fixture.rs",
    ] {
        let v = check_source(rel, D4_TRIP);
        assert!(!v.iter().any(|v| v.rule == "D4"), "{rel}: {v:#?}");
    }
}

// --- D5 -------------------------------------------------------------------

#[test]
fn d5_trips_on_undocumented_unsafe() {
    let v = check_source(DET_SRC, D5_TRIP);
    assert_eq!(rules_of(&v), ["D5"], "{v:#?}");
    assert!(v[0].message.contains("SAFETY"));
}

#[test]
fn d5_passes_documented_unsafe() {
    let v = check_source(DET_SRC, D5_PASS);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn d5_applies_even_in_tests() {
    let v = check_source("crates/engine/tests/fixture.rs", D5_TRIP);
    assert!(v.iter().any(|v| v.rule == "D5"), "{v:#?}");
}

// --- D6 -------------------------------------------------------------------

#[test]
fn d6_trips_on_bare_float_display() {
    // One violation per referent shape: inline capture, next-positional,
    // indexed positional, named argument, and a raw float literal.
    let v = check_source("crates/bench/src/lab.rs", D6_TRIP);
    assert_eq!(rules_of(&v), ["D6", "D6", "D6", "D6", "D6"], "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("`println!`")));
    assert!(v.iter().any(|v| v.message.contains("`eprintln!`")));
    assert!(v.iter().any(|v| v.message.contains("`writeln!`")));
    assert!(v.iter().any(|v| v.message.contains("`format!`")));
    assert!(v.iter().all(|v| v.line > 0 && v.col > 0));
}

#[test]
fn d6_passes_pinned_formats_and_non_floats() {
    let v = check_source("crates/bench/src/lab.rs", D6_PASS);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn d6_applies_across_the_telemetry_plane() {
    for rel in [
        "crates/telemetry/src/store.rs",
        "crates/bench/src/experiments/fixture.rs",
    ] {
        let v = check_source(rel, D6_TRIP);
        assert!(v.iter().any(|v| v.rule == "D6"), "{rel}: {v:#?}");
    }
}

#[test]
fn d6_out_of_scope_off_the_emission_paths() {
    // Engine internals and test harnesses may Display floats freely — only
    // the bytes that land in rows, frames, and dashboards are pinned.
    for rel in [
        DET_SRC,
        "crates/bench/src/sweep.rs",
        "crates/bench/tests/fixture.rs",
    ] {
        let v = check_source(rel, D6_TRIP);
        assert!(!v.iter().any(|v| v.rule == "D6"), "{rel}: {v:#?}");
    }
}
