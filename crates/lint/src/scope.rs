//! Which files each rule applies to.
//!
//! Paths are workspace-relative with `/` separators. The enforcement
//! surface is `crates/**` — `third_party/` holds vendored offline
//! stand-ins for crates.io dependencies (not this repo's code), `target/`
//! is build output, and `tests/fixtures/` directories hold deliberately
//! violating lint fixtures.
//!
//! The scope philosophy, mirrored in the README rule table:
//!
//! * **Library/production sources** (`src/**`) carry the determinism and
//!   concurrency invariants — they are the code whose outputs the
//!   byte-identity contracts pin.
//! * **Test/bench/example harnesses** may time themselves and orchestrate
//!   worker processes by design, so D2/D4 stop at `src/`. D3 (entropy) and
//!   D5 (unsafe hygiene) apply everywhere: a seeded test is replayable, an
//!   entropic one is not.

/// Crates whose outputs must be bit-reproducible: everything that feeds
/// the frozen-hash equivalence suites and the merged experiment rows.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "geometry",
    "model",
    "algorithms",
    "scheduler",
    "engine",
    "adversary",
    "workloads",
];

/// `bench` files on the row/report emission path: everything between a
/// finished simulation and the bytes of a merged JSONL file.
const BENCH_EMISSION: &[&str] = &["crates/bench/src/lab.rs"];

/// The only modules allowed to spawn threads, share state, or read the
/// wall clock: the sweep thread pool, which also holds the progress
/// sidecar's one audited lock wrapper.
const CONCURRENCY_MODULES: &[&str] = &["crates/bench/src/sweep.rs"];

fn in_deterministic_src(rel: &str) -> bool {
    DETERMINISTIC_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

fn in_bench_emission(rel: &str) -> bool {
    BENCH_EMISSION.contains(&rel) || rel.starts_with("crates/bench/src/experiments/")
}

fn in_src(rel: &str) -> bool {
    rel.contains("/src/")
}

fn in_concurrency_module(rel: &str) -> bool {
    CONCURRENCY_MODULES.contains(&rel)
}

/// D1: deterministic crates' sources plus the bench emission path.
pub fn d1_applies(rel: &str) -> bool {
    in_deterministic_src(rel) || in_bench_emission(rel)
}

/// D2: every library source outside the approved timing modules.
pub fn d2_applies(rel: &str) -> bool {
    in_src(rel) && !in_concurrency_module(rel)
}

/// D3: everywhere — an entropic test is as unreplayable as an entropic run.
pub fn d3_applies(_rel: &str) -> bool {
    true
}

/// D4: every library source outside the approved concurrency modules.
pub fn d4_applies(rel: &str) -> bool {
    in_src(rel) && !in_concurrency_module(rel)
}

/// D5: everywhere.
pub fn d5_applies(_rel: &str) -> bool {
    true
}

/// D6: the emission surfaces — bench row/report emission. A bare `{}` on
/// a float there prints value-dependent widths into files that external
/// tools parse.
pub fn d6_applies(rel: &str) -> bool {
    in_bench_emission(rel)
}

/// Files the workspace walker skips entirely.
pub fn excluded(rel: &str) -> bool {
    rel.contains("/tests/fixtures/")
}
