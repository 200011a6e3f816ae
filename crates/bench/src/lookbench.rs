//! Shared fixtures for the Look-phase benchmarks and the CI perf smoke.
//!
//! The `engine_look` criterion group and the `perf_smoke` binary measure the
//! same routine — one full FSync round of engine events over a
//! bounded-density lattice, under a chosen [`LookPath`] — so the fixture
//! lives here once. Bounded density is the regime the grid is designed for
//! (the paper's standing connected-at-visibility-scale assumption): degree
//! stays constant as `n` grows, making the asymptotic gap between the
//! `O(deg)` grid path and the `O(n)` brute reference visible as a
//! slope, not a constant.

use crate::sweep::timed;
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{Engine, LookPath};
use cohesion_geometry::Vec2;
use cohesion_model::{Configuration, NilAlgorithm};
use cohesion_scheduler::{AsyncScheduler, FSyncScheduler, Scheduler};

/// Swarm sizes the Look benches sweep (perfect squares: lattice sides 8,
/// 16, 32).
pub const LOOK_BENCH_SIZES: [usize; 3] = [64, 256, 1024];

/// A bounded-density lattice of `n` robots at near-threshold spacing.
///
/// # Panics
///
/// Panics when `n` is not a perfect square.
pub fn look_lattice(n: usize) -> Configuration {
    let side = (n as f64).sqrt().round() as usize;
    assert_eq!(side * side, n, "look lattice sizes are perfect squares");
    cohesion_workloads::grid(side, side, 0.9)
}

/// An engine over `config` ready for Look-phase measurement: FSync
/// scheduling and the Nil algorithm, so every cycle exercises the full
/// observation pipeline (including the Move-phase grid lifecycle, with
/// zero displacement) while the algorithm's own Compute cost stays
/// negligible — the measurement isolates observation.
pub fn look_engine(
    config: &Configuration,
    path: LookPath,
) -> Engine<Vec2, NilAlgorithm, FSyncScheduler> {
    let mut engine = Engine::new(config, 1.0, NilAlgorithm, FSyncScheduler::new(), 1);
    engine.set_look_path(path);
    engine
}

/// Steps an engine through `events` events (3·n per full FSync round).
pub fn run_events(engine: &mut Engine<Vec2, NilAlgorithm, FSyncScheduler>, events: usize) {
    for _ in 0..events {
        engine.step();
    }
}

/// One timed measurement for the perf smoke: median ns **per event** over
/// `samples` runs of one FSync round at size `n`.
pub fn median_ns_per_event(n: usize, path: LookPath, samples: usize) -> f64 {
    let config = look_lattice(n);
    let events = 3 * n;
    // One engine stepped across samples (steady state, construction
    // excluded), with one warm-up round — mirroring the criterion bench.
    let mut engine = look_engine(&config, path);
    run_events(&mut engine, events);
    let mut ns: Vec<f64> = (0..samples.max(2))
        .map(|_| timed(|| run_events(&mut engine, events)).1 * 1e9 / events as f64)
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    if ns.len() % 2 == 1 {
        ns[ns.len() / 2]
    } else {
        (ns[ns.len() / 2 - 1] + ns[ns.len() / 2]) / 2.0
    }
}

/// One fresh-engine throughput run of the `events_per_sec` fixture: the
/// Kirkpatrick algorithm on a bounded-density lattice, unbounded Async or
/// FSync scheduling (the same arms `engine_throughput` records in
/// `BENCH_engine.json`). Returns ns per event over `3n` events including
/// engine construction, exactly as the committed bench measures.
pub fn throughput_run_ns_per_event(config: &Configuration, n: usize, async_arm: bool) -> f64 {
    let events = 3 * n;
    let ((), secs) = timed(|| {
        let mut engine = if async_arm {
            let sched: Box<dyn Scheduler> = Box::new(AsyncScheduler::new(3));
            Engine::new(config, 1.0, KirkpatrickAlgorithm::new(4), sched, 1)
        } else {
            let sched: Box<dyn Scheduler> = Box::new(FSyncScheduler::new());
            Engine::new(config, 1.0, KirkpatrickAlgorithm::new(1), sched, 1)
        };
        for _ in 0..events {
            engine.step();
        }
        std::hint::black_box(engine.time());
    });
    secs * 1e9 / events as f64
}

/// The Async/FSync throughput ratio at size `n`: arms interleaved in pairs
/// so machine-wide noise (frequency transients, preemptions) hits both and
/// cancels in each pair, median of the per-pair ratios. This is the
/// noise-robust estimator the scheduling-overhead canary needs — medians of
/// independently-timed arms drift apart on loaded CI runners even when the
/// engine hasn't changed.
pub fn async_fsync_paired_ratio(n: usize, pairs: usize) -> f64 {
    let config = look_lattice(n);
    // One warm-up pair (allocator, branch predictors, frequency ramp).
    throughput_run_ns_per_event(&config, n, true);
    throughput_run_ns_per_event(&config, n, false);
    let mut ratios: Vec<f64> = (0..pairs.max(3))
        .map(|_| {
            let a = throughput_run_ns_per_event(&config, n, true);
            let f = throughput_run_ns_per_event(&config, n, false);
            a / f
        })
        .collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_sizes_are_square() {
        for n in LOOK_BENCH_SIZES {
            assert_eq!(look_lattice(n).len(), n);
        }
    }

    #[test]
    fn both_paths_complete_a_round() {
        let config = look_lattice(64);
        for path in [LookPath::Grid, LookPath::BruteReference] {
            let mut engine = look_engine(&config, path);
            run_events(&mut engine, 3 * 64);
            assert!(
                engine.completed_cycles().iter().all(|&c| c >= 1),
                "one FSync round completes one cycle per robot"
            );
        }
    }
}
