//! Criterion benches for the simulation engine: events per second vs swarm
//! size and scheduler model.
//!
//! Three groups: the historical `engine_events` sweep at small `n`; the
//! `events_per_sec` end-to-end run-throughput trajectory (n ∈ {64, 256,
//! 1024, 16384}, FSync and unbounded Async, Kirkpatrick algorithm,
//! bounded-density lattices) whose medians are committed as
//! `BENCH_engine.json` — the workspace's record of how fast full runs get
//! over time; and `session_events_per_sec`, the same arms at n ∈ {1024,
//! 16384} driven through a `Simulation` session, with the pair monitors on
//! and with the builder defaults, to set against the bare engine. The
//! 16384 row is the
//! two-orders-beyond-the-paper size the ROADMAP asks the event core to
//! sustain.

use cohesion_bench::lookbench::look_lattice;
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{Budget, Engine, SimulationBuilder};
use cohesion_scheduler::{AsyncScheduler, FSyncScheduler, KAsyncScheduler};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_events");
    let events_per_iter = 3_000u64;
    group.throughput(Throughput::Elements(events_per_iter));
    for n in [10usize, 40, 100] {
        let config = cohesion_workloads::random_connected(n, 1.0, 5);
        group.bench_with_input(BenchmarkId::new("fsync", n), &config, |b, config| {
            b.iter(|| {
                let mut engine = Engine::new(
                    config,
                    1.0,
                    KirkpatrickAlgorithm::new(1),
                    FSyncScheduler::new(),
                    1,
                );
                for _ in 0..events_per_iter {
                    engine.step();
                }
                engine.time()
            })
        });
        group.bench_with_input(BenchmarkId::new("k_async", n), &config, |b, config| {
            b.iter(|| {
                let mut engine = Engine::new(
                    config,
                    1.0,
                    KirkpatrickAlgorithm::new(2),
                    KAsyncScheduler::new(2, 3),
                    1,
                );
                for _ in 0..events_per_iter {
                    engine.step();
                }
                engine.time()
            })
        });
        group.bench_with_input(BenchmarkId::new("async", n), &config, |b, config| {
            b.iter(|| {
                let mut engine = Engine::new(
                    config,
                    1.0,
                    KirkpatrickAlgorithm::new(2),
                    AsyncScheduler::new(3),
                    1,
                );
                for _ in 0..events_per_iter {
                    engine.step();
                }
                engine.time()
            })
        });
    }
    group.finish();
}

/// The end-to-end throughput trajectory: full engine rounds (Look +
/// MoveStart + MoveEnd per robot) with the paper's algorithm on
/// bounded-density lattices, at the sizes the separation and
/// convergence-rate sweeps actually run.
fn bench_events_per_sec(c: &mut Criterion) {
    let mut group = c.benchmark_group("events_per_sec");
    for n in [64usize, 256, 1024, 16384] {
        let config = look_lattice(n);
        let events = 3 * n as u64;
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(BenchmarkId::new("fsync", n), &config, |b, config| {
            b.iter(|| {
                let mut engine = Engine::new(
                    config,
                    1.0,
                    KirkpatrickAlgorithm::new(1),
                    FSyncScheduler::new(),
                    1,
                );
                for _ in 0..events {
                    engine.step();
                }
                engine.time()
            })
        });
        group.bench_with_input(BenchmarkId::new("async", n), &config, |b, config| {
            b.iter(|| {
                let mut engine = Engine::new(
                    config,
                    1.0,
                    KirkpatrickAlgorithm::new(4),
                    AsyncScheduler::new(3),
                    1,
                );
                for _ in 0..events {
                    engine.step();
                }
                engine.time()
            })
        });
    }
    group.finish();
}

/// One round's worth of events (3n) of a running session per iteration:
/// the `events_per_sec` arms with the session's per-event work on top.
/// The `fsync`/`async` arms run dirty-set upkeep, round accounting, and the
/// cohesion and strong-visibility monitors (the builder defaults minus the
/// hull and diameter samplers); the `defaults_*` arms run the builder
/// defaults as every experiment gets them, samplers included. The session
/// is built once, outside the timed loop, and keeps running across
/// iterations, so set-up does not drown the events at n = 16384.
fn bench_session_events_per_sec(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_events_per_sec");
    for n in [1024usize, 16384] {
        let events = 3 * n;
        group.throughput(Throughput::Elements(events as u64));
        for (arm, k, samplers) in [
            ("fsync", 1, false),
            ("async", 4, false),
            ("defaults_fsync", 1, true),
            ("defaults_async", 4, true),
        ] {
            let mut builder = SimulationBuilder::new(look_lattice(n), KirkpatrickAlgorithm::new(k))
                .seed(1)
                .max_events(usize::MAX);
            if !samplers {
                builder = builder.hull_check_every(0).diameter_sample_every(0);
            }
            let mut session = if k == 1 {
                builder.scheduler(FSyncScheduler::new()).build()
            } else {
                builder.scheduler(AsyncScheduler::new(3)).build()
            };
            group.bench_with_input(BenchmarkId::new(arm, n), &(), |b, ()| {
                b.iter(|| {
                    let status = session.run_for(Budget::events(events));
                    assert!(!status.is_terminal(), "the session must keep running");
                    session.events()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_events_per_sec,
    bench_session_events_per_sec
);
criterion_main!(benches);
