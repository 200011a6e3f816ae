//! Criterion bench for the Look-phase observation pipeline: the grid-backed
//! `O(deg + motile)` path against the historical `O(n)` brute-force
//! reference, per engine event on bounded-density lattices.
//!
//! One iteration is a full FSync round (3·n events: every robot Looks,
//! starts and ends a Move) under the Nil algorithm, so observation — not
//! Compute — dominates.
//!
//! Expected shape: brute grows linearly in `n` per event; grid stays flat —
//! the acceptance bar is ≥5× at `n = 1024`. The committed medians live in
//! `BENCH_baseline.json`; the CI perf smoke
//! (`cargo run -p cohesion-bench --bin perf_smoke -- --quick`) re-times the
//! grid path against them.

use cohesion_bench::lookbench::{look_engine, look_lattice, run_events, LOOK_BENCH_SIZES};
use cohesion_engine::LookPath;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_engine_look(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_look");
    for n in LOOK_BENCH_SIZES {
        let config = look_lattice(n);
        let events = 3 * n;
        group.throughput(Throughput::Elements(events as u64));
        for (id, path) in [
            ("grid", LookPath::Grid),
            ("brute", LookPath::BruteReference),
        ] {
            group.bench_with_input(BenchmarkId::new(id, n), &config, |b, config| {
                // One engine per benchmark, stepped across iterations: the
                // Nil algorithm keeps the workload steady-state, and engine
                // construction stays out of the measurement.
                let mut engine = look_engine(config, path);
                b.iter(|| {
                    run_events(&mut engine, events);
                    engine.time()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine_look);
criterion_main!(benches);
