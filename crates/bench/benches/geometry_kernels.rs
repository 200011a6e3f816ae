//! Criterion benches for the geometric kernels on the algorithms' hot path:
//! smallest enclosing balls (Ando's Compute, congregation bookkeeping),
//! convex hulls and hull nesting (the hull sampler's traffic), the sector
//! analysis (the paper's target rule),
//! visibility-graph construction (grid vs brute-force builder), and the
//! per-event monitor step (a breakpoint re-classification vs an event with
//! every robot dirty).

use cohesion_bench::lookbench::look_lattice;
use cohesion_engine::monitors::{CohesionMonitor, MonitorContext, StrongVisibilityMonitor};
use cohesion_engine::Engine;
use cohesion_geometry::ball::smallest_enclosing_ball;
use cohesion_geometry::cone::sector_2d;
use cohesion_geometry::hull::convex_hull;
use cohesion_geometry::{ConvexHull, Vec2};
use cohesion_model::frame::Ambient;
use cohesion_model::{Configuration, NilAlgorithm, VisibilityGraph};
use cohesion_scheduler::FSyncScheduler;
use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn points(n: usize, seed: u64) -> Vec<Vec2> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vec2::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Distinct inputs per size, timed in turn: one input timed over and over
/// lets the branch predictor learn its control flow, which no caller's
/// stream of inputs repeats.
const SAMPLES: u64 = 16;

fn bench_sec(c: &mut Criterion) {
    let mut group = c.benchmark_group("smallest_enclosing_ball");
    for n in [8usize, 32, 128, 512] {
        let inputs: Vec<Vec<Vec2>> = (0..SAMPLES).map(|seed| points(n, seed)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &inputs, |b, inputs| {
            let mut next = inputs.iter().cycle();
            b.iter(|| smallest_enclosing_ball(black_box(next.next().expect("cycle"))))
        });
    }
    group.finish();
}

/// A hull sample's input on the look lattice: the `n` positions of
/// `look_lattice(n)` followed by a target for each, displaced by up to
/// `V/8` on each axis.
fn lattice_sample(n: usize, seed: u64) -> Vec<Vec2> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let positions = look_lattice(n).positions().to_vec();
    let targets: Vec<Vec2> = positions
        .iter()
        .map(|&p| p + Vec2::new(rng.gen_range(-0.125..0.125), rng.gen_range(-0.125..0.125)))
        .collect();
    [positions, targets].concat()
}

fn bench_hull(c: &mut Criterion) {
    let mut group = c.benchmark_group("convex_hull");
    for n in [8usize, 32, 128, 512] {
        let inputs: Vec<Vec<Vec2>> = (0..SAMPLES).map(|seed| points(n, seed)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &inputs, |b, inputs| {
            let mut next = inputs.iter().cycle();
            b.iter(|| convex_hull(black_box(next.next().expect("cycle"))))
        });
    }
    for n in [256usize, 1024] {
        let samples: Vec<Vec<Vec2>> = (0..SAMPLES).map(|seed| lattice_sample(n, seed)).collect();
        group.bench_with_input(
            BenchmarkId::new("lattice_sample", n),
            &samples,
            |b, samples| {
                let mut next = samples.iter().cycle();
                b.iter(|| convex_hull(black_box(next.next().expect("cycle"))))
            },
        );
    }
    group.finish();
}

fn bench_contains_hull(c: &mut Criterion) {
    // The hull sampler's nesting test on a lattice sample's hull against
    // itself: every vertex inside, so every (edge, vertex) pair is tested.
    let mut group = c.benchmark_group("contains_hull");
    for n in [256usize, 1024] {
        let hulls: Vec<ConvexHull> = (0..SAMPLES)
            .map(|seed| convex_hull(&lattice_sample(n, seed)))
            .collect();
        group.bench_with_input(BenchmarkId::new("lattice_sample", n), &hulls, |b, hulls| {
            let mut next = hulls.iter().cycle();
            b.iter(|| {
                let hull = black_box(next.next().expect("cycle"));
                hull.contains_hull(hull, 1e-7)
            })
        });
    }
    group.finish();
}

fn bench_sector(c: &mut Criterion) {
    let mut group = c.benchmark_group("sector_analysis");
    for n in [2usize, 4, 8, 16] {
        let inputs: Vec<Vec<Vec2>> = (0..SAMPLES).map(|seed| points(n, seed)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &inputs, |b, inputs| {
            let mut next = inputs.iter().cycle();
            b.iter(|| sector_2d(black_box(next.next().expect("cycle")), 1e-9))
        });
    }
    group.finish();
}

fn bench_visibility_graph(c: &mut Criterion) {
    // Bounded-density clouds — the spatial grid's design regime (degree
    // stays constant as n grows, so edge output is linear). A square
    // lattice at near-threshold spacing is the cleanest instance.
    let mut group = c.benchmark_group("visibility_graph_build");
    for side in [8usize, 16, 32] {
        let n = side * side;
        let config = cohesion_workloads::grid(side, side, 0.9);
        group.bench_with_input(BenchmarkId::new("grid", n), &config, |b, cfg| {
            b.iter(|| VisibilityGraph::from_configuration(black_box(cfg), 1.0))
        });
        group.bench_with_input(BenchmarkId::new("brute", n), &config, |b, cfg| {
            b.iter(|| VisibilityGraph::from_configuration_brute(black_box(cfg), 1.0))
        });
    }
    // The regime boundary, kept for honesty: a dense random blob has Θ(n²)
    // edges, every builder is output-dominated, and the grid's indexing
    // overhead does not pay off.
    let dense = cohesion_workloads::random_connected(256, 1.0, 7);
    group.bench_with_input(BenchmarkId::new("grid_dense", 256), &dense, |b, cfg| {
        b.iter(|| VisibilityGraph::from_configuration(black_box(cfg), 1.0))
    });
    group.bench_with_input(BenchmarkId::new("brute_dense", 256), &dense, |b, cfg| {
        b.iter(|| VisibilityGraph::from_configuration_brute(black_box(cfg), 1.0))
    });
    group.finish();
}

fn bench_monitor_step(c: &mut Criterion) {
    // One engine event's worth of predicate checking on a still swarm: a
    // breakpoint of one robot re-classifies its pairs from the motion
    // envelopes, and an event with every robot dirty but no breakpoint
    // walks only the watch lists. The historical monitors paid for every
    // pair of every dirty robot at every event instead. In space the
    // strong-visibility monitor's grid query visits 125 cells (27 in the
    // plane), measured on a ball of robots at two sizes.
    let mut group = c.benchmark_group("monitor_step");
    let n = 256usize;
    let config = cohesion_workloads::random_connected(n, 1.0, 11);
    monitor_step(
        &mut group,
        "incremental_dirty1",
        &config,
        vec![n / 2],
        Some(n / 2),
    );
    monitor_step(&mut group, "full_sweep", &config, (0..n).collect(), None);
    for n in [256usize, 1024] {
        let ball = cohesion_workloads::ball3(n, 1.0, 11);
        monitor_step(
            &mut group,
            "incremental_dirty1_3d",
            &ball,
            vec![n / 2],
            Some(n / 2),
        );
    }
    group.finish();
}

/// Times both pair monitors' `on_event` on `config` held still, with
/// `dirty` robots and an optional breakpoint robot.
fn monitor_step<P: Ambient>(
    group: &mut BenchmarkGroup<'_>,
    id: &str,
    config: &Configuration<P>,
    dirty: Vec<usize>,
    breakpoint: Option<usize>,
) {
    let n = config.len();
    // The envelopes of a still swarm, with the engine's grid of origins.
    let engine = Engine::new(config, 1.0, NilAlgorithm, FSyncScheduler::new(), 0);
    let envelopes = engine.envelopes();
    let initial_edges = envelopes.grid.pairs_within(1.0);
    let position = |i: usize| config.positions()[i];
    let mut dirty_mask = vec![false; n];
    for &i in &dirty {
        dirty_mask[i] = true;
    }
    group.bench_with_input(BenchmarkId::new(id, n), &(), |b, ()| {
        // Positions never move, so the monitors record nothing and each
        // iteration measures the steady-state per-event check cost.
        let mut cohesion =
            CohesionMonitor::new(config.positions(), &initial_edges, |_, _| 1.0, 1e-9);
        let mut strong = StrongVisibilityMonitor::new(1.0, 1e-9, &envelopes);
        b.iter(|| {
            let ctx = MonitorContext {
                time: 1.0,
                position: &position,
                dirty: &dirty,
                dirty_mask: &dirty_mask,
                breakpoint,
                envelopes,
            };
            cohesion.on_event(&ctx);
            strong.on_event(&ctx);
        })
    });
}

criterion_group!(
    benches,
    bench_sec,
    bench_hull,
    bench_contains_hull,
    bench_sector,
    bench_visibility_graph,
    bench_monitor_step
);
criterion_main!(benches);
