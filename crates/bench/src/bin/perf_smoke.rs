//! CI perf smoke for the Look phase: re-times the `engine_look` grid path
//! and fails when a median regresses more than [`REGRESSION_FACTOR`]×
//! against the committed `BENCH_baseline.json`.
//!
//! The bound is deliberately loose — it exists to catch an accidental
//! reintroduction of `O(n)` work into the Look hot path (a 1024-robot Look
//! going linear is a ~30× move, far past 3×), not to police scheduler
//! noise or hardware variance. A second, hardware-independent check guards
//! the same property relatively: at `n = 1024` the brute reference must
//! remain ≥ [`MIN_BRUTE_RATIO`]× slower than the grid path.
//!
//! A third, also hardware-independent check guards the session API: a run
//! driven through `build()` + sliced `run_for` must stay within
//! [`MAX_SESSION_OVERHEAD`]× of the one-shot `run()` events/sec — the
//! session layer is bookkeeping, not work, and this fails if per-slice (or
//! per-event) overhead ever grows into the hot path.
//!
//! A fourth check guards unbounded-Async scheduling: at `n = 1024` the
//! `events_per_sec` fixture's Async arm must stay within
//! [`MAX_ASYNC_FSYNC_RATIO`]× of the FSync arm. Async pays real per-event
//! costs FSync amortizes over whole rounds (a fairness argmin per
//! activation), so the ratio is structurally above 1. It reads about 1.25× on a 2-vCPU host; new
//! per-event work on the Async path pushes it up. Arms are interleaved in
//! pairs and the median pair ratio is compared, so the bound is
//! hardware-independent and loaded-runner-robust.
//!
//! A fifth check guards the strong-visibility monitor: at
//! [`STRONG_CANARY_N`] robots under FSync, a session with strong-visibility
//! tracking on must stay within [`MAX_STRONG_OVERHEAD`]× of the same
//! session with it off (Kirkpatrick on the look lattice, hull and diameter
//! monitors off, best-of-N). The monitor's work is local — a grid range
//! query plus a walk of the robot's acquired partners at each breakpoint,
//! and a walk of a short watch list per event — and reads about 1× here; a
//! return to `O(n)` work per dirty robot reads in the hundreds, so the
//! bound fails loudly whatever the timing noise.
//!
//! A sixth check guards the pair monitors' breakpoint scheme: at
//! [`PAIR_CANARY_N`] robots under unbounded Async, a session with the
//! cohesion and strong-visibility monitors on (hull and diameter off) must
//! stay within [`MAX_PAIR_SESSION_RATIO`]× of the bare engine per event
//! (Kirkpatrick on the look lattice, arms interleaved in pairs, median pair
//! ratio). It reads about 2.6× on a 2-vCPU host; monitors that measure
//! every pair of every dirty robot at every event read about 15×.
//!
//! A seventh check guards the diameter kernel: at [`DIAMETER_CANARY_N`]
//! robots under unbounded Async, the *default* session (every monitor on,
//! a diameter sample every 32 events) must stay within
//! [`MAX_DIAMETER_SAMPLER_RATIO`]× of the same session with diameter
//! sampling off (Kirkpatrick on the look lattice, arms interleaved in
//! pairs, median pair ratio). The pruned kernel reads about 1.5× on a 2-vCPU
//! host; an all-pairs diameter per sample reads about 11×.
//!
//! An eighth check guards the session's position handling under FSync: at
//! [`FSYNC_CANARY_N`] robots, an FSync session with the cohesion and
//! strong-visibility monitors on (hull and diameter off) must stay within
//! [`MAX_FSYNC_SESSION_RATIO`]× of the bare engine per event over two
//! rounds (Kirkpatrick on the look lattice, arms interleaved in pairs,
//! median pair ratio). The session reads positions from the engine only
//! for the watched pairs it measures and reads about 1.8× on a 2-vCPU host;
//! a session that copies every moving robot's position at every event —
//! all of them under FSync — reads about 35×.
//!
//! A ninth check guards the hull sampler: at [`HULL_CANARY_N`] robots under
//! FSync, the *default* session (a hull sample every 64 events) must stay
//! within [`MAX_HULL_SAMPLER_RATIO`]× of the same session with
//! `hull_check_every(0)` (Kirkpatrick on the look lattice, arms
//! interleaved in pairs, median pair ratio). It reads 2.3–2.9× on a 2-vCPU
//! host, so it fails when the hull samples cost about twice what they cost
//! now. Rebuilding the hull at the samples that repeat their predecessor
//! reads 3.1–3.4×, inside the bound: `crates/bench/tests/monitor_work.rs`
//! pins that reuse exactly, as `HullMonitor::hulls_built`.
//!
//! Usage: `cargo run --release -p cohesion-bench --bin perf_smoke [-- --quick]`
//! (`--quick` trims samples for CI).

use cohesion_bench::lookbench::{
    async_fsync_paired_ratio, look_lattice, median_ns_per_event, LOOK_BENCH_SIZES,
};

use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{Budget, Engine, LookPath, SimulationBuilder};
use cohesion_model::NilAlgorithm;
use cohesion_scheduler::{AsyncScheduler, FSyncScheduler, Scheduler};

/// A current median may be at most this many times the committed one.
const REGRESSION_FACTOR: f64 = 3.0;

/// At n = 1024 the brute reference must be at least this many times slower
/// than the grid path (hardware-independent O(n) canary).
const MIN_BRUTE_RATIO: f64 = 3.0;

/// A sliced session-driven run may be at most this many times slower than
/// the one-shot `run()` on the same workload.
const MAX_SESSION_OVERHEAD: f64 = 1.1;

/// The Async arm of the throughput fixture may be at most this many times
/// slower than the FSync arm at [`ASYNC_CANARY_N`] (median paired ratio).
const MAX_ASYNC_FSYNC_RATIO: f64 = 2.0;

/// A session with strong-visibility tracking may be at most this many times
/// slower than the same session without it, at [`STRONG_CANARY_N`].
const MAX_STRONG_OVERHEAD: f64 = 20.0;

/// Swarm size and event budget (two FSync rounds) of the strong-visibility
/// canary.
const STRONG_CANARY_N: usize = 1024;
const STRONG_CANARY_EVENTS: usize = 2 * 3 * STRONG_CANARY_N;

/// A session with the pair monitors on may be at most this many times
/// slower per event than the bare engine at [`PAIR_CANARY_N`] under
/// unbounded Async (median paired ratio).
const MAX_PAIR_SESSION_RATIO: f64 = 9.0;

/// Swarm size and event budget (four rounds' worth) of the pair-monitor
/// canary.
const PAIR_CANARY_N: usize = 1024;
const PAIR_CANARY_EVENTS: usize = 4 * 3 * PAIR_CANARY_N;

/// The default session may be at most this many times slower than the
/// same session without diameter samples, at [`DIAMETER_CANARY_N`] under
/// unbounded Async (median paired ratio).
const MAX_DIAMETER_SAMPLER_RATIO: f64 = 4.0;

/// An FSync session with the pair monitors on may be at most this many
/// times slower per event than the bare engine at [`FSYNC_CANARY_N`]
/// (median paired ratio).
const MAX_FSYNC_SESSION_RATIO: f64 = 4.0;

/// Swarm size and event budget (two FSync rounds) of the FSync session
/// canary.
const FSYNC_CANARY_N: usize = 4096;
const FSYNC_CANARY_EVENTS: usize = 2 * 3 * FSYNC_CANARY_N;

/// The engine seed (and the Async scheduler's) of the canaries that run
/// Kirkpatrick against a session or the bare engine.
const CANARY_SEED: u64 = 3;

/// Swarm size and event budget (four rounds' worth) of the diameter
/// canary.
const DIAMETER_CANARY_N: usize = 1024;
const DIAMETER_CANARY_EVENTS: usize = 4 * 3 * DIAMETER_CANARY_N;

/// The default session may be at most this many times slower than the
/// same session without hull samples, at [`HULL_CANARY_N`] under FSync
/// (median paired ratio).
const MAX_HULL_SAMPLER_RATIO: f64 = 4.0;

/// Swarm size and event budget (four FSync rounds) of the hull canary.
const HULL_CANARY_N: usize = 1024;
const HULL_CANARY_EVENTS: usize = 4 * 3 * HULL_CANARY_N;

/// Swarm size of the Async-scheduling-overhead canary.
const ASYNC_CANARY_N: usize = 1024;

/// Swarm size and event budget of the session-overhead canary.
const SESSION_CANARY_N: usize = 256;
const SESSION_CANARY_EVENTS: usize = 60_000;

/// Slice size of the session-driven side — small enough that per-slice
/// overhead would show, big enough to stay realistic (the lab heartbeats
/// every 100k events, ~250× coarser).
const SESSION_CANARY_SLICE: usize = 256;

fn main() {
    let samples = if std::env::args().any(|a| a == "--quick") {
        3
    } else {
        7
    };
    let baseline = load_baseline();
    let mut failures = Vec::new();

    println!("perf smoke: engine_look grid path vs BENCH_baseline.json");
    println!(
        "{:<14} {:>14} {:>14} {:>8}",
        "id", "baseline ns/ev", "now ns/ev", "ratio"
    );
    for n in LOOK_BENCH_SIZES {
        let id = format!("grid/{n}");
        let Some(&base) = baseline.get(&id) else {
            failures.push(format!("baseline has no engine_look record for {id}"));
            continue;
        };
        let now = median_ns_per_event(n, LookPath::Grid, samples);
        let ratio = now / base;
        println!("{id:<14} {base:>14.1} {now:>14.1} {ratio:>7.2}x");
        if ratio > REGRESSION_FACTOR {
            failures.push(format!(
                "{id}: {now:.1} ns/event is {ratio:.2}x the committed {base:.1} \
                 (bound {REGRESSION_FACTOR}x)"
            ));
        }
    }

    let n = 1024;
    let grid = median_ns_per_event(n, LookPath::Grid, samples);
    let brute = median_ns_per_event(n, LookPath::BruteReference, samples);
    let ratio = brute / grid;
    println!("relative canary at n={n}: brute/grid = {ratio:.1}x (need ≥ {MIN_BRUTE_RATIO}x)");
    if ratio < MIN_BRUTE_RATIO {
        failures.push(format!(
            "grid path only {ratio:.1}x faster than brute at n={n} — O(n) work \
             reintroduced into the Look hot path?"
        ));
    }

    let overhead = session_overhead_ratio(samples);
    println!(
        "session canary at n={SESSION_CANARY_N}: sliced run_for({SESSION_CANARY_SLICE}) / \
         one-shot run() = {overhead:.3}x (need ≤ {MAX_SESSION_OVERHEAD}x)"
    );
    if overhead > MAX_SESSION_OVERHEAD {
        failures.push(format!(
            "session-driven run is {overhead:.3}x the one-shot run() \
             (bound {MAX_SESSION_OVERHEAD}x) — per-slice or per-event session \
             overhead crept into the driver loop?"
        ));
    }

    let async_ratio = async_fsync_paired_ratio(ASYNC_CANARY_N, samples);
    println!(
        "async canary at n={ASYNC_CANARY_N}: async/fsync = {async_ratio:.2}x \
         (need ≤ {MAX_ASYNC_FSYNC_RATIO}x)"
    );
    if async_ratio > MAX_ASYNC_FSYNC_RATIO {
        failures.push(format!(
            "unbounded Async is {async_ratio:.2}x FSync throughput at \
             n={ASYNC_CANARY_N} (bound {MAX_ASYNC_FSYNC_RATIO}x) — per-event \
             work crept into the Async scheduling path?"
        ));
    }

    let strong_overhead = strong_overhead_ratio(samples);
    println!(
        "strong-visibility canary at n={STRONG_CANARY_N}: tracked / untracked session \
         = {strong_overhead:.2}x (need ≤ {MAX_STRONG_OVERHEAD}x)"
    );
    if strong_overhead > MAX_STRONG_OVERHEAD {
        failures.push(format!(
            "strong-visibility tracking makes the session {strong_overhead:.2}x slower at \
             n={STRONG_CANARY_N} (bound {MAX_STRONG_OVERHEAD}x) — O(n) work per dirty \
             robot back in StrongVisibilityMonitor?"
        ));
    }

    let pair_ratio = session_engine_ratio(samples, PAIR_CANARY_N, PAIR_CANARY_EVENTS, 4, || {
        AsyncScheduler::new(CANARY_SEED)
    });
    println!(
        "pair-monitor canary at n={PAIR_CANARY_N}: async session / bare engine \
         = {pair_ratio:.2}x (need ≤ {MAX_PAIR_SESSION_RATIO}x)"
    );
    if pair_ratio > MAX_PAIR_SESSION_RATIO {
        failures.push(format!(
            "an Async session with the pair monitors is {pair_ratio:.2}x the bare \
             engine at n={PAIR_CANARY_N} (bound {MAX_PAIR_SESSION_RATIO}x) — pair \
             monitors measuring every dirty robot's pairs at every event again?"
        ));
    }

    let fsync_ratio = session_engine_ratio(
        samples,
        FSYNC_CANARY_N,
        FSYNC_CANARY_EVENTS,
        1,
        FSyncScheduler::new,
    );
    println!(
        "fsync session canary at n={FSYNC_CANARY_N}: fsync session / bare engine \
         = {fsync_ratio:.2}x (need ≤ {MAX_FSYNC_SESSION_RATIO}x)"
    );
    if fsync_ratio > MAX_FSYNC_SESSION_RATIO {
        failures.push(format!(
            "an FSync session with the pair monitors is {fsync_ratio:.2}x the bare \
             engine at n={FSYNC_CANARY_N} (bound {MAX_FSYNC_SESSION_RATIO}x) — the \
             session copying every moving robot's position at every event again?"
        ));
    }

    let diameter_ratio = sampler_ratio(
        samples,
        DIAMETER_CANARY_N,
        DIAMETER_CANARY_EVENTS,
        4,
        || AsyncScheduler::new(CANARY_SEED),
        |b| b.diameter_sample_every(0),
    );
    println!(
        "diameter canary at n={DIAMETER_CANARY_N}: default async session / same without \
         diameter samples = {diameter_ratio:.2}x (need ≤ {MAX_DIAMETER_SAMPLER_RATIO}x)"
    );
    if diameter_ratio > MAX_DIAMETER_SAMPLER_RATIO {
        failures.push(format!(
            "the default Async session is {diameter_ratio:.2}x the same session without \
             diameter samples at n={DIAMETER_CANARY_N} (bound {MAX_DIAMETER_SAMPLER_RATIO}x) \
             — an all-pairs diameter per sample again?"
        ));
    }

    let hull_ratio = sampler_ratio(
        samples,
        HULL_CANARY_N,
        HULL_CANARY_EVENTS,
        1,
        FSyncScheduler::new,
        |b| b.hull_check_every(0),
    );
    println!(
        "hull canary at n={HULL_CANARY_N}: default fsync session / same without hull \
         samples = {hull_ratio:.2}x (need ≤ {MAX_HULL_SAMPLER_RATIO}x)"
    );
    if hull_ratio > MAX_HULL_SAMPLER_RATIO {
        failures.push(format!(
            "the default FSync session is {hull_ratio:.2}x the same session without hull \
             samples at n={HULL_CANARY_N} (bound {MAX_HULL_SAMPLER_RATIO}x) — a costlier \
             hull per sample, or more hull samples per event?"
        ));
    }

    if failures.is_empty() {
        println!("perf smoke OK");
    } else {
        for f in &failures {
            eprintln!("PERF REGRESSION: {f}");
        }
        std::process::exit(1);
    }
}

/// Measures the session-API overhead: the same sweep-style workload
/// (bounded-density lattice, Nil algorithm, FSync — observation cost only)
/// run one-shot via `run()` versus driven in small `run_for` slices.
/// Returns the best-of-N ratio `sliced / one-shot`; both sides re-build
/// their session per sample, so only the driver loop differs.
fn session_overhead_ratio(samples: usize) -> f64 {
    let config = look_lattice(SESSION_CANARY_N);
    let builder = || {
        SimulationBuilder::new(config.clone(), NilAlgorithm)
            .scheduler(FSyncScheduler::new())
            .max_events(SESSION_CANARY_EVENTS)
            .track_strong_visibility(false)
            .hull_check_every(0)
            .diameter_sample_every(0)
    };
    let time = |f: &dyn Fn()| {
        let start = std::time::Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    // Best-of-N rather than a median: session overhead, if real, is
    // systematic and shows in *every* sample, while scheduler preemptions
    // and frequency transients only ever inflate a ratio — so the minimum
    // is the noise-robust estimator for a tight 1.1x bound (the other
    // canaries tolerate noise with 3x headroom instead). Extra samples
    // keep the minimum honest on loaded CI runners.
    (0..samples.max(5))
        .map(|_| {
            let one_shot = time(&|| {
                let report = builder().run();
                assert_eq!(report.events, SESSION_CANARY_EVENTS);
            });
            let sliced = time(&|| {
                let mut session = builder().build();
                while !session
                    .run_for(Budget::events(SESSION_CANARY_SLICE))
                    .is_terminal()
                {}
                assert_eq!(session.events(), SESSION_CANARY_EVENTS);
            });
            sliced / one_shot
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the strong-visibility monitor's share of a session: the same
/// FSync Kirkpatrick run on the look lattice with tracking on and off (hull
/// and diameter monitors off in both, so the monitor is the only
/// difference). Best-of-N ratio `on / off`, for the same reason as
/// [`session_overhead_ratio`]; only `run_to_completion` is timed.
fn strong_overhead_ratio(samples: usize) -> f64 {
    let config = look_lattice(STRONG_CANARY_N);
    let run = |strong: bool| {
        let session = SimulationBuilder::new(config.clone(), KirkpatrickAlgorithm::new(1))
            .scheduler(FSyncScheduler::new())
            .max_events(STRONG_CANARY_EVENTS)
            .track_strong_visibility(strong)
            .hull_check_every(0)
            .diameter_sample_every(0)
            .build();
        let start = std::time::Instant::now();
        let report = session.run_to_completion();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(report.events, STRONG_CANARY_EVENTS);
        secs
    };
    (0..samples.max(5))
        .map(|_| {
            let off = run(false);
            let on = run(true);
            on / off
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the pair monitors' per-event cost against the engine's: a
/// Kirkpatrick (`k`) session on the `n`-robot look lattice with the
/// cohesion and strong-visibility monitors on (hull and diameter off),
/// against the bare engine it wraps stepping the same `events` events under
/// the same scheduler. Construction is excluded from both. The median pair
/// ratio `session / engine` is returned, like [`async_fsync_paired_ratio`].
fn session_engine_ratio<S: Scheduler + 'static>(
    samples: usize,
    n: usize,
    events: usize,
    k: u32,
    scheduler: impl Fn() -> S,
) -> f64 {
    let config = look_lattice(n);
    let session = || {
        let session = SimulationBuilder::new(config.clone(), KirkpatrickAlgorithm::new(k))
            .scheduler(scheduler())
            .seed(CANARY_SEED)
            .max_events(events)
            .hull_check_every(0)
            .diameter_sample_every(0)
            .build();
        let start = std::time::Instant::now();
        let report = session.run_to_completion();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(report.events, events);
        secs
    };
    let engine = || {
        let mut engine = Engine::new(
            &config,
            1.0,
            KirkpatrickAlgorithm::new(k),
            scheduler(),
            CANARY_SEED,
        );
        let start = std::time::Instant::now();
        for _ in 0..events {
            engine.step();
        }
        start.elapsed().as_secs_f64()
    };
    median_paired_ratio(samples, session, engine)
}

/// Times `a` and `b` in interleaved pairs after a warm-up pair and returns
/// the median pair ratio `a / b`: the estimator of the canaries that compare
/// two arms of one workload.
fn median_paired_ratio(samples: usize, a: impl Fn() -> f64, b: impl Fn() -> f64) -> f64 {
    a();
    b();
    let mut ratios: Vec<f64> = (0..samples.max(5)).map(|_| a() / b()).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Measures one sampler's share of the default session: a Kirkpatrick
/// (`k`) session on the `n`-robot look lattice with the builder's default
/// monitors, against the same session with the sampler turned off by
/// `without`. Only `run_to_completion` is timed; the median pair ratio
/// `defaults / without the sampler` is returned.
fn sampler_ratio<S: Scheduler + 'static>(
    samples: usize,
    n: usize,
    events: usize,
    k: u32,
    scheduler: impl Fn() -> S,
    without: impl Fn(SimulationBuilder) -> SimulationBuilder,
) -> f64 {
    let config = look_lattice(n);
    let run = |defaults: bool| {
        let mut builder = SimulationBuilder::new(config.clone(), KirkpatrickAlgorithm::new(k))
            .scheduler(scheduler())
            .seed(CANARY_SEED)
            .max_events(events);
        if !defaults {
            builder = without(builder);
        }
        let session = builder.build();
        let start = std::time::Instant::now();
        let report = session.run_to_completion();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(report.events, events);
        secs
    };
    median_paired_ratio(samples, || run(true), || run(false))
}

/// Extracts `engine_look` medians from `BENCH_baseline.json` at the
/// workspace root. The serde_json stand-in has no decoder, so this is a
/// minimal field scanner over the committed format: records carry
/// `"group"`, `"id"`, `"median_ns"` in that order.
fn load_baseline() -> std::collections::BTreeMap<String, f64> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut medians = std::collections::BTreeMap::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("\"group\"") {
        rest = &rest[at..];
        let Some(group) = string_value(rest) else {
            break;
        };
        let Some(id_at) = rest.find("\"id\"") else {
            break;
        };
        let Some(id) = string_value(&rest[id_at..]) else {
            break;
        };
        let Some(med_at) = rest.find("\"median_ns\"") else {
            break;
        };
        let Some(median) = number_value(&rest[med_at..]) else {
            break;
        };
        if group == "engine_look" {
            // Baseline stores ns per iteration of one 3n-event round;
            // normalize to ns per event to match the live measurement.
            let per_event = match id.rsplit('/').next().and_then(|s| s.parse::<f64>().ok()) {
                Some(n) => median / (3.0 * n),
                None => median,
            };
            medians.insert(id, per_event);
        }
        rest = &rest[med_at..];
    }
    assert!(
        !medians.is_empty(),
        "no engine_look records in {} — regenerate the baseline \
         (see README § Performance)",
        path.display()
    );
    medians
}

/// The first `"..."` string after the key at the start of `chunk`
/// (skipping the key itself).
fn string_value(chunk: &str) -> Option<String> {
    let after_key = &chunk[chunk.find(':')?..];
    let open = after_key.find('"')?;
    let rest = &after_key[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

/// The first number after the key at the start of `chunk`.
fn number_value(chunk: &str) -> Option<f64> {
    let after_colon = chunk[chunk.find(':')? + 1..].trim_start();
    let end = after_colon
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(after_colon.len());
    after_colon[..end].parse().ok()
}
