//! The swarm workloads: one `Simulation` session per scheduler arm on a
//! bounded-density lattice, with the paper's algorithm.
//!
//! Every arm runs a fixed event budget from a fresh session, so every unit
//! replays the same event stream and its slices line up one to one across
//! units and across commits.
//! The bare-`Engine` replica of an arm steps the same engine the session
//! wraps (a session never feeds back into its engine), so its final
//! configuration must equal the session's bit for bit.

use crate::metrics::{fnv1a, median, min_into, Deadline, RunResult};
use crate::pins;
use crate::wrap::{CallStats, EventTally, TimedAlgorithm, TimedScheduler};
use crate::Layers;
use cohesion_bench::lookbench::look_lattice;
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{Budget, Engine, Simulation, SimulationBuilder, SimulationReport};
use cohesion_geometry::Vec2;
use cohesion_model::{Algorithm, Configuration};
use cohesion_scheduler::{AsyncScheduler, FSyncScheduler, Scheduler};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The seed whose serialized reports are pinned in `pins::SWARM_REPORTS`.
pub const DEFAULT_SEED: u64 = 0;

/// Session set-ups timed before the measured phase, besides the one every
/// unit does.
const SETUP_REPS: usize = 4;

/// Units per run, at least.
const MIN_UNITS: usize = 3;

/// Which of the four standard monitors a session runs. Cohesion and round
/// accounting are always on.
#[derive(Debug, Clone, Copy)]
struct Monitors {
    strong: bool,
    hull: bool,
    diameter: bool,
}

const DEFAULTS: Monitors = Monitors {
    strong: true,
    hull: true,
    diameter: true,
};

const OPTIONAL_OFF: Monitors = Monitors {
    strong: false,
    hull: false,
    diameter: false,
};

/// One scheduler arm: FSync with `k = 1`, or unbounded Async with `k = 4`.
#[derive(Debug, Clone, Copy)]
struct Arm {
    name: &'static str,
    asynchronous: bool,
}

const ARMS: [Arm; 2] = [
    Arm {
        name: "fsync",
        asynchronous: false,
    },
    Arm {
        name: "async",
        asynchronous: true,
    },
];

/// A swarm workload: lattice size, event budget per arm, and monitors.
#[derive(Debug, Clone, Copy)]
pub struct Swarm {
    pub name: &'static str,
    n: usize,
    events: usize,
    slice: usize,
    monitors: Monitors,
}

/// n = 256 with every monitor on (the `SimulationBuilder` defaults). The
/// budget is 24 FSync rounds: over a second per arm today, still tens of
/// milliseconds once the session runs at twice the bare engine's cost.
pub const MONITORED: Swarm = Swarm {
    name: "swarm_monitored",
    n: 256,
    events: 24 * 3 * 256,
    slice: 64,
    monitors: DEFAULTS,
};

/// n = 16384 with the optional monitors off. The budget is one full FSync
/// round (every robot Looks, starts and ends one Move), so FSync dirty sets
/// sweep from empty to ≈ n and back.
pub const LARGE: Swarm = Swarm {
    name: "swarm_large",
    n: 16384,
    events: 3 * 16384,
    slice: 1024,
    monitors: OPTIONAL_OFF,
};

fn algorithm(arm: Arm) -> Box<dyn Algorithm<Vec2>> {
    Box::new(KirkpatrickAlgorithm::new(if arm.asynchronous {
        4
    } else {
        1
    }))
}

fn scheduler(arm: Arm, seed: u64) -> Box<dyn Scheduler> {
    if arm.asynchronous {
        Box::new(AsyncScheduler::new(seed))
    } else {
        Box::new(FSyncScheduler::new())
    }
}

fn builder(
    w: &Swarm,
    seed: u64,
    config: Configuration,
    monitors: Monitors,
    algorithm: impl Algorithm<Vec2> + 'static,
    scheduler: impl Scheduler + 'static,
) -> SimulationBuilder {
    let mut b = SimulationBuilder::new(config, algorithm)
        .scheduler(scheduler)
        .seed(seed)
        .max_events(w.events);
    if !monitors.strong {
        b = b.track_strong_visibility(false);
    }
    if !monitors.hull {
        b = b.hull_check_every(0);
    }
    if !monitors.diameter {
        b = b.diameter_sample_every(0);
    }
    b
}

/// A plain session of the arm (no wrappers, no observers).
fn session(w: &Swarm, arm: Arm, seed: u64, monitors: Monitors) -> Simulation {
    builder(
        w,
        seed,
        look_lattice(w.n),
        monitors,
        algorithm(arm),
        scheduler(arm, seed),
    )
    .build()
}

/// Runs the session's budget in `slice`-event slices; returns the events
/// processed and each slice's time.
fn drive(session: &mut Simulation, events: usize, slice: usize) -> (usize, Vec<f64>) {
    let mut slices = Vec::new();
    while session.events() < events && !session.status().is_terminal() {
        let t = Instant::now();
        session.run_for(Budget::events(slice.min(events - session.events())));
        slices.push(t.elapsed().as_secs_f64());
    }
    (session.events(), slices)
}

/// Runs the whole budget in one slice; returns (events, seconds).
fn drive_once(session: &mut Simulation, events: usize) -> (usize, f64) {
    let (events, slices) = drive(session, events, events);
    (events, slices.iter().sum())
}

/// The bare-engine replica of an arm: the engine a session would build,
/// stepped `events` times. Returns its final configuration, its events by
/// kind, and the stepping time (construction excluded).
fn replica(w: &Swarm, arm: Arm, seed: u64, events: usize) -> (Configuration, EventTally, f64) {
    let mut engine = Engine::new(
        &look_lattice(w.n),
        1.0,
        algorithm(arm),
        scheduler(arm, seed),
        seed,
    );
    let mut tally = EventTally::default();
    let t = Instant::now();
    for _ in 0..events {
        match engine.step() {
            Some(e) => tally.add(e.kind),
            None => break,
        }
    }
    let secs = t.elapsed().as_secs_f64();
    (engine.configuration(), tally, secs)
}

fn same_bits(a: &Configuration, b: &Configuration) -> bool {
    a.len() == b.len()
        && a.positions()
            .iter()
            .zip(b.positions())
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

fn report_hash(report: &SimulationReport) -> u64 {
    fnv1a(
        serde_json::to_string(report)
            .expect("reports serialize")
            .as_bytes(),
    )
}

/// The output check of one arm's report: the pinned report hash at the
/// default seed, and at every seed the bare replica's final configuration.
fn check_report(
    w: &Swarm,
    arm: Arm,
    seed: u64,
    report: &SimulationReport,
    reference: &Configuration,
) -> Result<(), String> {
    if !same_bits(&report.final_configuration, reference) {
        return Err("final configuration differs from the bare-engine replica".to_string());
    }
    if seed == DEFAULT_SEED {
        let hash = report_hash(report);
        let pinned = pins::SWARM_REPORTS
            .iter()
            .find(|(wn, an, _)| *wn == w.name && *an == arm.name)
            .map(|&(_, _, h)| h);
        if pinned != Some(hash) {
            return Err(format!("report hash {hash:#018x}, pinned {pinned:#018x?}"));
        }
    }
    Ok(())
}

/// One measured arm run: set-up time, events, slice times, report time.
struct ArmRun {
    setup: f64,
    events: usize,
    slices: Vec<f64>,
    report: f64,
    check: Result<(), String>,
}

fn arm_run(w: &Swarm, arm: Arm, seed: u64, reference: &mut Option<Configuration>) -> ArmRun {
    let t = Instant::now();
    let mut s = session(w, arm, seed, w.monitors);
    let setup = t.elapsed().as_secs_f64();
    let (events, slices) = drive(&mut s, w.events, w.slice);
    let t = Instant::now();
    let report = s.into_report();
    let report_s = t.elapsed().as_secs_f64();
    let reference = reference.get_or_insert_with(|| replica(w, arm, seed, report.events).0);
    ArmRun {
        setup,
        events,
        slices,
        report: report_s,
        check: check_report(w, arm, seed, &report, reference),
    }
}

/// The untraced run: `SETUP_REPS` timed set-ups, then units (both arms,
/// fresh sessions) until `seconds` have elapsed, at least [`MIN_UNITS`].
/// Every unit replays the same event stream, so slice `i` of one unit is
/// the same work as slice `i` of every other: each slice's time is taken
/// as its fastest repetition (see [`min_into`]). Failed or panicking arms
/// are counted and their unit's timings dropped.
pub fn run(w: &Swarm, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            ARMS.iter()
                .map(|&arm| {
                    let t = Instant::now();
                    std::hint::black_box(session(w, arm, seed, w.monitors));
                    t.elapsed().as_secs_f64()
                })
                .sum()
        })
        .collect();
    let mut references: [Option<Configuration>; 2] = [None, None];
    let mut slices: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reports = [f64::INFINITY; 2];
    let mut events = [0; 2];
    let mut deadline = Deadline::new(seconds, MIN_UNITS);
    while deadline.next() {
        let mut runs = Vec::new();
        for (i, &arm) in ARMS.iter().enumerate() {
            let ran = catch_unwind(AssertUnwindSafe(|| {
                arm_run(w, arm, seed, &mut references[i])
            }));
            let what = format!("{} {}", w.name, arm.name);
            match ran {
                Ok(r) if result.check(&what, r.check.clone()) => runs.push(r),
                Ok(_) => {}
                Err(_) => {
                    result.check(&what, Err("panicked".to_string()));
                }
            }
        }
        if runs.len() == ARMS.len() {
            setups.push(runs.iter().map(|r| r.setup).sum());
            for (i, r) in runs.iter().enumerate() {
                min_into(&mut slices[i], &r.slices);
                reports[i] = reports[i].min(r.report);
                events[i] = r.events;
            }
        } else if result.failed >= 2 * MIN_UNITS {
            break;
        }
    }
    let run_s = slices.map(|s| s.iter().sum::<f64>());
    result.push("wall_s", run_s[0] + reports[0] + run_s[1] + reports[1], "s");
    result.push("setup_s", median(&setups), "s");
    result.push(
        "events_per_s.fsync",
        events[0] as f64 / run_s[0],
        "events/s",
    );
    result.push(
        "events_per_s.async",
        events[1] as f64 / run_s[1],
        "events/s",
    );
    result
}

fn ns_per_event(secs: f64, events: usize) -> f64 {
    secs * 1e9 / events as f64
}

/// One traced repetition of `swarm_monitored`: the default session, the
/// same session with each optional monitor ablated, the bare replica, and
/// the default session with the timing wrappers handed in, paired with the
/// plain one for the tracing overhead.
pub fn monitored_layers(seed: u64, result: &mut RunResult, out: &mut Layers) {
    let w = &MONITORED;
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    for arm in ARMS {
        let (reference, _, bare) = replica(w, arm, seed, w.events);
        let timed = |monitors: Monitors| {
            let mut s = session(w, arm, seed, monitors);
            let (events, secs) = drive_once(&mut s, w.events);
            let t = Instant::now();
            let report = s.into_report();
            let wall = secs + t.elapsed().as_secs_f64();
            (ns_per_event(secs, events), report, wall)
        };
        let (default, report, wall) = timed(DEFAULTS);
        plain_wall += wall;
        let what = format!("{} {} (traced)", w.name, arm.name);
        result.check(&what, check_report(w, arm, seed, &report, &reference));
        let ablations = [
            (
                "strong",
                Monitors {
                    strong: false,
                    ..DEFAULTS
                },
            ),
            (
                "hull",
                Monitors {
                    hull: false,
                    ..DEFAULTS
                },
            ),
            (
                "diameter",
                Monitors {
                    diameter: false,
                    ..DEFAULTS
                },
            ),
        ];
        for (monitor, monitors) in ablations {
            let (without, _, _) = timed(monitors);
            out.time(
                format!("monitor.{monitor}.ns_per_event.{}", arm.name),
                default - without,
                "ns",
            );
        }
        out.time(
            format!("monitored.ns_per_event.{}", arm.name),
            default,
            "ns",
        );
        out.time(
            format!("monitored.overhead_x.{}", arm.name),
            default / ns_per_event(bare, report.events),
            "x",
        );
        traced_wall += traced_unit(w, arm, seed, &Arc::default()).0;
    }
    out.time(
        "trace.overhead_x.swarm_monitored",
        traced_wall / plain_wall,
        "x",
    );
}

/// A session with both timing wrappers and the event tally handed in:
/// returns (run + report seconds, events, tally).
fn traced_unit(w: &Swarm, arm: Arm, seed: u64, sched: &Arc<CallStats>) -> (f64, usize, EventTally) {
    let compute = Arc::new(CallStats::default());
    let tally = Rc::new(RefCell::new(EventTally::default()));
    let mut s = builder(
        w,
        seed,
        look_lattice(w.n),
        w.monitors,
        TimedAlgorithm::new(algorithm(arm), &compute),
        TimedScheduler::new(scheduler(arm, seed), sched),
    )
    .build();
    s.observe(Rc::clone(&tally));
    let t = Instant::now();
    s.run_for(Budget::events(w.events));
    let events = s.events();
    std::hint::black_box(s.into_report());
    let secs = t.elapsed().as_secs_f64();
    let tally = *tally.borrow();
    (secs, events, tally)
}

/// One traced repetition of `swarm_large`: set-up split into workload
/// generation and `build()`, the plain session and its report, the bare
/// replica, and the wrapped session for the scheduler layer and the
/// session's event tally.
pub fn large_layers(seed: u64, result: &mut RunResult, out: &mut Layers) {
    let w = &LARGE;
    let sched = Arc::new(CallStats::default());
    let (mut workload_s, mut build_s, mut report_s) = (0.0, 0.0, 0.0);
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    let mut kinds = EventTally::default();
    for arm in ARMS {
        let t = Instant::now();
        let config = look_lattice(w.n);
        workload_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut s = builder(
            w,
            seed,
            config,
            w.monitors,
            algorithm(arm),
            scheduler(arm, seed),
        )
        .build();
        build_s += t.elapsed().as_secs_f64();
        let (events, secs) = drive_once(&mut s, w.events);
        let t = Instant::now();
        let report = s.into_report();
        report_s += t.elapsed().as_secs_f64();
        plain_wall += secs + t.elapsed().as_secs_f64();

        let (reference, tally, bare) = replica(w, arm, seed, events);
        let what = format!("{} {} (traced)", w.name, arm.name);
        result.check(&what, check_report(w, arm, seed, &report, &reference));
        let (engine_ns, session_ns) = (ns_per_event(bare, events), ns_per_event(secs, events));
        out.time(format!("engine.ns_per_event.{}", arm.name), engine_ns, "ns");
        out.time(
            format!("session.ns_per_event.{}", arm.name),
            session_ns - engine_ns,
            "ns",
        );
        out.time(
            format!("session.overhead_x.{}", arm.name),
            session_ns / engine_ns,
            "x",
        );

        let (wall, traced_events, session_tally) = traced_unit(w, arm, seed, &sched);
        traced_wall += wall;
        result.check(
            &what,
            if (EventTally {
                motile: 0,
                ..session_tally
            }) != tally
                || traced_events != events
            {
                Err("session event stream differs from the bare replica".to_string())
            } else {
                Ok(())
            },
        );
        out.exact(
            format!("session.motile_mean.{}", arm.name),
            session_tally.motile as f64 / events as f64,
            "robots",
        );
        kinds.look += tally.look;
        kinds.move_start += tally.move_start;
        kinds.move_end += tally.move_end;
    }
    out.exact("engine.events.look", kinds.look as f64, "count");
    out.exact("engine.events.move_start", kinds.move_start as f64, "count");
    out.exact("engine.events.move_end", kinds.move_end as f64, "count");
    out.exact("scheduler.calls", sched.calls() as f64, "count");
    out.time(
        "scheduler.ns_per_call",
        sched.ns() as f64 / sched.calls() as f64,
        "ns",
    );
    out.time("setup.workload_s", workload_s, "s");
    out.time("setup.build_s", build_s, "s");
    out.time("report.into_report_s", report_s, "s");
    out.time(
        "trace.overhead_x.swarm_large",
        traced_wall / plain_wall,
        "x",
    );
}

/// Report hashes of both swarm workloads at [`DEFAULT_SEED`], as
/// `pins::SWARM_REPORTS` entries.
pub fn pin_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for w in [MONITORED, LARGE] {
        for arm in ARMS {
            let mut s = session(&w, arm, DEFAULT_SEED, w.monitors);
            s.run_for(Budget::events(w.events));
            let hash = report_hash(&s.into_report());
            lines.push(format!(
                "    (\"{}\", \"{}\", {hash:#018x}),",
                w.name, arm.name
            ));
        }
    }
    lines
}
