//! Work counters of the pair monitors and the samplers, pinned exactly.
//!
//! The swarm session the benchmark of record times — `look_lattice(256)`,
//! Kirkpatrick, `SimulationBuilder` defaults, 24 FSync rounds' worth of
//! events — under FSync with `k = 1` and unbounded Async with `k = 4`. The
//! counters are deterministic, so a change in how often either pair monitor
//! measures a pair, in how many `dist_sq` the diameter samples and round
//! boundaries take, or in how many hulls the hull samples build and how
//! many points reach their monotone chain, in how many orientations the
//! nesting tests evaluate and how many directions the diameter band passes
//! scan, shows up here as an exact count, independent of the machine.

use cohesion_bench::lookbench::look_lattice;
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{EventView, Observer, SimulationBuilder};
use cohesion_scheduler::{AsyncScheduler, FSyncScheduler, Scheduler};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

const N: usize = 256;
const EVENTS: usize = 24 * 3 * N;
/// The builder's default diameter sampling cadence.
const SAMPLE_EVERY: usize = 32;
/// The builder's default hull sampling cadence.
const HULL_EVERY: usize = 64;

/// Σ|dirty| over the event stream.
#[derive(Default)]
struct Tally {
    dirty: u64,
}

impl Observer for Tally {
    fn on_event(&mut self, view: &EventView<'_>) {
        self.dirty += view.monitors.dirty.len() as u64;
    }
}

/// The work counters after the session's event budget.
#[derive(Debug, Clone, PartialEq)]
struct Work {
    dirty: u64,
    cohesion_pairs: u64,
    strong_pairs: u64,
    diameter_pairs: u64,
    diameters: u64,
}

/// The hull sampler's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HullWork {
    hulls_built: u64,
    points_chained: u64,
}

/// The work of the samplers' kernels that skip what cannot change their
/// answer: the nesting test's `orient2d_value` evaluations and full edge
/// scans, and the diameter band pass's directions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KernelWork {
    nesting_orientations: u64,
    nesting_full_scans: u64,
    band_directions: u64,
}

fn work(asynchronous: bool) -> Work {
    run(asynchronous).0.clone()
}

/// The session's work counters, its hull sampler's and its samplers'
/// kernels', computed once per arm for all the tests that read them.
fn run(asynchronous: bool) -> &'static (Work, HullWork, KernelWork) {
    static RUNS: [OnceLock<(Work, HullWork, KernelWork)>; 2] = [OnceLock::new(), OnceLock::new()];
    RUNS[usize::from(asynchronous)].get_or_init(|| measure(asynchronous))
}

fn measure(asynchronous: bool) -> (Work, HullWork, KernelWork) {
    let (k, scheduler): (u32, Box<dyn Scheduler>) = if asynchronous {
        (4, Box::new(AsyncScheduler::new(0)))
    } else {
        (1, Box::new(FSyncScheduler::new()))
    };
    let mut session = SimulationBuilder::new(look_lattice(N), KirkpatrickAlgorithm::new(k))
        .scheduler(scheduler)
        .seed(0)
        .max_events(EVENTS)
        .build();
    let tally = Rc::new(RefCell::new(Tally::default()));
    session.observe(Rc::clone(&tally));
    // Events that took a diameter: a sample, a round boundary, or both at
    // once. `progress()` measures with `Configuration::diameter`, outside
    // the monitor's counter, so reading the round count leaves
    // `diameter_pairs` alone. Every step but the terminal one processes an
    // event: the event budget ends the run (asserted below).
    let (mut diameters, mut rounds) = (0, 0);
    while !session.step().is_terminal() {
        let now = session.progress().rounds;
        if session.events() % SAMPLE_EVERY == 0 || now > rounds {
            diameters += 1;
        }
        rounds = now;
    }
    assert_eq!(session.events(), EVENTS);
    let strong = session.strong_visibility().expect("tracked by default");
    let hull = session.hull_monitor().expect("checked by default");
    let tally = tally.borrow();
    let work = Work {
        dirty: tally.dirty,
        cohesion_pairs: session.cohesion().pairs_checked(),
        strong_pairs: strong.pairs_checked(),
        diameter_pairs: session.diameter_monitor().pairs_checked(),
        diameters,
    };
    let hull_work = HullWork {
        hulls_built: hull.hulls_built(),
        points_chained: hull.points_chained(),
    };
    let nesting = hull.nesting_work();
    let kernel_work = KernelWork {
        nesting_orientations: nesting.orientations,
        nesting_full_scans: nesting.full_scans,
        band_directions: session.diameter_monitor().directions_scanned(),
    };
    (work, hull_work, kernel_work)
}

/// The all-pairs loop paid `n(n − 1)/2` `dist_sq` per diameter; the
/// kernel must stay three orders of magnitude below that.
fn assert_far_below_all_pairs(work: &Work) {
    let all_pairs = work.diameters * (N * (N - 1) / 2) as u64;
    assert!(
        work.diameter_pairs * 1000 < all_pairs,
        "{} diameter pairs against {all_pairs} for all pairs",
        work.diameter_pairs
    );
}

#[test]
fn fsync_pair_work_is_pinned() {
    let work = work(false);
    assert_eq!(
        work,
        Work {
            dirty: 1_579_008,
            cohesion_pairs: 46_560,
            strong_pairs: 10_025,
            diameter_pairs: 370,
            diameters: 576,
        }
    );
    assert_far_below_all_pairs(&work);
}

#[test]
fn async_pair_work_is_pinned() {
    let work = work(true);
    assert_eq!(
        work,
        Work {
            dirty: 863_391,
            cohesion_pairs: 46_471,
            strong_pairs: 0,
            diameter_pairs: 1_699,
            diameters: 583,
        }
    );
    assert_far_below_all_pairs(&work);
}

/// Hull samples that built a hull, of the `EVENTS / HULL_EVERY` taken,
/// and the points that reached their monotone chain. Under FSync the third
/// of the samples that fall in a round's MoveStart events, where no robot
/// moves and no pending target changes, repeat the previous sample's input
/// bit for bit and reuse its hull; under Async none repeat. Each sample
/// reads at most `2n` points, positions and pending targets; the octagon
/// prefilter passes fewer than a quarter of `2n` to the chain, where the
/// unfiltered chain sorted every point.
#[test]
fn hull_work_is_pinned() {
    assert_eq!(EVENTS / HULL_EVERY, 288);
    let (fsync, asynchronous) = (run(false).1, run(true).1);
    assert_eq!(
        fsync,
        HullWork {
            hulls_built: 192,
            points_chained: 16_789,
        }
    );
    assert_eq!(
        asynchronous,
        HullWork {
            hulls_built: 288,
            points_chained: 20_399,
        }
    );
    for hull in [fsync, asynchronous] {
        assert!(4 * hull.points_chained < hull.hulls_built * 2 * N as u64);
    }
}

/// The nesting test walks both hulls once per sample, `O(h_prev + h_next)`,
/// where the full scan tested every vertex of the new hull against every
/// edge of the old one; only pairs of hulls with fewer than
/// `WALK_MIN_PAIRS` vertex pairs, early in the run, are still scanned in
/// full (one scan per edge of the old hull). The diameter band pass scans
/// only the directions whose extent reaches its threshold, the lattice's
/// two diagonals, where it scanned all eight.
#[test]
fn sampler_kernel_work_is_pinned() {
    let (fsync, asynchronous) = (run(false).2, run(true).2);
    assert_eq!(
        fsync,
        KernelWork {
            nesting_orientations: 25_734,
            nesting_full_scans: 308,
            band_directions: 50,
        }
    );
    assert_eq!(
        asynchronous,
        KernelWork {
            nesting_orientations: 31_928,
            nesting_full_scans: 432,
            band_directions: 1_166,
        }
    );
    for (arm, kernel) in [(false, fsync), (true, asynchronous)] {
        let (work, hull) = (&run(arm).0, run(arm).1);
        // Fewer than the points chained twice over; the full scan of every
        // pair made about 50 per edge of a hull of about 50 vertices.
        assert!(kernel.nesting_orientations < 2 * hull.points_chained);
        // Fewer than three directions per measured diameter, of eight.
        assert!(kernel.band_directions < 3 * work.diameters);
    }
}
