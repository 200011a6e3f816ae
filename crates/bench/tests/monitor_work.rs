//! Work counters of the pair monitors, pinned exactly.
//!
//! The swarm session the benchmark of record times — `look_lattice(256)`,
//! Kirkpatrick, `SimulationBuilder` defaults, 24 FSync rounds' worth of
//! events — under FSync with `k = 1` and unbounded Async with `k = 4`. The
//! counters are deterministic, so a change in how often either monitor
//! measures a pair shows up here as an exact count, independent of the
//! machine.

use cohesion_bench::lookbench::look_lattice;
use cohesion_core::KirkpatrickAlgorithm;
use cohesion_engine::{EventView, Observer, SimulationBuilder};
use cohesion_scheduler::{AsyncScheduler, FSyncScheduler, Scheduler};
use std::cell::RefCell;
use std::rc::Rc;

const N: usize = 256;
const EVENTS: usize = 24 * 3 * N;

/// Σ|dirty| over the event stream.
#[derive(Default)]
struct DirtyTotal(u64);

impl Observer for DirtyTotal {
    fn on_event(&mut self, view: &EventView<'_>) {
        self.0 += view.monitors.dirty.len() as u64;
    }
}

/// `(Σ|dirty|, cohesion pairs checked, strong-visibility pairs checked)`
/// after the session's event budget.
fn work(asynchronous: bool) -> (u64, u64, u64) {
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
    let dirty = Rc::new(RefCell::new(DirtyTotal::default()));
    session.observe(Rc::clone(&dirty));
    while !session.step().is_terminal() {}
    assert_eq!(session.events(), EVENTS);
    let strong = session.strong_visibility().expect("tracked by default");
    let total = dirty.borrow().0;
    (
        total,
        session.cohesion().pairs_checked(),
        strong.pairs_checked(),
    )
}

#[test]
fn fsync_pair_work_is_pinned() {
    assert_eq!(work(false), (1_579_008, 46_560, 10_025));
}

#[test]
fn async_pair_work_is_pinned() {
    assert_eq!(work(true), (863_391, 46_471, 0));
}
