//! Timing wrappers handed in through the public `SimulationBuilder` and
//! `run_impossibility` APIs, plus an observer that tallies the session's
//! event stream. Nothing here changes what the wrapped code computes: the
//! wrappers delegate every call (names included), so reports and rows stay
//! byte-identical — the row-hash and report-hash checks verify it.

use cohesion_engine::{EngineEventKind, EventView, Observer};
use cohesion_model::frame::Ambient;
use cohesion_model::{Algorithm, Snapshot};
use cohesion_scheduler::{ActivationInterval, ScheduleContext, Scheduler};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Call count, busy nanoseconds and an item total for one wrapped layer.
/// `Relaxed` is enough: the counters publish no other data and are read
/// only after the threads that bump them have joined.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    ns: AtomicU64,
    items: AtomicU64,
}

impl CallStats {
    fn record(&self, start: Instant, items: usize) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.items.fetch_add(items as u64, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }
}

/// Times every `Algorithm::compute` call and counts the robots in each
/// snapshot.
#[derive(Debug)]
pub struct TimedAlgorithm<P: Ambient> {
    inner: Box<dyn Algorithm<P>>,
    stats: Arc<CallStats>,
}

impl<P: Ambient> TimedAlgorithm<P> {
    pub fn new(inner: Box<dyn Algorithm<P>>, stats: &Arc<CallStats>) -> Self {
        TimedAlgorithm {
            inner,
            stats: Arc::clone(stats),
        }
    }
}

impl<P: Ambient> Algorithm<P> for TimedAlgorithm<P> {
    fn compute(&self, snapshot: &Snapshot<P>) -> P {
        let start = Instant::now();
        let target = self.inner.compute(snapshot);
        self.stats.record(start, snapshot.len());
        target
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every `Scheduler::next_activation` call.
#[derive(Debug)]
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    stats: Arc<CallStats>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, stats: &Arc<CallStats>) -> Self {
        TimedScheduler {
            inner,
            stats: Arc::clone(stats),
        }
    }
}

impl Scheduler for TimedScheduler {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        let start = Instant::now();
        let next = self.inner.next_activation(ctx);
        self.stats.record(start, 0);
        next
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Events by kind and the summed size of the motile set (what
/// `Engine::collect_motile` returns) over a session's event stream.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventTally {
    pub look: u64,
    pub move_start: u64,
    pub move_end: u64,
    pub motile: u64,
}

impl EventTally {
    pub fn add(&mut self, kind: EngineEventKind) {
        match kind {
            EngineEventKind::Look => self.look += 1,
            EngineEventKind::MoveStart => self.move_start += 1,
            EngineEventKind::MoveEnd => self.move_end += 1,
        }
    }
}

impl<P: Ambient> Observer<P> for EventTally {
    fn on_event(&mut self, view: &EventView<'_, P>) {
        self.add(view.event.kind);
        // The session's dirty set is the motile set plus, at a MoveEnd, the
        // robot that just stopped (which is no longer motile).
        let stopped = usize::from(view.event.kind == EngineEventKind::MoveEnd);
        self.motile += (view.monitors.dirty.len() - stopped) as u64;
    }
}
