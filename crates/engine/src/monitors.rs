//! Incremental run-time monitors: the predicate checkers the simulation
//! driver consults after every engine event.
//!
//! Historically these checks lived inline in `SimulationBuilder::run` and
//! paid `O(n²)` per event (all-pairs scans) plus a full [`Configuration`]
//! materialization. The monitors here are *incremental*: robot positions are
//! piecewise-linear in time, so between two consecutive engine events only
//! robots that were in their Move phase can have changed position. The
//! driver hands each monitor the current positions **in place** plus that
//! *dirty set*, and pair predicates are re-evaluated only for pairs with a
//! dirty endpoint. Because pair distances attain their maxima exactly at
//! event boundaries (the piecewise-linear invariant the old inline checks
//! relied on), checking dirty pairs at every event remains exhaustive.
//!
//! [`Configuration`]: cohesion_model::Configuration

use crate::report::CohesionViolation;
use cohesion_geometry::hull::convex_hull;
use cohesion_geometry::point::Point;
use cohesion_geometry::{ConvexHull, DynamicGrid, Vec2};
use cohesion_model::frame::Ambient;
use cohesion_model::visibility::GRID_THRESHOLD;
use cohesion_model::RobotPair;
use std::collections::BTreeSet;

/// Everything a monitor may look at for one engine event.
///
/// Borrowed views into driver-owned buffers — no per-event allocation.
pub struct MonitorContext<'a, P: Ambient> {
    /// Time of the event being processed.
    pub time: f64,
    /// 1-based count of events processed so far (for cadence checks).
    pub events: usize,
    /// Position of every robot at `time`.
    pub positions: &'a [P],
    /// Ascending dense indices of robots whose position changed since the
    /// previous event.
    pub dirty: &'a [usize],
    /// `dirty_mask[i]` ⟺ `dirty` contains `i` (for O(1) membership tests).
    pub dirty_mask: &'a [bool],
    /// Lazily fills a caller-provided buffer with the planar projection of
    /// positions ∪ pending targets — the vertex set of the paper's `CH_t`.
    /// Only invoked by hull-type monitors on their sampling cadence; the
    /// buffer-filling shape lets the monitor pool the vertex storage across
    /// samples instead of taking a fresh `Vec` per call.
    pub hull_points: &'a dyn Fn(&mut Vec<Vec2>),
}

/// A predicate checker driven once per engine event.
///
/// Monitors are deliberately small: state in, [`MonitorContext`] per event,
/// typed results read off the concrete monitor after the run. The driver
/// composes the four standard monitors below; external experiment harnesses
/// can implement the trait to track custom invariants without touching the
/// engine loop.
pub trait Monitor<P: Ambient> {
    /// Observes one engine event.
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>);
}

/// The configuration diameter of a position set: maximum pairwise distance
/// (`0` for fewer than two robots). Identical arithmetic to
/// [`Configuration::diameter`](cohesion_model::Configuration::diameter), so
/// reports are bit-for-bit reproducible across the two paths.
pub fn diameter_of<P: Point>(positions: &[P]) -> f64 {
    let mut best = 0.0_f64;
    for i in 0..positions.len() {
        for j in (i + 1)..positions.len() {
            best = best.max(positions[i].dist(positions[j]));
        }
    }
    best
}

/// Watches the Cohesive Convergence clause `E(0) ⊆ E(t)`: every initially
/// visible pair must stay within its visibility threshold at every event
/// time. Re-checks only initial edges incident to a dirty robot, via a
/// CSR-style adjacency of the initial graph.
pub struct CohesionMonitor {
    /// `adj[i]` = the initial-edge partners of robot `i` with the pair's
    /// visibility threshold (`V`, or `min(rᵢ, rⱼ)` under per-robot radii).
    adj: Vec<Vec<(usize, f64)>>,
    tol: f64,
    /// Pairs already reported (a violation is recorded once, at its first
    /// observation, like the historical inline check).
    violated: BTreeSet<(usize, usize)>,
    violations: Vec<CohesionViolation>,
    /// Scratch for per-event findings (kept across events to avoid
    /// reallocation).
    fresh: Vec<(usize, usize, f64)>,
}

impl CohesionMonitor {
    /// Builds the monitor over the initial edge list (pairs `(a, b)` with
    /// `a < b`) and a per-pair threshold function.
    pub fn new(
        n: usize,
        initial_edges: &[(usize, usize)],
        threshold: impl Fn(usize, usize) -> f64,
        tol: f64,
    ) -> Self {
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(a, b) in initial_edges {
            let t = threshold(a, b);
            adj[a].push((b, t));
            adj[b].push((a, t));
        }
        CohesionMonitor {
            adj,
            tol,
            violated: BTreeSet::new(),
            violations: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// `true` while no initial edge has been observed broken.
    pub fn maintained(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations recorded so far (first observation per pair, in event
    /// order, ties within an event broken by pair order).
    pub fn violations(&self) -> &[CohesionViolation] {
        &self.violations
    }

    /// The recorded violations (first observation per pair, in event order,
    /// ties within an event broken by pair order).
    pub fn into_violations(self) -> Vec<CohesionViolation> {
        self.violations
    }

    /// Restores the recorded-violation state from a checkpoint. The
    /// reported-pair set is rebuilt from the list — they are in bijection
    /// (a pair enters `violated` exactly when its violation is pushed), so
    /// checkpoints carry only the list.
    pub(crate) fn restore(&mut self, violations: Vec<CohesionViolation>) {
        self.violated = violations
            .iter()
            .map(|v| (v.pair.a.index(), v.pair.b.index()))
            .collect();
        self.violations = violations;
    }
}

impl<P: Ambient> Monitor<P> for CohesionMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        self.fresh.clear();
        for &a in ctx.dirty {
            for &(b, threshold) in &self.adj[a] {
                // A pair with both endpoints dirty is visited twice; keep
                // the visit from the smaller endpoint.
                if ctx.dirty_mask[b] && b < a {
                    continue;
                }
                let d = ctx.positions[a].dist(ctx.positions[b]);
                if d > threshold + self.tol {
                    let key = (a.min(b), a.max(b));
                    if !self.violated.contains(&key) {
                        self.fresh.push((key.0, key.1, d));
                    }
                }
            }
        }
        // Report in pair order — the order the historical full edge-list
        // sweep discovered simultaneous violations in.
        self.fresh.sort_unstable_by_key(|&(a, b, _)| (a, b));
        for &(a, b, d) in &self.fresh {
            if self.violated.insert((a, b)) {
                self.violations.push(CohesionViolation {
                    pair: RobotPair::new(a.into(), b.into()),
                    time: ctx.time,
                    distance: d,
                });
            }
        }
    }
}

/// Watches the acquired-visibility clause of Theorems 3–4: any pair that
/// ever comes within `V/2` must stay within `V` forever after.
///
/// Membership of the "acquired" set is a monotone property of pair-distance
/// history, and a pair with no dirty endpoint has the same distance as at
/// the previous event, where its status was already settled — so checking
/// only pairs with a dirty endpoint observes exactly the acquisitions and
/// violations of the historical all-pairs sweep. Of those pairs only two
/// kinds can change anything, and the monitor visits only them:
///
/// * pairs within the acquisition radius `V/2 + tol`, found by a range
///   query on a grid of current positions whose cell edge is that radius,
///   and
/// * pairs already acquired (candidate violations), walked from per-robot
///   ascending partner lists, skipping partners the range query already
///   placed within the acquisition radius (and hence within `V`).
///
/// Per event the cost is `O(Σ_dirty (local density + acquired degree))`
/// instead of `O(|dirty| · n)`, no partner of a dirty robot is measured
/// twice for it, and memory is `O(n + acquired pairs)` instead of an
/// `n × n` bitset. Below [`GRID_THRESHOLD`] robots a grid costs more than
/// it prunes, so every robot is a candidate instead, walked in step with
/// the partner list. The constructor seeds the set from the initial
/// positions (equivalently, the positions at the first event — nothing
/// moves before it) through the same candidate source.
pub struct StrongVisibilityMonitor<P: Point> {
    v: f64,
    tol: f64,
    /// Every robot at its current position, cell edge = acquisition radius;
    /// `None` below [`GRID_THRESHOLD`] robots.
    grid: Option<DynamicGrid<P>>,
    /// `acquired[i]`: the ascending partners of robot `i` in acquired
    /// pairs. Each pair is listed at both endpoints.
    acquired: Vec<Vec<u32>>,
    ok: bool,
    /// Per-event scratch for the dirty robot being checked: its grid
    /// candidates with their membership mask, and its new acquisitions.
    near: Vec<usize>,
    near_mask: Vec<bool>,
    fresh: Vec<usize>,
}

impl<P: Point> StrongVisibilityMonitor<P> {
    /// Builds the monitor and seeds the acquired set from the initial
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics when the acquisition radius `v/2 + tol` is not positive and
    /// finite.
    pub fn new(v: f64, tol: f64, initial_positions: &[P]) -> Self {
        let n = initial_positions.len();
        let radius = v / 2.0 + tol;
        assert!(
            radius > 0.0 && radius.is_finite(),
            "acquisition radius V/2 + tol must be positive and finite"
        );
        let grid = (n >= GRID_THRESHOLD).then(|| {
            let mut grid = DynamicGrid::with_extent(n, radius, initial_positions);
            for (i, &p) in initial_positions.iter().enumerate() {
                grid.insert(i, p);
            }
            grid
        });
        // The acquisition predicate is symmetric in its two points, so each
        // robot's own candidates are its complete partner list.
        let mut near = Vec::new();
        let acquired = initial_positions
            .iter()
            .enumerate()
            .map(|(a, &pa)| {
                near.clear();
                match &grid {
                    Some(grid) => grid.query_within(pa, radius, &mut near),
                    None => {
                        near.extend((0..n).filter(|&b| pa.dist(initial_positions[b]) <= radius))
                    }
                }
                let mut partners: Vec<u32> = near
                    .iter()
                    .filter(|&&b| b != a)
                    .map(|&b| b as u32)
                    .collect();
                partners.sort_unstable();
                partners
            })
            .collect();
        StrongVisibilityMonitor {
            v,
            tol,
            grid,
            acquired,
            ok: true,
            near,
            near_mask: vec![false; n],
            fresh: Vec::new(),
        }
    }

    /// `true` while no acquired pair has been observed beyond `V`.
    pub fn ok(&self) -> bool {
        self.ok
    }

    /// The acquired set as the checkpoint's row-major `n × n` bitset words
    /// over normalized pairs `(min, max)`.
    pub(crate) fn acquired_bits(&self) -> Vec<u64> {
        let n = self.acquired.len();
        let mut words = vec![0u64; (n * n).div_ceil(64)];
        for (a, partners) in self.acquired.iter().enumerate() {
            for &b in partners.iter().filter(|&&b| b as usize > a) {
                let bit = a * n + b as usize;
                words[bit / 64] |= 1 << (bit % 64);
            }
        }
        words
    }

    /// Restores the acquired set (checkpoint bitset words) and verdict, and
    /// re-indexes the grid at `positions`, the session's positions at the
    /// restored event.
    pub(crate) fn restore(
        &mut self,
        words: &[u64],
        ok: bool,
        positions: &[P],
    ) -> Result<(), String> {
        let n = self.acquired.len();
        let expected = (n * n).div_ceil(64);
        if words.len() != expected {
            return Err(format!(
                "checkpoint strong-visibility bitset has {} words, monitor needs {expected}",
                words.len()
            ));
        }
        for partners in &mut self.acquired {
            partners.clear();
        }
        for (w, &word) in words.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let bit = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let (a, b) = (bit / n, bit % n);
                if a >= b {
                    return Err(format!(
                        "checkpoint strong-visibility bitset sets non-canonical pair ({a}, {b})"
                    ));
                }
                // Bits ascend in (a, b) order, so both pushes keep each
                // list ascending.
                self.acquired[a].push(b as u32);
                self.acquired[b].push(a as u32);
            }
        }
        if let Some(grid) = &mut self.grid {
            for (i, &p) in positions.iter().enumerate() {
                grid.relocate(i, p);
            }
        }
        self.ok = ok;
        Ok(())
    }

    fn radius(&self) -> f64 {
        self.v / 2.0 + self.tol
    }

    /// Checks dirty robot `a` against its grid candidates: acquired
    /// partners outside the acquisition radius are tested against `V`, and
    /// candidates not yet acquired go to `fresh`.
    fn check_near(&mut self, a: usize, positions: &[P], dirty_mask: &[bool]) {
        let pa = positions[a];
        let radius = self.radius();
        self.near.clear();
        if let Some(grid) = &self.grid {
            grid.query_within(pa, radius, &mut self.near);
        }
        for &b in &self.near {
            self.near_mask[b] = true;
        }
        for &b in &self.acquired[a] {
            let b = b as usize;
            if self.near_mask[b] {
                self.near_mask[b] = false;
            } else if !checked_elsewhere(a, b, dirty_mask)
                && pa.dist(positions[b]) > self.v + self.tol
            {
                self.ok = false;
            }
        }
        for &b in &self.near {
            if std::mem::take(&mut self.near_mask[b]) && !checked_elsewhere(a, b, dirty_mask) {
                self.fresh.push(b);
            }
        }
    }

    /// Checks dirty robot `a` against every robot, walking its ascending
    /// partner list in step; new acquisitions go to `fresh`.
    fn check_all(&mut self, a: usize, positions: &[P], dirty_mask: &[bool]) {
        let pa = positions[a];
        let radius = self.radius();
        let partners = &self.acquired[a];
        let mut next = 0;
        for (b, &pb) in positions.iter().enumerate() {
            let acquired = partners.get(next) == Some(&(b as u32));
            next += usize::from(acquired);
            if checked_elsewhere(a, b, dirty_mask) {
                continue;
            }
            let d = pa.dist(pb);
            if d <= radius {
                if !acquired {
                    self.fresh.push(b);
                }
            } else if acquired && d > self.v + self.tol {
                self.ok = false;
            }
        }
    }

    /// Records the not yet acquired pair `(a, b)` at both endpoints.
    fn link(&mut self, a: usize, b: usize) {
        for (x, y) in [(a, b), (b, a)] {
            let partners = &mut self.acquired[x];
            let slot = partners
                .binary_search(&(y as u32))
                .expect_err("a fresh acquisition is not yet listed");
            partners.insert(slot, y as u32);
        }
    }
}

/// `true` when the pair `(a, b)` is not dirty robot `a`'s to check: `b` is
/// `a` itself, or a smaller dirty robot that checks the pair from its side.
fn checked_elsewhere(a: usize, b: usize, dirty_mask: &[bool]) -> bool {
    b == a || (dirty_mask[b] && b < a)
}

impl<P: Ambient> Monitor<P> for StrongVisibilityMonitor<P> {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        if let Some(grid) = &mut self.grid {
            for &a in ctx.dirty {
                grid.relocate(a, ctx.positions[a]);
            }
        }
        for &a in ctx.dirty {
            self.fresh.clear();
            if self.grid.is_some() {
                self.check_near(a, ctx.positions, ctx.dirty_mask);
            } else {
                self.check_all(a, ctx.positions, ctx.dirty_mask);
            }
            for k in 0..self.fresh.len() {
                self.link(a, self.fresh[k]);
            }
        }
    }
}

/// Watches hull nesting on a sampling cadence: each sampled convex hull of
/// positions ∪ pending targets must contain the next (the paper's
/// hull-diminishing invariant). Planar only — the driver constructs this
/// monitor only when `P::DIM == 2`.
pub struct HullMonitor {
    every: usize,
    tol: f64,
    prev: Option<ConvexHull>,
    nested: bool,
    /// Pooled vertex buffer refilled via `MonitorContext::hull_points`.
    scratch: Vec<Vec2>,
}

impl HullMonitor {
    /// Samples every `every` events with containment tolerance `tol`.
    ///
    /// # Panics
    ///
    /// Panics when `every == 0` (a disabled monitor should simply not be
    /// constructed).
    pub fn new(every: usize, tol: f64) -> Self {
        assert!(every > 0, "hull cadence must be positive");
        HullMonitor {
            every,
            tol,
            prev: None,
            nested: true,
            scratch: Vec::new(),
        }
    }

    /// `true` while every sampled hull contained its successor.
    pub fn nested(&self) -> bool {
        self.nested
    }

    /// The previous sampled hull's vertices, for checkpointing.
    pub(crate) fn prev_vertices(&self) -> Option<&[Vec2]> {
        self.prev.as_ref().map(ConvexHull::vertices)
    }

    /// Restores the sampled-hull state from a checkpoint. `convex_hull` is
    /// idempotent on a hull's own canonical vertex list, so rebuilding from
    /// vertices reproduces the previous hull exactly.
    pub(crate) fn restore(&mut self, prev: Option<Vec<Vec2>>, nested: bool) {
        self.prev = prev.map(|vertices| convex_hull(&vertices));
        self.nested = nested;
    }
}

impl<P: Ambient> Monitor<P> for HullMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        if ctx.events % self.every != 0 {
            return;
        }
        (ctx.hull_points)(&mut self.scratch);
        let hull = convex_hull(&self.scratch);
        if let Some(prev) = &self.prev {
            if !prev.contains_hull(&hull, self.tol) {
                self.nested = false;
            }
        }
        self.prev = Some(hull);
    }
}

/// Samples the configuration diameter on a cadence and tests convergence
/// (`diameter ≤ ε`). Reads positions in place — no `Configuration` clone.
pub struct DiameterMonitor {
    every: usize,
    epsilon: f64,
    series: Vec<(f64, f64)>,
    converged: bool,
}

impl DiameterMonitor {
    /// Samples every `every` events (`0` disables sampling; the series then
    /// only carries the seed point). `initial` seeds the series with the
    /// `t = 0` diameter.
    pub fn new(every: usize, epsilon: f64, initial: (f64, f64)) -> Self {
        DiameterMonitor {
            every,
            epsilon,
            series: vec![initial],
            converged: false,
        }
    }

    /// `true` once a sampled diameter reached `ε`. The driver stops the run
    /// at the first converged sample, like the historical inline check.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The `(time, diameter)` samples collected so far.
    pub fn series(&self) -> &[(f64, f64)] {
        &self.series
    }

    /// Consumes the monitor, returning the sample series.
    pub fn into_series(self) -> Vec<(f64, f64)> {
        self.series
    }

    /// Restores the sample series and verdict from a checkpoint.
    pub(crate) fn restore(&mut self, series: Vec<(f64, f64)>, converged: bool) {
        self.series = series;
        self.converged = converged;
    }
}

impl<P: Ambient> Monitor<P> for DiameterMonitor {
    fn on_event(&mut self, ctx: &MonitorContext<'_, P>) {
        if self.every == 0 || ctx.events % self.every != 0 {
            return;
        }
        let d = diameter_of(ctx.positions);
        self.series.push((ctx.time, d));
        if d <= self.epsilon {
            self.converged = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx<'a>(
        time: f64,
        events: usize,
        positions: &'a [Vec2],
        dirty: &'a [usize],
        dirty_mask: &'a [bool],
        hull_points: &'a dyn Fn(&mut Vec<Vec2>),
    ) -> MonitorContext<'a, Vec2> {
        MonitorContext {
            time,
            events,
            positions,
            dirty,
            dirty_mask,
            hull_points,
        }
    }

    const NO_HULL: &dyn Fn(&mut Vec<Vec2>) = &|out| out.clear();

    #[test]
    fn cohesion_monitor_flags_broken_edge_once() {
        let mut m = CohesionMonitor::new(2, &[(0, 1)], |_, _| 1.0, 1e-9);
        let near = [Vec2::ZERO, Vec2::new(0.9, 0.0)];
        let far = [Vec2::ZERO, Vec2::new(1.5, 0.0)];
        let mask = [false, true];
        m.on_event(&ctx(0.5, 1, &near, &[1], &mask, NO_HULL));
        assert!(m.maintained());
        m.on_event(&ctx(1.0, 2, &far, &[1], &mask, NO_HULL));
        assert!(!m.maintained());
        m.on_event(&ctx(1.5, 3, &far, &[1], &mask, NO_HULL));
        let violations = m.into_violations();
        assert_eq!(violations.len(), 1, "first observation only");
        assert_eq!(violations[0].time, 1.0);
        assert_eq!(violations[0].distance, 1.5);
    }

    #[test]
    fn cohesion_monitor_ignores_clean_pairs() {
        // Robot 2 drifts away but shares no initial edge with anyone.
        let mut m = CohesionMonitor::new(3, &[(0, 1)], |_, _| 1.0, 1e-9);
        let pos = [Vec2::ZERO, Vec2::new(0.5, 0.0), Vec2::new(9.0, 0.0)];
        let mask = [false, false, true];
        m.on_event(&ctx(1.0, 1, &pos, &[2], &mask, NO_HULL));
        assert!(m.maintained());
    }

    #[test]
    fn strong_visibility_seeds_from_initial_positions() {
        // The pair starts acquired (d = 0.4 ≤ V/2) without ever being dirty,
        // then separates beyond V in one hop: the violation must register.
        let start = [Vec2::ZERO, Vec2::new(0.4, 0.0)];
        let mut m = StrongVisibilityMonitor::new(1.0, 1e-9, &start);
        let apart = [Vec2::ZERO, Vec2::new(1.2, 0.0)];
        let mask = [false, true];
        m.on_event(&ctx(1.0, 1, &apart, &[1], &mask, NO_HULL));
        assert!(!m.ok());
    }

    #[test]
    fn strong_visibility_never_acquired_pair_may_separate() {
        let start = [Vec2::ZERO, Vec2::new(0.9, 0.0)];
        let mut m = StrongVisibilityMonitor::new(1.0, 1e-9, &start);
        let apart = [Vec2::ZERO, Vec2::new(1.2, 0.0)];
        let mask = [false, true];
        m.on_event(&ctx(1.0, 1, &apart, &[1], &mask, NO_HULL));
        assert!(m.ok(), "0.9 > V/2: visibility was never acquired");
    }

    /// The historical all-pairs sweep, kept as the oracle: the acquired set
    /// as checkpoint bitset words, and the verdict.
    struct AllPairs {
        v: f64,
        tol: f64,
        words: Vec<u64>,
        ok: bool,
    }

    impl AllPairs {
        fn new<P: Point>(v: f64, tol: f64, positions: &[P]) -> Self {
            let n = positions.len();
            let mut oracle = AllPairs {
                v,
                tol,
                words: vec![0; (n * n).div_ceil(64)],
                ok: true,
            };
            oracle.observe(positions);
            oracle
        }

        fn observe<P: Point>(&mut self, positions: &[P]) {
            let n = positions.len();
            for a in 0..n {
                for b in (a + 1)..n {
                    let bit = a * n + b;
                    let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                    let d = positions[a].dist(positions[b]);
                    if d <= self.v / 2.0 + self.tol {
                        self.words[word] |= mask;
                    } else if d > self.v + self.tol && self.words[word] & mask != 0 {
                        self.ok = false;
                    }
                }
            }
        }
    }

    /// Lattice step of the differential property. With `V = 1` and
    /// `tol = 0.25` the thresholds are 0.75 and 1.25: exactly 3 and 5
    /// steps along an axis, and hit again by the (3, 4, 5) diagonal in the
    /// plane and the (1, 2, 2) diagonal in space.
    const STEP: f64 = 0.25;
    const TOL: f64 = 0.25;

    /// One robot move: `(robot, kind, lattice cell, jitter)`. `kind`
    /// picks the target — onto another robot's position, far outside
    /// the grid's dense extent, the cell plus jitter, the exact cell, or
    /// (half the time) a step of up to two lattice units from where the
    /// robot stands, so pair distances creep onto the thresholds.
    type Move = (usize, usize, (i32, i32, i32), f64);

    fn lattice<P: Point>((x, y, z): (i32, i32, i32), jitter: f64) -> P {
        let c = [x as f64 * STEP + jitter, y as f64 * STEP, z as f64 * STEP];
        P::from_coords(&c[..P::DIM])
    }

    /// Drives the monitor and the oracle through the same events; after
    /// every event the verdicts and the acquired sets must agree.
    fn matches_all_pairs<P: Ambient>(
        start: &[(i32, i32, i32)],
        events: &[(Vec<Move>, u32)],
    ) -> Result<(), TestCaseError> {
        let mut positions: Vec<P> = start.iter().map(|&c| lattice(c, 0.0)).collect();
        let n = positions.len();
        let mut monitor = StrongVisibilityMonitor::new(1.0, TOL, &positions);
        let mut oracle = AllPairs::new(1.0, TOL, &positions);
        prop_assert_eq!(monitor.acquired_bits(), oracle.words.clone());
        for (time, (moves, all_dirty)) in events.iter().enumerate() {
            let mut dirty: Vec<usize> = Vec::new();
            for &(robot, kind, cell, jitter) in moves {
                let i = robot % n;
                positions[i] = match kind % 8 {
                    0 => positions[(kind / 8) % n],
                    1 => lattice((cell.0 + 40, cell.1, cell.2), 0.0),
                    2 => lattice(cell, jitter),
                    3 => lattice(cell, 0.0),
                    _ => {
                        positions[i]
                            + lattice::<P>((cell.0 % 5 - 2, cell.1 % 5 - 2, cell.2 - 2), 0.0)
                    }
                };
                dirty.push(i);
            }
            // Sometimes every robot is dirty, as under FSync mid-round.
            if *all_dirty == 0 {
                dirty = (0..n).collect();
            }
            dirty.sort_unstable();
            dirty.dedup();
            let mut dirty_mask = vec![false; n];
            for &i in &dirty {
                dirty_mask[i] = true;
            }
            monitor.on_event(&MonitorContext {
                time: time as f64,
                events: time + 1,
                positions: &positions,
                dirty: &dirty,
                dirty_mask: &dirty_mask,
                hull_points: NO_HULL,
            });
            oracle.observe(&positions);
            prop_assert_eq!(monitor.ok(), oracle.ok, "verdict after event {}", time);
            prop_assert_eq!(
                monitor.acquired_bits(),
                oracle.words.clone(),
                "acquired set after event {}",
                time
            );
        }
        Ok(())
    }

    fn cells() -> impl Strategy<Value = (i32, i32, i32)> {
        (0i32..7, 0i32..7, 0i32..4)
    }

    fn events() -> impl Strategy<Value = Vec<(Vec<Move>, u32)>> {
        let one_move = (0usize..64, 0usize..512, cells(), -0.1f64..0.1);
        proptest::collection::vec((proptest::collection::vec(one_move, 0..10), 0u32..5), 1..20)
    }

    // Swarm sizes straddle GRID_THRESHOLD, so both candidate sources run.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn strong_visibility_matches_all_pairs_2d(
            start in proptest::collection::vec(cells(), 2..64),
            events in events(),
        ) {
            matches_all_pairs::<Vec2>(&start, &events)?;
        }

        #[test]
        fn strong_visibility_matches_all_pairs_3d(
            start in proptest::collection::vec(cells(), 2..64),
            events in events(),
        ) {
            matches_all_pairs::<cohesion_geometry::Vec3>(&start, &events)?;
        }
    }

    #[test]
    fn diameter_monitor_samples_on_cadence_and_converges() {
        let mut m = DiameterMonitor::new(2, 0.5, (0.0, 2.0));
        let wide = [Vec2::ZERO, Vec2::new(2.0, 0.0)];
        let tight = [Vec2::ZERO, Vec2::new(0.3, 0.0)];
        let mask = [false, false];
        m.on_event(&ctx(1.0, 1, &wide, &[], &mask, NO_HULL));
        assert_eq!(m.series().len(), 1, "off-cadence event not sampled");
        m.on_event(&ctx(2.0, 2, &wide, &[], &mask, NO_HULL));
        assert_eq!(m.series(), &[(0.0, 2.0), (2.0, 2.0)]);
        assert!(!m.converged());
        m.on_event(&ctx(3.0, 4, &tight, &[], &mask, NO_HULL));
        assert!(m.converged());
        assert_eq!(m.into_series().last(), Some(&(3.0, 0.3)));
    }

    #[test]
    fn hull_monitor_detects_expansion() {
        let shrink_then_grow = [
            vec![Vec2::ZERO, Vec2::new(4.0, 0.0), Vec2::new(0.0, 4.0)],
            vec![Vec2::ZERO, Vec2::new(2.0, 0.0), Vec2::new(0.0, 2.0)],
            vec![Vec2::ZERO, Vec2::new(9.0, 0.0), Vec2::new(0.0, 9.0)],
        ];
        let mut m = HullMonitor::new(1, 1e-9);
        let mask = [false; 3];
        for (i, pts) in shrink_then_grow.iter().enumerate() {
            let provider = |out: &mut Vec<Vec2>| {
                out.clear();
                out.extend_from_slice(pts);
            };
            let positions = [Vec2::ZERO; 3];
            m.on_event(&ctx(i as f64, i + 1, &positions, &[], &mask, &provider));
            if i < 2 {
                assert!(m.nested(), "shrinking hulls stay nested");
            }
        }
        assert!(!m.nested(), "expansion breaks nesting");
    }

    #[test]
    fn diameter_of_matches_configuration() {
        use cohesion_model::Configuration;
        let pts = vec![Vec2::ZERO, Vec2::new(3.0, 4.0), Vec2::new(1.0, 1.0)];
        let c = Configuration::new(pts.clone());
        assert_eq!(diameter_of(&pts), c.diameter());
        assert_eq!(diameter_of::<Vec2>(&[]), 0.0);
    }
}
