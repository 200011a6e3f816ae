//! Incremental run-time monitors: the predicate checkers the simulation
//! driver consults after every engine event.
//!
//! Robot motion is piecewise linear. Between two of its *breakpoints* (its
//! `MoveStart` and `MoveEnd` events) a robot either stands still or travels
//! one straight segment `from → to` that is fixed when the Move starts. Each
//! robot therefore has a *motion envelope*: the ball of radius `|to − from|`
//! (zero while it stands) around its Move origin (its position while it
//! stands), which holds every position the robot takes until its next
//! breakpoint. The engine tracks the envelopes anyway; the driver hands them
//! to each monitor with a lookup of any robot's position at the event time
//! (the engine's own trajectories: the session keeps no copy of the
//! positions), the event's *dirty set* (the robots whose position changed
//! since the previous event) and its breakpoint robot, if any.
//!
//! # Pair monitors
//!
//! [`CohesionMonitor`] and [`StrongVisibilityMonitor`] test pair distances
//! against thresholds; the session calls their `on_event` at every event,
//! but neither measures every pair with a dirty endpoint. At a breakpoint of
//! robot `r`, each re-classifies the pairs incident to `r` from their
//! envelope distance bounds `|o_a − o_b| ∓ (ρ_a + ρ_b)` (origins `o`, radii
//! `ρ`), and keeps on an ascending watch list only the pairs whose bounds
//! can cross one of its thresholds. At every event it measures the watched
//! pairs with a dirty endpoint, at the event positions and with the same
//! `dist` call the historical sweep over every pair made. The work is
//! `O(watched pairs)` per event plus `O(local degree)` per breakpoint, where
//! the sweep paid `O(local degree)` for every dirty robot at every event;
//! only the two endpoints of a measured pair are looked up. Neither keeps a
//! spatial index: the strong-visibility monitor queries the engine's.
//!
//! # Why an unwatched pair cannot change status
//!
//! Let pair `(a, b)` be classified at event `e`, the latest breakpoint of
//! either endpoint. Until the next breakpoint of `a` or `b` — which
//! re-classifies the pair before anything is measured at that event — every
//! position the driver reports for `a` is either its stationary position or
//! an interpolation `from + (to − from)·s` with `s ∈ [0, 1]`, so it lies in
//! `a`'s envelope up to rounding, and likewise for `b`. The computed `dist`
//! of two such positions and the computed bounds each differ from the exact
//! distances of envelope points by a few units in the last place of the
//! coordinates, radii and distances involved. The per-pair slack,
//! `2⁻⁴⁰·(1 + |o_a|∞ + |o_b|∞ + ρ_a + ρ_b + threshold)`, is thousands of
//! times that error. A pair stays off the watch list only when its computed
//! bound clears the threshold by more than the slack — `hi ≤ limit − slack`
//! for a test `d > limit`, `lo > limit + slack` for a test `d ≤ limit` — so
//! no event before its next re-classification reports a distance on the
//! other side. A bound that is not a number keeps the pair watched. Status changes
//! re-classify the pair on the spot: a fresh acquisition becomes a
//! candidate violation, and a reported cohesion violation leaves the list
//! for good. A watched pair joins the list at an event where one of its
//! endpoints is dirty, so when neither is, its distance is the one it was
//! last measured at. Every pair is therefore decided exactly as the
//! all-pairs sweep decides it: verdicts, violation times and distances are
//! the sweep's, bit for bit.
//!
//! # Samplers
//!
//! [`HullMonitor`] and [`DiameterMonitor`] read the whole swarm, so they run
//! on a cadence, not at every event: `due(events)` says whether an event is
//! sampled, and only then does the session have the engine write the swarm
//! into the sampler's own buffer (`positions_with_targets_into` for a hull
//! sample, `positions_at_into` for a diameter sample or a round boundary)
//! through `sample` or `measure`. The engine's fill is a bulk copy of its
//! base positions plus the motile few, so a sample copies the swarm once;
//! the session keeps no buffer of its own.
//!
//! Each sampler remembers the input it last computed from: the hull sampler
//! the vertex set, compared on its planar projection, the diameter the
//! bits of every coordinate. When the next input has the same length and
//! the same `to_bits` in every compared coordinate, the sampler reuses its
//! result instead of recomputing it; otherwise the fresh buffer becomes the
//! memo by a swap, not a copy. The hull and the diameter are functions of
//! their input's bits, so the reuse is exact by construction: a repeated
//! diameter is the stored one, and a repeated hull sample is the stored
//! hull tested against itself, `prev.contains_hull(prev, tol)`, computed
//! once per distinct hull. No float argument about self-containment is
//! needed, and an input that differs only in the sign of a zero is simply
//! recomputed. Repeats come from FSync: each round's events fall on three
//! instants, and a Look or a MoveStart moves no robot (`lerp(from, to, 0)`
//! is `from`), so a diameter with no MoveEnd since the previous one reads
//! the same positions, and a hull sample with no Look or MoveEnd since the
//! previous one the same positions and pending targets. Under Async the
//! compare stops at the first robot that moved.
//!
//! A hull sample that does build a hull runs the monitor's pooled
//! [`HullKernel`] on the memo. The kernel drops the points strictly inside
//! the octagon of the 8-direction extremes, decided by the exact
//! orientation sign, then sorts and chains the rest into the buffer of the
//! hull before `prev`. Its hull is bit for bit the unfiltered chain's (the
//! argument is in the module docs of `cohesion_geometry::hull`). On the
//! benchmark's 256-robot lattice session, about 71 points per Async hull
//! and 87 per FSync hull reach the chain, of at most `2n = 512`
//! (`HullMonitor::points_chained`, pinned in `monitor_work.rs`). The
//! nesting test `prev.contains_hull(next)` then walks both hulls once
//! (`HullKernel::contains_hull`): per edge of `prev` it certifies the
//! vertex of `next` that is lowest against that edge and evaluates one or
//! two orientations, where the full scan evaluated every vertex against
//! every edge, about 2,700 orientations at `h ≈ 52`. Pairs of hulls with
//! fewer than `WALK_MIN_PAIRS` vertex pairs keep the full scan, which is
//! cheaper there; the verdict is the full scan's either way. The session
//! above evaluates 25,734 orientations over its FSync nesting tests and
//! 31,928 over its Async ones (`HullMonitor::nesting_work`, pinned). A
//! sample allocates nothing once its buffers have grown.
//!
//! # The diameter
//!
//! [`DiameterMonitor`] samples, the session's round boundaries and
//! `Configuration::diameter` all run one kernel,
//! [`cohesion_geometry::diameter`], which returns bit for bit the largest
//! computed `dist_sq` over all pairs (then one square root) without
//! measuring all pairs. For a planar swarm of 32 or more robots it projects
//! every robot on 8 directions `kπ/8`, takes the widest extent `w`, and
//! pairs only robots within `w·cos(π/16) − 2⁻⁴⁰·(M + w)` of opposite ends of
//! one direction's extent (`M` the largest absolute coordinate). The pair
//! that attains the maximum lies within `π/16` of some direction, so both
//! of its ends pass that test: in exact arithmetic with room to spare, and
//! after rounding because every rounding error involved is below
//! `20·2⁻⁵³·(M + w)`, hundreds of times under a slack of `2⁻⁴⁰`, the
//! pair monitors' `SLACK` factor. Smaller and non-planar swarms, non-finite or
//! huge coordinates and sub-`10⁻¹³⁵` swarms take the all-pairs loop. A
//! direction whose own extent is below the threshold has no point in a
//! band, so the second pass scans only the directions whose extent reaches
//! it: on a lattice its two diagonals. A measured diameter costs one
//! 8-direction pass and one pass per such direction, plus a handful of
//! pairs: on the benchmark's 256-robot lattice session about 15 `dist_sq`
//! under FSync and 3 under Async, where all pairs are 32,640, and 2
//! directions each (`DiameterMonitor::directions_scanned`, pinned). Under
//! FSync the reuse above leaves 25 of that session's 576 diameters to
//! measure (370 `dist_sq` in all); under Async it leaves all 583.

use crate::report::CohesionViolation;
use cohesion_geometry::diameter::DiameterKernel;
use cohesion_geometry::hull::{HullKernel, NestingWork};
use cohesion_geometry::point::Point;
use cohesion_geometry::{ConvexHull, DynamicGrid, Vec2};
use cohesion_model::frame::Ambient;
use cohesion_model::RobotPair;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Everything a monitor may look at for one engine event.
///
/// Borrowed views into engine- and driver-owned state — no per-event
/// allocation, and no copy of the swarm's positions: a monitor reads the
/// robots it needs through [`MonitorContext::position`].
pub struct MonitorContext<'a, P: Ambient> {
    /// Time of the event being processed.
    pub time: f64,
    /// The position of robot `i` at `time`; in a session,
    /// [`Engine::position_of_at`](crate::Engine::position_of_at).
    pub position: &'a dyn Fn(usize) -> P,
    /// Ascending dense indices of robots whose position changed since the
    /// previous event.
    pub dirty: &'a [usize],
    /// `dirty_mask[i]` ⟺ `dirty` contains `i` (for O(1) membership tests).
    pub dirty_mask: &'a [bool],
    /// The robot whose Move started or ended at this event; `None` at a
    /// Look.
    pub breakpoint: Option<usize>,
    /// Every robot's motion envelope as of this event.
    pub envelopes: Envelopes<'a, P>,
}

/// Every robot's motion envelope: until its next breakpoint, robot `i`
/// stays within `reach[i]` of `origins[i]`, up to interpolation rounding.
#[derive(Debug, Clone, Copy)]
pub struct Envelopes<'a, P: Point> {
    /// The Move origin of a moving robot, the position of any other.
    pub origins: &'a [P],
    /// `|to − from|` for a moving robot, `0` for any other.
    pub reach: &'a [f64],
    /// An upper bound on every `reach` entry.
    pub max_reach: f64,
    /// Every robot indexed at its origin (`grid.position(i) ==
    /// origins[i]`): in a session, the engine's observation grid.
    pub grid: &'a DynamicGrid<P>,
}

/// The slack of a pair's envelope bounds relative to its magnitudes (see
/// `Bounds::new`).
const SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// A pair's envelope distance bounds: any two points of the two envelopes
/// are between `lo` and `hi` apart, and `slack` covers the rounding of these
/// bounds and of every distance the driver can report for the pair.
struct Bounds {
    lo: f64,
    hi: f64,
    slack: f64,
}

impl<P: Point> Envelopes<'_, P> {
    /// The bounds of pair `(a, b)` for a threshold of size `scale`;
    /// symmetric in `a` and `b`, bit for bit.
    fn bounds(&self, a: usize, b: usize, scale: f64) -> Bounds {
        let (oa, ob) = (self.origins[a], self.origins[b]);
        let magnitudes = magnitude(oa) + magnitude(ob);
        Bounds::new(
            oa.dist(ob),
            self.reach[a] + self.reach[b],
            magnitudes,
            scale,
        )
    }
}

impl Bounds {
    /// The bounds of two envelopes `centre` apart whose radii sum to
    /// `spread` and whose centres' largest absolute coordinates sum to
    /// `magnitudes`. The slack is `2⁻⁴⁰·(1 + magnitudes + spread + scale)`;
    /// every term is a symmetric sum, so the bounds do not depend on the
    /// order of the pair.
    fn new(centre: f64, spread: f64, magnitudes: f64, scale: f64) -> Self {
        Bounds {
            lo: centre - spread,
            hi: centre + spread,
            slack: SLACK * (1.0 + magnitudes + spread + scale),
        }
    }
}

/// `true` unless the upper bound `hi` is known to stay at or below `limit`;
/// a bound that is not a number keeps its pair watched.
fn may_exceed(hi: f64, limit: f64) -> bool {
    !matches!(
        hi.partial_cmp(&limit),
        Some(Ordering::Less | Ordering::Equal)
    )
}

/// `true` unless the lower bound `lo` is known to stay above `limit`; a
/// bound that is not a number keeps its pair watched.
fn may_reach(lo: f64, limit: f64) -> bool {
    lo.partial_cmp(&limit) != Some(Ordering::Greater)
}

/// The largest absolute coordinate of `p`.
fn magnitude<P: Point>(p: P) -> f64 {
    (0..P::DIM).fold(0.0, |m, k| m.max(p.coord(k).abs()))
}

/// Inserts `(a, b, tag)` into an ascending watch list keyed by the pair.
fn watch_insert<T>(watch: &mut Vec<(usize, usize, T)>, a: usize, b: usize, tag: T) {
    let key = (a.min(b), a.max(b));
    let slot = watch.partition_point(|&(x, y, _)| (x, y) < key);
    watch.insert(slot, (key.0, key.1, tag));
}

/// Watches the Cohesive Convergence clause `E(0) ⊆ E(t)`: every initially
/// visible pair must stay within its visibility threshold at every event
/// time. An initial edge is watched while its envelope bounds can exceed
/// the threshold (see the module docs); a breakpoint re-classifies the
/// edges of its robot from a CSR-style adjacency of the initial graph.
pub struct CohesionMonitor {
    /// `adj[i]` = the initial-edge partners of robot `i` with the pair's
    /// visibility threshold (`V`, or `min(rᵢ, rⱼ)` under per-robot radii).
    adj: Vec<Vec<(usize, f64)>>,
    tol: f64,
    /// Pairs already reported (a violation is recorded once, at its first
    /// observation, like the historical inline check).
    violated: BTreeSet<(usize, usize)>,
    violations: Vec<CohesionViolation>,
    /// Ascending `(a, b, threshold)` with `a < b`: the unreported initial
    /// edges whose envelope bounds can exceed `threshold + tol`.
    watch: Vec<(usize, usize, f64)>,
    pairs_checked: u64,
    /// Per-event scratch: watch-list slots of pairs found broken.
    fresh: Vec<usize>,
}

impl CohesionMonitor {
    /// Builds the monitor over the initial positions, the initial edge list
    /// (pairs `(a, b)` with `a < b`) and a per-pair threshold function.
    pub fn new<P: Point>(
        initial_positions: &[P],
        initial_edges: &[(usize, usize)],
        threshold: impl Fn(usize, usize) -> f64,
        tol: f64,
    ) -> Self {
        let mut monitor = CohesionMonitor {
            adj: vec![Vec::new(); initial_positions.len()],
            tol,
            violated: BTreeSet::new(),
            violations: Vec::new(),
            // Every watched pair is an initial edge: reserving them all keeps
            // events allocation-free.
            watch: Vec::with_capacity(initial_edges.len()),
            pairs_checked: 0,
            fresh: Vec::new(),
        };
        // Every robot stands at its start, so an edge's envelope bounds are
        // its length.
        for &(a, b) in initial_edges {
            let t = threshold(a, b);
            monitor.adj[a].push((b, t));
            monitor.adj[b].push((a, t));
            let (pa, pb) = (initial_positions[a], initial_positions[b]);
            let bounds = Bounds::new(pa.dist(pb), 0.0, magnitude(pa) + magnitude(pb), t);
            if monitor.qualifies(bounds, t) {
                monitor.watch.push((a.min(b), a.max(b), t));
            }
        }
        monitor.watch.sort_unstable_by_key(|&(a, b, _)| (a, b));
        monitor
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

    /// The watched edges `(a, b)`, `a < b`, ascending.
    pub fn watched(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.watch.iter().map(|&(a, b, _)| (a, b))
    }

    /// Pair distances evaluated so far: envelope bounds at construction
    /// and breakpoints, plus watched pairs measured at events.
    pub fn pairs_checked(&self) -> u64 {
        self.pairs_checked
    }

    /// The initial edges `(a, b)`, `a < b`, ascending.
    #[cfg(test)]
    pub(crate) fn initial_edges(&self) -> Vec<(usize, usize)> {
        let partners = |a: usize| self.adj[a].iter().filter(move |&&(b, _)| b > a);
        (0..self.adj.len())
            .flat_map(|a| partners(a).map(move |&(b, _)| (a, b)))
            .collect()
    }

    /// Whether an unreported edge with envelope bounds `bounds` belongs on
    /// the watch list: while they can exceed `threshold + tol`.
    fn qualifies(&mut self, bounds: Bounds, threshold: f64) -> bool {
        self.pairs_checked += 1;
        may_exceed(bounds.hi, threshold + self.tol - bounds.slack)
    }

    /// Rebuilds the watch list from scratch: the test oracle for the
    /// incremental re-classification at breakpoints.
    #[cfg(test)]
    fn rebuild<P: Point>(&mut self, envelopes: &Envelopes<'_, P>) {
        self.watch.clear();
        for a in 0..self.adj.len() {
            for k in 0..self.adj[a].len() {
                let (b, t) = self.adj[a][k];
                if a < b
                    && !self.violated.contains(&(a, b))
                    && self.qualifies(envelopes.bounds(a, b, t), t)
                {
                    self.watch.push((a, b, t));
                }
            }
        }
        self.watch.sort_unstable_by_key(|&(a, b, _)| (a, b));
    }

    /// Re-classifies the unreported edges of breakpoint robot `r`.
    fn reclassify<P: Point>(&mut self, r: usize, envelopes: &Envelopes<'_, P>) {
        self.watch.retain(|&(a, b, _)| a != r && b != r);
        for k in 0..self.adj[r].len() {
            let (b, t) = self.adj[r][k];
            if !self.violated.contains(&(r.min(b), r.max(b)))
                && self.qualifies(envelopes.bounds(r, b, t), t)
            {
                watch_insert(&mut self.watch, r, b, t);
            }
        }
    }

    /// Observes one engine event (see the module docs).
    pub fn on_event<P: Ambient>(&mut self, ctx: &MonitorContext<'_, P>) {
        if let Some(r) = ctx.breakpoint {
            self.reclassify(r, &ctx.envelopes);
        }
        // The watch list ascends by pair, so simultaneous violations are
        // reported in pair order, as the historical edge-list sweep found
        // them.
        self.fresh.clear();
        for (slot, &(a, b, threshold)) in self.watch.iter().enumerate() {
            if !(ctx.dirty_mask[a] || ctx.dirty_mask[b]) {
                continue;
            }
            self.pairs_checked += 1;
            let d = (ctx.position)(a).dist((ctx.position)(b));
            if d > threshold + self.tol {
                self.violated.insert((a, b));
                self.violations.push(CohesionViolation {
                    pair: RobotPair::new(a.into(), b.into()),
                    time: ctx.time,
                    distance: d,
                });
                self.fresh.push(slot);
            }
        }
        for &slot in self.fresh.iter().rev() {
            self.watch.remove(slot);
        }
    }
}

/// Watches the acquired-visibility clause of Theorems 3–4: any pair that
/// ever comes within `V/2` must stay within `V` forever after.
///
/// Membership of the "acquired" set is a monotone property of pair-distance
/// history. A pair is watched while its envelope bounds can cross the
/// threshold that could change something (see the module docs): the
/// acquisition radius `V/2 + tol` for a pair not yet acquired, `V + tol`
/// for an acquired one. At a breakpoint of robot `r` the candidates are
///
/// * its acquired partners, walked from per-robot ascending partner lists,
///   and
/// * the robots whose envelope can come within the acquisition radius of
///   `r`'s, found by a range query on [`Envelopes::grid`] around `r`'s
///   origin, with the radius padded by `r`'s envelope radius and the
///   largest one. The query filters by exact distance, so the candidates
///   do not depend on the grid's cell size.
///
/// Memory is `O(n + acquired + watched pairs)` instead of an `n × n`
/// bitset, and the monitor keeps no spatial index: it reads the engine's.
/// The constructor seeds the set from the initial positions (equivalently,
/// the positions at the first event — nothing moves before it).
pub struct StrongVisibilityMonitor {
    v: f64,
    tol: f64,
    /// `acquired[i]`: the ascending partners of robot `i` in acquired
    /// pairs. Each pair is listed at both endpoints.
    acquired: Vec<Vec<u32>>,
    ok: bool,
    /// Ascending `(a, b, acquired)` with `a < b`: the pairs whose envelope
    /// bounds can cross their threshold.
    watch: Vec<(usize, usize, bool)>,
    pairs_checked: u64,
    /// Scratch: the candidates of the robot being classified, and the
    /// watch-list slots of an event's fresh acquisitions.
    near: Vec<usize>,
    fresh: Vec<usize>,
}

impl StrongVisibilityMonitor {
    /// Builds the monitor over the envelopes of a standing swarm (every
    /// robot at its start, as before the first event) and seeds the
    /// acquired set from those positions.
    ///
    /// # Panics
    ///
    /// Panics when the acquisition radius `v/2 + tol` is not positive and
    /// finite.
    pub fn new<P: Point>(v: f64, tol: f64, initial: &Envelopes<'_, P>) -> Self {
        let n = initial.origins.len();
        let radius = v / 2.0 + tol;
        assert!(
            radius > 0.0 && radius.is_finite(),
            "acquisition radius V/2 + tol must be positive and finite"
        );
        debug_assert_eq!(initial.max_reach, 0.0, "the swarm stands at its start");
        let mut monitor = StrongVisibilityMonitor {
            v,
            tol,
            acquired: vec![Vec::new(); n],
            ok: true,
            // The watch list and the acquisition scratch are reserved up
            // front, so that most events do not allocate.
            watch: Vec::with_capacity(n),
            pairs_checked: 0,
            near: Vec::new(),
            fresh: Vec::with_capacity(n),
        };
        // Every robot stands at its start, so a pair's envelope bounds are
        // its distance, and one pass over each robot's candidates above it
        // both seeds the acquired set and classifies the pairs.
        for (a, &pa) in initial.origins.iter().enumerate() {
            monitor.candidates(initial, a);
            for k in 0..monitor.near.len() {
                let b = monitor.near[k];
                if b <= a {
                    continue;
                }
                let acquired = pa.dist(initial.origins[b]) <= radius;
                if acquired {
                    monitor.acquired[a].push(b as u32);
                    monitor.acquired[b].push(a as u32);
                }
                if monitor.qualifies(initial.bounds(a, b, monitor.limit()), acquired) {
                    monitor.watch.push((a, b, acquired));
                }
            }
        }
        // Grid candidates arrive in cell order.
        for partners in &mut monitor.acquired {
            partners.sort_unstable();
        }
        monitor.watch.sort_unstable_by_key(|&(a, b, _)| (a, b));
        monitor
    }

    /// `true` while no acquired pair has been observed beyond `V`.
    pub fn ok(&self) -> bool {
        self.ok
    }

    /// The watched pairs `(a, b)`, `a < b`, ascending.
    pub fn watched(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.watch.iter().map(|&(a, b, _)| (a, b))
    }

    /// Pair distances evaluated so far: envelope bounds at construction
    /// and breakpoints, plus watched pairs measured at events. The grid's
    /// own range filter is not counted.
    pub fn pairs_checked(&self) -> u64 {
        self.pairs_checked
    }

    /// The acquired set as row-major `n × n` bitset words over normalized
    /// pairs `(min, max)`, the all-pairs oracle's layout.
    #[cfg(test)]
    fn acquired_bits(&self) -> Vec<u64> {
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

    fn radius(&self) -> f64 {
        self.v / 2.0 + self.tol
    }

    fn limit(&self) -> f64 {
        self.v + self.tol
    }

    /// Whether a pair with envelope bounds `bounds` belongs on the watch
    /// list: an acquired pair while they can exceed `V + tol`, any other
    /// while they can come within the acquisition radius.
    fn qualifies(&mut self, bounds: Bounds, acquired: bool) -> bool {
        self.pairs_checked += 1;
        if acquired {
            may_exceed(bounds.hi, self.limit() - bounds.slack)
        } else {
            may_reach(bounds.lo, self.radius() + bounds.slack)
        }
    }

    /// Fills `near` with a superset of the robots whose envelope can come
    /// within the acquisition radius of robot `r`'s, from a range query on
    /// the envelopes' grid padded by `r`'s envelope radius and the largest.
    fn candidates<P: Point>(&mut self, envelopes: &Envelopes<'_, P>, r: usize) {
        self.near.clear();
        let origin = envelopes.origins[r];
        let reach = self.radius() + (envelopes.reach[r] + envelopes.max_reach);
        // A qualifying partner lies within `reach` plus its pair slack,
        // which is less than half of this margin.
        let margin = 2.0 * SLACK * (1.0 + 2.0 * (magnitude(origin) + reach) + self.limit());
        let grid = envelopes.grid;
        grid.query_within(origin, reach + margin, &mut self.near);
    }

    /// Rebuilds the watch list from scratch, classifying each robot's pairs
    /// with the robots above it: the test oracle for the incremental
    /// re-classification at breakpoints.
    #[cfg(test)]
    fn rebuild<P: Point>(&mut self, envelopes: &Envelopes<'_, P>) {
        self.watch.clear();
        for r in 0..self.acquired.len() {
            self.classify(r, r + 1, envelopes);
        }
    }

    /// Re-classifies every pair incident to breakpoint robot `r`.
    fn reclassify<P: Point>(&mut self, r: usize, envelopes: &Envelopes<'_, P>) {
        debug_assert_eq!(envelopes.grid.position(r), envelopes.origins[r]);
        self.watch.retain(|&(a, b, _)| a != r && b != r);
        self.classify(r, 0, envelopes);
    }

    /// Inserts into the watch list every qualifying pair `(r, b)`, `b ≠ r`
    /// and `b ≥ from`: `r`'s acquired partners, then its candidates.
    fn classify<P: Point>(&mut self, r: usize, from: usize, envelopes: &Envelopes<'_, P>) {
        for k in 0..self.acquired[r].len() {
            let b = self.acquired[r][k] as usize;
            if b >= from && self.qualifies(envelopes.bounds(r, b, self.limit()), true) {
                watch_insert(&mut self.watch, r, b, true);
            }
        }
        self.candidates(envelopes, r);
        for k in 0..self.near.len() {
            let b = self.near[k];
            if b != r
                && b >= from
                && self.acquired[r].binary_search(&(b as u32)).is_err()
                && self.qualifies(envelopes.bounds(r, b, self.limit()), false)
            {
                watch_insert(&mut self.watch, r, b, false);
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

    /// Observes one engine event (see the module docs).
    pub fn on_event<P: Ambient>(&mut self, ctx: &MonitorContext<'_, P>) {
        if let Some(r) = ctx.breakpoint {
            self.reclassify(r, &ctx.envelopes);
        }
        let (radius, limit) = (self.radius(), self.limit());
        self.fresh.clear();
        for (slot, &(a, b, acquired)) in self.watch.iter().enumerate() {
            if !(ctx.dirty_mask[a] || ctx.dirty_mask[b]) {
                continue;
            }
            self.pairs_checked += 1;
            let d = (ctx.position)(a).dist((ctx.position)(b));
            if d <= radius {
                if !acquired {
                    self.fresh.push(slot);
                }
            } else if acquired && d > limit {
                self.ok = false;
            }
        }
        // A fresh acquisition turns into a candidate violation; descending
        // slots keep the remaining ones valid across removals.
        for k in (0..self.fresh.len()).rev() {
            let slot = self.fresh[k];
            let (a, b, _) = self.watch[slot];
            self.link(a, b);
            if self.qualifies(ctx.envelopes.bounds(a, b, self.limit()), true) {
                self.watch[slot].2 = true;
            } else {
                self.watch.remove(slot);
            }
        }
    }
}

/// Watches hull nesting on a sampling cadence: each sampled convex hull of
/// positions ∪ pending targets must contain the next (the paper's
/// hull-diminishing invariant), projected on the plane. Planar only — the
/// driver constructs this monitor only when `P::DIM == 2`. Like
/// [`DiameterMonitor`], it is driven by its cadence: the session has the
/// engine write the vertex set into the monitor's buffer only when
/// [`HullMonitor::due`] says so, through [`HullMonitor::sample`].
pub struct HullMonitor<P: Point = Vec2> {
    every: usize,
    tol: f64,
    prev: Option<ConvexHull>,
    /// `prev.contains_hull(prev, tol)`, once a repeated sample asked for it.
    prev_contains_itself: Option<bool>,
    nested: bool,
    /// The last sampled vertex set: the input `prev` was built from.
    sampled: Vec<P>,
    /// The buffer the next vertex set is read into.
    fresh: Vec<P>,
    /// The hull kernel's pooled scratch and its work counters.
    kernel: HullKernel,
    /// The buffer the next hull is built in: the hull before `prev`.
    next: ConvexHull,
    hulls_built: u64,
}

impl<P: Point> HullMonitor<P> {
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
            prev_contains_itself: None,
            nested: true,
            sampled: Vec::new(),
            fresh: Vec::new(),
            kernel: HullKernel::new(),
            next: ConvexHull::default(),
            hulls_built: 0,
        }
    }

    /// `true` while every sampled hull contained its successor.
    pub fn nested(&self) -> bool {
        self.nested
    }

    /// How many samples have built a hull: every sample but those whose
    /// projection repeated the previous one bit for bit.
    pub fn hulls_built(&self) -> u64 {
        self.hulls_built
    }

    /// How many points have reached the hull kernel's monotone chain,
    /// summed over the hulls built: the points its octagon prefilter kept.
    pub fn points_chained(&self) -> u64 {
        self.kernel.points_chained()
    }

    /// How much work the nesting tests have done: the hull kernel's
    /// `orient2d_value` evaluations and full edge scans.
    pub fn nesting_work(&self) -> NestingWork {
        self.kernel.nesting_work()
    }

    /// `true` when the `events`-th event is on the sampling cadence.
    pub fn due(&self, events: usize) -> bool {
        events % self.every == 0
    }

    /// Samples the hull of the points `read` writes into the (cleared)
    /// buffer it is handed — positions ∪ pending targets, the vertex set of
    /// the paper's `CH_t` — and tests that the previous sample contains it.
    /// The points are copied once, by `read`. A vertex set whose planar
    /// projection repeats the previous one bit for bit has the previous
    /// hull, so it is tested as that hull against itself without being
    /// built; otherwise the buffer becomes the memo by a swap.
    pub fn sample(&mut self, read: impl FnOnce(&mut Vec<P>)) {
        self.fresh.clear();
        read(&mut self.fresh);
        let same = |a: P, b: P| {
            a.coord(0).to_bits() == b.coord(0).to_bits()
                && a.coord(1).to_bits() == b.coord(1).to_bits()
        };
        if let (true, Some(prev)) = (repeats(&self.sampled, &self.fresh, same), &self.prev) {
            let (tol, kernel) = (self.tol, &mut self.kernel);
            self.nested &= *self
                .prev_contains_itself
                .get_or_insert_with(|| kernel.contains_hull(prev, prev, tol));
            return;
        }
        std::mem::swap(&mut self.sampled, &mut self.fresh);
        self.kernel.hull_into(&self.sampled, &mut self.next);
        self.hulls_built += 1;
        if let Some(prev) = &self.prev {
            if !self.kernel.contains_hull(prev, &self.next, self.tol) {
                self.nested = false;
            }
        }
        std::mem::swap(
            self.prev.get_or_insert_with(ConvexHull::default),
            &mut self.next,
        );
        self.prev_contains_itself = None;
    }
}

/// `true` when `fresh` has the length of `memo` and `same` holds for every
/// pair of entries.
fn repeats<T: Copy>(memo: &[T], fresh: &[T], same: impl Fn(T, T) -> bool) -> bool {
    memo.len() == fresh.len() && memo.iter().zip(fresh).all(|(&a, &b)| same(a, b))
}

/// `true` when `a` and `b` have the same `to_bits` in every coordinate.
fn same_bits<P: Point>(a: P, b: P) -> bool {
    (0..P::DIM).all(|axis| a.coord(axis).to_bits() == b.coord(axis).to_bits())
}

/// Samples the configuration diameter on a cadence and tests convergence
/// (`diameter ≤ ε`). Reads positions in place — no `Configuration` clone.
/// Owns the diameter kernel's scratch and its `dist_sq` counter, which
/// covers every sample and, through [`DiameterMonitor::measure`], the
/// session's round-boundary diameters.
pub struct DiameterMonitor<P: Point = Vec2> {
    every: usize,
    epsilon: f64,
    series: Vec<(f64, f64)>,
    converged: bool,
    kernel: DiameterKernel,
    /// The last measured positions.
    measured: Vec<P>,
    /// The buffer the next positions are read into.
    fresh: Vec<P>,
    /// The diameter of `measured`, once measured.
    diameter: Option<f64>,
}

impl<P: Point> DiameterMonitor<P> {
    /// Samples every `every` events (`0` disables sampling; the series then
    /// only carries the seed point). `initial` seeds the series with the
    /// `t = 0` diameter.
    pub fn new(every: usize, epsilon: f64, initial: (f64, f64)) -> Self {
        DiameterMonitor {
            every,
            epsilon,
            series: vec![initial],
            converged: false,
            kernel: DiameterKernel::new(),
            measured: Vec::new(),
            fresh: Vec::new(),
            diameter: None,
        }
    }

    /// The diameter of the positions `read` writes into the (cleared)
    /// buffer it is handed, bit for bit
    /// [`cohesion_geometry::diameter::diameter`]'s. The positions are
    /// copied once, by `read`. Positions that repeat the last measured ones
    /// bit for bit get the stored diameter; others become the memo by a
    /// swap and are measured with the monitor's pooled kernel, counted in
    /// [`DiameterMonitor::pairs_checked`].
    pub fn measure(&mut self, read: impl FnOnce(&mut Vec<P>)) -> f64 {
        self.fresh.clear();
        read(&mut self.fresh);
        match self.diameter {
            Some(d) if repeats(&self.measured, &self.fresh, same_bits) => d,
            _ => {
                std::mem::swap(&mut self.measured, &mut self.fresh);
                let d = self.kernel.diameter(&self.measured);
                self.diameter = Some(d);
                d
            }
        }
    }

    /// How many directions the measured diameters' band passes scanned.
    pub fn directions_scanned(&self) -> u64 {
        self.kernel.directions_scanned()
    }

    /// How many `dist_sq` evaluations [`DiameterMonitor::measure`] and the
    /// samples have made so far; a repeated measure makes none.
    pub fn pairs_checked(&self) -> u64 {
        self.kernel.pairs_checked()
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

    /// `true` when the `events`-th event is on the sampling cadence.
    pub fn due(&self, events: usize) -> bool {
        self.every != 0 && events % self.every == 0
    }

    /// Records the diameter `d` sampled at `time` and tests convergence.
    /// The session calls this directly so a sample that coincides with a
    /// round boundary reuses the boundary's diameter.
    pub fn record(&mut self, time: f64, d: f64) {
        self.series.push((time, d));
        if d <= self.epsilon {
            self.converged = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_geometry::diameter::diameter;
    use proptest::prelude::*;

    /// A sampler's `read`: copies `points` into the buffer it is handed.
    fn copy<P: Point>(points: &[P]) -> impl FnOnce(&mut Vec<P>) + '_ {
        |buffer| buffer.extend_from_slice(points)
    }

    /// One engine event as the monitors see it.
    #[derive(Debug, Clone)]
    enum Event<P> {
        /// MoveStart of a standing robot toward a target; a zero-duration
        /// Move (`true`) stands at the target at once.
        Start(usize, P, bool),
        /// MoveEnd of a moving robot.
        End(usize),
        /// A Look: the moving robots stand at these fractions of their
        /// segments, assigned in robot order and cycled.
        Tick(Vec<f64>),
    }

    /// A miniature engine: every robot stands, or travels the segment
    /// `origin → target` with the engine's interpolation arithmetic, and a
    /// grid indexes every robot at its origin, relocated at `End` as the
    /// engine relocates its grid at a MoveEnd.
    struct Swarm<P: Point> {
        origins: Vec<P>,
        grid: DynamicGrid<P>,
        targets: Vec<P>,
        reach: Vec<f64>,
        moving: Vec<bool>,
        instant: Vec<bool>,
        positions: Vec<P>,
        events: usize,
    }

    impl<P: Ambient> Swarm<P> {
        /// A standing swarm; its grid's cells are `v/2`, the engine's cell
        /// for visibility `v`.
        fn new(start: &[P], v: f64) -> Self {
            let n = start.len();
            Swarm {
                origins: start.to_vec(),
                grid: DynamicGrid::from_points(start, v / 2.0),
                targets: start.to_vec(),
                reach: vec![0.0; n],
                moving: vec![false; n],
                instant: vec![false; n],
                positions: start.to_vec(),
                events: 0,
            }
        }

        fn envelopes(&self) -> Envelopes<'_, P> {
            Envelopes {
                origins: &self.origins,
                reach: &self.reach,
                max_reach: self.reach.iter().fold(0.0, |m, &r| m.max(r)),
                grid: &self.grid,
            }
        }

        /// Applies `event` and hands its context to `observe`.
        fn apply(&mut self, event: &Event<P>, mut observe: impl FnMut(&MonitorContext<'_, P>)) {
            self.events += 1;
            let (breakpoint, stopped) = match *event {
                Event::Start(i, to, instant) => {
                    assert!(!self.moving[i], "robot {i} is already moving");
                    let from = self.positions[i];
                    self.origins[i] = from;
                    self.targets[i] = to;
                    self.reach[i] = (to - from).norm();
                    self.moving[i] = true;
                    self.instant[i] = instant;
                    self.positions[i] = if instant { to } else { from.lerp(to, 0.0) };
                    (Some(i), None)
                }
                Event::End(i) => {
                    assert!(self.moving[i], "robot {i} is not moving");
                    self.positions[i] = self.targets[i];
                    self.origins[i] = self.targets[i];
                    self.grid.relocate(i, self.targets[i]);
                    self.reach[i] = 0.0;
                    self.moving[i] = false;
                    (Some(i), Some(i))
                }
                Event::Tick(ref fractions) => {
                    let travelling =
                        (0..self.positions.len()).filter(|&i| self.moving[i] && !self.instant[i]);
                    for (i, &s) in travelling.zip(fractions.iter().cycle()) {
                        self.positions[i] = self.origins[i].lerp(self.targets[i], s);
                    }
                    (None, None)
                }
            };
            let n = self.positions.len();
            let dirty_mask: Vec<bool> = (0..n)
                .map(|i| self.moving[i] || stopped == Some(i))
                .collect();
            let dirty: Vec<usize> = (0..n).filter(|&i| dirty_mask[i]).collect();
            let positions = &self.positions;
            let ctx = MonitorContext {
                time: self.events as f64,
                position: &|i| positions[i],
                dirty: &dirty,
                dirty_mask: &dirty_mask,
                breakpoint,
                envelopes: self.envelopes(),
            };
            observe(&ctx);
        }
    }

    /// The historical all-pairs sweep over both pair predicates, kept as the
    /// oracle: initial edges are the pairs within `V`, each checked against
    /// `V + tol` at every event; every pair is checked for acquisition and
    /// acquired-pair violations.
    struct AllPairs {
        v: f64,
        tol: f64,
        edges: Vec<(usize, usize)>,
        words: Vec<u64>,
        ok: bool,
        violated: BTreeSet<(usize, usize)>,
        /// `(a, b, time bits, distance bits)` in report order.
        violations: Vec<(usize, usize, u64, u64)>,
    }

    impl AllPairs {
        fn new<P: Point>(v: f64, tol: f64, positions: &[P]) -> Self {
            let n = positions.len();
            let mut oracle = AllPairs {
                v,
                tol,
                edges: Vec::new(),
                words: vec![0; (n * n).div_ceil(64)],
                ok: true,
                violated: BTreeSet::new(),
                violations: Vec::new(),
            };
            for a in 0..n {
                for b in (a + 1)..n {
                    if positions[a].dist(positions[b]) <= v {
                        oracle.edges.push((a, b));
                    }
                }
            }
            oracle.observe(0.0, positions);
            oracle
        }

        fn observe<P: Point>(&mut self, time: f64, positions: &[P]) {
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
            for &(a, b) in &self.edges {
                let d = positions[a].dist(positions[b]);
                if d > self.v + self.tol && self.violated.insert((a, b)) {
                    self.violations.push((a, b, time.to_bits(), d.to_bits()));
                }
            }
        }
    }

    fn reported(monitor: &CohesionMonitor) -> Vec<(usize, usize, u64, u64)> {
        monitor
            .violations()
            .iter()
            .map(|v| {
                (
                    v.pair.a.index(),
                    v.pair.b.index(),
                    v.time.to_bits(),
                    v.distance.to_bits(),
                )
            })
            .collect()
    }

    /// Both pair monitors and the oracle over one start configuration.
    struct Pairs<P: Point> {
        /// The swarm standing at the start, never moved.
        start: Swarm<P>,
        cohesion: CohesionMonitor,
        strong: StrongVisibilityMonitor,
        oracle: AllPairs,
    }

    impl<P: Ambient> Pairs<P> {
        fn new(v: f64, tol: f64, start: &[P]) -> Self {
            let oracle = AllPairs::new(v, tol, start);
            let start = Swarm::new(start, v);
            Pairs {
                cohesion: CohesionMonitor::new(&start.origins, &oracle.edges, |_, _| v, tol),
                strong: StrongVisibilityMonitor::new(v, tol, &start.envelopes()),
                start,
                oracle,
            }
        }

        /// Drives the monitors and the oracle through one event, then
        /// compares them, and every third event compares the live watch
        /// lists with the ones `rebuild` derives from scratch, given the
        /// same reported and acquired pairs and the same envelopes.
        fn step(&mut self, swarm: &mut Swarm<P>, event: &Event<P>) -> Result<(), TestCaseError> {
            swarm.apply(event, |ctx| {
                self.cohesion.on_event(ctx);
                self.strong.on_event(ctx);
            });
            let at = swarm.events;
            self.oracle.observe(at as f64, &swarm.positions);
            prop_assert_eq!(
                self.strong.ok(),
                self.oracle.ok,
                "verdict after event {}",
                at
            );
            prop_assert_eq!(
                self.strong.acquired_bits(),
                self.oracle.words.clone(),
                "acquired set after event {}",
                at
            );
            let (live, swept) = (reported(&self.cohesion), &self.oracle.violations);
            prop_assert_eq!(
                &live,
                swept,
                "cohesion violations after event {}: {:?} vs {:?}",
                at,
                live,
                swept
            );
            if at % 3 != 0 {
                return Ok(());
            }
            let (v, tol) = (self.oracle.v, self.oracle.tol);
            let mut cohesion =
                CohesionMonitor::new(&self.start.origins, &self.oracle.edges, |_, _| v, tol);
            cohesion.violated = self.cohesion.violated.clone();
            cohesion.rebuild(&swarm.envelopes());
            let mut strong = StrongVisibilityMonitor::new(v, tol, &self.start.envelopes());
            strong.acquired = self.strong.acquired.clone();
            strong.rebuild(&swarm.envelopes());
            prop_assert_eq!(
                cohesion.watched().collect::<Vec<_>>(),
                self.cohesion.watched().collect::<Vec<_>>(),
                "rebuilt cohesion watch list after event {}",
                at
            );
            prop_assert_eq!(
                strong.watched().collect::<Vec<_>>(),
                self.strong.watched().collect::<Vec<_>>(),
                "rebuilt strong watch list after event {}",
                at
            );
            Ok(())
        }
    }

    /// Lattice step of the differential property. With `V = 1` and
    /// `tol = 0.25` the thresholds are 0.75 and 1.25: exactly 3 and 5
    /// steps along an axis, and hit again by the (3, 4, 5) diagonal in the
    /// plane and the (1, 2, 2) diagonal in space.
    const STEP: f64 = 0.25;
    const TOL: f64 = 0.25;

    /// The computed length of a `k`-step lattice diagonal in the plane.
    fn diagonal(k: f64) -> f64 {
        (2.0 * (k * STEP) * (k * STEP)).sqrt()
    }

    /// `V` of the rounding family (with `tol = 0`): the computed envelope
    /// bound `diagonal(1) + diagonal(3)` of a pair one diagonal step apart
    /// whose robot moves three more steps away, one unit in the last place
    /// short of the `diagonal(4)` the pair then measures. Only the slack
    /// keeps such a pair watched.
    fn rounding_v() -> f64 {
        diagonal(1.0) + diagonal(3.0)
    }

    fn offset_point<P: Point>(offset: [f64; 3], (x, y, z): (i32, i32, i32)) -> P {
        let c = [
            offset[0] + f64::from(x) * STEP,
            offset[1] + f64::from(y) * STEP,
            offset[2] + f64::from(z) * STEP,
        ];
        P::from_coords(&c[..P::DIM])
    }

    /// One raw event: `(robot, kind, lattice cell, extra bits)`.
    type Op = (usize, usize, (i32, i32, i32), u32);

    /// The segment fraction an 8-bit code stands for: the segment ends, the
    /// quarter points, points a hair short of the end, and others.
    fn fraction(code: u32) -> f64 {
        let code = code & 0xff;
        match code % 8 {
            0 => 0.0,
            1 | 2 => 1.0,
            3 => 0.25,
            4 => 0.5,
            5 => 0.75,
            6 => 1.0 - (-f64::from(20 + code / 8 % 30)).exp2(),
            _ => f64::from(code) / 256.0,
        }
    }

    /// A standing robot (searched from `from`) with a standing partner one
    /// diagonal step away in the plane, and that partner.
    fn diagonal_pair<P: Ambient>(swarm: &Swarm<P>, from: usize) -> Option<(usize, usize)> {
        let n = swarm.positions.len();
        let steps = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            .map(|(x, y)| offset_point::<P>([0.0; 3], (x, y, 0)));
        (0..n).map(|k| (from + k) % n).find_map(|a| {
            let pa = swarm.positions[a];
            (0..n)
                .find(|&b| {
                    !swarm.moving[a]
                        && !swarm.moving[b]
                        && steps.iter().any(|&s| pa - swarm.positions[b] == s)
                })
                .map(|b| (a, b))
        })
    }

    /// Turns a raw op into valid events for the swarm's current state.
    fn decode<P: Ambient>(swarm: &Swarm<P>, offset: [f64; 3], op: Op) -> Vec<Event<P>> {
        let (robot, kind, cell, extra) = op;
        let n = swarm.positions.len();
        let i = robot % n;
        let tick = || Event::Tick((0..4).map(|k| fraction(extra >> (8 * k))).collect());
        if kind % 8 == 7 {
            return vec![tick()];
        }
        if swarm.moving[i] || kind % 8 == 6 {
            return vec![
                match (0..n).map(|k| (i + k) % n).find(|&j| swarm.moving[j]) {
                    Some(j) => Event::End(j),
                    None => tick(),
                },
            ];
        }
        let here = swarm.positions[i];
        let instant = extra % 5 == 0;
        let to = match kind % 8 {
            // A step of up to five lattice units, so pair distances creep
            // onto the thresholds.
            0 | 1 => {
                here + offset_point::<P>(
                    [0.0; 3],
                    (cell.0 % 11 - 5, cell.1 % 11 - 5, cell.2 % 11 - 5),
                )
            }
            // Onto another robot: coincident robots.
            2 => swarm.positions[extra as usize % n],
            // A zero-duration hop far outside the grid's dense extent, into
            // a small region where the far robots gather: no long Move stays
            // in flight to pad the other robots' candidate queries.
            3 => {
                let far = offset_point(offset, (cell.0 % 8 + 40, cell.1 % 8, cell.2 % 4));
                return vec![Event::Start(i, far, true), Event::End(i)];
            }
            // Three diagonal steps straight away from a partner one step
            // off, or else next to a partner on its diagonal.
            4 => match diagonal_pair(swarm, i) {
                Some((a, b)) => {
                    let away = swarm.positions[a] - swarm.positions[b];
                    return vec![Event::Start(a, swarm.positions[a] + away * 3.0, instant)];
                }
                None => {
                    swarm.positions[extra as usize % n] + offset_point::<P>([0.0; 3], (1, 1, 0))
                }
            },
            _ => offset_point(offset, cell),
        };
        vec![Event::Start(i, to, instant)]
    }

    /// Drives both pair monitors and the oracle through the decoded events
    /// from a start on the offset lattice.
    fn matches_all_pairs<P: Ambient>(
        rounding: bool,
        offset: (i32, i32, i32),
        start: &[(i32, i32, i32)],
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        let offset = [offset.0, offset.1, offset.2].map(|o| f64::from(o) * STEP);
        let start: Vec<P> = start.iter().map(|&c| offset_point(offset, c)).collect();
        let (v, tol) = if rounding {
            (rounding_v(), 0.0)
        } else {
            (1.0, TOL)
        };
        let mut pairs = Pairs::new(v, tol, &start);
        prop_assert_eq!(pairs.strong.acquired_bits(), pairs.oracle.words.clone());
        let mut swarm = Swarm::new(&start, v);
        for &op in ops {
            for event in decode(&swarm, offset, op) {
                pairs.step(&mut swarm, &event)?;
            }
        }
        Ok(())
    }

    fn cells() -> impl Strategy<Value = (i32, i32, i32)> {
        (0i32..7, 0i32..7, 0i32..4)
    }

    fn offsets() -> impl Strategy<Value = (i32, i32, i32)> {
        let o = -4_000_000i32..4_000_000;
        (o.clone(), o.clone(), o)
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = (
            0usize..64,
            0usize..4096,
            (0i32..64, 0i32..64, 0i32..64),
            any::<u32>(),
        );
        proptest::collection::vec(op, 1..60)
    }

    // Both pair monitors against the all-pairs oracle along piecewise-linear
    // motion, with coordinates offset by up to 1e6, thresholds hit exactly
    // on the lattice (or, in the rounding family, missed by one unit in the
    // last place), and swarms of 2 to 63 robots, far hops included, whose
    // strong-visibility candidates come from the swarm's grid of origins.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn strong_visibility_matches_all_pairs_2d(
            rounding in any::<bool>(),
            offset in offsets(),
            start in proptest::collection::vec(cells(), 2..64),
            ops in ops(),
        ) {
            matches_all_pairs::<Vec2>(rounding, offset, &start, &ops)?;
        }

        #[test]
        fn strong_visibility_matches_all_pairs_3d(
            rounding in any::<bool>(),
            offset in offsets(),
            start in proptest::collection::vec(cells(), 2..64),
            ops in ops(),
        ) {
            matches_all_pairs::<cohesion_geometry::Vec3>(rounding, offset, &start, &ops)?;
        }
    }

    #[test]
    fn rounding_family_misses_the_threshold_by_one_ulp() {
        let v = rounding_v();
        assert!(
            v < diagonal(4.0),
            "the bound must fall short of the measure"
        );
        assert_eq!(v.next_up(), diagonal(4.0));
    }

    #[test]
    fn envelope_rounding_is_covered_by_the_slack() {
        // Robot 1 stands one diagonal step from robot 0 (an initial edge and
        // an acquired pair), then moves three steps straight away. At the
        // segment's end the pair measures diagonal(4) > V, although its
        // computed envelope bound is exactly V.
        let start = [Vec2::new(1e6, -1e6), Vec2::new(1e6 + STEP, -1e6 + STEP)];
        let v = rounding_v();
        let mut pairs = Pairs::new(v, 0.0, &start);
        let mut swarm = Swarm::new(&start, v);
        let away = start[1] + (start[1] - start[0]) * 3.0;
        for event in [
            Event::Start(1, away, false),
            Event::Tick(vec![0.5]),
            Event::Tick(vec![1.0]),
            Event::End(1),
        ] {
            pairs.step(&mut swarm, &event).unwrap();
        }
        assert!(!pairs.strong.ok());
        assert_eq!(pairs.cohesion.violations()[0].time, 3.0);
    }

    #[test]
    fn a_moved_origin_relocates_in_the_grid() {
        // Robots 0 and 1 hop far away, 1.0 apart (not acquired), then robot
        // 1 steps 0.5 toward robot 0. Its candidate query finds robot 0 only
        // at the origin robot 0's MoveEnd relocated it to in the swarm's
        // grid.
        let start: Vec<Vec2> = (0..32)
            .map(|i| Vec2::new((i % 8) as f64 * 0.9, (i / 8) as f64 * 0.9))
            .collect();
        let mut pairs = Pairs::new(1.0, TOL, &start);
        let mut swarm = Swarm::new(&start, 1.0);
        let far = Vec2::new(40.0, 40.0);
        for event in [
            Event::Start(0, far, true),
            Event::End(0),
            Event::Start(1, far + Vec2::new(1.0, 0.0), true),
            Event::End(1),
            Event::Start(1, far + Vec2::new(0.5, 0.0), false),
            Event::Tick(vec![1.0]),
        ] {
            pairs.step(&mut swarm, &event).unwrap();
        }
        assert_eq!(swarm.grid.position(0), far);
        assert_eq!(pairs.strong.acquired[1], [0]);
    }

    #[test]
    fn cohesion_monitor_flags_broken_edge_once() {
        let start = [Vec2::ZERO, Vec2::new(0.9, 0.0)];
        let mut m = CohesionMonitor::new(&start, &[(0, 1)], |_, _| 1.0, 1e-9);
        let mut swarm = Swarm::new(&start, 1.0);
        let away = Event::Start(1, Vec2::new(1.5, 0.0), false);
        swarm.apply(&away, |ctx| m.on_event(ctx));
        assert!(m.maintained());
        assert_eq!(m.watched().collect::<Vec<_>>(), [(0, 1)]);
        swarm.apply(&Event::Tick(vec![1.0]), |ctx| m.on_event(ctx));
        assert!(!m.maintained());
        assert_eq!(m.watched().count(), 0, "a reported edge leaves the list");
        swarm.apply(&Event::End(1), |ctx| m.on_event(ctx));
        let violations = m.into_violations();
        assert_eq!(violations.len(), 1, "first observation only");
        assert_eq!(violations[0].time, 2.0);
        assert_eq!(violations[0].distance, 1.5);
    }

    #[test]
    fn cohesion_monitor_ignores_clean_pairs() {
        // Robot 2 drifts away but shares no initial edge with anyone, and
        // robot 1's short step keeps its edge off the watch list.
        let start = [Vec2::ZERO, Vec2::new(0.5, 0.0), Vec2::new(0.9, 0.0)];
        let mut m = CohesionMonitor::new(&start, &[(0, 1)], |_, _| 1.0, 1e-9);
        let mut swarm = Swarm::new(&start, 1.0);
        let (drift, step) = (Vec2::new(9.0, 0.0), Vec2::new(0.6, 0.0));
        for event in [Event::Start(2, drift, false), Event::Start(1, step, false)] {
            swarm.apply(&event, |ctx| m.on_event(ctx));
        }
        swarm.apply(&Event::Tick(vec![1.0]), |ctx| m.on_event(ctx));
        assert!(m.maintained());
        assert_eq!(m.watched().count(), 0);
        assert_eq!(
            m.pairs_checked(),
            2,
            "one bound at construction, one at the breakpoint"
        );
    }

    #[test]
    fn strong_visibility_seeds_from_initial_positions() {
        // The pair starts acquired (d = 0.4 ≤ V/2) without ever being dirty,
        // then separates beyond V in one zero-duration Move: the violation
        // must register.
        let start = [Vec2::ZERO, Vec2::new(0.4, 0.0)];
        let mut swarm = Swarm::new(&start, 1.0);
        let mut m = StrongVisibilityMonitor::new(1.0, 1e-9, &swarm.envelopes());
        let hop = Event::Start(1, Vec2::new(1.2, 0.0), true);
        swarm.apply(&hop, |ctx| m.on_event(ctx));
        assert!(!m.ok());
    }

    #[test]
    fn strong_visibility_never_acquired_pair_may_separate() {
        let start = [Vec2::ZERO, Vec2::new(0.9, 0.0)];
        let mut swarm = Swarm::new(&start, 1.0);
        let mut m = StrongVisibilityMonitor::new(1.0, 1e-9, &swarm.envelopes());
        for event in [Event::Start(1, Vec2::new(1.2, 0.0), true), Event::End(1)] {
            swarm.apply(&event, |ctx| m.on_event(ctx));
        }
        assert!(m.ok(), "0.9 > V/2: visibility was never acquired");
        assert_eq!(m.watched().count(), 0, "moving away cannot acquire");
    }

    #[test]
    fn diameter_monitor_samples_on_cadence_and_converges() {
        // The session's sampling step for the `events`-th event.
        fn sample(m: &mut DiameterMonitor, time: f64, events: usize, positions: &[Vec2]) {
            if m.due(events) {
                let d = m.measure(copy(positions));
                m.record(time, d);
            }
        }
        let mut m = DiameterMonitor::new(2, 0.5, (0.0, 2.0));
        let wide = [Vec2::ZERO, Vec2::new(2.0, 0.0)];
        let tight = [Vec2::ZERO, Vec2::new(0.3, 0.0)];
        sample(&mut m, 1.0, 1, &wide);
        assert_eq!(m.series().len(), 1, "off-cadence event not sampled");
        sample(&mut m, 2.0, 2, &wide);
        assert_eq!(m.series(), &[(0.0, 2.0), (2.0, 2.0)]);
        assert!(!m.converged());
        sample(&mut m, 3.0, 4, &tight);
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
        for (i, pts) in shrink_then_grow.iter().enumerate() {
            assert!(m.due(i + 1));
            m.sample(copy(pts));
            if i < 2 {
                assert!(m.nested(), "shrinking hulls stay nested");
            }
        }
        assert!(!m.nested(), "expansion breaks nesting");
        let sparse: HullMonitor = HullMonitor::new(4, 1e-9);
        assert!(
            !sparse.due(3) && sparse.due(8),
            "samples every fourth event"
        );
    }

    /// Changes `buffer` by one step of a sampler input sequence: `kind`
    /// picks an exact repeat, a one-ulp move of one coordinate, a sign flip
    /// of a zero coordinate, a new point, or a longer or shorter buffer;
    /// `at` picks the point and `code` the coordinate and the new values.
    fn perturb(buffer: &mut Vec<Vec2>, (kind, at, code): (u8, usize, u32)) {
        let fresh = Vec2::new(
            f64::from(code % 7) * 0.5 - 1.5,
            f64::from(code / 7 % 7) * 0.5 - 1.5,
        );
        if buffer.is_empty() || kind == 6 {
            buffer.push(fresh);
            return;
        }
        let i = at % buffer.len();
        let point = &mut buffer[i];
        let coord = if code % 2 == 0 {
            &mut point.x
        } else {
            &mut point.y
        };
        match kind {
            3 if code % 4 < 2 => *coord = coord.next_up(),
            3 => *coord = coord.next_down(),
            // −0.0 ↔ +0.0, or a fresh zero for a later flip.
            4 => *coord = if *coord == 0.0 { -*coord } else { 0.0 },
            5 => *point = fresh,
            7 => {
                buffer.swap_remove(i);
            }
            _ => {}
        }
    }

    // Both samplers against a from-scratch reference at every sample:
    // a fresh `HullKernel` + `contains_hull` for the nesting verdict and
    // the points chained, a fresh `DiameterKernel` for the diameter. About
    // a third of the steps repeat the previous buffer exactly; the rest
    // differ from it by as little as one ulp or the sign of a zero, and the
    // buffers straddle both kernels' cutoffs. `tol = 0` makes every
    // repeated sample test a hull against itself with no slack.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn samplers_match_a_from_scratch_reference(
            start in proptest::collection::vec(any::<u32>(), 0..48),
            steps in proptest::collection::vec((0u8..8, 0usize..64, any::<u32>()), 1..40),
        ) {
            for tol in [0.0, 1e-9] {
                let mut buffer: Vec<Vec2> = Vec::new();
                for &code in &start {
                    perturb(&mut buffer, (6, 0, code));
                }
                let mut hull = HullMonitor::new(1, tol);
                let mut diameter = DiameterMonitor::new(1, 0.0, (0.0, 0.0));
                let (mut prev, mut nested): (Option<ConvexHull>, bool) = (None, true);
                let (mut last, mut built, mut chained, mut pairs) = (None, 0, 0, 0);
                for &step in &steps {
                    perturb(&mut buffer, step);
                    let bits: Vec<(u64, u64)> =
                        buffer.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
                    let repeat = last.as_ref() == Some(&bits);
                    last = Some(bits);

                    hull.sample(copy(&buffer));
                    let mut kernel = HullKernel::new();
                    let fresh = kernel.hull(&buffer);
                    if let Some(prev) = &prev {
                        nested &= prev.contains_hull(&fresh, tol);
                    }
                    prev = Some(fresh);
                    if !repeat {
                        built += 1;
                        chained += kernel.points_chained();
                    }
                    prop_assert_eq!(hull.nested(), nested);
                    prop_assert_eq!(hull.hulls_built(), built);
                    prop_assert_eq!(hull.points_chained(), chained);

                    let mut kernel = DiameterKernel::new();
                    let expected = kernel.diameter(&buffer);
                    if !repeat {
                        pairs += kernel.pairs_checked();
                    }
                    prop_assert_eq!(
                        diameter.measure(copy(&buffer)).to_bits(),
                        expected.to_bits()
                    );
                    prop_assert_eq!(diameter.pairs_checked(), pairs);
                }
            }
        }
    }

    /// The samplers' memos compare every coordinate they read: a change in
    /// `z` alone is a new diameter but the same planar hull.
    #[test]
    fn samplers_reuse_only_what_their_input_determines() {
        use cohesion_geometry::Vec3;
        let flat = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(3.0, 0.0, 0.0)];
        let lifted = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(3.0, 0.0, 4.0)];
        let mut m = DiameterMonitor::new(1, 0.0, (0.0, 0.0));
        assert_eq!(m.measure(copy(&flat)), 3.0);
        let pairs = m.pairs_checked();
        assert_eq!(m.measure(copy(&flat)), 3.0);
        assert_eq!(m.pairs_checked(), pairs, "a repeat is not measured");
        assert_eq!(
            m.measure(copy(&lifted)),
            5.0,
            "a change in z alone is measured"
        );
        assert!(m.pairs_checked() > pairs);
        let spatial = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(3.0, 4.0, 0.0)];
        assert_eq!(m.measure(copy(&spatial)), 20.0_f64.sqrt());

        let mut h = HullMonitor::new(1, 0.0);
        h.sample(copy(&flat));
        h.sample(copy(&lifted));
        assert_eq!(h.hulls_built(), 1, "the planar projection repeated");
        assert!(h.nested());
    }

    #[test]
    fn diameter_of_matches_configuration() {
        use cohesion_model::Configuration;
        let pts = vec![Vec2::ZERO, Vec2::new(3.0, 4.0), Vec2::new(1.0, 1.0)];
        let c = Configuration::new(pts.clone());
        assert_eq!(diameter(&pts), c.diameter());
        assert_eq!(diameter::<Vec2>(&[]), 0.0);
    }

    /// The historical diameter loop, the oracle: the largest `dist`.
    fn largest_dist<P: Point>(positions: &[P]) -> f64 {
        let mut best = 0.0_f64;
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                best = best.max(positions[i].dist(positions[j]));
            }
        }
        best
    }

    /// The bits of `(diameter, Configuration::diameter, the oracle)`.
    fn diameter_bits<P: Point>(positions: &[P]) -> (u64, u64, u64) {
        let config = cohesion_model::Configuration::new(positions.to_vec());
        (
            diameter(positions).to_bits(),
            config.diameter().to_bits(),
            largest_dist(positions).to_bits(),
        )
    }

    fn assert_bitwise_oracle<P: Point>(positions: &[P], what: &str) {
        let (of, config, oracle) = diameter_bits(positions);
        assert_eq!(of, oracle, "diameter, {what}");
        assert_eq!(config, oracle, "Configuration::diameter, {what}");
    }

    /// A cloud of up to 300 points with coordinates of every magnitude,
    /// about a quarter of them copies of earlier points.
    fn cloud() -> impl Strategy<Value = Vec<((f64, f64, f64), usize)>> {
        let coord = (-30i32..30, -1.0f64..1.0).prop_map(|(e, m)| m * f64::from(e).exp2());
        proptest::collection::vec(((coord.clone(), coord.clone(), coord), 0usize..600), 0..300)
    }

    /// Up to 300 points of a thin ring — every direction's extent is close
    /// to the diameter, the kernel's tight case — of one random scale,
    /// shifted by an offset of up to 10⁶.
    fn swarm() -> impl Strategy<Value = Vec<Vec2>> {
        (
            proptest::collection::vec((0.0..std::f64::consts::TAU, 0.9f64..1.0), 0..300),
            (-20i32..10).prop_map(|e| f64::from(e).exp2()),
            (-1e6f64..1e6, -1e6f64..1e6),
        )
            .prop_map(|(polar, scale, (ox, oy))| {
                polar
                    .into_iter()
                    .map(|(t, r)| Vec2::new(ox, oy) + Vec2::from_angle(t) * (r * scale))
                    .collect()
            })
    }

    fn points<P: Point>(cloud: &[((f64, f64, f64), usize)]) -> Vec<P> {
        let mut out: Vec<P> = Vec::new();
        for &((x, y, z), copy) in cloud {
            let p = match out.get(copy) {
                Some(&q) if copy % 2 == 0 => q,
                _ => P::from_coords(&[x, y, z][..P::DIM]),
            };
            out.push(p);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn diameter_of_is_bitwise_the_largest_dist(cloud in cloud(), swarm in swarm()) {
            let planar: Vec<Vec2> = points(&cloud);
            let (of, config, oracle) = diameter_bits(&planar);
            prop_assert_eq!(of, oracle);
            prop_assert_eq!(config, oracle);
            let spatial: Vec<cohesion_geometry::Vec3> = points(&cloud);
            let (of, config, oracle) = diameter_bits(&spatial);
            prop_assert_eq!(of, oracle);
            prop_assert_eq!(config, oracle);
            let (of, config, oracle) = diameter_bits(&swarm);
            prop_assert_eq!(of, oracle);
            prop_assert_eq!(config, oracle);
        }
    }

    /// Lattices (the swarms the sessions start from) with and without far
    /// offsets and jitter, exact ties, collinear and coincident sets, and
    /// sizes around the kernel's all-pairs cutoff.
    #[test]
    fn diameter_of_is_bitwise_the_largest_dist_on_structured_sets() {
        use cohesion_geometry::diameter::PRUNE_MIN_POINTS;
        use cohesion_geometry::Vec3;
        use std::f64::consts::TAU;
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let shift = |pts: &[Vec2], (ox, oy): (f64, f64)| -> Vec<Vec2> {
            pts.iter().map(|p| Vec2::new(p.x + ox, p.y + oy)).collect()
        };
        let offsets = [(0.0, 0.0), (1e6, -1e6), (-3e6, 1e6 + 0.3)];

        for side in [5, 6, 16, 32] {
            let lattice = cohesion_workloads::grid(side, side, 0.9);
            for offset in offsets {
                for jitter in [0.0, 1e-9, 1e-3] {
                    let pts: Vec<Vec2> = shift(lattice.positions(), offset)
                        .into_iter()
                        .map(|p| p + Vec2::new(jitter * unit(), jitter * unit()))
                        .collect();
                    let what = format!("{side}² lattice at {offset:?}, jitter {jitter}");
                    assert_bitwise_oracle(&pts, &what);
                }
            }
        }
        for m in [
            PRUNE_MIN_POINTS - 1,
            PRUNE_MIN_POINTS,
            33,
            48,
            64,
            99,
            160,
            360,
        ] {
            let polygon: Vec<Vec2> = (0..m)
                .map(|i| Vec2::from_angle(i as f64 * TAU / m as f64) * 3.0)
                .collect();
            for offset in offsets {
                assert_bitwise_oracle(&shift(&polygon, offset), &format!("{m}-gon at {offset:?}"));
            }
        }
        let perimeter: Vec<Vec2> = (0..40)
            .map(|i| {
                let t = f64::from(i % 10);
                let (x, y) =
                    [(t, 0.0), (10.0, t), (10.0 - t, 10.0), (0.0, 10.0 - t)][i as usize / 10];
                Vec2::new(x, y)
            })
            .collect();
        assert_bitwise_oracle(&perimeter, "square perimeter");
        for (dx, dy) in [(0.9, 0.0), (0.0, 0.9), (0.7, 0.7), (0.3, -1.1)] {
            let line: Vec<Vec2> = (0..50)
                .map(|i| Vec2::new(1e6 + f64::from(i) * dx, f64::from(i) * dy))
                .collect();
            assert_bitwise_oracle(&line, &format!("line along ({dx}, {dy})"));
        }
        for n in [0, 1, 2, 40] {
            let coincident = vec![Vec2::new(-7.25, 1e6); n];
            assert_bitwise_oracle(&coincident, &format!("{n} coincident"));
        }
        assert_bitwise_oracle(&[Vec2::ZERO, Vec2::new(3.0, 4.0)], "a pair");
        let cube: Vec<Vec3> = (0..64)
            .map(|i| Vec3::new(f64::from(i % 4), f64::from(i / 4 % 4), f64::from(i / 16)) * 0.9)
            .collect();
        assert_bitwise_oracle(&cube, "4³ lattice");
    }
}
