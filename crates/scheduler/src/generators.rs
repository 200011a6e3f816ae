//! Online schedule generators for every synchronization model of §2.3.1.
//!
//! All generators are deterministic given their seed, emit intervals in
//! non-decreasing Look-time order, never overlap two intervals of the same
//! robot, and are fair (every robot is activated again within a bounded
//! delay). The random models are *probabilistic adversaries*: experiments
//! that need the specific worst-case timelines of the paper (Figure 4, §7)
//! use [`ScriptedScheduler`] with hand-built traces instead.

use crate::argmin::ArgMin;
use crate::interval::ActivationInterval;
use crate::{ScheduleContext, Scheduler};
use cohesion_model::RobotId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Compute-phase duration range of the random generators.
const COMPUTE: (f64, f64) = (0.05, 0.35);
/// Move-phase duration range of the random generators.
const MOVE_PHASE: (f64, f64) = (0.1, 1.2);
/// Upper end of the idle jitter added between activations.
const JITTER: f64 = 0.08;
/// Probability that an [`AsyncScheduler`] activation gets a 10–30×
/// stretched Move phase.
const STRETCH_PROBABILITY: f64 = 0.1;

fn sample_compute(rng: &mut SmallRng) -> f64 {
    rng.gen_range(COMPUTE.0..=COMPUTE.1)
}

fn sample_move(rng: &mut SmallRng) -> f64 {
    rng.gen_range(MOVE_PHASE.0..=MOVE_PHASE.1)
}

fn sample_jitter(rng: &mut SmallRng) -> f64 {
    rng.gen_range(0.0..=JITTER)
}

// ---------------------------------------------------------------------------
// FSync
// ---------------------------------------------------------------------------

/// Fully synchronous rounds: every robot activated in every round with
/// identical phase boundaries (Figure 1, top).
#[derive(Debug)]
pub struct FSyncScheduler {
    round: u64,
    queue: VecDeque<ActivationInterval>,
}

impl FSyncScheduler {
    /// Creates the scheduler (deterministic, no seed needed).
    pub fn new() -> Self {
        FSyncScheduler {
            round: 0,
            queue: VecDeque::new(),
        }
    }
}

impl Default for FSyncScheduler {
    fn default() -> Self {
        FSyncScheduler::new()
    }
}

impl Scheduler for FSyncScheduler {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        if self.queue.is_empty() {
            let t0 = self.round as f64;
            for r in 0..ctx.robot_count {
                self.queue.push_back(ActivationInterval::new(
                    RobotId::from(r),
                    t0,
                    t0 + 0.25,
                    t0 + 0.75,
                ));
            }
            self.round += 1;
        }
        self.queue.pop_front()
    }

    fn name(&self) -> &str {
        "FSync"
    }
}

// ---------------------------------------------------------------------------
// SSync
// ---------------------------------------------------------------------------

/// Semi-synchronous rounds: a random non-empty subset per round; fairness is
/// forced by including any robot that has been skipped three rounds running
/// (Figure 1, middle).
#[derive(Debug)]
pub struct SSyncScheduler {
    rng: SmallRng,
    round: u64,
    skip_counts: Vec<u32>,
    queue: VecDeque<ActivationInterval>,
    /// Per-robot inclusion probability per round.
    pub inclusion_probability: f64,
}

impl SSyncScheduler {
    /// Creates the scheduler with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SSyncScheduler {
            rng: SmallRng::seed_from_u64(seed),
            round: 0,
            skip_counts: Vec::new(),
            queue: VecDeque::new(),
            inclusion_probability: 0.5,
        }
    }
}

impl Scheduler for SSyncScheduler {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        if self.skip_counts.len() != ctx.robot_count {
            self.skip_counts = vec![0; ctx.robot_count];
        }
        while self.queue.is_empty() {
            let t0 = self.round as f64;
            self.round += 1;
            let mut chosen: Vec<usize> = (0..ctx.robot_count)
                .filter(|&r| {
                    self.skip_counts[r] >= 3 || self.rng.gen_bool(self.inclusion_probability)
                })
                .collect();
            if chosen.is_empty() && ctx.robot_count > 0 {
                chosen.push(self.rng.gen_range(0..ctx.robot_count));
            }
            for r in 0..ctx.robot_count {
                // `chosen` is built ascending (a filter over `0..n`, plus at
                // most one fallback push into an empty list), so membership
                // is a binary search — the historical `contains` scan made
                // the round setup quadratic in the robot count.
                if chosen.binary_search(&r).is_ok() {
                    self.skip_counts[r] = 0;
                } else {
                    self.skip_counts[r] += 1;
                }
            }
            for r in chosen {
                self.queue.push_back(ActivationInterval::new(
                    RobotId::from(r),
                    t0,
                    t0 + 0.25,
                    t0 + 0.75,
                ));
            }
        }
        self.queue.pop_front()
    }

    fn name(&self) -> &str {
        "SSync"
    }
}

// ---------------------------------------------------------------------------
// k-Async
// ---------------------------------------------------------------------------

/// The `k`-Async adversary: arbitrary overlapping activations, except that at
/// most `k` activations of one robot may start within a single active
/// interval of another (§2.3.1, Figure 2 bottom).
///
/// The generator proposes greedy random activations and *repairs* proposals
/// that would exceed the budget by postponing them past the end of the
/// constraining interval, so every emitted trace is `k`-Async by
/// construction (checked in tests via [`crate::validate::minimal_async_k`]).
#[derive(Debug)]
pub struct KAsyncScheduler {
    k: u32,
    rng: SmallRng,
    clock: f64,
    /// Per-robot earliest re-activation times behind an `O(log n)` indexed
    /// min-tracker (fairness picks the first minimal index, exactly like the
    /// historical linear scan).
    next_free: Option<ArgMin>,
    history: Vec<ActivationInterval>,
}

impl KAsyncScheduler {
    /// Creates a `k`-Async scheduler.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: u32, seed: u64) -> Self {
        assert!(k >= 1, "k-Async needs k ≥ 1");
        KAsyncScheduler {
            k,
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
            next_free: None,
            history: Vec::new(),
        }
    }

    /// The bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }
}

impl Scheduler for KAsyncScheduler {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        assert!(ctx.robot_count > 0, "at least one robot");
        let next_free = match self.next_free.as_mut() {
            Some(a) if a.len() == ctx.robot_count => a,
            _ => self.next_free.insert(ArgMin::new(ctx.robot_count, 0.0)),
        };
        // Fairness: activate the robot that has been free the longest.
        let robot = next_free.min_index();
        let mut look = next_free.get(robot).max(self.clock) + sample_jitter(&mut self.rng);
        // Repair loop: postpone past any interval whose per-robot budget the
        // proposal would blow.
        loop {
            let mut bumped = false;
            for iv in &self.history {
                if iv.robot.index() == robot || !iv.contains_time(look) {
                    continue;
                }
                let already = self
                    .history
                    .iter()
                    .filter(|h| h.robot.index() == robot && iv.contains_time(h.look))
                    .count() as u32;
                if already + 1 > self.k {
                    look = iv.end + sample_jitter(&mut self.rng) + 1e-6;
                    bumped = true;
                }
            }
            if !bumped {
                break;
            }
        }
        let move_start = look + sample_compute(&mut self.rng);
        let end = move_start + sample_move(&mut self.rng);
        let iv = ActivationInterval::new(RobotId::from(robot), look, move_start, end);
        self.clock = look;
        next_free.set(robot, end + 1e-9);
        self.history.push(iv);
        // Prune history. An old interval still matters if it can contain a
        // future Look (ends after the clock) *or* if its own Look could be
        // counted against a still-open interval (starts no earlier than the
        // earliest open interval).
        let clock = self.clock;
        let earliest_open_look = self
            .history
            .iter()
            .filter(|h| h.end >= clock - 1e-9)
            .map(|h| h.look)
            .fold(f64::INFINITY, f64::min);
        self.history
            .retain(|h| h.end >= clock - 1e-9 || h.look >= earliest_open_look - 1e-9);
        Some(iv)
    }

    fn name(&self) -> &str {
        "k-Async"
    }
}

// ---------------------------------------------------------------------------
// k-NestA
// ---------------------------------------------------------------------------

/// The `k`-NestA adversary: activity intervals pairwise disjoint or nested,
/// with at most `k` activations of one robot nested within a single interval
/// of another (Figure 2, top).
///
/// Generates *activation events* in the shape the paper's §4.1 analysis uses:
/// an outer interval of one robot (rotating, for fairness) containing, for
/// each other robot, between 1 and `k` sequential nested intervals.
#[derive(Debug)]
pub struct NestAScheduler {
    k: u32,
    rng: SmallRng,
    clock: f64,
    next_outer: usize,
    queue: VecDeque<ActivationInterval>,
}

impl NestAScheduler {
    /// Creates a `k`-NestA scheduler.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: u32, seed: u64) -> Self {
        assert!(k >= 1, "k-NestA needs k ≥ 1");
        NestAScheduler {
            k,
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
            next_outer: 0,
            queue: VecDeque::new(),
        }
    }

    /// The bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    fn build_block(&mut self, ctx: &ScheduleContext) {
        let n = ctx.robot_count;
        if n == 0 {
            return;
        }
        let outer_robot = self.next_outer % n;
        self.next_outer += 1;
        if n == 1 {
            let look = self.clock + 0.1;
            self.queue.push_back(ActivationInterval::new(
                RobotId::from(outer_robot),
                look,
                look + 0.2,
                look + 0.5,
            ));
            self.clock = look + 0.6;
            return;
        }
        // Plan the inner activations: for each other robot, 1..=k intervals.
        let mut inner: Vec<(usize, u32)> = Vec::new();
        for r in 0..n {
            if r != outer_robot {
                inner.push((r, self.rng.gen_range(1..=self.k)));
            }
        }
        let total_inner: u32 = inner.iter().map(|(_, c)| c).sum();
        let slot = 0.4; // time per inner activation
        let t0 = self.clock + 0.05;
        let outer_end = t0 + 0.2 + f64::from(total_inner) * slot + 0.2;
        self.queue.push_back(ActivationInterval::new(
            RobotId::from(outer_robot),
            t0,
            t0 + 0.1,
            outer_end,
        ));
        // Lay the inner activations out sequentially (disjoint from each
        // other, each nested in the outer interval), in an interleaved random
        // order so nesting patterns vary.
        let mut slots: Vec<usize> = Vec::new();
        for (r, c) in &inner {
            for _ in 0..*c {
                slots.push(*r);
            }
        }
        // Fisher–Yates shuffle.
        for i in (1..slots.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            slots.swap(i, j);
        }
        let mut t = t0 + 0.2;
        for r in slots {
            let look = t + 0.02;
            let move_start = look + 0.1;
            let end = t + slot - 0.02;
            self.queue.push_back(ActivationInterval::new(
                RobotId::from(r),
                look,
                move_start,
                end,
            ));
            t += slot;
        }
        self.clock = outer_end + 0.1;
    }
}

impl Scheduler for NestAScheduler {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        while self.queue.is_empty() {
            self.build_block(ctx);
            if ctx.robot_count == 0 {
                return None;
            }
        }
        self.queue.pop_front()
    }

    fn name(&self) -> &str {
        "k-NestA"
    }
}

// ---------------------------------------------------------------------------
// Async
// ---------------------------------------------------------------------------

/// The unbounded-asynchrony adversary: arbitrary overlap, arbitrary (finite)
/// durations, fairness only (Figure 1, bottom). Occasionally stretches a
/// Move far beyond the usual phase lengths, which is exactly the freedom that the
/// §7 impossibility construction weaponizes.
#[derive(Debug)]
pub struct AsyncScheduler {
    rng: SmallRng,
    clock: f64,
    /// Per-robot earliest re-activation times behind an `O(log n)` indexed
    /// min-tracker (fairness picks the first minimal index, exactly like the
    /// historical linear scan).
    next_free: Option<ArgMin>,
}

impl AsyncScheduler {
    /// Creates the scheduler with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        AsyncScheduler {
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
            next_free: None,
        }
    }
}

impl Scheduler for AsyncScheduler {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        assert!(ctx.robot_count > 0, "at least one robot");
        let next_free = match self.next_free.as_mut() {
            Some(a) if a.len() == ctx.robot_count => a,
            _ => self.next_free.insert(ArgMin::new(ctx.robot_count, 0.0)),
        };
        let robot = next_free.min_index();
        let look = next_free.get(robot).max(self.clock) + sample_jitter(&mut self.rng);
        let move_start = look + sample_compute(&mut self.rng);
        let mut move_d = sample_move(&mut self.rng);
        if self.rng.gen_bool(STRETCH_PROBABILITY) {
            move_d *= self.rng.gen_range(10.0..30.0);
        }
        let iv =
            ActivationInterval::new(RobotId::from(robot), look, move_start, move_start + move_d);
        self.clock = look;
        next_free.set(robot, iv.end + 1e-9);
        Some(iv)
    }

    fn name(&self) -> &str {
        "Async"
    }
}

// ---------------------------------------------------------------------------
// Centralized
// ---------------------------------------------------------------------------

/// The classic *centralized/sequential* scheduler: exactly one robot active
/// at any time, in round-robin order. A strict special case of SSync (every
/// round a singleton) and therefore of every model in the paper — useful as
/// the weakest-adversary control in experiments.
#[derive(Debug)]
pub struct CentralizedScheduler {
    next: usize,
    clock: f64,
}

impl CentralizedScheduler {
    /// Creates the scheduler (deterministic).
    pub fn new() -> Self {
        CentralizedScheduler {
            next: 0,
            clock: 0.0,
        }
    }
}

impl Default for CentralizedScheduler {
    fn default() -> Self {
        CentralizedScheduler::new()
    }
}

impl Scheduler for CentralizedScheduler {
    fn next_activation(&mut self, ctx: &ScheduleContext) -> Option<ActivationInterval> {
        if ctx.robot_count == 0 {
            return None;
        }
        let robot = self.next % ctx.robot_count;
        self.next += 1;
        let look = self.clock;
        let iv = ActivationInterval::new(RobotId::from(robot), look, look + 0.25, look + 0.75);
        self.clock = look + 1.0;
        Some(iv)
    }

    fn name(&self) -> &str {
        "Centralized"
    }
}

// ---------------------------------------------------------------------------
// Scripted
// ---------------------------------------------------------------------------

/// Replays a hand-built, finite activation timeline — the tool for the
/// paper's exact counterexamples (Figure 4) and the §7 sliver-flattening
/// adversary.
#[derive(Debug)]
pub struct ScriptedScheduler {
    queue: VecDeque<ActivationInterval>,
    name: String,
}

impl ScriptedScheduler {
    /// Creates a scripted scheduler from intervals (sorted by Look time).
    pub fn new(name: impl Into<String>, mut intervals: Vec<ActivationInterval>) -> Self {
        intervals.sort_by(|a, b| a.look.partial_cmp(&b.look).expect("finite times"));
        ScriptedScheduler {
            queue: intervals.into(),
            name: name.into(),
        }
    }

    /// Remaining activations.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl Scheduler for ScriptedScheduler {
    fn next_activation(&mut self, _ctx: &ScheduleContext) -> Option<ActivationInterval> {
        self.queue.pop_front()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A randomized interleaved engagement script for robots `0` and `1` — the
/// Figure 10 pattern of the paper's Lemma 5 analysis: robot 0's `j`-th long
/// interval overlaps a cluster of up to `k` short activations of robot 1,
/// each seeing the other mid-move, repeated for a seeded number of cluster
/// rounds. Deterministic in `seed`; feed the result to a
/// [`ScriptedScheduler`].
#[must_use]
pub fn interleaved_engagement(k: u32, seed: u64) -> Vec<ActivationInterval> {
    assert!(k >= 1, "the overlap bound k must be at least 1");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut script = Vec::new();
    let mut t = 0.0;
    for _ in 0..rng.gen_range(3..9) {
        let cluster = rng.gen_range(1..=k);
        let x_start = t;
        let x_end = t + 1.0;
        script.push(ActivationInterval::new(
            RobotId(0),
            x_start,
            x_start + 0.1,
            x_end,
        ));
        let mut s = x_start + 0.15;
        for _ in 0..cluster {
            // Aim activations at ~0.8/k so a full k-cluster fits inside
            // robot 0's unit interval; for k ≥ 10 that target dips below the
            // 0.08 floor, so clamp to a thin band instead of handing
            // `gen_range` an empty range (the cluster then self-truncates
            // at the `s + dur >= x_end` check below).
            let dur_cap = (0.8 / f64::from(k)).max(0.0801);
            let dur = rng.gen_range(0.08..dur_cap);
            if s + dur >= x_end {
                break;
            }
            script.push(ActivationInterval::new(
                RobotId(1),
                s,
                s + dur * 0.4,
                s + dur,
            ));
            s += dur + 0.01;
        }
        t = x_end + rng.gen_range(0.01..0.1);
    }
    script.sort_by(|a, b| a.look.partial_cmp(&b.look).expect("finite times"));
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ScheduleTrace;
    use crate::validate::{
        minimal_async_k, validate_fairness, validate_fsync, validate_nested,
        validate_no_self_overlap, validate_ssync,
    };

    fn collect(mut s: impl Scheduler, n: usize, count: usize) -> ScheduleTrace {
        let ctx = ScheduleContext { robot_count: n };
        let mut t = ScheduleTrace::new();
        for _ in 0..count {
            t.push(s.next_activation(&ctx).expect("infinite scheduler"));
        }
        t
    }

    #[test]
    fn fsync_is_fsync() {
        let t = collect(FSyncScheduler::new(), 4, 40);
        assert_eq!(validate_fsync(&t, 4).unwrap(), 10);
        assert!(validate_fairness(&t, 4, 1.5).is_ok());
    }

    #[test]
    fn ssync_is_ssync_and_fair() {
        let t = collect(SSyncScheduler::new(9), 5, 120);
        validate_ssync(&t).unwrap();
        assert!(validate_fairness(&t, 5, 6.0).is_ok());
        // Not FSync: some round misses someone (with overwhelming probability
        // over 120 draws at p = 0.5).
        assert!(validate_fsync(&t, 5).is_err());
    }

    #[test]
    fn k_async_respects_k() {
        for k in [1u32, 2, 4] {
            let t = collect(KAsyncScheduler::new(k, 7), 4, 150);
            validate_no_self_overlap(&t).unwrap();
            let actual = minimal_async_k(&t);
            assert!(actual <= k, "k={k} but trace needs {actual}");
            assert!(validate_fairness(&t, 4, 20.0).is_ok());
        }
    }

    #[test]
    fn k_async_actually_overlaps() {
        // The generator should produce genuine asynchrony, not accidental
        // synchrony: some pair of intervals must overlap across robots.
        let t = collect(KAsyncScheduler::new(2, 3), 3, 60);
        let ivs = t.intervals();
        let overlapping = ivs.iter().enumerate().any(|(i, a)| {
            ivs.iter()
                .skip(i + 1)
                .any(|b| a.robot != b.robot && a.overlaps(b))
        });
        assert!(overlapping);
    }

    #[test]
    fn nesta_is_nested_and_bounded() {
        for k in [1u32, 3] {
            let t = collect(NestAScheduler::new(k, 5), 4, 120);
            validate_nested(&t).unwrap();
            let actual = minimal_async_k(&t);
            assert!(actual <= k, "k={k} but trace needs {actual}");
            assert!(validate_fairness(&t, 4, 30.0).is_ok());
        }
    }

    #[test]
    fn nesta_produces_nesting() {
        let t = collect(NestAScheduler::new(2, 5), 3, 60);
        let ivs = t.intervals();
        let nested = ivs.iter().enumerate().any(|(i, a)| {
            ivs.iter()
                .enumerate()
                .any(|(j, b)| i != j && a.nested_in(b))
        });
        assert!(nested);
    }

    #[test]
    fn async_unbounded_exceeds_small_k() {
        let t = collect(AsyncScheduler::new(11), 3, 400);
        validate_no_self_overlap(&t).unwrap();
        assert!(
            minimal_async_k(&t) > 2,
            "with stretched moves the Async trace should exceed 2-Async; got {}",
            minimal_async_k(&t)
        );
    }

    #[test]
    fn centralized_is_sequential_and_fair() {
        let t = collect(CentralizedScheduler::new(), 4, 40);
        validate_no_self_overlap(&t).unwrap();
        crate::validate::validate_ssync(&t).unwrap();
        assert_eq!(minimal_async_k(&t), 0, "no overlap at all");
        assert!(validate_fairness(&t, 4, 4.5).is_ok());
        // Never two robots active simultaneously.
        let ivs = t.intervals();
        for (i, a) in ivs.iter().enumerate() {
            for b in ivs.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn interleaved_engagement_is_deterministic_and_well_formed() {
        for k in [1u32, 2, 4, 8, 10, 16] {
            let script = interleaved_engagement(k, 7 + u64::from(k));
            assert_eq!(script, interleaved_engagement(k, 7 + u64::from(k)));
            assert!(!script.is_empty());
            // Only the engaged pair appears, in non-decreasing Look order,
            // and robot 1's cluster never exceeds k activations inside one
            // of robot 0's intervals.
            let mut last_look = f64::NEG_INFINITY;
            for iv in &script {
                assert!(iv.robot == RobotId(0) || iv.robot == RobotId(1));
                assert!(iv.look >= last_look);
                last_look = iv.look;
            }
            let trace = ScheduleTrace::from_intervals(script);
            assert!(minimal_async_k(&trace) <= k, "overlap bound exceeded");
        }
    }

    #[test]
    fn scripted_replays_in_order() {
        let ivs = vec![
            ActivationInterval::new(RobotId(1), 1.0, 1.5, 2.0),
            ActivationInterval::new(RobotId(0), 0.0, 0.5, 1.0),
        ];
        let mut s = ScriptedScheduler::new("demo", ivs);
        let ctx = ScheduleContext { robot_count: 2 };
        assert_eq!(s.remaining(), 2);
        let first = s.next_activation(&ctx).unwrap();
        assert_eq!(first.robot, RobotId(0));
        let second = s.next_activation(&ctx).unwrap();
        assert_eq!(second.robot, RobotId(1));
        assert!(s.next_activation(&ctx).is_none());
    }
}
