//! The §7.2 sliver-flattening adversary.
//!
//! Strategy (per the paper):
//!
//! 1. Activate `X_A` once. Its Look sees `X_B` and `X_C` at distance `1 = V`,
//!    and (for any non-frozen algorithm) it plans a move of some length
//!    `ζ > 0` into the sector `∠C A B` — for every algorithm in this
//!    workspace, along the sector bisector at `−67.5°`.
//! 2. Before that Move executes — `X_A`'s Compute/Move phase is stretched
//!    arbitrarily (unbounded asynchrony; all tail activity nests inside it) —
//!    repeatedly activate the tail robots `P_0 … P_{n−4}` (the far endpoint
//!    `P_{n−3}` is simply never scheduled), collapsing the thin triangles of
//!    each sliver. The chain relaxes onto the chord `A P_{n−3}`, which points
//!    at `+67.5°`: `X_B` is carried a quarter-turn around `X_A` while keeping
//!    its distance from `A` nearly unchanged.
//! 3. Release `X_A`'s stale move. `B` now sits near angle `+67.5°` and `A`
//!    steps `ζ` toward `−67.5°`: the separation is
//!    `|A′B′|² = d_B² + ζ² + √2·d_B·ζ`, which exceeds `V² = 1` whenever `ψ`
//!    (and with it the chord shrinkage and flattening drift) is small enough
//!    relative to `ζ`.
//!
//! The driver executes the tail activations *sequentially* — they are
//! pairwise disjoint and all nested in `X_A`'s single interval, so no motion
//! interpolation is needed — and reports the `k` that the resulting
//! `k`-NestA schedule required, the per-robot radial drift (the paper bounds
//! its construction's drift by `4ψ²`), and the final edge verdicts. Each
//! tail Look asks a [`DynamicGrid`] with cell edge `V` for the robots within
//! `V`, so an activation costs `O(local density)`, not `O(n)`.

use crate::spiral::{robots, SpiralConstruction};
use cohesion_geometry::{DynamicGrid, Vec2};
use cohesion_model::{Algorithm, Snapshot};
use serde::{Deserialize, Serialize};

/// The visibility radius of the construction.
pub const V: f64 = 1.0;

/// Outcome of running the impossibility adversary against one victim
/// algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImpossibilityOutcome {
    /// Victim algorithm name.
    pub algorithm: String,
    /// Turn angle `ψ` of the spiral.
    pub psi: f64,
    /// Total robots `n`.
    pub robots: usize,
    /// Whether some edge of the initial visibility graph ended beyond `V` —
    /// the Cohesive Convergence violation.
    pub separated: bool,
    /// Final `|X_A X_B|`.
    pub final_ab_distance: f64,
    /// Length `ζ` of `X_A`'s stale move.
    pub zeta: f64,
    /// Total tail activations performed.
    pub tail_activations: usize,
    /// Sweeps over the tail.
    pub sweeps: usize,
    /// Maximum change of any tail robot's distance from `A` (the paper's
    /// construction keeps this below `4ψ²`).
    pub max_radial_drift: f64,
    /// `|A X_B|` just before `X_A`'s move executes.
    pub b_radius_before_release: f64,
    /// Initially-visible pairs (by configuration index) that ended separated.
    pub broken_initial_edges: Vec<(usize, usize)>,
    /// The largest number of nested activations of a single tail robot
    /// within `X_A`'s one interval — the `k` a `k`-NestA scheduler would
    /// need. Unbounded asynchrony is exactly the licence to make this large.
    pub nesting_k: usize,
}

/// Runs the adversary. `max_sweeps` bounds the flattening effort (the driver
/// exits early as soon as releasing `X_A`'s move would already break the
/// `A–B` edge).
pub fn run_impossibility(
    algorithm: &dyn Algorithm<Vec2>,
    psi: f64,
    max_sweeps: usize,
) -> ImpossibilityOutcome {
    let spiral = SpiralConstruction::paper(psi);
    let mut positions: Vec<Vec2> = spiral.configuration.positions().to_vec();
    let n = positions.len();
    let a_idx = robots::A.index();
    let b_idx = robots::B.index();
    let anchor = n - 1;
    let initial_radii: Vec<f64> = positions.iter().map(|p| p.norm()).collect();

    // Initial visibility edges (the cohesion predicate's E(0)).
    let initial_edges: Vec<(usize, usize)> = {
        let mut e = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if positions[i].dist(positions[j]) <= V {
                    e.push((i, j));
                }
            }
        }
        e
    };

    // Step 1: X_A's stale plan.
    let a_snapshot = Snapshot::from_positions(
        (0..n)
            .filter(|&c| c != a_idx && positions[c].dist(positions[a_idx]) <= V)
            .map(|c| positions[c] - positions[a_idx])
            .collect(),
    );
    let a_move = algorithm.compute(&a_snapshot);
    let zeta = a_move.norm();

    // Step 2: flatten, X_A frozen. One index buffer and one snapshot serve
    // every Look.
    let mut grid = DynamicGrid::with_extent(n, V, &positions);
    for (i, &p) in positions.iter().enumerate() {
        grid.insert(i, p);
    }
    let mut visible = Vec::new();
    let mut snapshot = Snapshot::default();
    let mut activations = 0usize;
    let mut per_robot_activations = vec![0usize; n];
    let mut sweeps = 0usize;
    while sweeps < max_sweeps {
        sweeps += 1;
        let mut max_move: f64 = 0.0;
        // Sweep from the anchored end back toward B: the pinned far endpoint
        // is what the chain straightens against, so this order propagates
        // the rotation fastest.
        for j in (b_idx..anchor).rev() {
            activations += 1;
            per_robot_activations[j] += 1;
            let here = positions[j];
            visible.clear();
            grid.query_within(here, V, &mut visible);
            snapshot.refill(
                visible
                    .iter()
                    .filter(|&&c| c != j)
                    .map(|&c| positions[c] - here),
            );
            let target = algorithm.compute(&snapshot);
            if target.norm() > 0.0 {
                positions[j] = here + target;
                grid.relocate(j, positions[j]);
                max_move = max_move.max(target.norm());
            }
        }
        // Early release: the adversary may end X_A's activation whenever it
        // likes; it does so as soon as the stale move separates A–B with a
        // margin safely above floating-point noise.
        let would_be_a = positions[a_idx] + a_move;
        if would_be_a.dist(positions[b_idx]) > V + 1e-6 {
            break;
        }
        if max_move < 1e-10 {
            break;
        }
    }

    let b_radius_before_release = positions[b_idx].dist(positions[a_idx]);

    // Step 3: release X_A's stale move.
    positions[a_idx] += a_move;

    let broken_initial_edges: Vec<(usize, usize)> = initial_edges
        .iter()
        .copied()
        .filter(|&(i, j)| positions[i].dist(positions[j]) > V + 1e-9)
        .collect();
    let max_radial_drift = positions
        .iter()
        .enumerate()
        .skip(2)
        .take(n - 2)
        .map(|(i, p)| (p.norm() - initial_radii[i]).abs())
        .fold(0.0, f64::max);

    ImpossibilityOutcome {
        algorithm: algorithm.name().to_string(),
        psi,
        robots: n,
        separated: !broken_initial_edges.is_empty(),
        final_ab_distance: positions[a_idx].dist(positions[b_idx]),
        zeta,
        tail_activations: activations,
        sweeps,
        max_radial_drift,
        b_radius_before_release,
        broken_initial_edges,
        nesting_k: per_robot_activations.iter().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_algorithms::AndoAlgorithm;

    #[test]
    fn a_plans_a_bisector_move() {
        // Any of our victims plans A's move along the bisector of ∠CAB at
        // −67.5°; check for Ando (largest ζ).
        let spiral = SpiralConstruction::paper(0.3);
        let ando = AndoAlgorithm::new(V);
        let rel = Snapshot::from_positions(vec![
            spiral.configuration.position(robots::B),
            spiral.configuration.position(robots::C),
        ]);
        let mv = ando.compute(&rel);
        assert!(
            mv.norm() > 0.3,
            "Ando's ζ should be large, got {}",
            mv.norm()
        );
        let angle = mv.angle().to_degrees();
        assert!(
            (angle + 67.5).abs() < 1.0,
            "move at {angle}° instead of −67.5°"
        );
    }

    #[test]
    fn ando_is_separated_by_the_spiral() {
        let outcome = run_impossibility(&AndoAlgorithm::new(V), 0.3, 50_000);
        assert!(outcome.separated, "outcome: {outcome:?}");
        assert!(
            outcome
                .broken_initial_edges
                .contains(&(robots::A.index(), robots::B.index())),
            "the A–B edge must be the break: {:?}",
            outcome.broken_initial_edges
        );
        assert!(outcome.final_ab_distance > V);
        assert!(
            outcome.nesting_k > 1,
            "the schedule must need unbounded nesting"
        );
    }

    #[test]
    fn drift_stays_moderate() {
        // The paper's construction bounds radial drift by 4ψ²; our sweep
        // scheduler is cruder but must stay in the same ballpark for the
        // separation arithmetic to work.
        let outcome = run_impossibility(&AndoAlgorithm::new(V), 0.3, 50_000);
        assert!(
            outcome.max_radial_drift < 0.30,
            "drift {} too large",
            outcome.max_radial_drift
        );
    }
}
