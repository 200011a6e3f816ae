//! The paper's convergence algorithm (§3.2, §5, §6.1, §6.3.2).
//!
//! Upon activation, robot `Z`:
//!
//! 1. rescales perceived distances by `1/(1+δ)` (so the tentative bound
//!    `V_Z` never overestimates the true visibility radius despite distance
//!    error — §6.1) and classifies neighbours into *distant* and *close*;
//! 2. runs the sector analysis on the distant directions: if they positively
//!    span the space (`Z` is in the convex hull of its distant neighbours)
//!    the move is nil; otherwise the two extreme distant neighbours define a
//!    sector with half-angle `γ` and bisector `a`;
//! 3. moves along `a` by `min(r·cos γ, 2r·cos γ_eff)` where `r = V_Z/(8k)`
//!    and `γ_eff = γ/(1−λ)` compensates the worst-case angular skew `λ`
//!    (for `λ = 0` this is exactly the paper's midpoint-of-safe-centres
//!    rule: the midpoint of the two extreme safe-region centres lies at
//!    distance `r·cos γ` along the bisector).
//!
//! The computed target provably lies in the `1/k`-scaled safe region of
//! *every* distant neighbour (checked by a debug assertion and property
//! tests), which is the property the visibility-preservation theorems
//! (Theorems 3–4) consume.

use crate::neighbors::{classify_neighbors, Neighborhood};
use cohesion_geometry::angle::normalize;
use cohesion_geometry::cone::{enclosing_cone, Cone, SectorAnalysis};
use cohesion_geometry::point::Point;
use cohesion_geometry::{Vec2, Vec3};
use cohesion_model::{Algorithm, Snapshot};
use serde::{Deserialize, Serialize};
use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// Angular slack for the “positively spans” decision.
const SECTOR_EPS: f64 = 1e-9;

/// Distant directions the planar Compute sorts on the stack; larger
/// snapshots spill to one heap buffer.
const INLINE_DIRECTIONS: usize = 32;

/// The paper's `k`-Async cohesive-convergence algorithm.
///
/// ```
/// use cohesion_core::KirkpatrickAlgorithm;
/// use cohesion_model::{Algorithm, Snapshot};
/// use cohesion_geometry::Vec2;
///
/// let alg = KirkpatrickAlgorithm::new(1);
/// // One distant neighbour at distance 1: move V_Z/8 toward it.
/// let snap = Snapshot::from_positions(vec![Vec2::new(1.0, 0.0)]);
/// let target = alg.compute(&snap);
/// assert!((target - Vec2::new(0.125, 0.0)).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KirkpatrickAlgorithm {
    /// Asynchrony bound `k ≥ 1` the algorithm is provisioned for (safe
    /// regions are scaled by `α = 1/k`).
    k: u32,
    /// Distance-measurement error bound `δ ≥ 0` tolerated (perceived
    /// distances are divided by `1 + δ`).
    distance_error: f64,
    /// Angular skew bound `λ ∈ [0, 1)` tolerated (steps are shortened so the
    /// target respects safe regions under any symmetric distortion with skew
    /// `≤ λ`).
    skew: f64,
    name: String,
}

impl KirkpatrickAlgorithm {
    /// The error-free algorithm for the `k`-Async model.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: u32) -> Self {
        KirkpatrickAlgorithm::with_error_tolerance(k, 0.0, 0.0)
    }

    /// The error-tolerant variant (§6.1): tolerates relative distance error
    /// `δ` and symmetric angular distortions with skew `λ`.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, `δ < 0`, or `λ ∉ [0, 1)`.
    pub fn with_error_tolerance(k: u32, distance_error: f64, skew: f64) -> Self {
        assert!(k >= 1, "the algorithm is parameterized by k ≥ 1");
        assert!(distance_error >= 0.0, "distance error must be non-negative");
        assert!((0.0..1.0).contains(&skew), "skew must be in [0, 1)");
        let name = if distance_error == 0.0 && skew == 0.0 {
            format!("kirkpatrick(k={k})")
        } else {
            format!("kirkpatrick(k={k},δ={distance_error},λ={skew})")
        };
        KirkpatrickAlgorithm {
            k,
            distance_error,
            skew,
            name,
        }
    }

    /// The asynchrony bound `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The safe-region scale `α = 1/k`.
    pub fn alpha(&self) -> f64 {
        1.0 / f64::from(self.k)
    }

    /// The per-activation safe radius `r = V_Z / (8k)` for a perceived
    /// furthest-neighbour distance `v_z`.
    pub fn safe_radius(&self, v_z: f64) -> f64 {
        v_z / (8.0 * f64::from(self.k))
    }

    /// The classified neighbourhood this algorithm derives from a snapshot
    /// (exposed for the analysis experiments).
    pub fn neighborhood<P: Point>(&self, snapshot: &Snapshot<P>) -> Neighborhood<P> {
        classify_neighbors(snapshot, self.distance_rescale())
    }

    /// The §6.1 rescale `1/(1+δ)` applied to every perceived distance.
    fn distance_rescale(&self) -> f64 {
        1.0 / (1.0 + self.distance_error)
    }

    /// Computes the step from a sector analysis of the distant directions
    /// (`distant` is read only by the debug-build safe-region check).
    fn target_from_analysis<P: Point>(
        &self,
        v_z: f64,
        analysis: SectorAnalysis<P>,
        distant: impl Iterator<Item = P>,
    ) -> P {
        let Cone {
            axis,
            half_angle: gamma,
        } = match analysis {
            SectorAnalysis::Empty | SectorAnalysis::Surrounded => return P::zero(),
            SectorAnalysis::Cone(c) => c,
        };
        let r = self.safe_radius(v_z);
        // Worst-case true half-angle under skew λ: perceived relative angles
        // shrink by at most (1−λ), so true angles grow by at most 1/(1−λ).
        let gamma_eff = gamma / (1.0 - self.skew);
        if gamma_eff >= FRAC_PI_2 - SECTOR_EPS {
            return P::zero();
        }
        let cos_gamma = gamma.cos();
        // Without skew `gamma_eff` is `gamma` itself: one cosine serves both.
        let cos_eff = if gamma_eff == gamma {
            cos_gamma
        } else {
            gamma_eff.cos()
        };
        let step = (r * cos_gamma).min(2.0 * r * cos_eff);
        let target = axis * step;
        #[cfg(not(debug_assertions))]
        let _ = distant;
        #[cfg(debug_assertions)]
        {
            use crate::safe_region::SafeRegion;
            // The target must lie in every distant neighbour's (perceived)
            // 1/k-scaled safe region — the invariant Theorems 3–4 rely on.
            for d in distant {
                if let Some(region) = SafeRegion::new(P::zero(), d, r) {
                    debug_assert!(
                        region.contains(target, 1e-9 * (1.0 + r)),
                        "target violates a distant safe region"
                    );
                }
            }
        }
        target
    }
}

/// Sorts ascending, keeping equal angles in input order (as the stable
/// `sort_by` of [`cohesion_geometry::angle::largest_gap`] does).
fn insertion_sort(angles: &mut [f64]) {
    for i in 1..angles.len() {
        let a = angles[i];
        let mut j = i;
        while j > 0 && angles[j - 1] > a {
            angles[j] = angles[j - 1];
            j -= 1;
        }
        angles[j] = a;
    }
}

/// [`cohesion_geometry::cone::sector_2d`] over directions given by their
/// normalized angles, sorted ascending: the same largest-gap scan (first
/// strict maximum wins, `+2π` on the wrap gap) and the same bisector.
fn sector_of_sorted(angles: &[f64]) -> SectorAnalysis<Vec2> {
    let Some(&first) = angles.first() else {
        return SectorAnalysis::Empty;
    };
    let (mut width, mut after) = (TAU, first);
    if angles.len() > 1 {
        width = f64::NEG_INFINITY;
        for (w, &before) in angles.iter().enumerate() {
            let next = angles[(w + 1) % angles.len()];
            let mut gap = next - before;
            if w + 1 == angles.len() {
                gap += TAU;
            }
            if gap > width {
                width = gap;
                after = next;
            }
        }
    }
    if width < PI - SECTOR_EPS {
        return SectorAnalysis::Surrounded;
    }
    let span = (TAU - width).max(0.0);
    if span / 2.0 >= FRAC_PI_2 - SECTOR_EPS {
        return SectorAnalysis::Surrounded;
    }
    SectorAnalysis::Cone(Cone {
        axis: Vec2::from_angle(after + span / 2.0),
        half_angle: span / 2.0,
    })
}

impl Algorithm<Vec2> for KirkpatrickAlgorithm {
    /// `classify_neighbors` followed by `sector_2d`, fused into passes over
    /// the snapshot that sort the distant directions' angles on the stack:
    /// no heap allocation up to `INLINE_DIRECTIONS` (32) distant neighbours,
    /// and the same target bits as the composition (a unit-test oracle).
    fn compute(&self, snapshot: &Snapshot<Vec2>) -> Vec2 {
        let rescale = self.distance_rescale();
        let perceived = || {
            snapshot
                .positions()
                .map(move |p| p * rescale)
                .filter(|p| p.norm() > 1e-12)
        };
        let v_z = perceived().map(|p| p.norm()).fold(0.0, f64::max);
        let distant = || perceived().filter(move |p| p.norm() > v_z / 2.0);
        let mut inline = [0.0; INLINE_DIRECTIONS];
        let mut spill = Vec::new();
        let mut len = 0;
        for d in distant() {
            // `d.normalized(1e-12)`, whose norm test `perceived` passed.
            let angle = normalize((d / d.norm()).angle());
            if len < INLINE_DIRECTIONS {
                inline[len] = angle;
            } else {
                if len == INLINE_DIRECTIONS {
                    spill.extend_from_slice(&inline);
                }
                spill.push(angle);
            }
            len += 1;
        }
        let angles = if len <= INLINE_DIRECTIONS {
            &mut inline[..len]
        } else {
            &mut spill[..]
        };
        insertion_sort(angles);
        self.target_from_analysis(v_z, sector_of_sorted(angles), distant())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl Algorithm<Vec3> for KirkpatrickAlgorithm {
    fn compute(&self, snapshot: &Snapshot<Vec3>) -> Vec3 {
        let hood = self.neighborhood(snapshot);
        if hood.distant.is_empty() {
            return Vec3::ZERO;
        }
        let analysis = enclosing_cone(&hood.distant, SECTOR_EPS);
        self.target_from_analysis(hood.v_z, analysis, hood.distant.iter().copied())
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_geometry::cone::sector_2d;
    use proptest::prelude::*;

    fn snap(pts: &[Vec2]) -> Snapshot<Vec2> {
        Snapshot::from_positions(pts.to_vec())
    }

    /// The planar Compute as `classify_neighbors` and `sector_2d` compose
    /// it, allocating: the oracle the fused `compute` must match bit for bit.
    fn reference_compute(alg: &KirkpatrickAlgorithm, snapshot: &Snapshot<Vec2>) -> Vec2 {
        let hood = alg.neighborhood(snapshot);
        if hood.distant.is_empty() {
            return Vec2::ZERO;
        }
        let analysis = sector_2d(&hood.distant, SECTOR_EPS);
        alg.target_from_analysis(hood.v_z, analysis, hood.distant.iter().copied())
    }

    /// What the observations of one hostile snapshot share: a base angle,
    /// the arc its free directions spread over, and a radius floor (above
    /// 0.5 every free observation is distant).
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        base: f64,
        spread: f64,
        floor: f64,
    }

    /// One observation of a hostile snapshot: `kind` picks its shape, `t`,
    /// `r` and `m` its parameters.
    fn observation(shape: Shape, (kind, t, r, m): (u32, f64, f64, u32)) -> Vec2 {
        let sign = |pos: bool| if pos { 0.0 } else { -0.0 };
        let r = shape.floor + (1.0 - shape.floor) * r;
        let tiny = (t - 0.5) * 4e-9;
        match kind {
            // Co-located, in all four zero signs.
            0 => Vec2::new(sign(t < 0.5), sign(m % 2 == 0)),
            // Equal angles.
            1 => Vec2::from_angle(shape.base) * r,
            // Within 2e-9 of a quarter turn of the base: antipodal pairs
            // and largest gaps within 1e-9 of π.
            2 => Vec2::from_angle(shape.base + f64::from(m) * FRAC_PI_2 + tiny) * r,
            // On the ±π seam, with either sign of zero, and straddling it.
            3 => Vec2::new(-r, sign(m % 2 == 0)),
            4 => Vec2::from_angle(PI + tiny * 250.0) * r,
            // Exactly V_Z/2 from another, and at the 1e-12 floor.
            5 => Vec2::from_angle(shape.base + t) * [1.0, 0.5, 1.0e-12, 1.05e-12][m as usize],
            _ => Vec2::from_angle(shape.base + t * shape.spread) * r,
        }
    }

    fn hostile_snapshot() -> impl Strategy<Value = Vec<Vec2>> {
        let shape = (0u32..3, -PI..PI, 0u32..4, 0u32..2).prop_map(|(b, t, s, f)| Shape {
            base: [0.0, PI, t][b as usize],
            spread: [TAU, PI, FRAC_PI_2, 0.3][s as usize],
            floor: [0.05, 0.55][f as usize],
        });
        let obs = (0u32..14, 0.0..1.0f64, 0.0..1.0f64, 0u32..4);
        (shape, proptest::collection::vec(obs, 0..=40))
            .prop_map(|(shape, obs)| obs.into_iter().map(|o| observation(shape, o)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The fused Compute returns the composition's target to the bit,
        /// for every `k`, `δ`, `λ` the lab runs, on snapshots on both sides
        /// of the inline capacity.
        #[test]
        fn fused_compute_matches_the_composition_bitwise(pts in hostile_snapshot()) {
            let snapshot = snap(&pts);
            for k in [1, 4] {
                for delta in [0.0, 0.05] {
                    for lambda in [0.0, 0.2] {
                        let alg = KirkpatrickAlgorithm::with_error_tolerance(k, delta, lambda);
                        let got = alg.compute(&snapshot);
                        let want = reference_compute(&alg, &snapshot);
                        prop_assert_eq!(
                            (got.x.to_bits(), got.y.to_bits()),
                            (want.x.to_bits(), want.y.to_bits()),
                            "{alg:?}: fused {:?}, composition {:?}",
                            got,
                            want
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_neighbor_moves_an_eighth() {
        let alg = KirkpatrickAlgorithm::new(1);
        let t = alg.compute(&snap(&[Vec2::new(0.8, 0.0)]));
        assert!(
            (t - Vec2::new(0.1, 0.0)).norm() < 1e-12,
            "V_Z/8 toward the neighbour"
        );
    }

    #[test]
    fn k_scaling_divides_step() {
        let s = snap(&[Vec2::new(0.8, 0.0)]);
        let t1: Vec2 = KirkpatrickAlgorithm::new(1).compute(&s);
        let t4: Vec2 = KirkpatrickAlgorithm::new(4).compute(&s);
        assert!((t1 * 0.25 - t4).norm() < 1e-12);
    }

    #[test]
    fn two_extreme_neighbors_midpoint_rule() {
        // Neighbours at ±60°, distance 1: sector half-angle 60°, bisector +x.
        let a = Vec2::from_angle(PI / 3.0);
        let b = Vec2::from_angle(-PI / 3.0);
        let alg = KirkpatrickAlgorithm::new(1);
        let t = alg.compute(&snap(&[a, b]));
        // Midpoint of safe centres: (r·a + r·b)/2 with r = 1/8.
        let expect = (a + b) * (1.0 / 16.0);
        assert!((t - expect).norm() < 1e-12);
        // Equivalent formulation: step = r·cos γ along the bisector.
        assert!((t.norm() - (1.0 / 8.0) * (PI / 3.0).cos()).abs() < 1e-12);
    }

    #[test]
    fn inner_distant_neighbors_do_not_change_target() {
        // The motion function depends only on the extreme pair (§1.3).
        let a = Vec2::from_angle(0.5);
        let b = Vec2::from_angle(-0.5);
        let inner = Vec2::from_angle(0.1) * 0.9;
        let alg = KirkpatrickAlgorithm::new(1);
        let without: Vec2 = alg.compute(&snap(&[a, b]));
        let with: Vec2 = alg.compute(&snap(&[a, b, inner]));
        assert!((without - with).norm() < 1e-12);
    }

    #[test]
    fn close_neighbors_ignored() {
        let far = Vec2::new(1.0, 0.0);
        let close = Vec2::new(0.0, 0.3); // 0.3 ≤ V_Z/2 = 0.5
        let alg = KirkpatrickAlgorithm::new(1);
        let t_with: Vec2 = alg.compute(&snap(&[far, close]));
        let t_without: Vec2 = alg.compute(&snap(&[far]));
        assert!((t_with - t_without).norm() < 1e-12);
    }

    #[test]
    fn surrounded_robot_stays() {
        let dirs: Vec<Vec2> = (0..3)
            .map(|i| Vec2::from_angle(i as f64 * 2.0 * PI / 3.0))
            .collect();
        let alg = KirkpatrickAlgorithm::new(1);
        assert_eq!(alg.compute(&snap(&dirs)), Vec2::ZERO);
    }

    #[test]
    fn empty_snapshot_stays() {
        let alg = KirkpatrickAlgorithm::new(1);
        assert_eq!(alg.compute(&snap(&[])), Vec2::ZERO);
    }

    #[test]
    fn opposite_neighbors_freeze() {
        let alg = KirkpatrickAlgorithm::new(1);
        let t = alg.compute(&snap(&[Vec2::new(1.0, 0.0), Vec2::new(-1.0, 0.0)]));
        assert_eq!(t, Vec2::ZERO);
    }

    #[test]
    fn step_never_exceeds_v_over_8k() {
        let alg = KirkpatrickAlgorithm::new(2);
        let t: Vec2 = alg.compute(&snap(&[Vec2::new(1.0, 0.0), Vec2::from_angle(1.0)]));
        assert!(t.norm() <= 1.0 / 16.0 + 1e-12);
    }

    #[test]
    fn distance_error_rescales_vz() {
        let alg = KirkpatrickAlgorithm::with_error_tolerance(1, 0.25, 0.0);
        let t = alg.compute(&snap(&[Vec2::new(1.0, 0.0)]));
        // V_Z = 1/1.25 = 0.8, step = 0.1.
        assert!((t - Vec2::new(0.1, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn skew_tolerance_shortens_wide_sectors() {
        // Half-angle 80°; with λ = 0.2 the effective angle exceeds 90° ⇒ nil.
        let a = Vec2::from_angle(80f64.to_radians());
        let b = Vec2::from_angle(-80f64.to_radians());
        let tolerant = KirkpatrickAlgorithm::with_error_tolerance(1, 0.0, 0.2);
        assert_eq!(tolerant.compute(&snap(&[a, b])), Vec2::ZERO);
        // The error-free algorithm still moves (slightly).
        let exact = KirkpatrickAlgorithm::new(1);
        let t: Vec2 = exact.compute(&snap(&[a, b]));
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn skew_tolerance_keeps_narrow_sector_step() {
        // Narrow sector: step is governed by r·cos γ even with λ > 0 because
        // 2r·cos(γ/(1−λ)) > r·cos γ there.
        let a = Vec2::from_angle(0.2);
        let b = Vec2::from_angle(-0.2);
        let t: Vec2 =
            KirkpatrickAlgorithm::with_error_tolerance(1, 0.0, 0.3).compute(&snap(&[a, b]));
        let expect = (1.0 / 8.0) * 0.2f64.cos();
        assert!((t.norm() - expect).abs() < 1e-12);
    }

    #[test]
    fn three_dimensional_variant() {
        use cohesion_geometry::Vec3;
        let alg = KirkpatrickAlgorithm::new(1);
        // Single neighbour along +z.
        let s = Snapshot::from_positions(vec![Vec3::new(0.0, 0.0, 1.0)]);
        let t: Vec3 = alg.compute(&s);
        assert!((t - Vec3::new(0.0, 0.0, 0.125)).norm() < 1e-9);
        // Surrounded in 3D: octahedron directions.
        let s = Snapshot::from_positions(vec![
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, -1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 0.0, -1.0),
        ]);
        assert_eq!(alg.compute(&s), Vec3::ZERO);
    }

    #[test]
    fn rotation_equivariance() {
        // A rotated snapshot must yield the rotated target (disorientation).
        let alg = KirkpatrickAlgorithm::new(2);
        let pts = [
            Vec2::from_angle(0.4),
            Vec2::from_angle(-0.9) * 0.8,
            Vec2::new(0.2, 0.1),
        ];
        let t: Vec2 = alg.compute(&snap(&pts));
        for rot in [0.7, 2.1, -1.3] {
            let rotated: Vec<Vec2> = pts.iter().map(|p| p.rotate(rot)).collect();
            let t_rot: Vec2 = alg.compute(&snap(&rotated));
            assert!((t_rot - t.rotate(rot)).norm() < 1e-9);
        }
    }
}
