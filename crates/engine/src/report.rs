//! Simulation outcome reports.

use cohesion_geometry::point::Point;
use cohesion_geometry::Vec2;
use cohesion_model::{Configuration, RobotPair};
use serde::{Deserialize, Serialize};

/// A recorded cohesion violation: an initially-visible pair observed beyond
/// the visibility radius.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CohesionViolation {
    /// The separated pair.
    pub pair: RobotPair,
    /// Event time of the first observation beyond `V`.
    pub time: f64,
    /// The observed separation.
    pub distance: f64,
}

/// The full outcome of a simulation run — everything the paper's predicates
/// and the experiment tables need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport<P = Vec2> {
    /// Algorithm name.
    pub algorithm: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Number of robots.
    pub robots: usize,
    /// Visibility radius `V`.
    pub visibility: f64,
    /// Whether the diameter reached the convergence threshold `ε`.
    pub converged: bool,
    /// Whether every initially-visible pair stayed visible at every event
    /// time (`E(0) ⊆ E(t)` — the Cohesive Convergence clause).
    pub cohesion_maintained: bool,
    /// The recorded cohesion violations (first observation per pair).
    pub cohesion_violations: Vec<CohesionViolation>,
    /// Whether every pair that ever came within `V/2` stayed within `V`
    /// (the acquired-visibility clause of Theorems 3–4); `None` when the
    /// check was disabled.
    pub strong_visibility_ok: Option<bool>,
    /// Whether sampled convex hulls (positions ∪ pending targets) were
    /// monotonically nested; `None` when the check was disabled. Expected to
    /// hold only for hull-diminishing algorithms under error-free motion.
    pub hulls_nested: Option<bool>,
    /// Configuration diameter at the start.
    pub initial_diameter: f64,
    /// Configuration diameter at the end of the run.
    pub final_diameter: f64,
    /// Total engine events processed.
    pub events: usize,
    /// Completed rounds (a round ends when every robot has finished ≥ 1
    /// cycle since the previous boundary).
    pub rounds: usize,
    /// Simulation time at the end of the run.
    pub end_time: f64,
    /// `(time, diameter)` samples.
    pub diameter_series: Vec<(f64, f64)>,
    /// `(round, diameter)` at round boundaries — the convergence-rate data.
    pub round_diameters: Vec<(usize, f64)>,
    /// Final configuration.
    pub final_configuration: Configuration<P>,
}

impl<P: Point> SimulationReport<P> {
    /// Rounds needed to first halve the initial diameter, if it happened —
    /// the measure used by the convergence-rate literature the paper cites
    /// (§1.2.2).
    pub fn rounds_to_halve_diameter(&self) -> Option<usize> {
        let target = self.initial_diameter / 2.0;
        self.round_diameters
            .iter()
            .find(|(_, d)| *d <= target)
            .map(|(r, _)| *r)
    }

    /// Rounds needed to reach diameter ≤ `eps`, if observed.
    pub fn rounds_to_reach(&self, eps: f64) -> Option<usize> {
        self.round_diameters
            .iter()
            .find(|(_, d)| *d <= eps)
            .map(|(r, _)| *r)
    }

    /// `true` when the run satisfied the full Cohesive Convergence predicate
    /// as observed over the horizon.
    pub fn cohesively_converged(&self) -> bool {
        self.converged && self.cohesion_maintained
    }
}

/// 64-bit FNV-1a — the workspace's standard content hash (the same function
/// the frozen-report-hash tests use).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_frozen_hash_idiom() {
        // The empty-input offset basis and a known vector pin the constants.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn report() -> SimulationReport {
        SimulationReport {
            algorithm: "test".into(),
            scheduler: "test".into(),
            robots: 2,
            visibility: 1.0,
            converged: true,
            cohesion_maintained: true,
            cohesion_violations: vec![],
            strong_visibility_ok: Some(true),
            hulls_nested: Some(true),
            initial_diameter: 4.0,
            final_diameter: 0.01,
            events: 100,
            rounds: 10,
            end_time: 12.5,
            diameter_series: vec![(0.0, 4.0), (5.0, 1.0)],
            round_diameters: vec![(1, 4.0), (3, 2.0), (5, 1.0), (9, 0.01)],
            final_configuration: Configuration::new(vec![Vec2::ZERO, Vec2::new(0.01, 0.0)]),
        }
    }

    #[test]
    fn halving_rounds() {
        let r = report();
        assert_eq!(r.rounds_to_halve_diameter(), Some(3));
        assert_eq!(r.rounds_to_reach(1.0), Some(5));
        assert_eq!(r.rounds_to_reach(0.001), None);
        assert!(r.cohesively_converged());
    }
}
