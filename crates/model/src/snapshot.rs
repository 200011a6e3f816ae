//! Look-phase snapshots (paper §2.2).
//!
//! A snapshot is everything a robot's algorithm gets to see: the relative
//! positions of the robots inside its visibility range, expressed in its
//! private local frame. The observing robot sits at the origin and is *not*
//! listed among the observations.

use cohesion_geometry::point::Point;
use serde::{Deserialize, Serialize};

/// One robot as perceived during a Look phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObservedRobot<P> {
    /// Perceived displacement from the observer (local frame, possibly
    /// error-afflicted).
    pub position: P,
}

/// The input to an algorithm's Compute phase.
///
/// ```
/// use cohesion_model::Snapshot;
/// use cohesion_geometry::Vec2;
/// let s = Snapshot::from_positions(vec![Vec2::new(1.0, 0.0), Vec2::new(0.0, 2.0)]);
/// assert_eq!(s.len(), 2);
/// assert!((s.furthest_distance() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot<P> {
    observations: Vec<ObservedRobot<P>>,
}

/// An empty snapshot (manual impl: no `P: Default` bound is needed for an
/// empty buffer).
impl<P> Default for Snapshot<P> {
    fn default() -> Self {
        Snapshot {
            observations: Vec::new(),
        }
    }
}

impl<P: Point> Snapshot<P> {
    /// Creates a snapshot from perceived displacements.
    pub fn from_positions(positions: Vec<P>) -> Self {
        let mut snapshot = Snapshot::default();
        snapshot.refill(positions);
        snapshot
    }

    /// Releases the observation buffer (capacity intact) so a caller-side
    /// pool can reuse it for the next Look.
    pub fn into_buffer(self) -> Vec<ObservedRobot<P>> {
        self.observations
    }

    /// Drops all observations, keeping the buffer's capacity — the reset
    /// half of the engine's pooled-snapshot protocol.
    pub fn clear(&mut self) {
        self.observations.clear();
    }

    /// Appends one perceived displacement.
    pub fn push(&mut self, position: P) {
        self.observations.push(ObservedRobot { position });
    }

    /// Replaces the observations with `positions`, reusing the existing
    /// buffer — the allocation-free counterpart of
    /// [`Snapshot::from_positions`].
    pub fn refill(&mut self, positions: impl IntoIterator<Item = P>) {
        self.observations.clear();
        self.observations.extend(
            positions
                .into_iter()
                .map(|position| ObservedRobot { position }),
        );
    }

    /// Collapses co-located observations (within `eps`) into single ones —
    /// what a robot *without* multiplicity detection perceives (§2.2,
    /// footnote 4). Keeps the first observation of every co-located group,
    /// preserving order, in place without touching the allocator. Quadratic
    /// in the observation count — snapshots are `O(deg)` under limited
    /// visibility, so the constant matters more than the exponent.
    pub fn dedup_multiplicity(&mut self, eps: f64) {
        let mut kept = 0usize;
        for i in 0..self.observations.len() {
            let obs = self.observations[i];
            if !self.observations[..kept]
                .iter()
                .any(|k| k.position.dist(obs.position) <= eps)
            {
                self.observations[kept] = obs;
                kept += 1;
            }
        }
        self.observations.truncate(kept);
    }

    /// The observations (order is not meaningful — robots are anonymous).
    pub fn observations(&self) -> &[ObservedRobot<P>] {
        &self.observations
    }

    /// Perceived displacements only.
    pub fn positions(&self) -> impl Iterator<Item = P> + '_ {
        self.observations.iter().map(|o| o.position)
    }

    /// Number of perceived robots.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Returns `true` when nothing is visible.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Distance to the furthest perceived robot — the paper's tentative
    /// visibility lower bound `V_Z` (§3.2). `0` for an empty snapshot.
    pub fn furthest_distance(&self) -> f64 {
        self.observations
            .iter()
            .map(|o| o.position.norm())
            .fold(0.0, f64::max)
    }

    /// Distance to the closest perceived robot; `∞` for an empty snapshot.
    pub fn closest_distance(&self) -> f64 {
        self.observations
            .iter()
            .map(|o| o.position.norm())
            .fold(f64::INFINITY, f64::min)
    }

    /// Applies a transformation to every observation (used by the engine to
    /// move between frames and by error models to perturb perception).
    pub fn map(&self, mut f: impl FnMut(P) -> P) -> Snapshot<P> {
        Snapshot {
            observations: self
                .observations
                .iter()
                .map(|o| ObservedRobot {
                    position: f(o.position),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_geometry::Vec2;

    #[test]
    fn basic_queries() {
        let s = Snapshot::from_positions(vec![Vec2::new(3.0, 4.0), Vec2::new(1.0, 0.0)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.furthest_distance(), 5.0);
        assert_eq!(s.closest_distance(), 1.0);
    }

    #[test]
    fn empty_snapshot() {
        let s = Snapshot::<Vec2>::from_positions(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.furthest_distance(), 0.0);
        assert_eq!(s.closest_distance(), f64::INFINITY);
    }

    #[test]
    fn multiplicity_collapse() {
        let mut s = Snapshot::from_positions(vec![
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 1e-12),
            Vec2::new(0.0, 1.0),
        ]);
        s.dedup_multiplicity(1e-9);
        let kept: Vec<Vec2> = s.positions().collect();
        assert_eq!(kept, [Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)]);
    }

    #[test]
    fn map_transforms_positions() {
        let s = Snapshot::from_positions(vec![Vec2::new(1.0, 2.0)]);
        let doubled = s.map(|p| p * 2.0);
        assert_eq!(doubled.observations()[0].position, Vec2::new(2.0, 4.0));
    }

    #[test]
    fn pooled_refill_reuses_the_buffer() {
        let mut s = Snapshot::default();
        s.refill(vec![Vec2::new(1.0, 0.0), Vec2::new(2.0, 0.0)]);
        assert_eq!(s.len(), 2);
        let cap = s.observations.capacity();
        s.clear();
        assert!(s.is_empty());
        s.push(Vec2::new(3.0, 0.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.observations.capacity(), cap, "capacity survives clear");
        assert_eq!(s.furthest_distance(), 3.0);
    }

    #[test]
    fn buffer_roundtrip() {
        let s = Snapshot::from_positions(vec![Vec2::new(1.0, 0.0)]);
        let buf = s.into_buffer();
        assert_eq!(buf.len(), 1);
    }
}
