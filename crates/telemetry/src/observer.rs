//! `StoreObserver`: the engine-layer bridge from a running [`Simulation`]
//! session to a [`StateStore`].
//!
//! Attach one with `Simulation::observe` and the session's monitor-grade
//! stream — event counts, round boundaries, diameter samples, cohesion
//! violations, and an FNV-1a digest of every robot's position bits — is
//! published into the store on a fixed event cadence. The observer is a
//! pure *reader* of the session: it never mutates engine state, never
//! reads a clock (rates are a timing-layer concern, not an engine one),
//! and its publishes land in a store that cannot block, so an attached
//! dashboard leaves the event stream — and therefore the row bytes —
//! untouched.
//!
//! [`Simulation`]: cohesion_engine::Simulation

use crate::keys;
use crate::store::StateStore;
use cohesion_engine::report::CohesionViolation;
use cohesion_engine::{fnv1a, EventView, Observer};
use cohesion_model::frame::Ambient;
use std::sync::Arc;

/// Default publish cadence, in engine events.
pub const DEFAULT_PUBLISH_EVERY: usize = 10_000;

/// An [`Observer`] that publishes session telemetry into a [`StateStore`].
pub struct StoreObserver {
    store: Arc<StateStore>,
    scope: Option<String>,
    publish_every: usize,
    events: u64,
    rounds: u64,
    violations: u64,
    digest_buf: Vec<u8>,
}

impl StoreObserver {
    /// An observer publishing into `store` under the un-prefixed standard
    /// tokens, every [`DEFAULT_PUBLISH_EVERY`] events.
    #[must_use]
    pub fn new(store: Arc<StateStore>) -> StoreObserver {
        StoreObserver {
            store,
            scope: None,
            publish_every: DEFAULT_PUBLISH_EVERY,
            events: 0,
            rounds: 0,
            violations: 0,
            digest_buf: Vec::new(),
        }
    }

    /// Prefixes every published key with `scope/` — how several observed
    /// sessions share one store.
    #[must_use]
    pub fn scoped(mut self, scope: impl Into<String>) -> StoreObserver {
        self.scope = Some(scope.into());
        self
    }

    /// Sets the event cadence for the per-event publishes (event count,
    /// simulated time, positions digest). Rounds, samples, and violations
    /// always publish immediately. A cadence of 0 disables the per-event
    /// publishes entirely.
    #[must_use]
    pub fn publish_every(mut self, events: usize) -> StoreObserver {
        self.publish_every = events;
        self
    }

    fn put_u64(&self, key: keys::Key<u64>, value: u64) {
        match &self.scope {
            Some(scope) => self.store.publish_scoped(scope, key, value),
            None => self.store.publish(key, value),
        }
    }

    fn put_f64(&self, key: keys::Key<f64>, value: f64) {
        match &self.scope {
            Some(scope) => self.store.publish_scoped(scope, key, value),
            None => self.store.publish(key, value),
        }
    }

    /// FNV-1a over the little-endian bit patterns of every coordinate of
    /// every position, in robot order. Bit-exact state comparison: two
    /// runs in the same state publish the same digest.
    fn positions_digest<P: Ambient>(&mut self, positions: &[P]) -> u64 {
        self.digest_buf.clear();
        for p in positions {
            for axis in 0..P::DIM {
                self.digest_buf
                    .extend_from_slice(&p.coord(axis).to_bits().to_le_bytes());
            }
        }
        fnv1a(&self.digest_buf)
    }
}

impl<P: Ambient> Observer<P> for StoreObserver {
    fn on_event(&mut self, view: &EventView<'_, P>) {
        self.events += 1;
        if self.publish_every == 0 || self.events % self.publish_every as u64 != 0 {
            return;
        }
        let digest = self.positions_digest(view.monitors.positions);
        self.put_u64(keys::EVENTS, self.events);
        self.put_f64(keys::SIM_TIME, view.monitors.time);
        self.put_u64(keys::POSITIONS_DIGEST, digest);
    }

    fn on_round(&mut self, round: usize, time: f64, diameter: f64) {
        self.rounds = round as u64;
        self.put_u64(keys::ROUNDS, self.rounds);
        self.put_f64(keys::SIM_TIME, time);
        self.put_f64(keys::DIAMETER, diameter);
    }

    fn on_violation(&mut self, _violation: &CohesionViolation) {
        self.violations += 1;
        self.put_u64(keys::VIOLATIONS, self.violations);
    }

    fn on_sample(&mut self, time: f64, diameter: f64) {
        self.put_f64(keys::SIM_TIME, time);
        self.put_f64(keys::DIAMETER, diameter);
    }
}
