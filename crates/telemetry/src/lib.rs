//! `cohesion-telemetry` — the workspace's telemetry plane.
//!
//! A keyed state store with typed tokens and bounded-queue broadcast:
//!
//! * [`Key<T>`] — a static typed token per metric ([`keys`] holds the
//!   standard table: positions digest, violation counts, convergence
//!   diameter, events, rounds, simulated time).
//! * [`StateStore`] — writers [`publish`](StateStore::publish), any
//!   number of [`Subscription`]s receive ordered [`StateUpdate`]s through
//!   bounded queues with explicit drop accounting. A slow subscriber
//!   loses updates; it never blocks a publisher — which is what makes it
//!   safe to attach to a determinism-pinned simulation.
//! * [`StoreObserver`] — the engine adapter: attach to any `Simulation`
//!   session and its monitor/progress stream lands in a store.
//! * [`sync`] — the one audited concurrency module; the lab's progress
//!   sidecar writes through its [`Guarded`](sync::Guarded) lock.
//!
//! Determinism posture: this crate never reads a clock and never touches
//! the simulation it observes; all shared state funnels through [`sync`].
//! Reports are identical with zero or many subscribers attached — pinned
//! by `tests/store.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod keys;
pub mod observer;
pub mod store;
pub mod sync;

pub use keys::{Key, Metric, TelemetryValue};
pub use observer::{StoreObserver, DEFAULT_PUBLISH_EVERY};
pub use store::{Drain, StateStore, StateUpdate, Subscription, DEFAULT_QUEUE_CAPACITY};
