//! Integration contract of the telemetry plane.
//!
//! Three properties carry the subsystem:
//!
//! 1. **Non-interference** — attaching a [`StoreObserver`] (with any
//!    number of subscribers, including ones that never poll or detach
//!    mid-run) leaves a session's report byte-identical to an unobserved
//!    run.
//! 2. **Bounded fan-out** — slow subscribers lose the oldest updates and
//!    are told exactly how many; publishers never block.
//! 3. **Ordered delivery** — per key and globally, updates arrive in
//!    publish order, stamped with a strictly increasing sequence.

use cohesion_engine::{SimulationBuilder, SimulationReport};
use cohesion_model::NilAlgorithm;
use cohesion_scheduler::{AsyncScheduler, Scheduler};
use cohesion_telemetry::{keys, Key, Metric, StateStore, StoreObserver, TelemetryValue};
use std::sync::Arc;

fn builder() -> SimulationBuilder {
    SimulationBuilder::new(
        cohesion_workloads::random_connected(10, 1.0, 77),
        NilAlgorithm,
    )
    .visibility(1.0)
    .scheduler(Box::new(AsyncScheduler::new(0xBEEF)) as Box<dyn Scheduler>)
    .seed(0xDEAD_0001)
    .max_events(4_000)
    .hull_check_every(16)
    .diameter_sample_every(8)
}

fn report_json(report: &SimulationReport) -> String {
    serde_json::to_string(report).expect("serialize report")
}

/// The observer publishes the standard engine tokens from a real session.
#[test]
fn store_observer_publishes_engine_tokens() {
    let store = StateStore::new();
    let mut session = builder().build();
    session.observe(StoreObserver::new(Arc::clone(&store)).publish_every(500));
    while !session.status().is_terminal() {
        session.step();
    }
    let events = store.get(keys::EVENTS).expect("events published");
    assert!(events >= 500, "cadence publishes happened");
    assert!(store.get(keys::SIM_TIME).is_some());
    assert!(store.get(keys::POSITIONS_DIGEST).is_some());
    assert!(store.get(keys::DIAMETER).is_some(), "samples published");
    assert!(store.get(keys::ROUNDS).is_some(), "rounds published");
}

/// Identical sessions publish identical position digests — and a resumed
/// subscriber attaching mid-run sees the same digest the full-stream
/// subscriber saw at that sequence point.
#[test]
fn positions_digest_is_reproducible() {
    let digest_of = |publish_every: usize| {
        let store = StateStore::new();
        let mut session = builder().build();
        session.observe(StoreObserver::new(Arc::clone(&store)).publish_every(publish_every));
        while !session.status().is_terminal() {
            session.step();
        }
        store.get(keys::POSITIONS_DIGEST).expect("digest published")
    };
    // Publish cadence changes how often we look, not what we see: both
    // cadences divide the event budget, so the final digest matches.
    assert_eq!(digest_of(1_000), digest_of(2_000));
}

/// Attaching the observer — with an un-polled (stalling) subscriber, a
/// subscriber that detaches mid-run, and no subscriber at all — leaves
/// the session report byte-identical to the unobserved run.
#[test]
fn observed_sessions_report_byte_identical() {
    let baseline = report_json(&builder().run());

    // Observer attached, nobody subscribed.
    let store = StateStore::new();
    let mut session = builder().build();
    session.observe(StoreObserver::new(Arc::clone(&store)).publish_every(250));
    while !session.status().is_terminal() {
        session.step();
    }
    assert_eq!(report_json(&session.into_report()), baseline);

    // A stalling subscriber (tiny queue, never polled) and one that
    // detaches mid-run.
    let store = StateStore::new();
    let stalling = store.subscribe(2);
    let detaching = store.subscribe(64);
    let mut session = builder().build();
    session.observe(StoreObserver::new(Arc::clone(&store)).publish_every(250));
    let mut steps = 0u32;
    let mut detaching = Some(detaching);
    while !session.status().is_terminal() {
        session.step();
        steps += 1;
        if steps == 1_000 {
            drop(detaching.take());
        }
    }
    assert_eq!(report_json(&session.into_report()), baseline);
    let drain = stalling.poll();
    assert_eq!(drain.updates.len(), 2, "stalled queue kept its capacity");
    assert!(drain.dropped > 0, "stalled subscriber was told its losses");
}

/// Publishers on several threads: every delivered update carries a unique,
/// strictly increasing sequence stamp, and drops are exactly accounted.
#[test]
fn concurrent_publishers_keep_global_order() {
    let store = StateStore::new();
    let sub = store.subscribe(1024);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..64u64 {
                    store.publish(keys::EVENTS, i);
                }
            });
        }
    });
    let drain = sub.poll();
    assert_eq!(drain.updates.len() as u64 + drain.dropped, 4 * 64);
    let mut prev = 0;
    for update in &drain.updates {
        assert!(update.seq > prev, "sequence stamps strictly increase");
        prev = update.seq;
    }
}

/// A subscriber that keeps up across many poll rounds sees every update
/// for a key, in publish order, with zero drops.
#[test]
fn ordered_delivery_per_key_across_polls() {
    let store = StateStore::new();
    let sub = store.subscribe(8);
    let mut seen: Vec<u64> = Vec::new();
    let mut dropped = 0;
    for i in 0..100u64 {
        store.publish(keys::ROUNDS, i);
        if i % 5 == 4 {
            let drain = sub.poll();
            dropped += drain.dropped;
            seen.extend(
                drain
                    .updates
                    .iter()
                    .filter(|u| u.key == keys::ROUNDS.name())
                    .map(|u| u64::from_value(&u.value).expect("u64 value")),
            );
        }
    }
    seen.extend(
        sub.poll()
            .updates
            .iter()
            .map(|u| u64::from_value(&u.value).expect("u64 value")),
    );
    assert_eq!(dropped, 0);
    assert_eq!(seen, (0..100).collect::<Vec<u64>>());
}

/// The newline-JSON form of a state update: one compact object per
/// update, value externally tagged by type. Pinned here so external
/// consumers can rely on it.
#[test]
fn state_update_wire_format() {
    let store = StateStore::new();
    let sub = store.subscribe(8);
    store.publish(keys::EVENTS, 5);
    store.publish(keys::DIAMETER, 0.5);
    const PHASE: Key<String> = Key::new("test/phase");
    const FLAG: Key<bool> = Key::new("test/flag");
    store.publish(PHASE, String::from("heartbeat"));
    store.publish(FLAG, true);
    let lines: Vec<String> = sub
        .poll()
        .updates
        .iter()
        .map(|u| serde_json::to_string(u).expect("serialize update"))
        .collect();
    assert_eq!(
        lines,
        vec![
            r#"{"seq":1,"key":"engine/events","value":{"U64":5}}"#,
            r#"{"seq":2,"key":"engine/diameter","value":{"F64":0.5}}"#,
            r#"{"seq":3,"key":"test/phase","value":{"Text":"heartbeat"}}"#,
            r#"{"seq":4,"key":"test/flag","value":{"Bool":true}}"#,
        ]
    );
    // And the store's snapshot view reads back typed.
    assert_eq!(store.get(PHASE), Some("heartbeat".to_string()));
    assert_eq!(
        store.get_raw("engine/diameter").map(|u| u.value),
        Some(TelemetryValue::F64(0.5))
    );
}
