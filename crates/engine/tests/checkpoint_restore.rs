//! The checkpoint/restore contract: byte-for-byte resumption.
//!
//! Mirrors the session-equivalence suite's slice-invariance property one
//! level up: instead of pausing a *live* session, these tests serialize it
//! to a [`Checkpoint`], push the bytes through the JSON envelope (exactly
//! what hits disk in the distributed lab), restore onto a **freshly built**
//! same-spec session, and require the continued run's report to equal the
//! uninterrupted run's — across all five scheduler classes at random cut
//! points, plus the scripted Figure 4(a) adversary schedule.
//!
//! The integrity half of the contract is tested destructively: a checkpoint
//! file truncated at *any* byte, or with any state byte flipped, must be
//! rejected loudly (JSON or FNV-1a hash check) — never restored wrong.

use cohesion_engine::{Budget, Checkpoint, Simulation, SimulationBuilder};
use cohesion_geometry::Vec2;
use cohesion_model::visibility::GRID_THRESHOLD;
use cohesion_model::FrameMode;
use cohesion_scheduler::{
    AsyncScheduler, FSyncScheduler, KAsyncScheduler, NestAScheduler, SSyncScheduler, Scheduler,
};
use proptest::prelude::*;

/// One scheduler class under the frozen golden-case spec of the
/// session-equivalence suite (same config, seeds, budget, and monitor
/// cadences — so any divergence here is attributable to save/restore).
struct GoldenCase {
    label: &'static str,
    make: fn(u64) -> Box<dyn Scheduler>,
    k: u32,
}

const GOLDEN: [GoldenCase; 5] = [
    GoldenCase {
        label: "fsync",
        make: |_| Box::new(FSyncScheduler::new()),
        k: 1,
    },
    GoldenCase {
        label: "ssync",
        make: |s| Box::new(SSyncScheduler::new(s)),
        k: 1,
    },
    GoldenCase {
        label: "nest-a",
        make: |s| Box::new(NestAScheduler::new(2, s)),
        k: 2,
    },
    GoldenCase {
        label: "k-async",
        make: |s| Box::new(KAsyncScheduler::new(2, s)),
        k: 2,
    },
    GoldenCase {
        label: "async",
        make: |s| Box::new(AsyncScheduler::new(s)),
        k: 4,
    },
];

fn golden_builder(case: &GoldenCase) -> SimulationBuilder {
    SimulationBuilder::new(
        cohesion_workloads::random_connected(12, 1.0, 303),
        cohesion_core::KirkpatrickAlgorithm::new(case.k),
    )
    .visibility(1.0)
    .scheduler((case.make)(0x5E55_10F1))
    .seed(0xC0FF_EE00 + case.k as u64)
    .epsilon(0.05)
    .max_events(3_000)
    .track_strong_visibility(true)
    .hull_check_every(16)
    .diameter_sample_every(8)
}

fn figure4a_builder() -> SimulationBuilder {
    SimulationBuilder::new(
        cohesion_adversary::ando_counterexample::figure4_configuration(),
        cohesion_core::KirkpatrickAlgorithm::new(1),
    )
    .visibility(cohesion_adversary::ando_counterexample::V)
    .scheduler(cohesion_scheduler::ScriptedScheduler::new(
        "figure4",
        cohesion_adversary::ando_counterexample::figure4a_schedule(),
    ))
    .epsilon(1e-6)
    .frame_mode(FrameMode::Aligned)
}

/// A swarm of [`GRID_THRESHOLD`] or more robots, so the strong-visibility
/// monitor runs on its grid and a restore must re-index it. Gathering
/// moves under Async contract it fast, so it acquires hundreds of pairs
/// over the first thousand events.
const GRID_SIZED_N: usize = 48;
const _: () = assert!(GRID_SIZED_N >= GRID_THRESHOLD);

fn grid_sized_builder() -> SimulationBuilder {
    SimulationBuilder::new(
        cohesion_workloads::random_connected(GRID_SIZED_N, 1.0, 304),
        cohesion_algorithms::GcmAlgorithm::new(),
    )
    .visibility(1.0)
    .scheduler(AsyncScheduler::new(7))
    .seed(0xC0FF_EE30)
    .epsilon(0.05)
    .max_events(3_000)
    .track_strong_visibility(true)
    .hull_check_every(16)
    .diameter_sample_every(8)
}

/// Saves at `cut` events, round-trips the checkpoint through its JSON
/// envelope, restores onto a fresh same-spec session, and finishes both.
fn resume_after_cut(case: &GoldenCase, cut: usize) {
    resume_built_after_cut(case.label, || golden_builder(case), cut);
}

fn resume_built_after_cut(label: &str, builder: impl Fn() -> SimulationBuilder, cut: usize) {
    // The final state too, so monitor state the report does not show (the
    // strong-visibility acquired set) must also resume exactly.
    let mut whole = builder().build();
    while !whole.step().is_terminal() {}
    let end_state = whole.save().expect("final checkpoint");
    let uninterrupted = whole.into_report();

    let mut original = builder().build();
    original.run_for(Budget::events(cut));
    let checkpoint = original.save().expect("golden schedulers checkpoint");
    drop(original); // the process "died" here

    // Through the on-disk form, exactly as the lab worker writes/reads it.
    let revived = Checkpoint::from_json(&checkpoint.to_json()).expect("envelope round trip");
    assert_eq!(revived, checkpoint);

    let mut resumed = builder().build();
    resumed.restore(&revived).expect("restore onto same spec");
    while !resumed.step().is_terminal() {}
    assert_eq!(
        resumed.save().expect("final checkpoint"),
        end_state,
        "{label} cut at {cut}: resumed final state diverged"
    );
    assert_eq!(
        resumed.into_report(),
        uninterrupted,
        "{label} cut at {cut}: resumed report diverged"
    );
}

/// A fixed mid-run cut resumes byte-for-byte for every scheduler class.
#[test]
fn restore_resumes_byte_for_byte_at_a_fixed_cut() {
    for case in &GOLDEN {
        resume_after_cut(case, 1_234);
    }
}

/// A grid-sized swarm resumes byte-for-byte: the restored monitor
/// re-indexes its grid at the restored positions. Early in the run, while
/// pairs are still being acquired, a stale grid would miss or invent
/// acquisitions, so the states are also compared mid-run.
#[test]
fn grid_sized_swarm_resumes_byte_for_byte() {
    resume_built_after_cut("grid-sized async", grid_sized_builder, 1_234);
    let mut whole = grid_sized_builder().build();
    whole.run_for(Budget::events(600));
    let mut original = grid_sized_builder().build();
    original.run_for(Budget::events(300));
    let checkpoint = original.save().expect("checkpoint");
    let mut resumed = grid_sized_builder().build();
    resumed.restore(&checkpoint).expect("restore");
    resumed.run_for(Budget::events(300));
    assert_eq!(resumed.save(), whole.save());
}

/// Degenerate cuts: before the first event, and after the run terminated.
#[test]
fn restore_resumes_at_the_boundaries() {
    for case in &GOLDEN {
        resume_after_cut(case, 0);
        resume_after_cut(case, usize::MAX);
    }
}

/// The scripted Figure 4(a) adversary schedule — a finite queue-backed
/// scheduler — checkpoints mid-script and resumes byte-for-byte.
#[test]
fn scripted_schedule_resumes_byte_for_byte() {
    let uninterrupted = figure4a_builder().run();
    let mut original = figure4a_builder().build();
    original.run_for(Budget::events(5));
    let checkpoint = original.save().expect("scripted scheduler checkpoints");
    let mut resumed = figure4a_builder().build();
    resumed.restore(&checkpoint).expect("restore scripted run");
    while !resumed.step().is_terminal() {}
    assert_eq!(resumed.into_report(), uninterrupted);
}

/// Checkpoint chains — save, die, resume, save again, die again — the
/// distributed worker's periodic-checkpoint lifecycle.
#[test]
fn chained_checkpoints_resume_byte_for_byte() {
    let case = &GOLDEN[3]; // k-async: the most state-heavy generator
    let uninterrupted = golden_builder(case).run();

    let mut first = golden_builder(case).build();
    first.run_for(Budget::events(400));
    let ckpt_a = first.save().expect("first checkpoint");

    let mut second = golden_builder(case).build();
    second.restore(&ckpt_a).expect("first resume");
    second.run_for(Budget::events(500));
    let ckpt_b = second.save().expect("second checkpoint");

    let mut third = golden_builder(case).build();
    third.restore(&ckpt_b).expect("second resume");
    while !third.step().is_terminal() {}
    assert_eq!(third.into_report(), uninterrupted);
}

/// The strong-visibility state keeps its wire format: a mid-run save's
/// `acquired` words are the row-major `n × n` bitset an all-pairs sweep
/// over the same events builds.
#[test]
fn saved_acquired_words_match_the_all_pairs_bitset() {
    for case in &GOLDEN {
        saved_words_match_sweep(case.label, golden_builder(case));
    }
    saved_words_match_sweep("grid-sized async", grid_sized_builder());
}

fn saved_words_match_sweep(label: &str, builder: SimulationBuilder) {
    let mut session = builder.build();
    let positions = session.engine().configuration().positions().to_vec();
    let n = positions.len();
    let v = 1.0;
    let tol = 1e-9 * (1.0 + v);
    let mut oracle = vec![0u64; (n * n).div_ceil(64)];
    let mut sweep = |positions: &[Vec2]| {
        for a in 0..n {
            for b in (a + 1)..n {
                if positions[a].dist(positions[b]) <= v / 2.0 + tol {
                    oracle[(a * n + b) / 64] |= 1 << ((a * n + b) % 64);
                }
            }
        }
    };
    sweep(&positions);
    for _ in 0..1_234 {
        if session.step().is_terminal() {
            break;
        }
        let now = session.engine().configuration_at(session.time());
        sweep(now.positions());
    }
    let envelope = serde_json::from_str(&session.save().expect("checkpoint").to_json())
        .expect("envelope JSON");
    let state = serde_json::from_str(
        envelope
            .get("state")
            .and_then(|s| s.as_str())
            .expect("state"),
    )
    .expect("state JSON");
    let words: Vec<u64> = state
        .get("strong")
        .and_then(|s| s.get("acquired"))
        .and_then(|a| a.as_array())
        .expect("strong.acquired")
        .iter()
        .map(|w| w.as_u64().expect("u64 word"))
        .collect();
    assert!(oracle.iter().any(|&w| w != 0), "{label}: nothing acquired");
    assert_eq!(words, oracle, "{label}: acquired words diverged");
}

/// A checkpoint refuses to restore into a session built from a different
/// scenario (here: a different scheduler class — caught by the
/// fingerprint before any state is touched).
#[test]
fn restore_rejects_a_different_scenario() {
    let mut fsync = golden_builder(&GOLDEN[0]).build();
    fsync.run_for(Budget::events(100));
    let checkpoint = fsync.save().expect("checkpoint");
    let mut ssync = golden_builder(&GOLDEN[1]).build();
    let err = ssync.restore(&checkpoint).unwrap_err();
    assert!(err.contains("fingerprint"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Save/restore at a *random* event boundary reproduces the
    /// uninterrupted report byte-for-byte (the checkpoint counterpart of
    /// the equivalence suite's random-slice property).
    #[test]
    fn random_cuts_reproduce_the_uninterrupted_report(
        case_idx in 0usize..GOLDEN.len(),
        cut in 1usize..3_000,
    ) {
        resume_after_cut(&GOLDEN[case_idx], cut);
    }

    /// Torn-write rejection: a checkpoint file truncated at a random byte
    /// never restores — the JSON parse or the content-hash check fails.
    #[test]
    fn truncated_checkpoints_are_rejected(
        case_idx in 0usize..GOLDEN.len(),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut session = golden_builder(&GOLDEN[case_idx]).build();
        session.run_for(Budget::events(600));
        let json = session.save().expect("checkpoint").to_json();
        let cut = ((json.len() as f64 * cut_frac) as usize).clamp(1, json.len() - 1);
        prop_assert!(
            Checkpoint::from_json(&json[..cut]).is_err(),
            "truncation at byte {cut} of {} was accepted",
            json.len()
        );
    }

    /// Bit-flip rejection: corrupting any single byte of the embedded state
    /// trips the FNV-1a hash check.
    #[test]
    fn corrupted_state_bytes_are_rejected(flip_frac in 0.0f64..1.0) {
        let mut session = golden_builder(&GOLDEN[0]).build();
        session.run_for(Budget::events(600));
        let json = session.save().expect("checkpoint").to_json();
        // Corrupt one digit inside the state payload (digits stay valid
        // JSON, so the failure must come from the hash check, not the
        // parser).
        let digits: Vec<usize> = json
            .char_indices()
            .skip(json.find("\"state\"").expect("state field"))
            .filter(|&(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let target = digits[(flip_frac * (digits.len() - 1) as f64) as usize];
        let mut bytes = json.into_bytes();
        bytes[target] = if bytes[target] == b'9' { b'8' } else { b'9' };
        let tampered = String::from_utf8(bytes).expect("still utf-8");
        let err = Checkpoint::from_json(&tampered).unwrap_err();
        prop_assert!(
            err.contains("hash mismatch") || err.contains("not valid JSON"),
            "unexpected rejection: {err}"
        );
    }
}

/// The pair monitors' watch lists: `(cohesion, strong visibility)`.
type WatchLists = (Vec<(usize, usize)>, Vec<(usize, usize)>);

fn watch_lists(session: &Simulation) -> WatchLists {
    let strong = session
        .strong_visibility()
        .expect("strong visibility is tracked");
    (
        session.cohesion().watched().collect(),
        strong.watched().collect(),
    )
}

/// A cut mid-Move with pairs on the watch lists: the restored session
/// rebuilds the lists from the restored motion envelopes, equal to the
/// uninterrupted session's at the cut and at every event after it, and
/// finishes with the same report.
#[test]
fn watch_lists_rebuild_mid_move() {
    for (label, builder) in [
        (
            "grid-sized async",
            grid_sized_builder as fn() -> SimulationBuilder,
        ),
        ("k-async", || golden_builder(&GOLDEN[3])),
    ] {
        let mut whole = builder().build();
        let mut motile = Vec::new();
        loop {
            assert!(
                !whole.step().is_terminal(),
                "{label}: no mid-Move cut found"
            );
            whole.engine().collect_motile(&mut motile);
            let (cohesion, strong) = watch_lists(&whole);
            if whole.events() >= 100
                && !motile.is_empty()
                && !(cohesion.is_empty() && strong.is_empty())
            {
                break;
            }
        }
        let checkpoint = whole.save().expect("checkpoint");
        let mut resumed = builder().build();
        resumed.restore(&checkpoint).expect("restore");
        assert_eq!(
            watch_lists(&resumed),
            watch_lists(&whole),
            "{label}: rebuilt watch lists at the cut (event {})",
            whole.events()
        );
        loop {
            let (a, b) = (whole.step(), resumed.step());
            assert_eq!(a, b, "{label}: statuses diverged");
            assert_eq!(
                watch_lists(&resumed),
                watch_lists(&whole),
                "{label}: watch lists at event {}",
                whole.events()
            );
            if a.is_terminal() {
                break;
            }
        }
        assert_eq!(
            resumed.into_report(),
            whole.into_report(),
            "{label}: reports diverged"
        );
    }
}
