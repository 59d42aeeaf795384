//! Property tests for the persistence subsystem (`Persist` / `Suspend`):
//!
//! * **round-trip equality** — `query::load(query::save(a)) == a`,
//!   structurally, for every compiled engine (warm memo caches included);
//! * **resume ≡ continue** — suspending at *every* prefix and resuming on
//!   a reloaded artifact observes the same verdict, step count and peak
//!   memory as the uninterrupted run at every subsequent prefix, pending
//!   edges included, and the final snapshots coincide;
//! * **run ↔ lane interchange** — `suspend_run` / `suspend_lane`
//!   snapshots resume as either kind of run;
//! * **typed rejection** — corrupt bytes (truncated anywhere, or any byte
//!   flipped, header and payload alike) and cross-artifact snapshots are
//!   typed [`PersistError`]s, never panics or silent misreads.
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed context.

mod common;

use common::{
    prop_iters, random_det_nwa, random_dfa, random_nnwa_with_transitions, random_stepwise,
};
use nested_words_suite::nested_words::generate::{
    random_nested_word, random_tree, NestedWordConfig,
};
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::prelude::*;
use nested_words_suite::query;

fn random_streams(count: usize, len: usize) -> Vec<Vec<TaggedSymbol>> {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len,
        allow_pending: true,
        ..Default::default()
    };
    (0..count as u64)
        .map(|seed| random_nested_word(&ab, cfg, seed).to_tagged())
        .collect()
}

fn tree_streams(count: usize) -> Vec<Vec<TaggedSymbol>> {
    let ab = Alphabet::ab();
    (0..count as u64)
        .map(|seed| random_tree(&ab, 9, 3, seed).to_tagged())
        .collect()
}

/// The resume ≡ continue law, checked exhaustively: for every prefix of
/// `events`, suspend there, resume on `load(save(artifact))`, and require
/// the continued run to observe exactly what the uninterrupted run
/// observes at every subsequent prefix — verdict, event count and peak
/// memory — with coinciding final snapshots.
fn check_suspend_everywhere<A: Suspend>(artifact: &A, events: &[TaggedSymbol], ctx: &str) {
    // The uninterrupted reference: observables at every prefix. (For the
    // memoizing summary engine this also warms the cache along the whole
    // stream, so the reload below ships every summary the cuts will need
    // and interned ids agree across the two artifacts.)
    let mut reference = Vec::with_capacity(events.len() + 1);
    let mut full = artifact.lane_start();
    reference.push(artifact.lane_outcome(&full));
    for &event in events {
        artifact.lane_step(&mut full, event);
        reference.push(artifact.lane_outcome(&full));
    }

    let reloaded: A = query::load(&query::save(artifact)).expect(ctx);
    for cut in 0..=events.len() {
        let mut lane = artifact.lane_start();
        for &event in &events[..cut] {
            artifact.lane_step(&mut lane, event);
        }
        let snapshot = query::suspend(artifact, &lane);
        // The snapshot round-trips through bytes like the artifact does.
        let snapshot = Snapshot::from_bytes(&snapshot.to_bytes()).expect(ctx);
        let mut resumed = query::resume(&reloaded, &snapshot).expect(ctx);
        assert_eq!(
            reloaded.lane_outcome(&resumed),
            reference[cut],
            "{ctx}, cut {cut}"
        );
        for (offset, &event) in events[cut..].iter().enumerate() {
            reloaded.lane_step(&mut resumed, event);
            assert_eq!(
                reloaded.lane_outcome(&resumed),
                reference[cut + 1 + offset],
                "{ctx}, cut {cut}, offset {offset}"
            );
        }
        assert_eq!(
            reloaded.suspend_lane(&resumed),
            artifact.suspend_lane(&full),
            "{ctx}, cut {cut}: final snapshots diverge"
        );
    }
}

/// The run ↔ lane interchange law at a single cut: a snapshot taken from a
/// borrowing run resumes as a lane and vice versa, with identical
/// observables either way.
fn check_run_lane_interchange<A: Suspend>(artifact: &A, events: &[TaggedSymbol], ctx: &str) {
    let cut = events.len() / 2;
    let mut run = artifact.start();
    let mut lane = artifact.lane_start();
    for &event in &events[..cut] {
        run.step(event);
        artifact.lane_step(&mut lane, event);
    }
    let from_run = artifact.suspend_run(&run);
    let from_lane = artifact.suspend_lane(&lane);
    assert_eq!(from_run, from_lane, "{ctx}: run and lane snapshots differ");

    let mut as_lane = artifact.resume_lane(&from_run).expect(ctx);
    let mut as_run = artifact.resume_run(&from_lane).expect(ctx);
    for &event in &events[cut..] {
        artifact.lane_step(&mut as_lane, event);
        as_run.step(event);
    }
    let lane_outcome = artifact.lane_outcome(&as_lane);
    assert_eq!(lane_outcome.accepted, as_run.is_accepting(), "{ctx}");
    assert_eq!(lane_outcome.events, as_run.steps(), "{ctx}");
    assert_eq!(lane_outcome.peak_memory, as_run.peak_memory(), "{ctx}");
}

/// Corruption of the byte image — truncation at every length, every byte
/// flipped — is a typed error, never a panic and never a silent `Ok`.
fn check_corruption_rejected<A: Suspend + std::fmt::Debug>(artifact: &A, ctx: &str) {
    let bytes = query::save(artifact);
    for cut in 0..bytes.len() {
        assert!(
            query::load::<A>(&bytes[..cut]).is_err(),
            "{ctx}: truncation to {cut} bytes decoded"
        );
    }
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(
            query::load::<A>(&bad).is_err(),
            "{ctx}: flipped byte {i} decoded"
        );
    }
}

#[test]
fn compiled_nwa_round_trips_and_resumes_everywhere() {
    let streams = random_streams(prop_iters(6), 18);
    for seed in 0..4u64 {
        let compiled = random_det_nwa(4, 2, seed).compile();
        let reloaded: CompiledNwa = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "seed {seed}");
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(&compiled, events, &format!("nwa seed {seed}, stream {i}"));
            check_run_lane_interchange(&compiled, events, &format!("nwa seed {seed}, stream {i}"));
        }
    }
}

#[test]
fn compiled_summary_engines_round_trip_and_resume_everywhere() {
    let streams = random_streams(prop_iters(4), 14);
    for seed in 0..3u64 {
        let nnwa = random_nnwa_with_transitions(3, 2, 9, seed);
        let compiled = nnwa.compile();
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(&compiled, events, &format!("nnwa seed {seed}, stream {i}"));
            check_run_lane_interchange(&compiled, events, &format!("nnwa seed {seed}, stream {i}"));
        }
        // After the runs above the memo cache is warm; the warm cache is
        // part of the artifact and of its structural equality.
        let reloaded: CompiledSummary<Nnwa> = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "nnwa seed {seed}");

        let joinless = joinless_from_nwa(&nnwa);
        let compiled = joinless.compile();
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(
                &compiled,
                events,
                &format!("joinless seed {seed}, stream {i}"),
            );
        }
        let reloaded: CompiledSummary<JoinlessNwa> = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "joinless seed {seed}");
    }
}

#[test]
fn compiled_tagged_dfa_round_trips_and_resumes_everywhere() {
    let streams = random_streams(prop_iters(6), 18);
    for seed in 0..4u64 {
        // A tagged DFA reads Σ̂, so the raw DFA has 3·σ symbols (σ = 2).
        let compiled = random_dfa(5, 6, seed).compile();
        let reloaded: CompiledTaggedDfa = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "seed {seed}");
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(&compiled, events, &format!("dfa seed {seed}, stream {i}"));
            check_run_lane_interchange(&compiled, events, &format!("dfa seed {seed}, stream {i}"));
        }
    }
}

#[test]
fn compiled_stepwise_ta_round_trips_and_resumes_everywhere() {
    // Both genuine tree encodings (meaningful verdicts) and arbitrary
    // nested-word streams (the engine parks them in its dead state — which
    // must survive suspension like any other state).
    let mut streams = tree_streams(prop_iters(4));
    streams.extend(random_streams(2, 12));
    for seed in 0..4u64 {
        let compiled = random_stepwise(3, 2, seed).compile();
        let reloaded: CompiledStepwiseTA = query::load(&query::save(&compiled)).unwrap();
        assert_eq!(reloaded, compiled, "seed {seed}");
        for (i, events) in streams.iter().enumerate() {
            check_suspend_everywhere(
                &compiled,
                events,
                &format!("stepwise seed {seed}, stream {i}"),
            );
            check_run_lane_interchange(
                &compiled,
                events,
                &format!("stepwise seed {seed}, stream {i}"),
            );
        }
    }
}

#[test]
fn corrupt_bytes_are_typed_errors_for_every_engine() {
    check_corruption_rejected(&random_det_nwa(3, 2, 7).compile(), "compiled nwa");
    check_corruption_rejected(&random_dfa(3, 6, 7).compile(), "compiled tagged dfa");
    check_corruption_rejected(&random_stepwise(3, 2, 7).compile(), "compiled stepwise ta");
    let nnwa = random_nnwa_with_transitions(3, 2, 8, 7);
    // Warm the cache so the corrupt image also sweeps the memo sections.
    let compiled = nnwa.compile();
    for events in random_streams(2, 10) {
        let mut lane = compiled.lane_start();
        for event in events {
            compiled.lane_step(&mut lane, event);
        }
    }
    check_corruption_rejected(&compiled, "compiled summary (warm cache)");
    check_corruption_rejected(&joinless_from_nwa(&nnwa).compile(), "compiled joinless");
}

/// A checksum-valid image whose memo-map length claims more rows than the
/// payload holds loads as a typed error instead of sizing an allocation by
/// the claim (2^40 rows used to abort the process, which no
/// `catch_unwind` can stop). The checksum proves integrity, not
/// authenticity, so every edited image is re-sealed and only the decoder
/// stands between the length field and the allocator.
#[test]
fn resealed_hostile_memo_lengths_are_typed_errors() {
    use nested_words_suite::automata_core::persist::{checksum_bytes, HEADER_LEN};

    let bytes = query::save(&random_nnwa_with_transitions(3, 2, 8, 7).compile());
    // A cold cache saves its four memo maps (internal, call, pending,
    // matched) last, as four zero row counts.
    let memo_at = bytes.len() - 4 * 8;
    assert!(
        bytes[memo_at..].iter().all(|&b| b == 0),
        "a cold image ends in four empty memo maps"
    );
    for map in 0..4 {
        for len in [1u64 << 20, 1 << 40, u64::MAX / 12, u64::MAX] {
            let mut hostile = bytes.clone();
            let at = memo_at + 8 * map;
            hostile[at..at + 8].copy_from_slice(&len.to_le_bytes());
            let checksum = checksum_bytes(&hostile[HEADER_LEN..]);
            hostile[24..32].copy_from_slice(&checksum.to_le_bytes());
            let err = query::load::<CompiledSummary<Nnwa>>(&hostile)
                .expect_err("an overlong memo map must not load");
            assert!(
                matches!(
                    err,
                    PersistError::Truncated { .. } | PersistError::Malformed { .. }
                ),
                "map {map}, length {len}: got {err:?}"
            );
        }
    }
}

#[test]
fn artifacts_reject_foreign_bytes_and_foreign_snapshots() {
    let nwa_artifact = random_det_nwa(3, 2, 1).compile();
    let dfa_artifact = random_dfa(3, 6, 1).compile();

    // Bytes of one kind do not load as another: typed WrongKind.
    assert!(matches!(
        query::load::<CompiledTaggedDfa>(&query::save(&nwa_artifact)),
        Err(PersistError::WrongKind { .. })
    ));
    assert!(matches!(
        query::load::<CompiledNwa>(&query::save(&dfa_artifact)),
        Err(PersistError::WrongKind { .. })
    ));

    // A snapshot parked by one artifact does not resume on a different
    // artifact of the same kind: typed FingerprintMismatch.
    let other = random_det_nwa(3, 2, 2).compile();
    let mut lane = nwa_artifact.lane_start();
    nwa_artifact.lane_step(&mut lane, TaggedSymbol::Call(Symbol(0)));
    let snapshot = query::suspend(&nwa_artifact, &lane);
    assert!(matches!(
        query::resume(&other, &snapshot),
        Err(PersistError::FingerprintMismatch { .. })
    ));
    // It does resume on a byte-identical reload.
    let reloaded: CompiledNwa = query::load(&query::save(&nwa_artifact)).unwrap();
    assert!(query::resume(&reloaded, &snapshot).is_ok());
}
