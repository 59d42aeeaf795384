//! Property tests for the compiled execution engines: for every model
//! implementing `Compile`, the compiled artifact must be observationally
//! equivalent to the interpreted automaton — same acceptance, same event
//! counts, same stack heights and peak memory — at every prefix, on
//! Prng-random nested words (pending calls and returns included) and on the
//! paper's Theorem-3 succinctness families.
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed seed.
//! `NWA_PROP_ITERS` scales the iteration counts (see `tests/common`).

mod common;

use common::{prop_iters, random_det_nwa, random_nnwa_with_transitions};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::path;
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa::families::{path_family_nwa, path_family_tagged_dfa};
use nested_words_suite::nwa::joinless::joinless_from_nwa;
use nested_words_suite::nwa::summary::SummarySemantics;
use nested_words_suite::nwa_xml::queries::EVENT_SLICE;
use nested_words_suite::prelude::*;
use nested_words_suite::query;

fn random_words(count: usize) -> Vec<NestedWord> {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len: 40,
        allow_pending: true,
        ..Default::default()
    };
    (0..count as u64)
        .map(|seed| random_nested_word(&ab, cfg, seed))
        .collect()
}

/// Steps the interpreted and compiled runs in lockstep and asserts every
/// observable agrees at every prefix.
fn assert_runs_agree<A, C>(interpreted: &A, compiled: &C, events: &[TaggedSymbol], ctx: &str)
where
    A: StreamAcceptor,
    C: StreamAcceptor,
{
    let mut ir = interpreted.start();
    let mut cr = compiled.start();
    for (i, &event) in events.iter().enumerate() {
        ir.step(event);
        cr.step(event);
        assert_eq!(ir.is_accepting(), cr.is_accepting(), "{ctx}, prefix {i}");
        assert_eq!(ir.stack_height(), cr.stack_height(), "{ctx}, prefix {i}");
        assert_eq!(ir.peak_memory(), cr.peak_memory(), "{ctx}, prefix {i}");
        assert_eq!(ir.steps(), cr.steps(), "{ctx}, prefix {i}");
    }
}

/// Compiled ≡ interpreted for random deterministic NWAs: prefix-exact via
/// the streaming protocol, and outcome-exact via the bulk runner.
#[test]
fn compiled_nwa_equals_interpreted_on_random_words() {
    let words = random_words(prop_iters(60));
    for seed in 0..prop_iters(5) as u64 {
        let m = random_det_nwa(4, 2, seed);
        let c = query::compile(&m);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&m, &c, &events, &format!("nwa seed {seed}, word {i}"));
            assert_eq!(
                c.run_tagged(&events),
                query::run_stream(&m, events.iter().copied()),
                "bulk: nwa seed {seed}, word {i}"
            );
        }
    }
}

/// Compiled ≡ interpreted for random nondeterministic NWAs (the memoized
/// summary engine against the on-the-fly subset construction). One compiled
/// artifact serves every word, so later words run mostly on memoized rows —
/// exactly the cache path that must stay exact.
#[test]
fn compiled_nnwa_equals_interpreted_on_random_words() {
    let words = random_words(prop_iters(60));
    for seed in 0..prop_iters(4) as u64 {
        let n = random_nnwa_with_transitions(3, 2, 9, seed);
        let c = query::compile(&n);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&n, &c, &events, &format!("nnwa seed {seed}, word {i}"));
        }
    }
}

/// Compiled ≡ interpreted for joinless NWAs (the same memoized engine over
/// the mode-split return relation).
#[test]
fn compiled_joinless_equals_interpreted_on_random_words() {
    let words = random_words(prop_iters(40));
    for seed in 0..prop_iters(3) as u64 {
        let j = joinless_from_nwa(&random_nnwa_with_transitions(2, 2, 6, seed));
        let c = query::compile(&j);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&j, &c, &events, &format!("joinless seed {seed}, word {i}"));
        }
    }
}

/// Drives a summary engine through `events` in random slices — lengths in
/// `1..=EVENT_SLICE`, mostly short, so misses land mid-slice — and checks
/// it at every slice boundary against the interpreted subset construction
/// stepped event by event (verdict, height, peak, event count) and against
/// `accepts` on the prefix read so far.
fn assert_sliced_summary_run<A>(
    interpreted: &A,
    compiled: &CompiledSummary<A>,
    events: &[TaggedSymbol],
    rng: &mut Prng,
    ctx: &str,
) where
    A: SummarySemantics + StreamAcceptor + Acceptor<NestedWord>,
{
    let mut reference = interpreted.start();
    let mut lane = compiled.lane_start();
    let mut at = 0;
    while at < events.len() {
        let bound = if rng.bool(0.1) { EVENT_SLICE } else { 8 };
        let end = (at + 1 + rng.below(bound)).min(events.len());
        compiled.lane_step_slice(&mut lane, &events[at..end]);
        for &event in &events[at..end] {
            reference.step(event);
        }
        at = end;
        let outcome = compiled.lane_outcome(&lane);
        let ctx = format!("{ctx}, prefix {at}");
        assert_eq!(outcome.accepted, reference.is_accepting(), "{ctx}");
        assert_eq!(
            compiled.lane_height(&lane),
            reference.stack_height(),
            "{ctx}"
        );
        assert_eq!(outcome.peak_memory, reference.peak_memory(), "{ctx}");
        assert_eq!(outcome.events, at, "{ctx}");
        let prefix = NestedWord::from_tagged(&events[..at]);
        assert_eq!(outcome.accepted, interpreted.accepts(&prefix), "{ctx}");
    }
}

/// The dense memo table ≡ the interpreted subset construction ≡
/// `accepts`, for `Nnwa` and `JoinlessNwa`, on a cold engine (misses land
/// mid-slice and the kernel resumes at the missed event) and then on the
/// same engine warm (every step a dense hit, and nothing new derived).
#[test]
fn summary_engine_slices_match_interpreted_cold_and_warm() {
    let words = random_words(prop_iters(30));
    let mut rng = Prng::new(0x5EED);
    for seed in 0..prop_iters(3) as u64 {
        let n = random_nnwa_with_transitions(3, 2, 9, seed);
        let j = joinless_from_nwa(&n);
        let cn = query::compile(&n);
        let cj = query::compile(&j);
        for pass in ["cold", "warm"] {
            let summaries = (cn.cached_summaries(), cj.cached_summaries());
            for (i, w) in words.iter().enumerate() {
                let events = w.to_tagged();
                let ctx = format!("{pass} seed {seed}, word {i}");
                assert_sliced_summary_run(&n, &cn, &events, &mut rng, &format!("nnwa {ctx}"));
                assert_sliced_summary_run(&j, &cj, &events, &mut rng, &format!("joinless {ctx}"));
            }
            if pass == "warm" {
                assert_eq!((cn.cached_summaries(), cj.cached_summaries()), summaries);
            }
        }
        // The batch entry point runs the same kernel.
        let streams: Vec<Vec<TaggedSymbol>> = words.iter().map(NestedWord::to_tagged).collect();
        let slices: Vec<&[TaggedSymbol]> = streams.iter().map(Vec::as_slice).collect();
        for (w, outcome) in words.iter().zip(cn.run_batch(&slices)) {
            assert_eq!(outcome.accepted, n.accepts(w), "batch seed {seed}");
        }
    }
}

/// Compiled ≡ interpreted for tagged-alphabet DFAs.
#[test]
fn compiled_tagged_dfa_equals_interpreted_on_random_words() {
    let sigma = 2usize;
    let words = random_words(prop_iters(60));
    let mut rng = Prng::new(0xC0DE);
    for seed in 0..prop_iters(5) {
        let mut d = Dfa::new(3, 3 * sigma, 0);
        for q in 0..3 {
            d.set_accepting(q, rng.bool(0.5));
            for a in 0..3 * sigma {
                d.set_transition(q, a, rng.below(3));
            }
        }
        let c = query::compile(&d);
        for (i, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            assert_runs_agree(&d, &c, &events, &format!("dfa seed {seed}, word {i}"));
            assert_eq!(
                c.run_tagged(&events).accepted,
                query::contains_stream(&d, events.iter().copied()),
                "bulk: dfa seed {seed}, word {i}"
            );
        }
    }
}

/// The Theorem-3 succinctness family: the O(s)-state NWA and the 2^s-state
/// tagged DFA both compile, and both compiled artifacts agree with their
/// interpreted sources on members of L_s, near-misses, and random words.
#[test]
fn compiled_engines_agree_on_theorem3_families() {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len: 30,
        allow_pending: true,
        ..Default::default()
    };
    for s in 1..=4usize {
        let nwa = path_family_nwa(s);
        let dfa = path_family_tagged_dfa(s);
        let cn = query::compile(&nwa);
        let cd = query::compile(&dfa);

        // Members: every path word of length s; near-misses: lengths s±1.
        let mut inputs: Vec<NestedWord> = Vec::new();
        for len in [s.saturating_sub(1), s, s + 1] {
            for bits in 0..1usize << len {
                let word: Vec<Symbol> =
                    (0..len).map(|i| Symbol(((bits >> i) & 1) as u16)).collect();
                inputs.push(path::path(&word));
            }
        }
        for seed in 0..prop_iters(20) as u64 {
            inputs.push(random_nested_word(&ab, cfg, seed));
        }

        for (i, w) in inputs.iter().enumerate() {
            let events = w.to_tagged();
            let expected = query::contains(&nwa, w);
            assert_eq!(
                query::contains_stream(&cn, events.iter().copied()),
                expected,
                "s = {s}, input {i}: compiled NWA disagrees"
            );
            assert_eq!(
                cn.run_tagged(&events).accepted,
                expected,
                "s = {s}, input {i}: bulk compiled NWA disagrees"
            );
            assert_eq!(
                query::contains_stream(&cd, events.iter().copied()),
                query::contains_stream(&dfa, events.iter().copied()),
                "s = {s}, input {i}: compiled DFA disagrees with interpreted DFA"
            );
        }
    }
}

/// `query::compile` round-trips through the trait object the same way the
/// inherent method does, and compiled artifacts outlive their sources.
#[test]
fn compiled_artifacts_are_self_contained() {
    let m = random_det_nwa(3, 2, 42);
    let c = query::compile(&m);
    let words = random_words(10);
    let expected: Vec<bool> = words.iter().map(|w| query::contains(&m, w)).collect();
    drop(m);
    for (w, &e) in words.iter().zip(&expected) {
        assert_eq!(query::contains_stream(&c, w.to_tagged()), e);
    }
}
