//! Property tests for the multi-query subsystem: a compiled query set must
//! be *indistinguishable* from running its member queries one at a time —
//! at every prefix, on both backends, through serialization, and through
//! the combinator layer.
//!
//! The laws pinned here are the `automata_core::MultiAcceptor` contract:
//!
//! 1. **set ≡ sequential** — bit `i` of the set's verdict mask equals what
//!    a standalone run of query `i` observes, at every prefix, pending
//!    calls and pending returns included;
//! 2. **representation-free** — the product-table backend and the lockstep
//!    backend agree on the same seeds;
//! 3. **persistence** — `load(save(set)) == set` for both backends;
//! 4. **combinators** — lowering an `expr::Query` tree respects boolean
//!    semantics: `lower(a ∧ b)` accepts exactly when `lower(a)` and
//!    `lower(b)` both accept, and likewise for `∨` / `¬`;
//! 5. **chunking-free** — however a stream is cut into `step_slice` calls
//!    (with `step` mixed in), every observation at every seam is the one
//!    event-by-event standalone runs make.
//!
//! Cases are drawn from the suite's seeded generators (no crates.io access,
//! so no proptest); every failure is reproducible from the printed seed.

mod common;

use common::{prop_iters, random_det_nwa};
use nested_words_suite::nested_words::generate::{random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa_xml::expr::Query;
use nested_words_suite::prelude::*;
use nested_words_suite::query;

/// Random member queries over a common 2-symbol alphabet, with mixed state
/// counts so product-state decoding exercises a genuinely mixed radix.
fn random_queries(count: usize, seed: u64) -> Vec<Nwa> {
    (0..count)
        .map(|i| random_det_nwa(2 + (i % 3), 2, seed.wrapping_mul(97).wrapping_add(i as u64)))
        .collect()
}

/// Random nested words over the same alphabet, pending edges allowed — the
/// set must track pending calls and pending returns exactly like the
/// standalone runs do.
fn random_words(count: usize, base_seed: u64) -> Vec<NestedWord> {
    let ab = Alphabet::ab();
    let cfg = NestedWordConfig {
        len: 40,
        allow_pending: true,
        ..Default::default()
    };
    (0..count as u64)
        .map(|s| random_nested_word(&ab, cfg, base_seed.wrapping_add(s)))
        .collect()
}

/// Law 1 (and law 2 via the shared loop): on both backends, the set's
/// verdict mask, conjunction view and final outcomes match per-query
/// standalone runs at every prefix of every word.
#[test]
fn set_verdicts_match_sequential_runs_at_every_prefix() {
    for seed in 0..prop_iters(6) as u64 {
        let queries = random_queries(5, seed);
        let words = random_words(8, seed);
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let set = QuerySet::with_backend(&queries, backend);
            assert_eq!(set.backend(), backend);
            assert_eq!(MultiAcceptor::num_queries(&set), queries.len());
            for (wi, w) in words.iter().enumerate() {
                let events: Vec<TaggedSymbol> = w.to_tagged();
                let mut run = set.start_set();
                let mut solo: Vec<_> = queries.iter().map(|q| q.start()).collect();
                for (k, &event) in events.iter().enumerate() {
                    run.step(event);
                    let mut expected_mask = 0u64;
                    for (i, s) in solo.iter_mut().enumerate() {
                        s.step(event);
                        expected_mask |= u64::from(s.is_accepting()) << i;
                    }
                    assert_eq!(
                        run.verdicts(),
                        expected_mask,
                        "seed {seed}, {backend:?}, word {wi}, prefix {k}"
                    );
                    assert_eq!(
                        run.is_accepting(),
                        solo.iter().all(|s| s.is_accepting()),
                        "seed {seed}, {backend:?}, word {wi}, prefix {k}"
                    );
                    assert_eq!(run.stack_height(), solo[0].stack_height());
                    assert_eq!(run.peak_memory(), solo[0].peak_memory());
                }
                let outcomes = run.outcomes();
                assert_eq!(outcomes.len(), queries.len());
                for (i, q) in queries.iter().enumerate() {
                    let expected = query::run_stream(q, events.iter().copied());
                    assert_eq!(
                        outcomes[i], expected,
                        "seed {seed}, {backend:?}, word {wi}, query {i}"
                    );
                }
            }
        }
    }
}

/// Law 2, head to head: the two backends compiled from the same queries
/// produce identical verdict-mask traces — and `query::run_multi` over
/// the heuristic choice (`query::compile_set`) agrees with both.
#[test]
fn product_and_lockstep_backends_agree_on_the_same_seeds() {
    for seed in 0..prop_iters(8) as u64 {
        let queries = random_queries(4, seed);
        let product = QuerySet::with_backend(&queries, QuerySetBackend::Product);
        let lockstep = QuerySet::with_backend(&queries, QuerySetBackend::Lockstep);
        let heuristic = query::compile_set(&queries);
        for (wi, w) in random_words(6, seed ^ 0xA5A5).iter().enumerate() {
            let events: Vec<TaggedSymbol> = w.to_tagged();
            let mut p = product.start_set();
            let mut l = lockstep.start_set();
            for (k, &event) in events.iter().enumerate() {
                p.step(event);
                l.step(event);
                assert_eq!(
                    p.verdicts(),
                    l.verdicts(),
                    "seed {seed}, word {wi}, prefix {k}"
                );
            }
            assert_eq!(p.outcomes(), l.outcomes(), "seed {seed}, word {wi}");
            assert_eq!(
                query::run_multi(&heuristic, events.iter().copied()),
                p.outcomes(),
                "seed {seed}, word {wi}"
            );
        }
    }
}

/// Law 3: a set survives the facade's persistence verbs byte-exactly, on
/// both backends, and corruption is a typed error.
#[test]
fn query_sets_round_trip_through_save_and_load() {
    for seed in 0..prop_iters(10) as u64 {
        let queries = random_queries(3, seed);
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let set = QuerySet::with_backend(&queries, backend);
            let bytes = query::save(&set);
            let back: QuerySet = query::load(&bytes).unwrap_or_else(|e| {
                panic!("seed {seed}, {backend:?}: load failed: {e}");
            });
            assert_eq!(back, set, "seed {seed}, {backend:?}");
            assert_eq!(back.fingerprint(), set.fingerprint());
            // The reloaded set answers identically.
            let events: Vec<TaggedSymbol> = random_words(1, seed)[0].to_tagged();
            assert_eq!(
                query::run_multi(&back, events.iter().copied()),
                query::run_multi(&set, events.iter().copied()),
                "seed {seed}, {backend:?}"
            );
            // Truncation at any tail offset is a typed error, never a panic.
            for cut in [1usize, 7, 16] {
                assert!(
                    QuerySet::load(&bytes[..bytes.len().saturating_sub(cut)]).is_err(),
                    "seed {seed}, {backend:?}, cut {cut}"
                );
            }
        }
    }
}

/// A word deeper than 64 over the 2-symbol alphabet: stretches biased
/// toward calls alternate with stretches biased toward returns, so the
/// stack climbs past 64 open calls, drains to produce pending returns, and
/// usually ends with pending calls.
fn deep_word(len: usize, rng: &mut Prng) -> Vec<TaggedSymbol> {
    (0..len)
        .map(|i| {
            let a = Symbol(rng.below(2) as u16);
            let (p_call, p_ret) = if (i / 160) % 2 == 0 {
                (0.7, 0.2)
            } else {
                (0.15, 0.75)
            };
            let x = rng.f64();
            if x < p_call {
                TaggedSymbol::Call(a)
            } else if x < p_call + p_ret {
                TaggedSymbol::Return(a)
            } else {
                TaggedSymbol::Internal(a)
            }
        })
        .collect()
}

/// What a set must report after a prefix: the verdict mask, the
/// conjunction view, stack height, peak stack and step count.
type Observation = (u64, bool, usize, usize, usize);

/// The reference observation after every prefix (index = prefix length),
/// from one standalone interpreted `Nwa` run per query stepped event by
/// event.
fn standalone_trace(queries: &[Nwa], events: &[TaggedSymbol]) -> Vec<Observation> {
    let mut solo: Vec<_> = queries.iter().map(|q| q.start()).collect();
    let observe = |solo: &[<Nwa as StreamAcceptor>::Run<'_>]| {
        let mask = solo
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, s)| m | (u64::from(s.is_accepting()) << i));
        let conj = solo.iter().all(|s| s.is_accepting());
        (
            mask,
            conj,
            solo[0].stack_height(),
            solo[0].peak_memory(),
            solo[0].steps(),
        )
    };
    let mut trace = vec![observe(&solo)];
    for &event in events {
        for s in &mut solo {
            s.step(event);
        }
        trace.push(observe(&solo));
    }
    trace
}

/// How a word is cut into `step_slice` calls.
#[derive(Debug, Clone, Copy)]
enum Chunking {
    Fixed(usize),
    Whole,
    /// Random piece lengths, single events sometimes through `step`.
    Mixed,
}

/// The lockstep hot path: both backends fed through `step_slice` under
/// every chunking (and `step` interleaved), at M on both sides of the
/// four-member interleave, over words deeper than 64 whose pending calls
/// and returns straddle slice seams — every observation at every seam
/// equals the standalone interpreted runs.
#[test]
fn slice_path_matches_standalone_runs_at_every_seam() {
    let chunkings = [
        Chunking::Fixed(1),
        Chunking::Fixed(3),
        Chunking::Fixed(64),
        Chunking::Fixed(4096),
        Chunking::Whole,
        Chunking::Mixed,
    ];
    for seed in 0..prop_iters(2) as u64 {
        let mut rng = Prng::new(seed.wrapping_add(0x5EA7));
        // One word below the 4096 chunk, one past it.
        let words = [deep_word(700, &mut rng), deep_word(4500, &mut rng)];
        for m in [1usize, 3, 4, 5, 8, 16] {
            let queries = random_queries(m, seed.wrapping_add(m as u64));
            let backends: &[QuerySetBackend] = if m <= 4 {
                &[QuerySetBackend::Product, QuerySetBackend::Lockstep]
            } else {
                &[QuerySetBackend::Lockstep]
            };
            for (wi, events) in words.iter().enumerate() {
                let trace = standalone_trace(&queries, events);
                assert!(trace.iter().any(|o| o.2 > 64), "word {wi} is not deep");
                for &backend in backends {
                    let set = QuerySet::with_backend(&queries, backend);
                    for chunking in chunkings {
                        let mut run = set.start_set();
                        let mut at = 0;
                        while at < events.len() {
                            let len = match chunking {
                                Chunking::Fixed(n) => n,
                                Chunking::Whole => events.len(),
                                Chunking::Mixed => 1 + rng.below(80),
                            };
                            let end = (at + len).min(events.len());
                            if end - at == 1 && rng.bool(0.5) {
                                run.step(events[at]);
                            } else {
                                run.step_slice(&events[at..end]);
                            }
                            at = end;
                            let observed = (
                                run.verdicts(),
                                run.is_accepting(),
                                run.stack_height(),
                                run.peak_memory(),
                                run.steps(),
                            );
                            assert_eq!(
                                observed, trace[at],
                                "seed {seed}, M={m}, {backend:?}, {chunking:?}, word {wi}, \
                                 prefix {at}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// An event outside the set's alphabet is refused in every build profile:
/// the lockstep decode checks each symbol once for all members, where an
/// unchecked one would index into a neighbouring band of the table.
#[test]
#[should_panic(expected = "event symbol outside the query set's alphabet")]
fn lockstep_refuses_symbols_outside_the_alphabet() {
    let set = QuerySet::with_backend(&random_queries(5, 1), QuerySetBackend::Lockstep);
    let mut run = set.start_set();
    run.step_slice(&[
        TaggedSymbol::Call(Symbol(0)),
        TaggedSymbol::Internal(Symbol(2)),
    ]);
}

/// A random combinator tree over the document-query zoo.
fn random_query_expr(rng: &mut Prng, depth: usize) -> Query {
    if depth == 0 || rng.bool(0.35) {
        match rng.below(5) {
            0 => Query::contains(Symbol(rng.below(2) as u16)),
            1 => Query::in_order(vec![
                Symbol(rng.below(2) as u16),
                Symbol(rng.below(2) as u16),
            ]),
            2 => Query::depth_le(rng.below(3)),
            3 => Query::open_depth_le(rng.below(3)),
            _ => Query::within(Symbol(rng.below(2) as u16), Symbol(rng.below(2) as u16)),
        }
    } else {
        let a = random_query_expr(rng, depth - 1);
        match rng.below(3) {
            0 => a.and(random_query_expr(rng, depth - 1)),
            1 => a.or(random_query_expr(rng, depth - 1)),
            _ => a.not(),
        }
    }
}

/// The boolean reference semantics: leaves decided by their lowered
/// automata, connectives by plain logic.
fn eval_expr(q: &Query, w: &NestedWord, sigma: usize) -> bool {
    match q {
        Query::And(a, b) => eval_expr(a, w, sigma) && eval_expr(b, w, sigma),
        Query::Or(a, b) => eval_expr(a, w, sigma) || eval_expr(b, w, sigma),
        Query::Not(a) => !eval_expr(a, w, sigma),
        leaf => leaf.lower(sigma).accepts(w),
    }
}

/// Law 4: lowering a combinator tree through the `BooleanOps`
/// constructions is language-equivalent to composing the lowered leaves
/// with plain boolean logic — and the lowered trees make valid query-set
/// members.
#[test]
fn expr_lowering_matches_boolean_composition() {
    let sigma = Alphabet::ab().len();
    for seed in 0..prop_iters(12) as u64 {
        let mut rng = Prng::new(seed.wrapping_add(0x51C2));
        let exprs: Vec<Query> = (0..3).map(|_| random_query_expr(&mut rng, 2)).collect();
        let lowered: Vec<Nwa> = exprs.iter().map(|e| e.lower(sigma)).collect();
        let words = random_words(6, seed);
        for (wi, w) in words.iter().enumerate() {
            for (ei, (e, m)) in exprs.iter().zip(&lowered).enumerate() {
                assert_eq!(
                    m.accepts(w),
                    eval_expr(e, w, sigma),
                    "seed {seed}, word {wi}, expr {ei}: {e:?}"
                );
            }
        }
        // Lowered combinator queries run as a set like any other members.
        let set = query::compile_set(&lowered);
        for (wi, w) in words.iter().enumerate() {
            let events: Vec<TaggedSymbol> = w.to_tagged();
            let outcomes = query::run_multi(&set, events.iter().copied());
            for (ei, e) in exprs.iter().enumerate() {
                assert_eq!(
                    outcomes[ei].accepted,
                    eval_expr(e, w, sigma),
                    "seed {seed}, word {wi}, expr {ei}"
                );
            }
        }
    }
}
