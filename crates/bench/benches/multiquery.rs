//! Multi-query amortization experiment (E19 of `DESIGN.md`): M document
//! queries answered by **one** pass over the byte stream via a compiled
//! `QuerySet` (`query::compile_set`) versus M independent passes, one per
//! individually compiled query. The tokenizer work — the dominant cost of
//! the bytes → verdict pipeline — is paid once instead of M times, so the
//! one-pass path amortizes it across the whole set.
//!
//! The acceptance bar gated by CI: at M = 16 the one-pass path must be at
//! least 2× the sequential path on the same run (`check_bench.py --filter
//! onepass --sibling onepass=sequential --min-speedup 2` against the
//! checked-in `BENCH_multiquery.json`). The `e19_backend` group times the
//! same pipeline at M = 4 on each backend, forced with
//! `QuerySet::with_backend`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nested_words_suite::nwa_xml::generate::{generate_document, DocumentConfig};
use nested_words_suite::nwa_xml::queries::{run_multi_streaming_reader, run_streaming_reader};
use nested_words_suite::nwa_xml::sax::to_xml;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use nested_words_suite::query::expr::Query;
use std::time::Duration;

/// Sixteen distinct document queries over the generated tag alphabet,
/// authored through the combinator layer: the zoo leaves plus a few
/// boolean compositions, all lowered to deterministic NWAs.
fn query_pool(ab: &Alphabet) -> Vec<Nwa> {
    let sigma = ab.len();
    let t = |name: &str| ab.lookup(name).unwrap();
    let (t0, t1, t2, t3) = (t("t0"), t("t1"), t("t2"), t("t3"));
    let exprs = [
        Query::contains(t0),
        Query::contains(t1),
        Query::contains(t2),
        Query::contains(t3),
        Query::in_order([t0, t1]),
        Query::in_order([t2, t3]),
        Query::in_order([t1, t0]),
        Query::within(t0, t1),
        Query::within(t1, t2),
        Query::within(t2, t3),
        Query::depth_le(4),
        Query::depth_le(8),
        Query::open_depth_le(16),
        Query::open_depth_le(30),
        Query::contains(t0).and(Query::contains(t1)),
        Query::within(t0, t3).or(Query::depth_le(2)),
    ];
    exprs.iter().map(|e| e.lower(sigma)).collect()
}

/// Quick agreement table: the set's verdicts versus per-query sequential
/// passes, asserted before the timed groups run.
fn print_multiquery_table(xml: &str, ab: &Alphabet, pool: &[Nwa]) {
    println!("== E19: one-pass multi-query vs sequential per-query passes ==");
    println!(
        "{:>4} {:>10} {:>14} {:>10}",
        "M", "backend", "table bytes", "agree"
    );
    for m in [4usize, 16] {
        let set = query::compile_set(&pool[..m]);
        let outcomes = run_multi_streaming_reader(&set, xml.as_bytes(), ab).unwrap();
        let mut agree = true;
        for (q, outcome) in pool[..m].iter().zip(&outcomes) {
            let solo = run_streaming_reader(&query::compile(q), xml.as_bytes(), ab).unwrap();
            agree &= solo == *outcome;
        }
        assert!(agree, "set verdicts diverged from sequential runs at M={m}");
        println!(
            "{:>4} {:>10} {:>14} {:>10}",
            m,
            format!("{:?}", set.backend()),
            set.table_bytes(),
            agree
        );
    }
    println!();
}

fn bench_multiquery(c: &mut Criterion) {
    // ~100k events of synthetic library XML; the byte count is the shared
    // throughput denominator, so per_sec ratios are pure time ratios.
    let (ab, doc) = generate_document(
        DocumentConfig {
            events: 100_000,
            max_depth: 32,
            ..Default::default()
        },
        7,
    );
    let xml = to_xml(&doc, &ab);
    let pool = query_pool(&ab);
    print_multiquery_table(&xml, &ab, &pool);

    let mut group = c.benchmark_group("e19_multiquery");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for m in [4usize, 16] {
        let set = query::compile_set(&pool[..m]);
        let solo: Vec<CompiledNwa> = pool[..m].iter().map(query::compile).collect();
        group.throughput(Throughput::Bytes(xml.len() as u64));

        // One tokenization pass feeding the compiled set: all M verdicts.
        group.bench_with_input(BenchmarkId::new("onepass", m), &xml, |b, xml| {
            b.iter(|| run_multi_streaming_reader(&set, xml.as_bytes(), &ab).unwrap())
        });
        // The status quo ante: M full bytes → verdict passes, one per query.
        group.bench_with_input(BenchmarkId::new("sequential", m), &xml, |b, xml| {
            b.iter(|| {
                solo.iter()
                    .map(|cq| run_streaming_reader(cq, xml.as_bytes(), &ab).unwrap())
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();

    // The same one-pass pipeline at M = 4 with each backend forced, so the
    // product table and the lockstep kernel each have their own row. The
    // ids avoid `onepass`, which the CI gate pairs with `sequential`.
    let mut group = c.benchmark_group("e19_backend");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    group.throughput(Throughput::Bytes(xml.len() as u64));
    for (name, backend) in [
        ("product", QuerySetBackend::Product),
        ("lockstep", QuerySetBackend::Lockstep),
    ] {
        let set = QuerySet::with_backend(&pool[..4], backend);
        group.bench_with_input(BenchmarkId::new(name, 4), &xml, |b, xml| {
            b.iter(|| run_multi_streaming_reader(&set, xml.as_bytes(), &ab).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multiquery);
criterion_main!(benches);
