//! Membership-scaling and streaming experiments (E12, E15 of `DESIGN.md`):
//! deterministic NWA membership is linear in the document length with memory
//! proportional to the depth (§3.2), and document queries run in one pass
//! over SAX-style event streams — either from a materialized nested word or
//! fully incrementally from XML text via the bulk scanner's
//! `sax::ByteTokenizer` (`run_streaming_text`), without ever building the
//! document in memory.
//!
//! E15c adds the compiled execution engines (`query::compile`): interpreted
//! vs dense-table runners for `Nwa`, the tagged `Dfa` and `Nnwa` at
//! 10k/100k/1M events, plus the bytes-in → verdict-out throughput of the
//! byte-level SAX pipeline (`run_streaming_reader`). Running this bench
//! with `--format json` emits the measurements as `BENCH_streaming.json`
//! (see the criterion shim), which CI uploads and gates against the
//! checked-in baseline `BENCH_streaming.json` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nested_words_suite::nested_words::generate::{deep_word, random_nested_word, NestedWordConfig};
use nested_words_suite::nested_words::rng::Prng;
use nested_words_suite::nwa_xml::generate::{
    generate_deep_document, generate_document, DocumentConfig,
};
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, open_depth_at_most_nwa, run_streaming, run_streaming_reader,
    run_streaming_text, EVENT_SLICE,
};
use nested_words_suite::nwa_xml::sax::parse_document;
use nested_words_suite::nwa_xml::sax::{to_xml, FrozenByteTokenizer};
use nested_words_suite::nwa_xml::scan;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::time::Duration;

fn print_tables() {
    println!("== E12: membership is linear in length, memory proportional to depth ==");
    println!("{:>10} {:>8} {:>14}", "events", "depth", "peak stack");
    for depth in [4usize, 64, 512] {
        let (ab, doc) = generate_deep_document(depth, 4);
        let q = open_depth_at_most_nwa(depth, ab.len());
        let outcome = run_streaming(&q, &doc);
        println!(
            "{:>10} {:>8} {:>14}",
            doc.len(),
            doc.depth(),
            outcome.peak_memory
        );
    }

    println!("\n== E15: streaming document queries ==");
    println!(
        "{:>10} {:>10} {:>14} {:>10}",
        "events", "depth cap", "peak stack", "accepted"
    );
    for events in [10_000usize, 100_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            5,
        );
        let q = contains_tag_nwa(ab.lookup("t0").unwrap(), ab.len());
        let outcome = run_streaming(&q, &doc);
        println!(
            "{:>10} {:>10} {:>14} {:>10}",
            outcome.events, 32, outcome.peak_memory, outcome.accepted
        );
    }
    println!();
}

/// The depth-not-length claim, measured: the materialize-then-run path
/// stores every position of the document before the automaton sees the
/// first event, while the incremental path's live state is one stack entry
/// per open element. Both report the same answer.
fn print_memory_table() {
    println!("== E15b: materialize-then-run vs incremental streaming ==");
    println!(
        "{:>10} {:>12} {:>22} {:>22} {:>8}",
        "events", "xml bytes", "materialized positions", "incremental peak stack", "agree"
    );
    for events in [10_000usize, 100_000, 1_000_000] {
        let (mut ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let xml = to_xml(&doc, &ab);

        // materialize-then-run: parse the whole document, then decide
        let materialized = parse_document(&xml, &mut ab).unwrap();
        let batch_accepted = query::contains(&q, &materialized);

        // incremental: tokenizer events straight into the automaton
        let incremental = run_streaming_text(&q, &xml, &ab).unwrap();

        println!(
            "{:>10} {:>12} {:>22} {:>22} {:>8}",
            events,
            xml.len(),
            materialized.len(),
            incremental.peak_memory,
            batch_accepted == incremental.accepted
        );
        assert_eq!(batch_accepted, incremental.accepted);
        assert!(incremental.peak_memory <= 32);
    }
    println!();
}

/// The nondeterministic workload of E15c: "some matched call/return pair
/// both labelled b" over {a, b} — a genuine join, so the streaming run is
/// the summary-set subset construction.
fn some_b_block_nnwa() -> Nnwa {
    let a = Symbol(0);
    let b = Symbol(1);
    let mut n = Nnwa::new(3, 2);
    n.add_initial(0);
    n.add_accepting(2);
    for sym in [a, b] {
        n.add_internal(0, sym, 0);
        n.add_internal(2, sym, 2);
        n.add_call(0, sym, 0, 0);
        n.add_call(2, sym, 2, 0);
        for h in [0usize, 1] {
            n.add_return(0, h, sym, 0);
            n.add_return(2, h, sym, 2);
        }
    }
    n.add_call(0, b, 0, 1);
    n.add_return(0, 1, b, 2);
    n
}

/// E15c summary table: one quick pass per engine pair, with the agreement
/// asserted (the criterion groups below provide the recorded numbers).
fn print_compiled_table() {
    println!("== E15c: interpreted vs compiled execution engines ==");
    println!(
        "{:>10} {:>8} {:>22} {:>22} {:>8}",
        "events", "model", "interpreted (Mev/s)", "compiled (Mev/s)", "speedup"
    );
    let mevs = |events: usize, d: Duration| events as f64 / d.as_secs_f64() / 1e6;
    for events in [10_000usize, 100_000, 1_000_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let cq = query::compile(&q);
        let tagged: Vec<TaggedSymbol> = (0..doc.len())
            .map(|i| TaggedSymbol::new(doc.kind(i), doc.symbol(i)))
            .collect();
        let t = std::time::Instant::now();
        let interpreted = query::run_stream(&q, tagged.iter().copied());
        let t_int = t.elapsed();
        let t = std::time::Instant::now();
        let compiled = cq.run_tagged(&tagged);
        let t_comp = t.elapsed();
        assert_eq!(interpreted, compiled);
        println!(
            "{:>10} {:>8} {:>22.0} {:>22.0} {:>7.2}x",
            tagged.len(),
            "nwa",
            mevs(tagged.len(), t_int),
            mevs(tagged.len(), t_comp),
            t_int.as_secs_f64() / t_comp.as_secs_f64()
        );
    }
    println!();
}

fn bench_compiled(c: &mut Criterion) {
    print_compiled_table();

    // Interpreted vs compiled event engines, three models, three sizes.
    let mut group = c.benchmark_group("e15c_event_engines");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for events in [10_000usize, 100_000, 1_000_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let cq = query::compile(&q);
        let dfa = nested_words_suite::nwa::flat::to_tagged_dfa(&q);
        let cdfa = query::compile(&dfa);
        let tagged: Vec<TaggedSymbol> = (0..doc.len())
            .map(|i| TaggedSymbol::new(doc.kind(i), doc.symbol(i)))
            .collect();
        group.throughput(Throughput::Elements(tagged.len() as u64));

        // Deterministic NWA: premultiplied fused tables vs the interpreted
        // streaming run — the acceptance bar is ≥ 2× at 1M events.
        group.bench_with_input(
            BenchmarkId::new("interpreted_nwa", events),
            &tagged,
            |b, evs| b.iter(|| query::run_stream(&q, evs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_nwa", events),
            &tagged,
            |b, evs| b.iter(|| cq.run_tagged(evs)),
        );

        // The flat view (Theorem 2): the same query as a DFA over Σ̂.
        group.bench_with_input(
            BenchmarkId::new("interpreted_dfa", events),
            &tagged,
            |b, evs| b.iter(|| query::run_stream(&dfa, evs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_dfa", events),
            &tagged,
            |b, evs| b.iter(|| cdfa.run_tagged(evs)),
        );

        // Nondeterministic NWA: the interpreted on-the-fly subset
        // construction vs the memoized summary engine (compiled once,
        // cache shared across iterations — the steady state a server sees).
        let n = some_b_block_nnwa();
        let cn = query::compile(&n);
        let word = random_nested_word(
            &Alphabet::ab(),
            NestedWordConfig {
                len: events,
                allow_pending: true,
                ..Default::default()
            },
            11,
        );
        let nnwa_events = word.to_tagged();
        group.bench_with_input(
            BenchmarkId::new("interpreted_nnwa", events),
            &nnwa_events,
            |b, evs| b.iter(|| query::run_stream(&n, evs.iter().copied())),
        );
        group.bench_with_input(
            BenchmarkId::new("compiled_nnwa", events),
            &nnwa_events,
            |b, evs| b.iter(|| query::run_stream(&cn, evs.iter().copied())),
        );
        assert_eq!(
            query::contains_stream(&n, nnwa_events.iter().copied()),
            query::contains_stream(&cn, nnwa_events.iter().copied()),
        );
    }
    group.finish();

    // Bytes in, verdict out: the full byte-level pipeline (incremental
    // UTF-8 decode → SAX events → automaton), interpreted and compiled.
    // The plain rows are pinned to the portable SWAR backend; on a host
    // with a wide backend (AVX2/NEON) every row runs again as a `_simd`
    // row on it, so one run records both sides of the comparison CI gates
    // on. Runtime detection is restored after each size.
    let mut group = c.benchmark_group("e15c_bytes_to_verdict");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for events in [10_000usize, 100_000, 1_000_000] {
        let (ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 32,
                ..Default::default()
            },
            7,
        );
        let q = contains_tag_nwa(ab.lookup("t1").unwrap(), ab.len());
        let cq = query::compile(&q);
        let xml = to_xml(&doc, &ab);
        group.throughput(Throughput::Bytes(xml.len() as u64));
        assert!(scan::force_scan_backend(scan::ScanBackend::Swar));
        group.bench_with_input(
            BenchmarkId::new("bytes_interpreted", events),
            &xml,
            |b, xml| b.iter(|| run_streaming_reader(&q, xml.as_bytes(), &ab).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("bytes_compiled", events),
            &xml,
            |b, xml| b.iter(|| run_streaming_reader(&cq, xml.as_bytes(), &ab).unwrap()),
        );
        scan::auto_scan_backend();
        if scan::scan_backend() != scan::ScanBackend::Swar {
            group.bench_with_input(
                BenchmarkId::new("bytes_interpreted_simd", events),
                &xml,
                |b, xml| b.iter(|| run_streaming_reader(&q, xml.as_bytes(), &ab).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new("bytes_compiled_simd", events),
                &xml,
                |b, xml| b.iter(|| run_streaming_reader(&cq, xml.as_bytes(), &ab).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    print_tables();
    print_memory_table();

    let mut group = c.benchmark_group("e12_membership_scaling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let ab = Alphabet::with_size(4);
    // a fixed small query automaton: timing scales with the word length while
    // the stack grows with the depth
    let q = contains_tag_nwa(Symbol(0), 4);
    for len in [10_000usize, 100_000, 1_000_000] {
        // deep_word(depth, width) produces depth*(width+2) positions
        let depth = len / 12;
        let word = deep_word(&ab, depth, 10, 1);
        group.throughput(Throughput::Elements(word.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("det_membership", word.len()),
            &word,
            |b, w| b.iter(|| query::contains(&q, w)),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("e15_xml_streaming");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for events in [10_000usize, 100_000, 1_000_000] {
        let (mut doc_ab, doc) = generate_document(
            DocumentConfig {
                events,
                max_depth: 64,
                ..Default::default()
            },
            11,
        );
        let q = contains_tag_nwa(doc_ab.lookup("t1").unwrap(), doc_ab.len());
        let xml = to_xml(&doc, &doc_ab);

        group.throughput(Throughput::Elements(doc.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("contains_tag_batch", events),
            &doc,
            |b, d| b.iter(|| run_streaming(&q, d)),
        );
        // materialize-then-run: pay the parse and the full document on every
        // iteration, then decide
        group.bench_with_input(
            BenchmarkId::new("materialize_then_run", events),
            &xml,
            |b, xml| {
                b.iter(|| {
                    let doc = parse_document(xml, &mut doc_ab).unwrap();
                    run_streaming(&q, &doc)
                })
            },
        );
        // incremental: tokenizer events straight into the automaton, nothing
        // materialized
        group.bench_with_input(
            BenchmarkId::new("incremental_stream", events),
            &xml,
            |b, xml| b.iter(|| run_streaming_text(&q, xml, &doc_ab).unwrap()),
        );
    }
    group.finish();
}

/// The E15c document decorated with markup that produces no events: an XML
/// prolog, a comment before about one event in 64, and attributes on about
/// one open tag in four — the shape of perfbench's `service_mix` documents,
/// which sends the wide scanner's complex tokens down its scalar path.
fn to_decorated_xml(doc: &NestedWord, ab: &Alphabet, seed: u64) -> String {
    let mut rng = Prng::new(seed);
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    for t in doc.to_tagged() {
        if rng.below(64) == 0 {
            out.push_str("<!-- generated: no events here -->");
        }
        let name = ab.name(t.symbol()).expect("generated symbols are named");
        match t {
            TaggedSymbol::Call(_) if rng.below(4) == 0 => {
                out.push_str(&format!("<{name} id=\"n{}\" lang='en'>", rng.below(10_000)));
            }
            TaggedSymbol::Call(_) => out.push_str(&format!("<{name}>")),
            TaggedSymbol::Return(_) => out.push_str(&format!("</{name}>")),
            TaggedSymbol::Internal(_) => {
                if !out.ends_with('>') && !out.ends_with('\n') {
                    out.push(' ');
                }
                out.push_str(name);
            }
        }
    }
    out
}

/// Bytes → events alone, no engine: `FrozenByteTokenizer::fill` in
/// `EVENT_SLICE` slices over the 1M-event E15c document, plain and
/// decorated, each pinned to SWAR and again (`_simd`) on the detected wide
/// backend. The layer row under `e15c_bytes_to_verdict`; not gated.
fn bench_tokenize(c: &mut Criterion) {
    let (ab, doc) = generate_document(
        DocumentConfig {
            events: 1_000_000,
            max_depth: 32,
            ..Default::default()
        },
        7,
    );
    let tokenize = |xml: &str| {
        let mut tokenizer = FrozenByteTokenizer::new(xml.as_bytes(), &ab);
        let mut buffer = Vec::with_capacity(EVENT_SLICE);
        let mut events = 0usize;
        loop {
            buffer.clear();
            tokenizer.fill(&mut buffer, EVENT_SLICE).unwrap();
            if buffer.is_empty() {
                return events;
            }
            events += buffer.len();
        }
    };
    let mut group = c.benchmark_group("e15c_tokenize");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    for (form, xml) in [
        ("plain", to_xml(&doc, &ab)),
        ("decorated", to_decorated_xml(&doc, &ab, 11)),
    ] {
        assert_eq!(tokenize(&xml), doc.len());
        group.throughput(Throughput::Bytes(xml.len() as u64));
        assert!(scan::force_scan_backend(scan::ScanBackend::Swar));
        group.bench_with_input(BenchmarkId::new(form, doc.len()), &xml, |b, xml| {
            b.iter(|| tokenize(xml))
        });
        scan::auto_scan_backend();
        if scan::scan_backend() != scan::ScanBackend::Swar {
            group.bench_with_input(
                BenchmarkId::new(&format!("{form}_simd"), doc.len()),
                &xml,
                |b, xml| b.iter(|| tokenize(xml)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_streaming, bench_compiled, bench_tokenize);
criterion_main!(benches);
