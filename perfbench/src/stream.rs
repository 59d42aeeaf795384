//! The stream workloads: bytes→verdict on one thread over a corpus of large
//! documents, one pass after another, with tracing off or on.

use crate::corpus::{self, Rng};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, TimingReader, Tracer};
use crate::Args;
use nested_words_suite::nwa_xml::queries::{
    contains_tag_nwa, run_multi_streaming_reader, run_streaming_reader, EVENT_SLICE,
};
use nested_words_suite::nwa_xml::sax::{FrozenByteTokenizer, SaxError};
use nested_words_suite::nwa_xml::scan;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use nested_words_suite::query::expr::Query;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Documents in the corpus.
const DOCS: usize = 64;
/// Events per document: each one spans several scanner windows.
const DOC_EVENTS: usize = 64 * 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Documents decided once during set-up to warm tables and caches.
const WARM_DOCS: usize = 2;
/// Passes (of each kind, when traced) a run makes at least.
const MIN_PASSES: usize = 5;
/// A run stops measuring at the first pass boundary after this long.
const HARD_LIMIT: Duration = Duration::from_secs(120);

/// Which stream workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One deterministic query through `run_streaming_reader`.
    Single,
    /// Sixteen queries as one `QuerySet` through `run_multi_streaming_reader`.
    Multi16,
    /// One nondeterministic query on the compiled summary engine.
    Nondet,
}

/// The automata a workload compiles, built from their descriptions.
enum Queries {
    Det(Vec<Nwa>),
    Nondet(Nnwa),
}

/// A compiled, ready-to-serve engine.
enum Engine {
    Single(CompiledNwa),
    Nondet(Box<CompiledSummary<Nnwa>>),
    Multi(QuerySet),
}

/// One corpus document and its reference verdicts.
struct Doc {
    xml: Vec<u8>,
    events: usize,
    depth: usize,
    expected: Vec<bool>,
}

/// "Some matched `t` call/return pair": the nondeterministic NWA guesses
/// which `t` call to follow on its hierarchical edge, a genuine join, so the
/// engine runs the summary subset construction.
fn some_matched_pair(t: Symbol, sigma: usize) -> Nnwa {
    let mut n = Nnwa::new(3, sigma);
    n.add_initial(0);
    n.add_accepting(2);
    for a in 0..sigma {
        let sym = Symbol(a as u16);
        n.add_internal(0, sym, 0);
        n.add_internal(2, sym, 2);
        n.add_call(0, sym, 0, 0);
        n.add_call(2, sym, 2, 0);
        for h in [0usize, 1] {
            n.add_return(0, h, sym, 0);
            n.add_return(2, h, sym, 2);
        }
    }
    n.add_call(0, t, 0, 1);
    n.add_return(0, 1, t, 2);
    n
}

/// Sixteen document queries: tag presence, order, containment, depth and
/// two boolean compositions, all lowered to deterministic NWAs.
fn query_pool(sigma: usize) -> Vec<Nwa> {
    let t = corpus::tag;
    let exprs = [
        Query::contains(t(0)),
        Query::contains(t(1)),
        Query::contains(t(2)),
        Query::contains(t(3)),
        Query::in_order([t(0), t(1)]),
        Query::in_order([t(2), t(3)]),
        Query::in_order([t(4), t(5), t(6)]),
        Query::within(t(0), t(1)),
        Query::within(t(1), t(2)),
        Query::within(t(5), t(7)),
        Query::depth_le(8),
        Query::depth_le(16),
        Query::open_depth_le(12),
        Query::open_depth_le(24),
        Query::contains(t(0)).and(Query::contains(t(7))),
        Query::within(t(3), t(4)).or(Query::depth_le(6)),
    ];
    exprs.iter().map(|e| e.lower(sigma)).collect()
}

fn queries(kind: Kind, sigma: usize) -> Queries {
    match kind {
        Kind::Single => Queries::Det(vec![contains_tag_nwa(corpus::tag(7), sigma)]),
        Kind::Multi16 => Queries::Det(query_pool(sigma)),
        Kind::Nondet => Queries::Nondet(some_matched_pair(corpus::tag(1), sigma)),
    }
}

impl Queries {
    /// The reference verdicts: the interpreted automata over the
    /// generator's nested word.
    fn verdicts(&self, word: &NestedWord) -> Vec<bool> {
        match self {
            Queries::Det(qs) => qs.iter().map(|q| q.accepts(word)).collect(),
            Queries::Nondet(n) => vec![n.accepts(word)],
        }
    }

    fn compile(&self, kind: Kind) -> Engine {
        match (self, kind) {
            (Queries::Det(qs), Kind::Single) => Engine::Single(query::compile(&qs[0])),
            (Queries::Det(qs), _) => Engine::Multi(query::compile_set(qs)),
            (Queries::Nondet(n), _) => Engine::Nondet(Box::new(query::compile(n))),
        }
    }
}

fn outcome_of<R: StreamRun>(run: &R) -> StreamOutcome {
    StreamOutcome {
        accepted: run.is_accepting(),
        events: run.steps(),
        peak_memory: run.peak_memory(),
    }
}

impl Engine {
    /// Bytes→verdict through the library's own pipeline.
    fn decide(&self, xml: &[u8], ab: &Alphabet) -> Result<Vec<StreamOutcome>, SaxError> {
        match self {
            Engine::Single(e) => run_streaming_reader(e, xml, ab).map(|o| vec![o]),
            Engine::Nondet(e) => run_streaming_reader(&**e, xml, ab).map(|o| vec![o]),
            Engine::Multi(s) => run_multi_streaming_reader(s, xml, ab),
        }
    }

    /// The same pipeline driven by hand, with a span around every call into
    /// a layer; `kinds` (if given) counts the tokenized events by kind.
    fn decide_traced(
        &self,
        xml: &[u8],
        ab: &Alphabet,
        tracer: &RefCell<Tracer>,
        op: u32,
        kinds: Option<&mut [u64; 3]>,
    ) -> Result<Vec<StreamOutcome>, SaxError> {
        let engine = "engine.step_slice";
        Ok(match self {
            Engine::Single(e) => vec![outcome_of(&drive(
                e.start(),
                xml,
                ab,
                tracer,
                op,
                engine,
                kinds,
            )?)],
            Engine::Nondet(e) => vec![outcome_of(&drive(
                e.start(),
                xml,
                ab,
                tracer,
                op,
                engine,
                kinds,
            )?)],
            Engine::Multi(s) => drive(
                s.start_set(),
                xml,
                ab,
                tracer,
                op,
                "multi.step_slice",
                kinds,
            )?
            .outcomes(),
        })
    }
}

/// `run_streaming_reader` by hand: the frozen tokenizer over a timing
/// reader, `fill` and `step_slice` with the same slice length.
fn drive<R: StreamRun>(
    mut run: R,
    xml: &[u8],
    ab: &Alphabet,
    tracer: &RefCell<Tracer>,
    op: u32,
    step_span: &'static str,
    mut kinds: Option<&mut [u64; 3]>,
) -> Result<R, SaxError> {
    let mut tokenizer = FrozenByteTokenizer::new(TimingReader::new(xml, tracer, op), ab);
    let mut buffer: Vec<TaggedSymbol> = Vec::with_capacity(EVENT_SLICE);
    loop {
        let span = tracer.borrow_mut().enter("scan.fill", op, None);
        let filled = tokenizer.fill(&mut buffer, EVENT_SLICE);
        tracer.borrow_mut().exit(span);
        filled?;
        if buffer.is_empty() {
            break;
        }
        let span = tracer.borrow_mut().enter(step_span, op, None);
        run.step_slice(&buffer);
        tracer.borrow_mut().exit(span);
        if let Some(k) = kinds.as_deref_mut() {
            for e in &buffer {
                k[match e {
                    TaggedSymbol::Call(_) => 0,
                    TaggedSymbol::Return(_) => 1,
                    TaggedSymbol::Internal(_) => 2,
                }] += 1;
            }
        }
        buffer.clear();
    }
    Ok(run)
}

/// Whether an outcome list matches a document's reference: every verdict,
/// the event count, and a peak stack equal to the document's depth.
fn matches(doc: &Doc, out: &Result<Vec<StreamOutcome>, SaxError>) -> bool {
    match out {
        Ok(outs) => {
            outs.len() == doc.expected.len()
                && outs.iter().zip(&doc.expected).all(|(o, &e)| {
                    o.accepted == e && o.events == doc.events && o.peak_memory == doc.depth
                })
        }
        Err(_) => false,
    }
}

/// Runs one stream workload and fills `report`.
pub fn run(kind: Kind, args: &Args, report: &mut Report) {
    let ab = corpus::alphabet();
    let sigma = ab.len();
    let reference = queries(kind, sigma);

    // Inputs and reference verdicts: generated from the seed, untimed.
    let mut rng = Rng::new(args.seed, 1);
    let mut kinds_truth = [0u64; 3];
    let docs: Vec<Doc> = (0..DOCS)
        .map(|i| {
            let gen = corpus::generate(&mut rng, DOC_EVENTS, i);
            for e in &gen.events {
                kinds_truth[match e.kind() {
                    PositionKind::Call => 0,
                    PositionKind::Return => 1,
                    PositionKind::Internal => 2,
                }] += 1;
            }
            let word = NestedWord::from_tagged(&gen.events);
            Doc {
                xml: corpus::to_xml(&gen.events, &ab),
                events: gen.events.len(),
                depth: gen.depth,
                expected: reference.verdicts(&word),
            }
        })
        .collect();
    let corpus_bytes: usize = docs.iter().map(|d| d.xml.len()).sum();
    let corpus_events: usize = docs.iter().map(|d| d.events).sum();
    let max_depth = docs.iter().map(|d| d.depth).max().unwrap_or(0);
    let accepted: usize = docs
        .iter()
        .flat_map(|d| &d.expected)
        .filter(|&&v| v)
        .count();
    let rejected = docs.len() * docs[0].expected.len() - accepted;
    assert!(
        accepted > 0 && rejected > 0,
        "the corpus must hold accepted and rejected verdicts"
    );

    // Set-up: compile, then warm on the first documents. It is repeated
    // between passes, spread over the run like the passes themselves.
    let (mut compile_s, mut warm_s, mut setup_s) = (vec![], vec![], vec![]);
    let set_up = |report: &mut Report| {
        let t0 = Instant::now();
        let e = queries(kind, sigma).compile(kind);
        let t1 = Instant::now();
        for doc in &docs[..WARM_DOCS] {
            let out = e.decide(black_box(&doc.xml), &ab);
            report.attempted += 1;
            report.failed += u64::from(!matches(doc, &out));
        }
        let t2 = Instant::now();
        (e, [t0, t1, t2])
    };
    let mut record = |[t0, t1, t2]: [Instant; 3]| {
        compile_s.push((t1 - t0).as_secs_f64());
        warm_s.push((t2 - t1).as_secs_f64());
        setup_s.push((t2 - t0).as_secs_f64());
        setup_s.len()
    };
    let (engine, times) = set_up(report);
    let mut setups = record(times);

    // Measurement: whole passes over the corpus until the time is up.
    let tracer = RefCell::new(Tracer::new(if args.trace { 1 << 16 } else { 0 }));
    let mut plain_s: Vec<Vec<f64>> = vec![Vec::new(); docs.len()];
    let mut traced_s: Vec<Vec<f64>> = vec![Vec::new(); docs.len()];
    let mut traced_kinds = [0u64; 3];
    let mut op = 0u32;
    let mut peak_stack = 0usize;
    let started = Instant::now();
    for pass in 0.. {
        let traced = args.trace && pass % 2 == 1;
        let first_traced = traced && traced_s[0].is_empty();
        for (d, doc) in docs.iter().enumerate() {
            let (out, dt) = if traced {
                let kinds = first_traced.then_some(&mut traced_kinds);
                let root = tracer.borrow_mut().enter("op.doc", op, None);
                let t0 = Instant::now();
                let out = engine.decide_traced(black_box(&doc.xml), &ab, &tracer, op, kinds);
                let dt = t0.elapsed();
                tracer.borrow_mut().exit(root);
                op += 1;
                (out, dt)
            } else {
                let t0 = Instant::now();
                let out = engine.decide(black_box(&doc.xml), &ab);
                (out, t0.elapsed())
            };
            report.attempted += 1;
            report.failed += u64::from(!matches(doc, &out));
            if let Ok(outs) = &out {
                peak_stack = outs
                    .iter()
                    .map(|o| o.peak_memory)
                    .fold(peak_stack, usize::max);
            }
            let times = if traced { &mut traced_s } else { &mut plain_s };
            times[d].push(dt.as_secs_f64());
        }
        let elapsed = started.elapsed().as_secs_f64();
        while setups < SETUP_REPS && elapsed >= args.seconds * setups as f64 / SETUP_REPS as f64 {
            setups = record(set_up(report).1);
        }
        let passes = plain_s[0].len().min(if args.trace {
            traced_s[0].len()
        } else {
            usize::MAX
        });
        if (elapsed >= args.seconds && passes >= MIN_PASSES && setups == SETUP_REPS)
            || started.elapsed() >= HARD_LIMIT
        {
            break;
        }
    }
    while setups < SETUP_REPS {
        setups = record(set_up(report).1);
    }
    if args.trace && traced_kinds != kinds_truth {
        report.failed += 1;
    }
    // Each document's best time over the run's passes: interference from
    // other tenants of a shared machine only ever slows a pass down.
    let best_s = |times: &[Vec<f64>]| -> Vec<f64> {
        times
            .iter()
            .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    };
    let corpus_s = |times: &[Vec<f64>]| best_s(times).iter().sum::<f64>();

    // Metadata.
    report.meta_num("docs", DOCS as f64);
    report.meta_num("corpus_bytes", corpus_bytes as f64);
    report.meta_num("corpus_events", corpus_events as f64);
    report.meta_num("corpus_max_depth", max_depth as f64);
    report.meta_num("depth_bound", corpus::DEPTH_BOUND as f64);
    report.meta_num("verdicts_accepted", accepted as f64);
    report.meta_num("verdicts_rejected", rejected as f64);
    report.meta_num("passes_plain", plain_s[0].len() as f64);
    report.meta_num("passes_traced", traced_s[0].len() as f64);
    report.meta_num("workers", 1.0);
    report.meta_str("scan_backend", &format!("{:?}", scan::scan_backend()));
    match &engine {
        Engine::Multi(set) => {
            report.meta_str("queryset_backend", &format!("{:?}", set.backend()));
            report.meta_num("queryset_table_bytes", set.table_bytes() as f64);
        }
        Engine::Nondet(e) => report.meta_num("cached_summaries", e.cached_summaries() as f64),
        Engine::Single(e) => report.meta_num("table_bytes", e.table_bytes() as f64),
    }

    let mb = corpus_bytes as f64 / 1e6;
    if !args.trace {
        let best = best_s(&plain_s);
        let doc_mb_s: Vec<f64> = docs
            .iter()
            .zip(&best)
            .map(|(doc, s)| doc.xml.len() as f64 / 1e6 / s)
            .collect();
        report.metric("throughput_mb_s", median(&doc_mb_s));
        report.metric("latency_p50_us", median(&best) * 1e6);
        report.meta_num("corpus_mb_s", mb / corpus_s(&plain_s));
        report.metric("setup_s", median(&setup_s));
        return;
    }

    // Per-layer numbers from the traced passes.
    let tracer = tracer.into_inner();
    let spans = tracer.spans();
    let layers = trace::self_by_layer(spans);
    let root_ns: f64 = trace::durations_us(spans, "op.doc").iter().sum::<f64>() * 1e3;
    let traced_events = (corpus_events * traced_s[0].len()) as f64;
    let traced_mb = mb * traced_s[0].len() as f64;
    let share = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / root_ns;
    let ns = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64;
    report.metric("read.busy_share", share("read"));
    report.metric("scan.busy_share", share("scan"));
    report.metric("scan.ns_per_event", ns("scan") / traced_events);
    report.metric("scan.mb_s", traced_mb / (ns("scan") / 1e9));
    report.metric("scan.events_call", kinds_truth[0] as f64);
    report.metric("scan.events_return", kinds_truth[1] as f64);
    report.metric("scan.events_internal", kinds_truth[2] as f64);
    report.metric("engine.busy_share", share("engine"));
    report.metric("engine.ns_per_event", ns("engine") / traced_events);
    report.metric("multi.busy_share", share("multi"));
    report.metric("multi.ns_per_event", ns("multi") / traced_events);
    if let Engine::Multi(set) = &engine {
        report.metric("multi.table_bytes", set.table_bytes() as f64);
    }
    report.metric("engine.peak_stack", peak_stack as f64);
    report.metric("compile.s", median(&compile_s));
    report.metric("warm.s", median(&warm_s));
    report.metric("trace.unattributed_share", share("op"));
    report.metric(
        "trace.overhead_share",
        corpus_s(&traced_s) / corpus_s(&plain_s) - 1.0,
    );
    report.meta_num("traced_wall_s", root_ns / 1e9);
    report.meta_num("spans", spans.len() as f64);
    crate::write_trace(&tracer, args);
    report.not_reached(&["multi", "service", "persist", "gen"]);
}
