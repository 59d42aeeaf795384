//! The `service_mix` workload: an open loop at one fixed offered rate
//! against a `DecisionService<CompiledNwa>` booted from artifact bytes.
//!
//! One generator thread sends every operation at its scheduled time,
//! whatever the service is doing, and observes completions between sends.
//! Most operations submit a whole decorated document through
//! `submit_bytes`; about one in eight instead parks a session: it opens a
//! document, advances it in a few bursts, round-trips the `ParkedDoc`
//! through bytes between bursts, and finishes it. Every latency runs from
//! the operation's scheduled send time to the moment its verdict is seen.

use crate::corpus::{self, Rng};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{self, TimingReader, Tracer};
use crate::Args;
use nested_words_suite::nwa_service::DecisionHandle;
use nested_words_suite::nwa_xml::queries::within_nwa;
use nested_words_suite::nwa_xml::sax::FrozenByteTokenizer;
use nested_words_suite::nwa_xml::scan;
use nested_words_suite::prelude::*;
use nested_words_suite::query;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Operations offered per second: about 40% of the capacity measured by
/// sending back to back (about 7,700 a second with one worker on a 2-vCPU
/// x86-64 VM), so the queue stays short and latency reflects service time,
/// not backlog.
const OFFERED_RATE: f64 = 3000.0;
/// Distinct documents the operations draw from.
const DOCS: usize = 256;
/// Events per document.
const DOC_EVENTS: usize = 2048;
/// One operation in this many is a parked session.
const PARKED_ONE_IN: usize = 8;
/// Bursts a parked session is advanced in.
const BURSTS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Pause between set-ups.
const SETUP_GAP: Duration = Duration::from_millis(500);
/// Whole documents decided during each set-up's warm-up.
const WARM_OPS: usize = 32;
/// Equal stretches an untraced run is split into for `latency_p50_us`.
const STRETCHES: usize = 25;
/// Traced runs alternate untraced and traced blocks of this length.
const TRACE_BLOCK: Duration = Duration::from_secs(1);

/// One decorated document and its reference.
struct Doc {
    xml: Vec<u8>,
    events: usize,
    depth: usize,
    expected: bool,
}

fn correct(doc: &Doc, out: &StreamOutcome) -> bool {
    out.accepted == doc.expected && out.events == doc.events && out.peak_memory == doc.depth
}

/// What a sent operation is waiting for.
enum Waiting {
    Decide(DecisionHandle),
    Advance {
        handle: ParkedHandle,
        bursts: VecDeque<Vec<TaggedSymbol>>,
    },
}

/// An operation in flight.
struct Pending {
    op: u32,
    doc: usize,
    scheduled: Instant,
    /// When the call now awaited returned: the start of its wait.
    since: Instant,
    /// The operation's root span, when traced.
    root: Option<u32>,
    waiting: Waiting,
}

impl Pending {
    fn done(&self) -> bool {
        match &self.waiting {
            Waiting::Decide(h) => h.try_outcome().is_some(),
            Waiting::Advance { handle, .. } => handle.try_parked().is_some(),
        }
    }
}

/// Runs `f` inside a span when tracing.
fn span<T>(
    tracer: Option<&RefCell<Tracer>>,
    name: &'static str,
    op: u32,
    parent: Option<u32>,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = tracer else { return f() };
    let id = t.borrow_mut().enter(name, op, parent);
    let out = f();
    t.borrow_mut().exit(id);
    out
}

/// The open-loop generator's state and its observations.
struct Generator<'a> {
    svc: &'a DecisionService<CompiledNwa>,
    docs: &'a [Doc],
    tracer: &'a RefCell<Tracer>,
    pending: VecDeque<Pending>,
    attempted: u64,
    failed: u64,
    plain_latency_us: Vec<f64>,
    /// The operation number of each untraced latency.
    plain_op: Vec<u32>,
    traced_latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    parked_bytes: Vec<f64>,
    bytes_decided: u64,
    traced_events: u64,
    traced_bytes: u64,
    peak_stack: usize,
    last_done: Option<Instant>,
}

impl Generator<'_> {
    /// Sends operation `op` for document `doc`, now.
    fn send(&mut self, op: u32, doc: usize, scheduled: Instant, parked: bool, traced: bool) {
        let now = Instant::now();
        self.lag_us.push((now - scheduled).as_secs_f64() * 1e6);
        self.attempted += 1;
        let tr = traced.then_some(self.tracer);
        let root = tr.map(|t| {
            let mut t = t.borrow_mut();
            let at = t.ns(scheduled);
            t.record("op.request", op, None, at, at)
        });
        let xml = self.docs[doc].xml.as_slice();
        if traced {
            self.traced_events += self.docs[doc].events as u64;
            self.traced_bytes += xml.len() as u64;
        }
        let waiting = if parked {
            let svc = self.svc;
            let session = span(tr, "service.open", op, root, || svc.open_document());
            let events = span(tr, "scan.tokenize", op, root, || match tr {
                Some(t) => FrozenByteTokenizer::new(TimingReader::new(xml, t, op), svc.alphabet())
                    .collect::<Result<Vec<_>, _>>(),
                None => FrozenByteTokenizer::new(xml, svc.alphabet()).collect(),
            });
            let Ok(events) = events else {
                return self.fail(root);
            };
            let per = events.len().div_ceil(BURSTS).max(1);
            let mut bursts: VecDeque<Vec<TaggedSymbol>> =
                events.chunks(per).map(<[TaggedSymbol]>::to_vec).collect();
            let first = bursts.pop_front().unwrap_or_default();
            match span(tr, "service.advance", op, root, || {
                svc.advance(&session, first)
            }) {
                Ok(handle) => Waiting::Advance { handle, bursts },
                Err(_) => return self.fail(root),
            }
        } else {
            let submitted = span(tr, "service.submit", op, root, || match tr {
                Some(t) => self.svc.submit_bytes(TimingReader::new(xml, t, op)),
                None => self.svc.submit_bytes(xml),
            });
            match submitted {
                Ok(h) => Waiting::Decide(h),
                Err(_) => return self.fail(root),
            }
        };
        self.pending.push_back(Pending {
            op,
            doc,
            scheduled,
            since: Instant::now(),
            root,
            waiting,
        });
    }

    fn fail(&mut self, root: Option<u32>) {
        self.failed += 1;
        if let Some(r) = root {
            let mut t = self.tracer.borrow_mut();
            let now = t.now();
            t.close(r, now);
        }
    }

    /// Collects every finished operation; a parked session whose burst
    /// finished is round-tripped and advanced again, or finished.
    fn harvest(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].done() {
                i += 1;
                continue;
            }
            let p = self.pending.remove(i).expect("index in range");
            let seen = Instant::now();
            let tr = p.root.map(|_| self.tracer);
            if let Some(t) = tr {
                let mut t = t.borrow_mut();
                let (a, b) = (t.ns(p.since), t.ns(seen));
                t.record("service.wait", p.op, p.root, a, b);
            }
            let outcome = match p.waiting {
                Waiting::Decide(h) => h.try_outcome().expect("done").map_err(|_| ()),
                Waiting::Advance { handle, mut bursts } => {
                    let Ok(doc) = handle.try_parked().expect("done") else {
                        self.fail(p.root);
                        continue;
                    };
                    let bytes = span(tr, "persist.roundtrip", p.op, p.root, || {
                        let bytes = doc.to_bytes();
                        ParkedDoc::from_bytes(&bytes).map(|d| (d, bytes.len()))
                    });
                    let Ok((doc, len)) = bytes else {
                        self.fail(p.root);
                        continue;
                    };
                    self.parked_bytes.push(len as f64);
                    if let Some(burst) = bursts.pop_front() {
                        let svc = self.svc;
                        match span(tr, "service.advance", p.op, p.root, || {
                            svc.advance(&doc, burst)
                        }) {
                            Ok(handle) => {
                                let waiting = Waiting::Advance { handle, bursts };
                                let since = Instant::now();
                                self.pending.insert(
                                    i,
                                    Pending {
                                        since,
                                        waiting,
                                        ..p
                                    },
                                );
                                i += 1;
                            }
                            Err(_) => self.fail(p.root),
                        }
                        continue;
                    }
                    span(tr, "service.finish", p.op, p.root, || self.svc.finish(&doc))
                        .map_err(|_| ())
                }
            };
            let seen = Instant::now();
            let doc = &self.docs[p.doc];
            match outcome {
                Ok(out) if correct(doc, &out) => {
                    self.peak_stack = self.peak_stack.max(out.peak_memory);
                    self.bytes_decided += doc.xml.len() as u64;
                    let latency = (seen - p.scheduled).as_secs_f64() * 1e6;
                    match p.root {
                        Some(r) => {
                            let mut t = self.tracer.borrow_mut();
                            let end = t.ns(seen);
                            t.close(r, end);
                            self.traced_latency_us.push(latency);
                        }
                        None => {
                            self.plain_latency_us.push(latency);
                            self.plain_op.push(p.op);
                        }
                    }
                    self.last_done = Some(seen);
                }
                _ => self.fail(p.root),
            }
        }
    }

    /// Spins until `deadline`, or until the oldest operation in flight has
    /// finished. The generator never blocks: a blocked thread wakes late,
    /// which would add its own delay to the schedule and to every latency.
    fn wait_until(&self, deadline: Instant) {
        while Instant::now() < deadline {
            if self.pending.front().is_some_and(Pending::done) {
                return;
            }
            std::hint::spin_loop();
        }
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let ab = corpus::alphabet();
    let sigma = ab.len();
    let describe = || within_nwa(corpus::tag(1), corpus::tag(6), sigma);
    let reference = describe();

    let mut rng = Rng::new(args.seed, 2);
    let mut kinds = [0u64; 3];
    let docs: Vec<Doc> = (0..DOCS)
        .map(|i| {
            let gen = corpus::generate(&mut rng, DOC_EVENTS, i);
            for e in &gen.events {
                kinds[match e.kind() {
                    PositionKind::Call => 0,
                    PositionKind::Return => 1,
                    PositionKind::Internal => 2,
                }] += 1;
            }
            Doc {
                xml: corpus::to_decorated_xml(&gen.events, &ab, &mut rng),
                events: gen.events.len(),
                depth: gen.depth,
                expected: reference.accepts(&NestedWord::from_tagged(&gen.events)),
            }
        })
        .collect();
    let accepted = docs.iter().filter(|d| d.expected).count();
    assert!(
        accepted > 0 && accepted < docs.len(),
        "the documents must hold accepted and rejected verdicts"
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServiceConfig {
        workers: parallelism.saturating_sub(1).max(1),
        ..ServiceConfig::default()
    };

    // Set-up: compile and save, boot from the bytes, warm; several times.
    let (mut compile_s, mut load_s, mut warm_s, mut setup_s) = (vec![], vec![], vec![], vec![]);
    let mut artifact_len = 0;
    let mut svc = None;
    let mut warm_failed = 0u64;
    for rep in 0..SETUP_REPS {
        drop(svc.take());
        if rep > 0 {
            // Spread the set-ups out, so that their median is not one
            // instant's snapshot of a shared machine.
            std::thread::sleep(SETUP_GAP);
        }
        let t0 = Instant::now();
        let artifact = query::save(&query::compile(&describe()));
        let t1 = Instant::now();
        let s = DecisionService::<CompiledNwa>::from_artifact_bytes(&artifact, ab.clone(), config)
            .expect("saved artifact loads");
        let t2 = Instant::now();
        let handles: Vec<_> = docs[..WARM_OPS]
            .iter()
            .map(|doc| s.submit_bytes(doc.xml.as_slice()))
            .collect();
        for (doc, h) in docs.iter().zip(handles) {
            let out = h.map(|h| h.wait());
            warm_failed += u64::from(!matches!(out, Ok(Ok(o)) if correct(doc, &o)));
        }
        let t3 = Instant::now();
        compile_s.push((t1 - t0).as_secs_f64());
        load_s.push((t2 - t1).as_secs_f64());
        warm_s.push((t3 - t2).as_secs_f64());
        setup_s.push((t3 - t0).as_secs_f64());
        artifact_len = artifact.len();
        svc = Some(s);
    }
    let svc = svc.expect("at least one set-up");
    report.attempted += (SETUP_REPS * WARM_OPS) as u64;
    report.failed += warm_failed;

    // The open loop.
    let sends = (args.seconds * OFFERED_RATE).round() as u32;
    let ops = sends as usize;
    let tracer = RefCell::new(Tracer::new(if args.trace { 8 * ops } else { 0 }));
    let start = Instant::now() + Duration::from_millis(2);
    let mut gen = Generator {
        svc: &svc,
        docs: &docs,
        tracer: &tracer,
        pending: VecDeque::new(),
        attempted: 0,
        failed: 0,
        plain_latency_us: Vec::with_capacity(ops),
        plain_op: Vec::with_capacity(ops),
        traced_latency_us: Vec::with_capacity(ops),
        lag_us: Vec::with_capacity(ops),
        parked_bytes: Vec::with_capacity(ops),
        bytes_decided: 0,
        traced_events: 0,
        traced_bytes: 0,
        peak_stack: 0,
        last_done: None,
    };
    let interval = Duration::from_secs_f64(1.0 / OFFERED_RATE);
    let mut traced_ops = 0u32;
    let mut next = 0u32;
    let mut backlog = None;
    loop {
        let due = start + interval * next;
        if next < sends && Instant::now() >= due {
            let doc = rng.below(DOCS);
            let parked = rng.below(PARKED_ONE_IN) == 0;
            let block = ((due - start).as_nanos() / TRACE_BLOCK.as_nanos()) as u64;
            let traced = args.trace && block % 2 == 1;
            traced_ops += u32::from(traced);
            gen.send(next, doc, due, parked, traced);
            next += 1;
            continue;
        }
        if next == sends && backlog.is_none() {
            backlog = Some((svc.stats(), gen.pending.len()));
        }
        gen.harvest();
        if next == sends && gen.pending.is_empty() {
            break;
        }
        let deadline = if next < sends {
            due
        } else {
            Instant::now() + interval
        };
        gen.wait_until(deadline);
    }
    let end_of_sends = start + interval * sends;
    let (stats_at_end, pending_at_end) = backlog.expect("sends ended");
    let stats = svc.stats();
    report.attempted += gen.attempted;
    report.failed += gen.failed;

    // Open-loop honesty: the achieved rate, and whether a backlog built.
    let window = (gen.last_done.unwrap_or(end_of_sends) - start).as_secs_f64();
    let completed = gen.plain_latency_us.len() + gen.traced_latency_us.len();
    let achieved = completed as f64 / window;
    let drain_ms = gen.last_done.map_or(0.0, |t| {
        t.saturating_duration_since(end_of_sends).as_secs_f64() * 1e3
    });
    let overloaded = achieved < 0.97 * OFFERED_RATE || drain_ms > 50.0;
    if overloaded {
        eprintln!("warning: service_mix overloaded: achieved {achieved:.0}/s of {OFFERED_RATE}/s, drain {drain_ms:.1} ms; its latencies include backlog");
    }
    report.meta_num("docs", DOCS as f64);
    report.meta_num(
        "corpus_bytes",
        docs.iter().map(|d| d.xml.len()).sum::<usize>() as f64,
    );
    report.meta_num(
        "corpus_events",
        docs.iter().map(|d| d.events).sum::<usize>() as f64,
    );
    let max_depth = docs.iter().map(|d| d.depth).max().unwrap_or(0);
    report.meta_num("corpus_max_depth", max_depth as f64);
    report.meta_num("depth_bound", corpus::DEPTH_BOUND as f64);
    report.meta_num("verdicts_accepted", accepted as f64);
    report.meta_num("verdicts_rejected", (DOCS - accepted) as f64);
    report.meta_num("workers", svc.config().workers as f64);
    report.meta_num("lanes", svc.config().lanes as f64);
    report.meta_str("scan_backend", &format!("{:?}", scan::scan_backend()));
    report.meta_num("offered_rate", OFFERED_RATE);
    report.meta_num("achieved_rate", achieved);
    report.meta_num("drain_ms", drain_ms);
    report.meta_num("pending_at_end_of_sends", pending_at_end as f64);
    report.meta_str("overloaded", if overloaded { "yes" } else { "no" });
    report.meta_num("ops", f64::from(sends));

    if !args.trace {
        report.metric("throughput_mb_s", gen.bytes_decided as f64 / 1e6 / window);
        // The median latency of each of the run's stretches, and the lower
        // quartile of those: interference from other tenants of a shared
        // machine only ever adds latency, and it comes and goes for seconds
        // at a time.
        let mut stretches = vec![Vec::new(); STRETCHES];
        for (&op, &l) in gen.plain_op.iter().zip(&gen.plain_latency_us) {
            stretches[op as usize * STRETCHES / ops].push(l);
        }
        let medians: Vec<f64> = stretches
            .iter()
            .filter_map(|s| percentile(s, 0.5))
            .collect();
        let p50 = percentile(&medians, 0.25).expect("stretches hold enough operations");
        report.metric("latency_p50_us", p50);
        let all = percentile(&gen.plain_latency_us, 0.5).expect("enough operations");
        report.meta_num("latency_p50_all_us", all);
        let p99 = percentile(&gen.plain_latency_us, 0.99).expect("enough operations");
        report.meta_num("latency_p99_us", p99);
        report.metric("setup_s", median(&setup_s));
        return;
    }

    let tracer = tracer.borrow();
    let spans = tracer.spans();
    let layers = trace::self_by_name(spans);
    let ns = |name: &str| layers.get(name).copied().unwrap_or(0) as f64;
    let traced_wall_ns = f64::from(traced_ops) / OFFERED_RATE * 1e9;
    let scan_ns = ns("service.submit") + ns("scan.tokenize");
    let pct = |name: &str, q| percentile(&trace::durations_us(spans, name), q).unwrap_or(0.0);
    report.metric("read.busy_share", ns("read.call") / traced_wall_ns);
    report.metric("scan.busy_share", scan_ns / traced_wall_ns);
    report.metric("scan.ns_per_event", scan_ns / gen.traced_events as f64);
    report.metric("scan.mb_s", gen.traced_bytes as f64 / 1e6 / (scan_ns / 1e9));
    report.metric("scan.events_call", kinds[0] as f64);
    report.metric("scan.events_return", kinds[1] as f64);
    report.metric("scan.events_internal", kinds[2] as f64);
    report.metric("engine.peak_stack", gen.peak_stack as f64);
    let p99 = percentile(&gen.plain_latency_us, 0.99).expect("enough operations");
    report.metric("service.latency_p99_us", p99);
    report.metric("service.submit_us_p50", pct("service.submit", 0.5));
    report.metric("service.wait_us_p50", pct("service.wait", 0.5));
    report.metric("service.wait_us_p99", pct("service.wait", 0.99));
    report.metric("service.advance_us_p50", pct("service.advance", 0.5));
    let occupancy: Vec<f64> = stats.workers.iter().map(|w| w.lane_occupancy).collect();
    report.metric(
        "service.lane_occupancy",
        occupancy.iter().sum::<f64>() / occupancy.len() as f64,
    );
    report.metric("service.max_queue_depth", stats.max_queue_depth as f64);
    report.metric("service.queued_end", stats_at_end.queued as f64);
    report.metric(
        "service.failures",
        stats.workers.iter().map(|w| w.failures).sum::<u64>() as f64,
    );
    report.metric("persist.load_s", median(&load_s));
    report.metric("persist.artifact_bytes", artifact_len as f64);
    report.metric("persist.parked_bytes", median(&gen.parked_bytes));
    report.metric(
        "persist.parked_roundtrip_us_p50",
        pct("persist.roundtrip", 0.5),
    );
    report.metric("compile.s", median(&compile_s));
    report.metric("warm.s", median(&warm_s));
    report.metric(
        "gen.lag_us_p99",
        percentile(&gen.lag_us, 0.99).expect("enough sends"),
    );
    report.metric(
        "gen.lag_us_max",
        gen.lag_us.iter().copied().fold(0.0, f64::max),
    );
    report.metric(
        "trace.overhead_share",
        median(&gen.traced_latency_us) / median(&gen.plain_latency_us) - 1.0,
    );
    let roots: f64 = trace::durations_us(spans, "op.request").iter().sum::<f64>() * 1e3;
    report.metric("trace.unattributed_share", ns("op.request") / roots);
    crate::write_trace(&tracer, args);
    report.not_reached(&["engine", "multi"]);
}
