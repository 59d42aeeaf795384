//! Layer 2: the concurrent decision service.
//!
//! A [`DecisionService`] owns one compiled artifact and a pool of worker
//! threads. Callers submit whole event streams (or raw XML bytes, which are
//! tokenized on the calling thread) and get back a [`DecisionHandle`];
//! workers pull submitted streams from a shared queue into batch slots of up
//! to `lanes` streams, decide the slot through the batched entry point
//! (`BatchAcceptor::run_batch`, so per-model lockstep kernels apply), and
//! fulfil the handles. The
//! artifact is shared by reference inside one `Arc` — the compiled engines
//! are `Send + Sync` precisely so that a single table can serve every
//! worker.
//!
//! There is one completion handle type, [`Handle<T>`], over a typed slot:
//! [`DecisionHandle`] (`Handle<StreamOutcome>`) and [`ParkedHandle`]
//! (`Handle<ParkedDoc>`) are aliases of it, and
//! [`submit_multi`](DecisionService::submit_multi) returns a
//! `Handle<Vec<StreamOutcome>>`. Every handle offers
//! [`wait`](Handle::wait), [`wait_timeout`](Handle::wait_timeout) and
//! [`try_outcome`](Handle::try_outcome).
//!
//! Every handle handed out is always fulfilled: submissions are validated
//! against the compiled alphabet before queuing, a worker that panics in
//! the batch kernel or in a task fulfils the affected handles with a typed
//! [`DecisionError`] (and survives), and dropping the service drains the
//! queue before joining the workers.
//!
//! Observability is built in rather than bolted on: each worker keeps
//! monotone counters (batches decided, documents decided, events consumed,
//! streams failed), and the service tracks queue pressure (submitted,
//! completed, currently queued, high-water mark).
//! [`DecisionService::stats`] snapshots all of it
//! into a [`ServiceStats`], including the per-worker mean *lane occupancy* —
//! how full the batch slots actually ran, the number that tells you whether
//! the service is getting the batching win or degenerating into sequential
//! decisions (occupancy → 1/lanes means the queue never has a backlog).
//!
//! Two persistence-adjacent capabilities round the service out. A service
//! can boot straight from saved artifact bytes
//! ([`DecisionService::from_artifact_bytes`]): the bytes are fully
//! validated — format, checksums, alphabet fingerprint — before any thread
//! spawns. And in-flight documents can be *parked* between bursts of input:
//! a parked job is its `automata_core::Snapshot` ([`ParkedDoc`]), opened by
//! [`DecisionService::open_document`], advanced across the worker pool by
//! [`DecisionService::advance`] and closed by [`DecisionService::finish`].
//! Every resubmission re-validates the snapshot against the artifact
//! fingerprint, so state parked by one artifact can only ever resume on
//! that artifact (or a byte-identical reload of it), with a typed
//! [`ParkError`] otherwise.
//!
//! Multi-query artifacts (`automata_core::MultiAcceptor`, e.g. an
//! `nwa::QuerySet`) plug in through [`DecisionService::submit_multi`]: one
//! submission decides a stream against every member query in one pass and
//! returns a handle for all M verdicts — one queue slot and one worker
//! dispatch instead of M. Each member's alphabet fingerprint is
//! validated against the service's alphabet before anything is queued, so a
//! query compiled over the wrong alphabet is one typed
//! [`MultiSubmitError`] up front.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use automata_core::persist::{expect_alphabet, fingerprint_alphabet};
use automata_core::{
    BatchAcceptor, MultiAcceptor, Persist, PersistError, QuerySetRun, Snapshot, StreamOutcome,
    StreamRun, Suspend,
};
use nested_words::{Alphabet, NestedWordError, TaggedSymbol};
use nwa_xml::sax::{FrozenByteTokenizer, SaxError};

/// Why a submitted stream ended without a verdict.
///
/// This is the failure channel of a [`Handle`]: every handle the service
/// hands out is always fulfilled — with its value on the happy path, or
/// with one of these if the work could not be done — so [`Handle::wait`]
/// can never hang on a dead worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionError {
    /// The worker thread running this unit of work panicked — inside the
    /// artifact's batch kernel (every stream of that batch gets this error),
    /// while advancing this parked document or while running this
    /// multi-query submission. The worker itself survives and keeps serving
    /// subsequent batches.
    WorkerPanicked,
}

impl std::fmt::Display for DecisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionError::WorkerPanicked => {
                write!(f, "the worker deciding this stream's batch panicked")
            }
        }
    }
}

impl std::error::Error for DecisionError {}

/// Why a parked-document operation was refused *at submission*, before
/// anything was queued.
///
/// [`DecisionService::advance`] front-loads every check that can fail:
/// events are validated against the service's alphabet (same guard as
/// [`DecisionService::submit`]) and the snapshot is resumed against the
/// service's artifact on the calling thread — so what a worker eventually
/// runs can no longer fail validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParkError {
    /// An event's symbol falls outside the alphabet the artifact was
    /// compiled against.
    Input(NestedWordError),
    /// The parked snapshot does not fit this service's artifact: a
    /// fingerprint from a different artifact
    /// ([`PersistError::FingerprintMismatch`]) or structurally impossible
    /// run state — the typed [`PersistError`] says which.
    Artifact(PersistError),
}

impl std::fmt::Display for ParkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParkError::Input(e) => write!(f, "invalid events for a parked document: {e}"),
            ParkError::Artifact(e) => {
                write!(
                    f,
                    "parked snapshot does not fit this service's artifact: {e}"
                )
            }
        }
    }
}

impl std::error::Error for ParkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParkError::Input(e) => Some(e),
            ParkError::Artifact(e) => Some(e),
        }
    }
}

/// Sizing knobs for a [`DecisionService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker-thread count. The default is the machine's available
    /// parallelism (falling back to 1 when it cannot be queried).
    pub workers: usize,
    /// Batch-slot width: the maximum number of streams one worker decides in
    /// lockstep per batch. The default of 4 sits past the knee of the
    /// interleaving curve on the compiled tables (see `bench/service.rs`)
    /// while keeping per-batch latency low.
    pub lanes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            lanes: 4,
        }
    }
}

/// A queued unit of work other than a batched full-stream decision: an
/// [`advance`](DecisionService::advance) burst or a
/// [`submit_multi`](DecisionService::submit_multi) run. The closure owns its
/// validated input and its typed [`Slot`], runs against the shared artifact
/// under `catch_unwind`, reports success or failure through the worker's
/// `settle` callback, and only then fulfils its slot.
type Task<A> = Box<dyn FnOnce(&A, &dyn Fn(bool)) + Send>;

/// What a worker does with one queued job.
enum Payload<A> {
    /// Decide one whole stream through the batched kernel.
    Decide(Vec<TaggedSymbol>, Arc<Slot<StreamOutcome>>),
    /// Run one boxed [`Task`] consuming `events` events.
    Task { task: Task<A>, events: usize },
}

impl<A> std::fmt::Debug for Payload<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Decide(events, _) => f.debug_tuple("Decide").field(&events.len()).finish(),
            Payload::Task { events, .. } => f.debug_struct("Task").field("events", events).finish(),
        }
    }
}

/// The completion cell behind a [`Handle`].
#[derive(Debug)]
struct Slot<T> {
    result: Mutex<Option<Result<T, DecisionError>>>,
    done: Condvar,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }
}

impl<T> Slot<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Result<T, DecisionError>>> {
        self.result.lock().expect("decision slot poisoned")
    }

    fn fulfil(&self, outcome: Result<T, DecisionError>) {
        *self.lock() = Some(outcome);
        self.done.notify_all();
    }
}

/// The caller's side of one submitted unit of work: a future for a `T`,
/// fulfilled by whichever worker ran it — a [`StreamOutcome`] behind a
/// [`DecisionHandle`], a re-parked document behind a [`ParkedHandle`], or
/// every member verdict of a [`submit_multi`](DecisionService::submit_multi).
///
/// Every handle is fulfilled: a worker that panics fulfils the handles of
/// the work it was running with [`DecisionError::WorkerPanicked`] instead
/// of a value, and dropping the service drains the queue first — so
/// [`wait`](Handle::wait) always returns.
/// [`wait_timeout`](Handle::wait_timeout) bounds the wait anyway for
/// callers that must not block on a congested queue.
#[derive(Debug, Clone)]
pub struct Handle<T> {
    slot: Arc<Slot<T>>,
}

impl<T: Clone> Handle<T> {
    /// Blocks until the work is done and returns its value, or the
    /// [`DecisionError`] explaining why there is none. Waiting again
    /// returns the same result.
    pub fn wait(&self) -> Result<T, DecisionError> {
        let result = self
            .slot
            .done
            .wait_while(self.slot.lock(), |result| result.is_none())
            .expect("decision slot poisoned");
        result.clone().expect("wait_while returns a fulfilled slot")
    }

    /// Like [`wait`](Handle::wait), but gives up after `timeout` and
    /// returns `None` if the work is still pending.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<T, DecisionError>> {
        let (result, _) = self
            .slot
            .done
            .wait_timeout_while(self.slot.lock(), timeout, |result| result.is_none())
            .expect("decision slot poisoned");
        result.clone()
    }

    /// The result if it is already in, without blocking.
    pub fn try_outcome(&self) -> Option<Result<T, DecisionError>> {
        self.slot.lock().clone()
    }
}

/// The handle [`submit`](DecisionService::submit) and
/// [`submit_bytes`](DecisionService::submit_bytes) return: one stream's
/// verdict.
pub type DecisionHandle = Handle<StreamOutcome>;

/// One parked in-flight document: an owned, serializable unit of run state
/// that any service holding the same artifact — or a byte-identical reload
/// of it, even in another process — can pick back up.
///
/// A parked job *is* its [`Snapshot`]: [`DecisionService::open_document`]
/// parks a run at the empty prefix, [`DecisionService::advance`] feeds a
/// parked document its next burst of events on the worker pool (yielding a
/// new `ParkedDoc` through a [`ParkedHandle`]), and
/// [`DecisionService::finish`] closes it into a [`StreamOutcome`].
/// [`to_bytes`](ParkedDoc::to_bytes) / [`from_bytes`](ParkedDoc::from_bytes)
/// ship it across processes next to the artifact bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParkedDoc {
    snapshot: Snapshot,
}

impl ParkedDoc {
    /// The run state itself: artifact fingerprint, state, stack and
    /// peak/step counters, in the artifact's own encoding.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Events this document has consumed across all its bursts so far.
    pub fn events(&self) -> u64 {
        self.snapshot.steps
    }

    /// Serializes the parked document in the snapshot's versioned byte
    /// format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.snapshot.to_bytes()
    }

    /// Decodes a parked document from [`to_bytes`](ParkedDoc::to_bytes)
    /// bytes. Corruption is a typed error, never a panic; whether the
    /// snapshot fits a given service's artifact is checked again at
    /// [`advance`](DecisionService::advance) /
    /// [`finish`](DecisionService::finish) time.
    pub fn from_bytes(bytes: &[u8]) -> Result<ParkedDoc, PersistError> {
        Ok(ParkedDoc {
            snapshot: Snapshot::from_bytes(bytes)?,
        })
    }
}

impl From<Snapshot> for ParkedDoc {
    /// Wraps a snapshot taken outside the service (e.g. by
    /// `query::suspend` on a standalone run), so existing run state can be
    /// handed to the pool.
    fn from(snapshot: Snapshot) -> Self {
        ParkedDoc { snapshot }
    }
}

/// The handle [`advance`](DecisionService::advance) returns: the document
/// re-parked after its burst.
pub type ParkedHandle = Handle<ParkedDoc>;

impl ParkedHandle {
    /// The re-parked document if it is already in, without blocking: the
    /// same as [`try_outcome`](Handle::try_outcome).
    pub fn try_parked(&self) -> Option<Result<ParkedDoc, DecisionError>> {
        self.try_outcome()
    }
}

/// Why a [`DecisionService::submit_multi`] was refused *at submission*,
/// before anything was queued.
///
/// Like every other submission path, all checks are front-loaded onto the
/// calling thread — so what a worker eventually runs can no longer fail
/// validation, and a misconfigured query set is one typed error up front
/// rather than out-of-range table indexing mid-batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiSubmitError {
    /// An event's symbol falls outside the alphabet the service holds —
    /// the same guard as [`DecisionService::submit`].
    Input(NestedWordError),
    /// Member query `query` of the artifact was compiled against a
    /// different alphabet than the service's: its fingerprint `found` does
    /// not match the `expected` fingerprint of the service alphabet. The
    /// first offending query is reported.
    QueryAlphabetMismatch {
        /// Index of the first member query whose alphabet disagrees.
        query: usize,
        /// Fingerprint of the service's alphabet.
        expected: u64,
        /// Fingerprint the member query was compiled against.
        found: u64,
    },
}

impl std::fmt::Display for MultiSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiSubmitError::Input(e) => write!(f, "invalid events for a multi-query run: {e}"),
            MultiSubmitError::QueryAlphabetMismatch {
                query,
                expected,
                found,
            } => write!(
                f,
                "member query {query} was compiled against a different alphabet \
                 (fingerprint {found:#018x}, service alphabet {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for MultiSubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MultiSubmitError::Input(e) => Some(e),
            MultiSubmitError::QueryAlphabetMismatch { .. } => None,
        }
    }
}

/// Per-worker monotone counters, updated with relaxed atomics on the worker's
/// hot path.
#[derive(Debug, Default)]
struct WorkerCounters {
    batches: AtomicU64,
    documents: AtomicU64,
    events: AtomicU64,
    failures: AtomicU64,
}

/// The queue and the shutdown flag, together under one mutex.
///
/// The flag lives *inside* the mutex deliberately: shutdown is flipped while
/// holding the lock, so the store can never interleave between a worker's
/// empty-queue-and-not-shutdown check and its `Condvar::wait` (both also
/// under the lock). With the flag outside the mutex, that interleaving is a
/// classic lost wakeup — the worker sleeps through the final `notify_all`
/// and `Drop` deadlocks in `join`.
#[derive(Debug)]
struct QueueState<A> {
    jobs: VecDeque<Payload<A>>,
    shutdown: bool,
}

impl<A> Default for QueueState<A> {
    fn default() -> Self {
        QueueState {
            jobs: VecDeque::new(),
            shutdown: false,
        }
    }
}

/// State shared between the service facade and its workers.
#[derive(Debug)]
struct Shared<A> {
    artifact: A,
    queue: Mutex<QueueState<A>>,
    available: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    max_queue_depth: AtomicUsize,
    workers: Vec<WorkerCounters>,
}

/// A snapshot of one worker's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerStats {
    /// Batches this worker has decided.
    pub batches: u64,
    /// Full streams this worker has decided (across all its batches).
    /// Parked-document bursts and multi-query submissions do not count
    /// here — they contribute to `events` and, on panic, to `failures`.
    pub documents: u64,
    /// Events this worker has consumed, across full streams, multi-query
    /// submissions and parked-document bursts.
    pub events: u64,
    /// Units of work this worker failed — streams whose batch kernel
    /// panicked, or parked-document bursts and multi-query submissions that
    /// panicked individually (their handles were fulfilled with
    /// [`DecisionError::WorkerPanicked`]).
    pub failures: u64,
    /// Mean fraction of the batch slot actually occupied, in `[0, 1]`:
    /// `documents / (batches · lanes)`. Near `1.0` the worker runs full
    /// batches and gets the whole interleaving win; near `1/lanes` the queue
    /// never has a backlog and the service is effectively sequential.
    pub lane_occupancy: f64,
}

/// A point-in-time snapshot of a [`DecisionService`]'s counters, from
/// [`DecisionService::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Units of work submitted so far (full streams, parked-document bursts
    /// and multi-query submissions).
    pub submitted: u64,
    /// Units of work fulfilled so far (full streams, parked-document bursts
    /// and multi-query submissions).
    pub completed: u64,
    /// Units of work currently waiting in the queue.
    pub queued: usize,
    /// The deepest the queue has ever been — the backlog high-water mark.
    pub max_queue_depth: usize,
    /// One entry per worker thread.
    pub workers: Vec<WorkerStats>,
}

/// A concurrent bytes-in → verdict-out decision service over one shared
/// compiled automaton.
///
/// Construction compiles nothing: the caller brings an already-compiled
/// artifact (any [`BatchAcceptor`] that is `Send + Sync`, i.e. the
/// `CompiledNwa` / `CompiledSummary` / `CompiledTaggedDfa` engines) plus the
/// [`Alphabet`] it was compiled against, and the service spawns
/// [`ServiceConfig::workers`] threads that share the artifact through one
/// `Arc`. Streams enter through [`submit`](DecisionService::submit) (tagged
/// events) or [`submit_bytes`](DecisionService::submit_bytes) (raw XML-ish
/// bytes, tokenized on the calling thread so tokenization scales with
/// submitters, not workers); verdicts come back through [`DecisionHandle`]s.
///
/// Dropping the service is a graceful shutdown: workers finish everything
/// already queued, then exit and are joined.
#[derive(Debug)]
pub struct DecisionService<A: BatchAcceptor + Send + Sync + 'static> {
    shared: Arc<Shared<A>>,
    alphabet: Alphabet,
    config: ServiceConfig,
    threads: Vec<JoinHandle<()>>,
}

impl<A: BatchAcceptor + Send + Sync + 'static> DecisionService<A> {
    /// Spawns the worker pool around one compiled artifact and the alphabet
    /// it was compiled against. `config.workers` and `config.lanes` are
    /// clamped to at least 1.
    pub fn new(artifact: A, alphabet: Alphabet, config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            lanes: config.lanes.max(1),
        };
        let shared = Arc::new(Shared {
            artifact,
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            max_queue_depth: AtomicUsize::new(0),
            workers: (0..config.workers)
                .map(|_| WorkerCounters::default())
                .collect(),
        });
        let threads = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let lanes = config.lanes;
                std::thread::spawn(move || worker_loop(&shared, index, lanes))
            })
            .collect();
        DecisionService {
            shared,
            alphabet,
            config,
            threads,
        }
    }

    /// The sizing the service was built with (after clamping).
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The alphabet the artifact was compiled against.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Submits one stream of tagged events for decision and returns its
    /// completion handle.
    ///
    /// Every event's symbol is validated against the service's alphabet
    /// before anything is queued: a symbol whose index falls outside the
    /// alphabet the artifact was compiled against comes back as
    /// [`NestedWordError::UnknownSymbol`] instead of indexing past the
    /// compiled transition tables inside a worker.
    pub fn submit(&self, events: Vec<TaggedSymbol>) -> Result<DecisionHandle, NestedWordError> {
        self.check_symbols(&events)?;
        Ok(self.decide(events))
    }

    /// The submission guard: every event's symbol must index inside the
    /// alphabet the artifact was compiled against.
    fn check_symbols(&self, events: &[TaggedSymbol]) -> Result<(), NestedWordError> {
        let sigma = self.alphabet.len();
        match events.iter().find(|e| e.symbol().index() >= sigma) {
            Some(event) => Err(NestedWordError::UnknownSymbol {
                name: event.symbol().to_string(),
            }),
            None => Ok(()),
        }
    }

    /// Queues one validated stream for the batched kernel.
    fn decide(&self, events: Vec<TaggedSymbol>) -> DecisionHandle {
        let slot = Arc::new(Slot::default());
        self.enqueue(Payload::Decide(events, Arc::clone(&slot)));
        Handle { slot }
    }

    /// Queues `work` as a [`Task`] over `events` validated events. The task
    /// runs `work` under `catch_unwind`, so a panic fails only this unit of
    /// work, and settles the worker's counters before fulfilling the
    /// handle.
    fn run_task<T: Send + 'static>(
        &self,
        events: usize,
        work: impl FnOnce(&A) -> T + Send + 'static,
    ) -> Handle<T> {
        let slot = Arc::new(Slot::default());
        let fulfil = Arc::clone(&slot);
        let task: Task<A> = Box::new(move |artifact, settle| {
            let outcome = catch_unwind(AssertUnwindSafe(|| work(artifact)))
                .map_err(|_| DecisionError::WorkerPanicked);
            settle(outcome.is_ok());
            fulfil.fulfil(outcome);
        });
        self.enqueue(Payload::Task { task, events });
        Handle { slot }
    }

    /// Queues one already-validated unit of work. Callers guarantee nothing
    /// the worker runs can fail validation (symbols index inside the
    /// compiled tables; parked lanes were resumed at submission).
    fn enqueue(&self, payload: Payload<A>) {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = {
            let mut queue = self.shared.queue.lock().expect("service queue poisoned");
            queue.jobs.push_back(payload);
            queue.jobs.len()
        };
        self.shared
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        self.shared.available.notify_one();
    }

    /// Submits a raw XML-ish byte stream: tokenizes it on the calling thread
    /// through the SAX [`FrozenByteTokenizer`] — which sweeps the reader in
    /// [`nwa_xml::scan::SCAN_CHUNK`]-sized chunks with the bulk structural
    /// scanner, validating UTF-8 per chunk instead of per char — then queues
    /// the tagged events. This is the bytes-in → verdict-out external API of
    /// §1.
    ///
    /// Every tag and text symbol must already be interned in the service's
    /// alphabet (the one the artifact was compiled against); the frozen
    /// tokenizer resolves names by read-only lookup, so an unknown name
    /// comes back as [`NestedWordError::UnknownSymbol`] inside
    /// [`SaxError::Syntax`] rather than indexing past the transition tables,
    /// the service's alphabet is never cloned or mutated, and the guard
    /// holds across submissions. Malformed UTF-8 and I/O failures surface as
    /// the corresponding typed [`SaxError`]s before anything is queued.
    pub fn submit_bytes<R: io::Read>(&self, reader: R) -> Result<DecisionHandle, SaxError> {
        let mut events = Vec::new();
        for event in FrozenByteTokenizer::new(reader, &self.alphabet) {
            events.push(event?);
        }
        // Read-only resolution means every symbol is in the alphabet, so
        // queue directly — re-validating would find nothing.
        Ok(self.decide(events))
    }

    /// Snapshots the service's counters. The snapshot is not atomic across
    /// counters (workers keep running), but each counter is individually
    /// consistent and monotone.
    pub fn stats(&self) -> ServiceStats {
        let queued = self
            .shared
            .queue
            .lock()
            .expect("service queue poisoned")
            .jobs
            .len();
        let lanes = self.config.lanes as f64;
        let workers = self
            .shared
            .workers
            .iter()
            .map(|w| {
                let batches = w.batches.load(Ordering::Relaxed);
                let documents = w.documents.load(Ordering::Relaxed);
                WorkerStats {
                    batches,
                    documents,
                    events: w.events.load(Ordering::Relaxed),
                    failures: w.failures.load(Ordering::Relaxed),
                    lane_occupancy: if batches == 0 {
                        0.0
                    } else {
                        documents as f64 / (batches as f64 * lanes)
                    },
                }
            })
            .collect();
        ServiceStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            queued,
            max_queue_depth: self.shared.max_queue_depth.load(Ordering::Relaxed),
            workers,
        }
    }
}

impl<A: BatchAcceptor + MultiAcceptor + Send + Sync + 'static> DecisionService<A> {
    /// Submits one stream for decision against **every member query** of a
    /// multi-query artifact (e.g. an `nwa::QuerySet`) and returns a handle
    /// for all M verdicts: the serving-side spelling of one-pass
    /// multi-query execution — M verdicts for one queue slot, one worker
    /// dispatch and one pass over the events.
    ///
    /// Everything that can be refused is refused here, typed, before
    /// anything is queued. First every member query's alphabet fingerprint
    /// is validated against the service's alphabet
    /// ([`MultiAcceptor::member_alphabet_fingerprints`]) — a query compiled
    /// over the wrong alphabet is a
    /// [`MultiSubmitError::QueryAlphabetMismatch`] naming the first
    /// offending index, not out-of-range table indexing inside a worker.
    /// Then every event symbol is checked against the alphabet exactly as
    /// in [`submit`](DecisionService::submit), with unknown symbols
    /// reported as [`MultiSubmitError::Input`].
    pub fn submit_multi(
        &self,
        events: Vec<TaggedSymbol>,
    ) -> Result<Handle<Vec<StreamOutcome>>, MultiSubmitError> {
        let expected = fingerprint_alphabet(self.alphabet.len());
        for (query, found) in self
            .shared
            .artifact
            .member_alphabet_fingerprints()
            .into_iter()
            .enumerate()
        {
            if found != expected {
                return Err(MultiSubmitError::QueryAlphabetMismatch {
                    query,
                    expected,
                    found,
                });
            }
        }
        self.check_symbols(&events)
            .map_err(MultiSubmitError::Input)?;
        // The task carries the `MultiAcceptor` entry points with it, keeping
        // the worker loop on the plain `BatchAcceptor` bound.
        Ok(self.run_task(events.len(), move |artifact: &A| {
            let mut run = artifact.start_set();
            run.step_slice(&events);
            run.outcomes()
        }))
    }
}

impl<A: BatchAcceptor + Persist + Send + Sync + 'static> DecisionService<A> {
    /// Builds a service straight from saved artifact bytes
    /// ([`Persist::save`] / `query::save`): the cold-start path of a worker
    /// process that ships artifact bytes instead of recompiling the query.
    ///
    /// The bytes are fully validated before any thread spawns — corrupt or
    /// truncated input is a typed [`PersistError`], and an artifact saved
    /// against a different alphabet size is a
    /// [`PersistError::AlphabetMismatch`] rather than out-of-range table
    /// indexing inside a worker later.
    pub fn from_artifact_bytes(
        bytes: &[u8],
        alphabet: Alphabet,
        config: ServiceConfig,
    ) -> Result<Self, PersistError> {
        let artifact = A::load(bytes)?;
        expect_alphabet(artifact.alphabet_fingerprint(), alphabet.len())?;
        Ok(DecisionService::new(artifact, alphabet, config))
    }
}

impl<A: Suspend + Send + Sync + 'static> DecisionService<A> {
    /// Parks a fresh document: a run at the empty prefix, ready for its
    /// first [`advance`](DecisionService::advance).
    pub fn open_document(&self) -> ParkedDoc {
        let lane = self.shared.artifact.lane_start();
        ParkedDoc {
            snapshot: self.shared.artifact.suspend_lane(&lane),
        }
    }

    /// Feeds one burst of events to a parked document on the worker pool
    /// and returns a future for the re-parked document.
    ///
    /// Everything that can be refused is refused here, typed, before
    /// anything is queued: out-of-alphabet symbols come back as
    /// [`ParkError::Input`], and a snapshot that does not fit this
    /// service's artifact — a fingerprint from a different artifact
    /// (resubmission validates the artifact fingerprint on every burst) or
    /// structurally impossible state — comes back as
    /// [`ParkError::Artifact`]. The *resumed lane*, not the snapshot, is
    /// what crosses into the worker, so a queued advance can no longer
    /// fail validation.
    pub fn advance(
        &self,
        parked: &ParkedDoc,
        events: Vec<TaggedSymbol>,
    ) -> Result<ParkedHandle, ParkError> {
        self.check_symbols(&events).map_err(ParkError::Input)?;
        let lane = self
            .shared
            .artifact
            .resume_lane(&parked.snapshot)
            .map_err(ParkError::Artifact)?;
        Ok(self.run_task(events.len(), move |artifact: &A| {
            let mut lane = lane;
            for event in events {
                artifact.lane_step(&mut lane, event);
            }
            ParkedDoc {
                snapshot: artifact.suspend_lane(&lane),
            }
        }))
    }

    /// Closes a parked document: resumes it one last time and returns its
    /// verdict — inline on the calling thread, since no events remain to
    /// batch. The snapshot is validated exactly as in
    /// [`advance`](DecisionService::advance).
    pub fn finish(&self, parked: &ParkedDoc) -> Result<StreamOutcome, PersistError> {
        let lane = self.shared.artifact.resume_lane(&parked.snapshot)?;
        Ok(self.shared.artifact.lane_outcome(&lane))
    }
}

impl<A: BatchAcceptor + Send + Sync + 'static> Drop for DecisionService<A> {
    /// Graceful shutdown: workers drain everything already queued, then
    /// exit and are joined, so every handle handed out is fulfilled.
    fn drop(&mut self) {
        {
            // The flag must flip while holding the queue lock: a worker
            // checks it and blocks on the condvar atomically under the same
            // lock, so an unlocked store + notify could land between the
            // check and the wait — a lost wakeup that leaves the worker
            // asleep forever and this join deadlocked. A poisoned lock
            // (a panicking submitter) must not abort the drop, so take the
            // guard either way.
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One worker: block for a first job, opportunistically top the batch up to
/// `lanes` jobs without blocking, run the slot, fulfil the handles. Whole
/// streams go through the batched runner in lockstep; tasks (parked-document
/// bursts and multi-query runs) run one at a time. Exits only when shutdown
/// is flagged *and* the queue is empty, so pending submissions are always
/// drained.
fn worker_loop<A: BatchAcceptor>(shared: &Shared<A>, index: usize, lanes: usize) {
    loop {
        let mut batch: Vec<Payload<A>> = Vec::with_capacity(lanes);
        {
            let mut queue = shared.queue.lock().expect("service queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    batch.push(job);
                    break;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .expect("service queue poisoned");
            }
            while batch.len() < lanes {
                match queue.jobs.pop_front() {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
        }

        let mut decisions: Vec<(Vec<TaggedSymbol>, Arc<Slot<StreamOutcome>>)> = Vec::new();
        let mut tasks: Vec<(Task<A>, usize)> = Vec::new();
        for job in batch {
            match job {
                Payload::Decide(events, slot) => decisions.push((events, slot)),
                Payload::Task { task, events } => tasks.push((task, events)),
            }
        }

        // All counters land before any handle is fulfilled: a waiter woken
        // by the last fulfilment must not snapshot stats that are still
        // missing its own unit of work.
        let counters = &shared.workers[index];

        if !decisions.is_empty() {
            let streams: Vec<&[TaggedSymbol]> = decisions
                .iter()
                .map(|(events, _)| events.as_slice())
                .collect();
            // The trait entry point, so per-model overrides apply
            // (CompiledNwa's register-resident lockstep kernel rather than
            // the generic stored-lane loop). Caught unwinding keeps the
            // fulfilment guarantee: a kernel panic (submission validation
            // makes one unlikely, not impossible — an artifact bug
            // suffices) must not strand the batch's handles in
            // forever-blocking waits or kill the worker. `&artifact` is a
            // shared immutable borrow and the queue lock is not held here,
            // so no observable state can be left half-updated by the
            // unwind.
            let outcomes = catch_unwind(AssertUnwindSafe(|| shared.artifact.run_batch(&streams)));

            match outcomes {
                Ok(outcomes) => {
                    counters.batches.fetch_add(1, Ordering::Relaxed);
                    counters
                        .documents
                        .fetch_add(decisions.len() as u64, Ordering::Relaxed);
                    counters.events.fetch_add(
                        streams.iter().map(|s| s.len() as u64).sum(),
                        Ordering::Relaxed,
                    );
                    shared
                        .completed
                        .fetch_add(decisions.len() as u64, Ordering::Relaxed);
                    for ((_, slot), outcome) in decisions.into_iter().zip(outcomes) {
                        slot.fulfil(Ok(outcome));
                    }
                }
                Err(_) => {
                    counters
                        .failures
                        .fetch_add(decisions.len() as u64, Ordering::Relaxed);
                    shared
                        .completed
                        .fetch_add(decisions.len() as u64, Ordering::Relaxed);
                    for (_, slot) in decisions {
                        slot.fulfil(Err(DecisionError::WorkerPanicked));
                    }
                }
            }
        }

        // Each task owns its input (a parked burst its already-resumed
        // lane), so one panicking task cannot contaminate its batch-mates:
        // it catches its own unwind and settles here before fulfilling.
        for (task, events) in tasks {
            task(&shared.artifact, &|ok| {
                if ok {
                    counters.events.fetch_add(events as u64, Ordering::Relaxed);
                } else {
                    counters.failures.fetch_add(1, Ordering::Relaxed);
                }
                shared.completed.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::{query, Compile};
    use nested_words::Symbol;
    use nwa::Nwa;

    /// Deterministic NWA over {a} accepting well-matched streams of even
    /// length.
    fn even_len_nwa() -> Nwa {
        let a = Symbol(0);
        let mut m = Nwa::new(2, 1, 0);
        m.set_accepting(0, true);
        for q in 0..2usize {
            m.set_internal(q, a, 1 - q);
            m.set_call(q, a, 1 - q, q);
            for h in 0..2 {
                m.set_return(q, h, a, 1 - q);
            }
        }
        m
    }

    #[test]
    fn verdicts_and_stats_on_a_small_burst() {
        let m = even_len_nwa();
        let service = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 2,
                lanes: 3,
            },
        );
        let a = Symbol(0);
        let handles: Vec<(DecisionHandle, bool)> = (0..17usize)
            .map(|i| {
                let events: Vec<TaggedSymbol> = (0..i)
                    .map(|j| match j % 3 {
                        0 => TaggedSymbol::Call(a),
                        1 => TaggedSymbol::Internal(a),
                        _ => TaggedSymbol::Return(a),
                    })
                    .collect();
                (service.submit(events).unwrap(), i % 2 == 0)
            })
            .collect();
        for (i, (handle, expect)) in handles.iter().enumerate() {
            let outcome = handle.wait().unwrap();
            assert_eq!(outcome.accepted, *expect, "stream {i}");
            assert_eq!(outcome.events, i);
            // Waiting twice returns the same verdict.
            assert_eq!(handle.wait(), Ok(outcome));
            assert_eq!(handle.try_outcome(), Some(Ok(outcome)));
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 17);
        assert_eq!(stats.completed, 17);
        assert_eq!(stats.queued, 0);
        assert!(stats.max_queue_depth >= 1);
        assert_eq!(stats.workers.len(), 2);
        assert_eq!(stats.workers.iter().map(|w| w.documents).sum::<u64>(), 17);
        let total_events: u64 = stats.workers.iter().map(|w| w.events).sum();
        assert_eq!(total_events, (0..17u64).sum::<u64>());
        for w in &stats.workers {
            assert!(w.lane_occupancy >= 0.0 && w.lane_occupancy <= 1.0);
            assert_eq!(w.failures, 0);
        }
    }

    #[test]
    fn submit_bytes_decides_and_guards_the_alphabet() {
        let mut ab = Alphabet::new();
        nwa_xml::sax::tokenize("<doc><sec>t</sec></doc>", &mut ab).unwrap();
        let q = nwa_xml::queries::contains_tag_nwa(ab.lookup("sec").unwrap(), ab.len());
        let service = DecisionService::new(q.compile(), ab, ServiceConfig::default());

        let hit = service
            .submit_bytes("<doc><sec>t</sec></doc>".as_bytes())
            .unwrap();
        assert!(hit.wait().unwrap().accepted);
        let miss = service.submit_bytes("<doc>t</doc>".as_bytes()).unwrap();
        assert!(!miss.wait().unwrap().accepted);

        // Unknown names are typed errors before anything is queued, and the
        // service alphabet is untouched, so the guard holds on a retry.
        for _ in 0..2 {
            let err = service
                .submit_bytes("<doc><intruder/></doc>".as_bytes())
                .unwrap_err();
            assert!(matches!(
                err,
                SaxError::Syntax(NestedWordError::UnknownSymbol { ref name }) if name == "intruder"
            ));
        }
        assert_eq!(service.stats().submitted, 2);
    }

    #[test]
    fn drop_drains_the_queue_before_joining() {
        let m = even_len_nwa();
        let service = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 4,
            },
        );
        let a = Symbol(0);
        let handles: Vec<DecisionHandle> = (0..64)
            .map(|_| {
                service
                    .submit(vec![TaggedSymbol::Internal(a), TaggedSymbol::Internal(a)])
                    .unwrap()
            })
            .collect();
        drop(service);
        for handle in &handles {
            // Every handle handed out before the drop is fulfilled.
            assert!(handle.wait().unwrap().accepted);
        }
    }

    #[test]
    fn worker_outcomes_match_the_query_facade() {
        let m = even_len_nwa();
        let compiled = m.compile();
        let service = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 2,
                lanes: 2,
            },
        );
        let a = Symbol(0);
        let streams: Vec<Vec<TaggedSymbol>> = (0..12usize)
            .map(|i| {
                (0..i + 1)
                    .map(|j| {
                        if j % 2 == 0 {
                            TaggedSymbol::Call(a)
                        } else {
                            TaggedSymbol::Return(a)
                        }
                    })
                    .collect()
            })
            .collect();
        let handles: Vec<DecisionHandle> = streams
            .iter()
            .map(|s| service.submit(s.clone()).unwrap())
            .collect();
        for (stream, handle) in streams.iter().zip(&handles) {
            let expected = query::run_stream(&compiled, stream.iter().copied());
            assert_eq!(handle.wait(), Ok(expected));
        }
    }

    #[test]
    fn submit_rejects_out_of_alphabet_symbols() {
        let m = even_len_nwa();
        let service = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 2,
            },
        );
        // Symbol 1 is outside the one-symbol alphabet the artifact was
        // compiled against; it must be a typed error at submission, not an
        // out-of-bounds table index inside a worker.
        let err = service
            .submit(vec![
                TaggedSymbol::Internal(Symbol(0)),
                TaggedSymbol::Call(Symbol(1)),
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            NestedWordError::UnknownSymbol { ref name } if name == "s1"
        ));
        // Nothing was queued, and the service still serves valid streams.
        assert_eq!(service.stats().submitted, 0);
        assert!(service.submit(vec![]).unwrap().wait().unwrap().accepted);
    }

    #[test]
    fn wait_timeout_observes_fulfilled_and_pending() {
        let m = even_len_nwa();
        let service = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 1,
            },
        );
        let handle = service.submit(vec![]).unwrap();
        let outcome = handle.wait().unwrap();
        assert_eq!(
            handle.wait_timeout(Duration::from_millis(10)),
            Some(Ok(outcome))
        );
        // A handle nothing will ever fulfil times out instead of hanging.
        let orphan = DecisionHandle {
            slot: Arc::default(),
        };
        assert_eq!(orphan.wait_timeout(Duration::from_millis(10)), None);
        assert_eq!(orphan.try_outcome(), None);
    }

    /// An artifact whose batch kernel panics on `Return` events — a
    /// stand-in for a buggy compiled engine, pinning the fulfilment
    /// guarantee on worker unwind.
    #[derive(Debug)]
    struct Bomb;

    struct BombLane(usize);

    impl automata_core::StreamRun for BombLane {
        fn step(&mut self, event: TaggedSymbol) {
            assert!(!matches!(event, TaggedSymbol::Return(_)), "bomb tripped");
            self.0 += 1;
        }
        fn is_accepting(&self) -> bool {
            true
        }
        fn stack_height(&self) -> usize {
            0
        }
        fn peak_memory(&self) -> usize {
            0
        }
        fn steps(&self) -> usize {
            self.0
        }
    }

    impl automata_core::StreamAcceptor for Bomb {
        type Run<'a> = BombLane;
        fn start(&self) -> BombLane {
            BombLane(0)
        }
    }

    impl BatchAcceptor for Bomb {
        type Lane = BombLane;
        fn lane_start(&self) -> BombLane {
            BombLane(0)
        }
        fn lane_step(&self, lane: &mut BombLane, event: TaggedSymbol) {
            automata_core::StreamRun::step(lane, event);
        }
        fn lane_accepting(&self, _: &BombLane) -> bool {
            true
        }
        fn lane_outcome(&self, lane: &BombLane) -> StreamOutcome {
            StreamOutcome {
                accepted: true,
                events: lane.0,
                peak_memory: 0,
            }
        }
    }

    /// `BombLane` doubles as a one-query set run, so `Bomb` also serves
    /// `submit_multi` — and panics there on `Return` events too.
    impl QuerySetRun for BombLane {
        fn num_queries(&self) -> usize {
            1
        }
        fn verdicts(&self) -> u64 {
            1
        }
        fn outcomes(&self) -> Vec<StreamOutcome> {
            vec![Bomb.lane_outcome(self)]
        }
    }

    impl MultiAcceptor for Bomb {
        type SetRun<'a> = BombLane;
        fn start_set(&self) -> BombLane {
            BombLane(0)
        }
        fn num_queries(&self) -> usize {
            1
        }
        fn member_alphabet_fingerprints(&self) -> Vec<u64> {
            vec![fingerprint_alphabet(1)]
        }
    }

    #[test]
    fn worker_panic_fulfils_handles_and_worker_survives() {
        let service = DecisionService::new(
            Bomb,
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 2,
            },
        );
        let a = Symbol(0);
        // Passes submission validation (the symbol is in the alphabet) but
        // trips the kernel — exactly the failure validation cannot catch.
        let bad = service.submit(vec![TaggedSymbol::Return(a)]).unwrap();
        assert_eq!(bad.wait(), Err(DecisionError::WorkerPanicked));
        // The sole worker survived the unwind and still decides streams.
        let good = service.submit(vec![TaggedSymbol::Internal(a)]).unwrap();
        let outcome = good.wait().unwrap();
        assert!(outcome.accepted);
        assert_eq!(outcome.events, 1);
        let stats = service.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.workers.iter().map(|w| w.failures).sum::<u64>(), 1);
        assert_eq!(stats.workers.iter().map(|w| w.documents).sum::<u64>(), 1);
    }

    #[test]
    fn task_panic_fulfils_its_handle_and_worker_survives() {
        let service = DecisionService::new(
            Bomb,
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 2,
            },
        );
        let a = Symbol(0);
        // A multi-query run is a boxed task, not a batch: its panic is
        // caught inside the task and fails only its own handle.
        let bad = service.submit_multi(vec![TaggedSymbol::Return(a)]).unwrap();
        assert_eq!(bad.wait(), Err(DecisionError::WorkerPanicked));
        // The sole worker survived the unwind and still decides streams.
        let good = service.submit(vec![TaggedSymbol::Internal(a)]).unwrap();
        assert!(good.wait().unwrap().accepted);
        // Counters settle before fulfilment, so no sleep is needed.
        let stats = service.stats();
        assert_eq!(stats.workers.iter().map(|w| w.failures).sum::<u64>(), 1);
        assert_eq!(stats.completed, stats.submitted);
        assert_eq!(stats.submitted, 2);
    }

    #[test]
    fn parked_documents_advance_across_the_pool_and_finish() {
        let m = even_len_nwa();
        let compiled = m.compile();
        let service = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 3,
                lanes: 2,
            },
        );
        let a = Symbol(0);
        let full: Vec<TaggedSymbol> = (0..13)
            .map(|j| match j % 3 {
                0 => TaggedSymbol::Call(a),
                1 => TaggedSymbol::Internal(a),
                _ => TaggedSymbol::Return(a),
            })
            .collect();
        // Feed the document in bursts; each advance may land on a
        // different worker, carrying only the snapshot between them.
        let mut doc = service.open_document();
        assert_eq!(doc.events(), 0);
        for burst in full.chunks(5) {
            doc = service
                .advance(&doc, burst.to_vec())
                .unwrap()
                .wait()
                .unwrap();
        }
        assert_eq!(doc.events(), full.len() as u64);
        let outcome = service.finish(&doc).unwrap();
        assert_eq!(outcome, query::run_stream(&compiled, full.iter().copied()));
        // A parked document serializes and ships next to the artifact
        // bytes; the reload closes to the same verdict.
        let reloaded = ParkedDoc::from_bytes(&doc.to_bytes()).unwrap();
        assert_eq!(reloaded, doc);
        assert_eq!(service.finish(&reloaded).unwrap(), outcome);
        // Bursts count as units of work in the service counters.
        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        let total_events: u64 = stats.workers.iter().map(|w| w.events).sum();
        assert_eq!(total_events, full.len() as u64);
        assert_eq!(stats.workers.iter().map(|w| w.documents).sum::<u64>(), 0);
    }

    #[test]
    fn advance_validates_alphabet_and_fingerprint_at_submission() {
        let m = even_len_nwa();
        let service = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 2,
            },
        );
        let doc = service.open_document();
        // Out-of-alphabet events are refused before anything is queued.
        let err = service
            .advance(&doc, vec![TaggedSymbol::Call(Symbol(7))])
            .unwrap_err();
        assert!(matches!(
            err,
            ParkError::Input(NestedWordError::UnknownSymbol { ref name }) if name == "s7"
        ));
        // A snapshot parked by a *different* artifact is refused, typed, at
        // resubmission: the fingerprint check — even with an empty burst.
        let mut other = even_len_nwa();
        other.set_accepting(1, true);
        let foreign_service = DecisionService::new(
            other.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 1,
            },
        );
        let foreign = foreign_service.open_document();
        let err = service.advance(&foreign, vec![]).unwrap_err();
        assert!(matches!(
            err,
            ParkError::Artifact(PersistError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            service.finish(&foreign),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        // Nothing was queued by any of the refusals.
        assert_eq!(service.stats().submitted, 0);
    }

    #[test]
    fn services_boot_from_artifact_bytes() {
        let m = even_len_nwa();
        let bytes = query::save(&m.compile());
        let service: DecisionService<nwa::CompiledNwa> = DecisionService::from_artifact_bytes(
            &bytes,
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 2,
                lanes: 2,
            },
        )
        .unwrap();
        let a = Symbol(0);
        let handle = service
            .submit(vec![TaggedSymbol::Internal(a), TaggedSymbol::Internal(a)])
            .unwrap();
        assert!(handle.wait().unwrap().accepted);
        // A document parked by the original artifact resumes on the
        // reloaded one: same fingerprint, byte-identical tables.
        let original = DecisionService::new(
            m.compile(),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 1,
            },
        );
        let doc = original
            .advance(&original.open_document(), vec![TaggedSymbol::Internal(a)])
            .unwrap()
            .wait()
            .unwrap();
        assert!(!service.finish(&doc).unwrap().accepted);

        // An artifact saved against a different alphabet size is a typed
        // error before any thread spawns.
        let err = DecisionService::<nwa::CompiledNwa>::from_artifact_bytes(
            &bytes,
            Alphabet::from_names(["a", "b"]),
            ServiceConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PersistError::AlphabetMismatch { .. }));
        // Corrupt bytes are a typed error, never a panic.
        assert!(DecisionService::<nwa::CompiledNwa>::from_artifact_bytes(
            &bytes[..bytes.len() - 1],
            Alphabet::from_names(["a"]),
            ServiceConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn submit_multi_returns_every_member_verdict() {
        use nwa::{QuerySet, QuerySetBackend};

        let a = Symbol(0);
        let even = even_len_nwa();
        let mut some_call = Nwa::new(2, 1, 0);
        some_call.set_accepting(1, true);
        for q in 0..2usize {
            some_call.set_internal(q, a, q);
            some_call.set_call(q, a, 1, 0);
            for h in 0..2 {
                some_call.set_return(q, h, a, q);
            }
        }
        let queries = [even.clone(), some_call.clone()];
        let streams: Vec<Vec<TaggedSymbol>> = (0..10usize)
            .map(|i| {
                (0..i)
                    .map(|j| match j % 3 {
                        0 => TaggedSymbol::Internal(a),
                        1 => TaggedSymbol::Call(a),
                        _ => TaggedSymbol::Return(a),
                    })
                    .collect()
            })
            .collect();
        for backend in [QuerySetBackend::Product, QuerySetBackend::Lockstep] {
            let service = DecisionService::new(
                QuerySet::with_backend(&queries, backend),
                Alphabet::from_names(["a"]),
                ServiceConfig {
                    workers: 2,
                    lanes: 3,
                },
            );
            let handles: Vec<Handle<Vec<StreamOutcome>>> = streams
                .iter()
                .map(|s| service.submit_multi(s.clone()).unwrap())
                .collect();
            for (stream, handle) in streams.iter().zip(&handles) {
                let outcomes = handle.wait().unwrap();
                assert_eq!(outcomes.len(), 2);
                for (query, outcome) in queries.iter().zip(&outcomes) {
                    let expected = query::run_stream(query, stream.iter().copied());
                    assert_eq!(*outcome, expected, "{backend:?}");
                }
                // Waiting twice returns the same verdicts.
                assert_eq!(handle.wait().unwrap(), outcomes);
                assert_eq!(handle.try_outcome(), Some(Ok(outcomes.clone())));
                assert_eq!(
                    handle.wait_timeout(Duration::from_millis(10)),
                    Some(Ok(outcomes))
                );
            }
            // Multi submissions share the queue with single-verdict ones.
            let single = service.submit(streams[4].clone()).unwrap();
            assert_eq!(
                single.wait().unwrap(),
                query::run_stream(
                    &QuerySet::with_backend(&queries, backend),
                    streams[4].iter().copied()
                )
            );
            let stats = service.stats();
            assert_eq!(stats.submitted, 11);
            assert_eq!(stats.completed, 11);
        }
    }

    #[test]
    fn submit_multi_validates_every_query_alphabet_up_front() {
        use nwa::QuerySet;

        // The set's members were compiled over a 3-symbol alphabet, but the
        // service holds a 2-name alphabet: every submission is refused with
        // a typed error naming the first offending query, and nothing is
        // ever queued.
        let mut wide = Nwa::new(1, 3, 0);
        wide.set_accepting(0, true);
        for s in 0..3 {
            let s = Symbol(s as u16);
            wide.set_internal(0, s, 0);
            wide.set_call(0, s, 0, 0);
            wide.set_return(0, 0usize, s, 0);
        }
        let service = DecisionService::new(
            QuerySet::compile(&[wide.clone(), wide]),
            Alphabet::from_names(["a", "b"]),
            ServiceConfig {
                workers: 1,
                lanes: 2,
            },
        );
        let err = service
            .submit_multi(vec![TaggedSymbol::Internal(Symbol(0))])
            .unwrap_err();
        assert!(matches!(
            err,
            MultiSubmitError::QueryAlphabetMismatch { query: 0, .. }
        ));
        assert_eq!(service.stats().submitted, 0);

        // With a matching artifact, out-of-alphabet events are still typed
        // errors before anything is queued — the same guard as submit().
        let service = DecisionService::new(
            QuerySet::compile(&[even_len_nwa()]),
            Alphabet::from_names(["a"]),
            ServiceConfig {
                workers: 1,
                lanes: 2,
            },
        );
        let err = service
            .submit_multi(vec![TaggedSymbol::Call(Symbol(9))])
            .unwrap_err();
        assert!(matches!(
            err,
            MultiSubmitError::Input(NestedWordError::UnknownSymbol { ref name }) if name == "s9"
        ));
        assert_eq!(service.stats().submitted, 0);
        // And a valid submission still goes through afterwards.
        let outcomes = service.submit_multi(vec![]).unwrap().wait().unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].accepted);
    }

    #[test]
    fn rapid_create_drop_never_deadlocks() {
        // Regression for the shutdown lost-wakeup race: the flag must flip
        // under the queue lock, or a worker caught between its shutdown
        // check and its condvar wait sleeps through the final notify and
        // the drop hangs in join. Creating and dropping many pools — with
        // and without queued work — walks the interleavings.
        let m = even_len_nwa();
        let a = Symbol(0);
        for round in 0..50 {
            let service = DecisionService::new(
                m.compile(),
                Alphabet::from_names(["a"]),
                ServiceConfig {
                    workers: 3,
                    lanes: 2,
                },
            );
            if round % 2 == 0 {
                let handle = service
                    .submit(vec![TaggedSymbol::Internal(a), TaggedSymbol::Internal(a)])
                    .unwrap();
                drop(service);
                assert!(handle.wait().unwrap().accepted);
            }
        }
    }
}
