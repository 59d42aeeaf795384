//! # nwa-service
//!
//! The serving subsystem of the nested-words suite: many concurrent event
//! streams decided against **one shared, immutable compiled automaton**.
//!
//! The paper's headline application (§1, §3.2) — XML stream processing with
//! per-stream memory proportional to nesting depth — is exactly the shape of
//! a high-fan-in filter process: thousands of documents in flight, one
//! compiled query, a stack per open document. The compiled engines
//! (`query::compile`) made a single stream fast; this crate makes *many*
//! streams fast, in two layers:
//!
//! * **Layer 1 — batched execution**: the compiled artifacts'
//!   `automata_core::BatchAcceptor::run_batch` (spelled `query::run_batch`
//!   in the facade) advances N independent streams in software-pipelined
//!   lockstep over one shared table. One stream's throughput is bounded by
//!   the `state → table → state` load-to-use dependency chain, not by
//!   table size, which leaves most of the core idle. Lanes are mutually
//!   independent chains, so interleaving them fills the pipeline: lane B's
//!   table lookup executes in the shadow of lane A's dependency stall.
//!
//! * **Layer 2 — the decision service** ([`DecisionService`]): a
//!   thread-pool facade over batched execution. The compiled artifact is
//!   built once and shared (`Arc`'d — the artifacts are `Send + Sync`);
//!   worker threads pull submitted streams from a queue into batch slots
//!   and answer through one completion handle type, [`Handle<T>`] —
//!   aliased [`DecisionHandle`] for a verdict and [`ParkedHandle`] for a
//!   re-parked document — with `wait`, `wait_timeout` and `try_outcome`.
//!   [`DecisionService::submit_bytes`] routes raw XML bytes through the
//!   incremental SAX `FrozenByteTokenizer`
//!   (read-only name lookup against the compiled alphabet), so the external
//!   API is bytes-in → verdict-out; [`DecisionService::submit`] validates
//!   event symbols against the same alphabet, so nothing out of range ever
//!   reaches the tables. Every handle is always fulfilled — worker panics
//!   surface as a typed [`DecisionError`], never a hung
//!   [`Handle::wait`]. Built-in counters ([`ServiceStats`]) report
//!   per-worker batches, documents, events, failures and lane occupancy,
//!   plus queue high-water marks. A service can also boot straight from
//!   saved artifact bytes ([`DecisionService::from_artifact_bytes`], fully
//!   validated before any thread spawns) and park/unpark in-flight
//!   documents between bursts of input
//!   ([`DecisionService::open_document`] / [`DecisionService::advance`] /
//!   [`DecisionService::finish`]): a parked job is its
//!   `automata_core::Snapshot` ([`ParkedDoc`]), serializable next to the
//!   artifact bytes and fingerprint-checked on every resubmission. When the
//!   artifact is a multi-query set (`automata_core::MultiAcceptor`, e.g. an
//!   `nwa::QuerySet`), [`DecisionService::submit_multi`] decides one stream
//!   against every member query in one pass and answers through a
//!   `Handle<Vec<StreamOutcome>>` carrying all M verdicts, with each
//!   member's alphabet fingerprint validated up front
//!   ([`MultiSubmitError`]).
//!
//! This outgrows the single-shot WALi-OpenNWA `query::language` shape the
//! suite's decision layer was modeled on: the unit of work is no longer one
//! call deciding one input, but a long-lived process deciding an open-ended
//! set of concurrent streams against a query compiled once.
//!
//! ```
//! use automata_core::query;
//! use nested_words::{Alphabet, Symbol, TaggedSymbol};
//! use nwa_service::{DecisionService, ServiceConfig};
//! use word_automata::Dfa;
//!
//! // Tagged DFA over Σ = {a} accepting streams of even length.
//! let mut even = Dfa::new(2, 3, 0);
//! even.set_accepting(0, true);
//! for q in 0..2 {
//!     for t in 0..3 {
//!         even.set_transition(q, t, 1 - q);
//!     }
//! }
//! let service = DecisionService::new(
//!     query::compile(&even),
//!     Alphabet::from_names(["a"]),
//!     ServiceConfig::default(),
//! );
//! let a = Symbol(0);
//! let handle = service
//!     .submit(vec![TaggedSymbol::Call(a), TaggedSymbol::Return(a)])
//!     .unwrap();
//! assert!(handle.wait().unwrap().accepted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;

pub use service::{
    DecisionError, DecisionHandle, DecisionService, Handle, MultiSubmitError, ParkError, ParkedDoc,
    ParkedHandle, ServiceConfig, ServiceStats, WorkerStats,
};
