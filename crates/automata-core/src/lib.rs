//! # automata-core
//!
//! The shared vocabulary of the nested-words suite: every automaton model —
//! nested word automata, word automata, tree automata and the pushdown
//! variants — implements the same small set of traits, so that callers can
//! test membership, combine languages and decide inclusion or equivalence
//! without knowing which machine model they hold.
//!
//! The design follows the query layer of WALi-OpenNWA (`languageContains`,
//! `languageSubsetEq`, `languageIsEmpty`, `languageEquals`): a handful of
//! verbs, uniform across models, with inclusion and equivalence derived from
//! boolean operations plus emptiness.
//!
//! * [`Acceptor`] — membership: `a.accepts(&input)` for whatever input type
//!   the model reads (nested words, ordered trees, flat symbol slices);
//! * [`StreamAcceptor`] / [`StreamRun`] — incremental membership over
//!   streams of tagged-symbol events (SAX processing, §3.2): start a run,
//!   feed one event at a time, and observe acceptance and peak stack memory
//!   at any prefix;
//! * [`BatchAcceptor`] — batched multi-stream membership
//!   ([`query::run_batch`]): N independent event streams advanced in
//!   software-pipelined lockstep over one shared automaton, each stream's
//!   state an owned `Send`able lane — the capability the `nwa-service`
//!   batched runner and concurrent decision service drive. The lane is a
//!   compiled artifact's only per-stream state: its [`StreamRun`] is the
//!   generic [`LaneRun`], one lane next to a borrow of the artifact;
//! * [`MultiCompile`] / [`MultiAcceptor`] / [`QuerySetRun`] — multi-query
//!   execution ([`query::compile_set`], [`query::run_multi`]): M queries
//!   compiled into one artifact stepped once per event, yielding a
//!   per-query verdict bitmask — one tokenization pass answers the whole
//!   query set;
//! * [`Compile`] — lowering into a dense-table execution artifact
//!   ([`query::compile`]): the compiled form runs the same [`StreamAcceptor`]
//!   protocol with cache-friendly flat tables, trading a one-time
//!   compilation pass (and, for subset engines, memoized row storage) for
//!   per-event speed;
//! * [`Persist`] — versioned, endian-explicit byte formats for compiled
//!   artifacts ([`query::save`], [`query::load`]): an artifact is plain old
//!   data, so it can be built (and warmed) once offline and shipped to a
//!   fleet as bytes, with a checked header (magic, format version, alphabet
//!   fingerprint, payload checksum) turning corruption into a typed
//!   [`PersistError`] instead of a panic;
//! * [`Suspend`] — first-class run state ([`query::suspend`],
//!   [`query::resume`]): a live lane (a run's, via [`LaneRun::lane`])
//!   exports an owned, serializable [`Snapshot`] (state id + `u32` stack +
//!   peak/step counters — the Theorem 1 memory bound made concrete), and
//!   any artifact with the same fingerprint resumes it at the exact prefix;
//! * [`BooleanOps`] — intersection, union, complement;
//! * [`Emptiness`] — the language-emptiness decision;
//! * [`Decide`] — inclusion and equivalence, with default implementations
//!   via `intersect` + `complement` + `is_empty`;
//! * [`Minimize`] — state minimization ([`query::minimize`]), so the
//!   succinctness experiments sweep minimal state counts across models
//!   generically;
//! * [`Witness`] — emptiness witness extraction ([`query::witness`]): a
//!   shortest-ish accepted input instead of a bare boolean, with
//!   [`query::counterexample`] and [`query::distinguish`] derived from
//!   [`BooleanOps`] + [`Witness`] to explain failed inclusion and
//!   equivalence checks;
//! * [`Builder`] — the fluent-construction idiom shared by `NwaBuilder`,
//!   `NnwaBuilder`, `DfaBuilder` and friends in the model crates;
//! * [`StateId`] — a typed state index, so builder call sites cannot confuse
//!   states with symbols or stack entries;
//! * [`query`] — free-function spellings of the decision verbs
//!   ([`query::contains`], [`query::is_empty`], [`query::subset_eq`],
//!   [`query::equals`]) and of the streaming runs
//!   ([`query::run_stream`], [`query::contains_stream`]).
//!
//! This crate depends only on `nested-words` (for the input types); the
//! model crates depend on it and implement the traits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod compile;
pub mod ids;
pub mod multi;
pub mod persist;
pub mod query;
pub mod stream;
pub mod suspend;
pub mod traits;

pub use build::Builder;
pub use compile::Compile;
pub use ids::StateId;
pub use multi::{MultiAcceptor, MultiCompile, QuerySetRun};
pub use persist::{Persist, PersistError};
pub use stream::{BatchAcceptor, LaneRun, StreamAcceptor, StreamOutcome, StreamRun};
pub use suspend::{Snapshot, Suspend};
pub use traits::{Acceptor, BooleanOps, Decide, Emptiness, Minimize, Witness};
