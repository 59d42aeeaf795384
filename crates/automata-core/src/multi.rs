//! Multi-query execution: deciding M queries over one event stream in a
//! single pass.
//!
//! The paper's motivating workload (§1) is document filtering, where many
//! queries interrogate the *same* document. Running them one at a time costs
//! M tokenizations of the same bytes even though tokenization — not the
//! automaton step — dominates the bytes-to-verdict pipeline. The capability
//! factored here is the fix: a set of M queries compiles into **one
//! artifact** ([`MultiCompile`]) that is stepped once per event
//! ([`MultiAcceptor`] / [`QuerySetRun`]) and yields all M verdicts, so the
//! stream is scanned once and the per-event engine cost is amortized across
//! the set.
//!
//! The contract deliberately does not fix a representation. An
//! implementation may build a shared product table with per-state accept
//! masks (one transition lookup per event, preferred for small sets over a
//! common alphabet) or advance M compiled engines in lockstep over the same
//! event. Either way the set's state is one [`BatchAcceptor`] lane, so
//! both run through the same [`LaneRun`], present the same [`QuerySetRun`]
//! API, and [`query::run_multi`](crate::query::run_multi) /
//! `nwa_xml::queries::run_multi_streaming_reader` drive either. The
//! reference implementation with both backends and a size heuristic between
//! them is `nwa::QuerySet`.

use crate::stream::{BatchAcceptor, LaneRun, StreamOutcome, StreamRun};

/// The most queries one set may hold: verdicts travel as bits of one `u64`
/// ([`QuerySetRun::verdicts`]), so a set is capped at 64 members. Larger
/// workloads split into multiple sets and still pay one tokenization per
/// set, not per query.
pub const MAX_QUERIES: usize = 64;

/// One in-progress multi-query run: a [`StreamRun`] (it steps tagged events,
/// tracks stack height and peak memory like any single run) that answers for
/// M queries at once.
///
/// The inherited single-verdict observables read as the *conjunction* view:
/// [`StreamRun::is_accepting`] is `true` iff every member query accepts the
/// prefix (`verdicts()` has all `num_queries()` low bits set), so a query
/// set still composes with single-verdict drivers. The per-query answers
/// live in [`verdicts`](QuerySetRun::verdicts) /
/// [`outcomes`](QuerySetRun::outcomes).
pub trait QuerySetRun: StreamRun {
    /// Number of member queries — the number of meaningful low bits in
    /// [`verdicts`](QuerySetRun::verdicts), at most [`MAX_QUERIES`].
    fn num_queries(&self) -> usize;

    /// The per-query verdict bitmask at the current prefix: bit `i` is set
    /// iff query `i` would accept if the stream ended now. Bits at and above
    /// [`num_queries`](QuerySetRun::num_queries) are zero.
    fn verdicts(&self) -> u64;

    /// The per-query [`StreamOutcome`]s at the current prefix, in query
    /// order. Every outcome reports the same event count (the queries read
    /// the same stream); acceptance is per query.
    fn outcomes(&self) -> Vec<StreamOutcome>;
}

/// A compiled query-set artifact: M queries answered by one run over one
/// stream.
///
/// The set's per-stream state is its [`BatchAcceptor::Lane`]; the
/// single-verdict lane observables are the *conjunction* view (the set
/// accepts iff every member does), and
/// [`lane_verdicts`](MultiAcceptor::lane_verdicts) reads the per-query
/// answers off the same lane.
///
/// Laws (property-tested in `tests/multiquery.rs`):
///
/// 1. **set ≡ sequential** — at every prefix, bit `i` of
///    [`QuerySetRun::verdicts`] equals what a standalone run of query `i`
///    alone observes at that prefix (pending calls and pending returns
///    included);
/// 2. **one stream** — all M outcomes report the same `events` count;
/// 3. **representation-free** — a product-table backend and a lockstep
///    backend over the same queries agree on every stream.
pub trait MultiAcceptor: BatchAcceptor {
    /// Number of member queries in the set.
    fn num_queries(&self) -> usize;

    /// The per-query verdict bitmask of a lane at its current prefix: bit
    /// `i` is set iff query `i` would accept if the stream ended now. Bits
    /// at and above [`num_queries`](MultiAcceptor::num_queries) are zero.
    fn lane_verdicts(&self, lane: &Self::Lane) -> u64;

    /// The alphabet fingerprint each member query was compiled against, in
    /// query order ([`persist::fingerprint_alphabet`](crate::persist::fingerprint_alphabet)
    /// of its σ). Serving layers validate submissions against these *before*
    /// queueing, so a query compiled over the wrong alphabet is one typed
    /// error up front rather than a mid-batch worker panic.
    fn member_alphabet_fingerprints(&self) -> Vec<u64>;

    /// Starts a fresh run of all member queries in their initial
    /// configurations.
    fn start_set(&self) -> LaneRun<'_, Self>
    where
        Self: Sized,
    {
        LaneRun::new(self)
    }
}

/// Every multi-query run is a [`LaneRun`] over a [`MultiAcceptor`]'s lane.
impl<A: MultiAcceptor> QuerySetRun for LaneRun<'_, A> {
    fn num_queries(&self) -> usize {
        self.artifact.num_queries()
    }

    fn verdicts(&self) -> u64 {
        self.artifact.lane_verdicts(&self.lane)
    }

    fn outcomes(&self) -> Vec<StreamOutcome> {
        let outcome = self.artifact.lane_outcome(&self.lane);
        let verdicts = self.verdicts();
        (0..self.num_queries())
            .map(|i| StreamOutcome {
                accepted: verdicts & (1 << i) != 0,
                ..outcome
            })
            .collect()
    }
}

/// Compilation of a query *set* into one steppable artifact — the
/// multi-query counterpart of [`Compile`](crate::Compile).
///
/// The free-function spelling is
/// [`query::compile_set`](crate::query::compile_set). Implementations pick
/// their representation (shared product table, lockstep engines, …) per
/// set; whatever they pick, the result honors the [`MultiAcceptor`] laws.
pub trait MultiCompile: Sized {
    /// The compiled query-set artifact.
    type CompiledSet: MultiAcceptor;

    /// Compiles `queries` into one artifact deciding all of them per event.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty or holds more than [`MAX_QUERIES`]
    /// members (implementations may add model-specific requirements, e.g. a
    /// common alphabet).
    fn compile_set(queries: &[Self]) -> Self::CompiledSet;
}
