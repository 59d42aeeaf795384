//! Free-function spellings of the decision verbs, mirroring the
//! WALi-OpenNWA query layer (`languageContains`, `languageIsEmpty`,
//! `languageSubsetEq`, `languageEquals`).
//!
//! These are thin generic wrappers over the [`Acceptor`], [`Emptiness`],
//! [`Decide`] and [`Minimize`] traits, so one vocabulary covers every automaton model in the
//! suite. The umbrella crate re-exports this module as `query`, which is the
//! spelling examples and tests use: `query::equals(&a, &b)`.

use crate::compile::Compile;
use crate::multi::{MultiAcceptor, MultiCompile, QuerySetRun};
use crate::persist::{Persist, PersistError};
use crate::stream::{BatchAcceptor, StreamAcceptor, StreamOutcome, StreamRun};
use crate::suspend::{Snapshot, Suspend};
use crate::traits::{Acceptor, BooleanOps, Decide, Emptiness, Minimize, Witness};
use nested_words::TaggedSymbol;

/// Returns `true` if automaton `a` accepts `input`
/// (WALi's `languageContains`).
///
/// ```
/// use automata_core::query;
/// use nested_words::{Alphabet, Symbol, tagged::parse_nested_word};
/// use nwa::NwaBuilder;
///
/// // Deterministic NWA over {a} accepting nested words of even length:
/// // every position flips the parity state, whatever its kind.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let even = builder.build();
///
/// let mut ab = Alphabet::from_names(["a"]);
/// let w2 = parse_nested_word("<a a>", &mut ab).unwrap();
/// let w3 = parse_nested_word("<a a a>", &mut ab).unwrap();
/// assert!(query::contains(&even, &w2));
/// assert!(!query::contains(&even, &w3));
/// ```
pub fn contains<I: ?Sized, A: Acceptor<I>>(a: &A, input: &I) -> bool {
    a.accepts(input)
}

/// Runs automaton `a` incrementally over a stream of tagged-symbol events
/// and reports the [`StreamOutcome`]: acceptance, event count, and the peak
/// stack memory the run needed (proportional to the nesting depth of the
/// stream, not its length — the §3.2 bound).
///
/// `events` is any `IntoIterator` of [`TaggedSymbol`]s: a SAX tokenizer, a
/// materialized tagged word, or a generator. The input is consumed one event
/// at a time and never buffered.
///
/// ```
/// use automata_core::query;
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let even = builder.build();
///
/// // <a <a a> a> — four events, nesting depth 2.
/// let events = [
///     TaggedSymbol::Call(a),
///     TaggedSymbol::Call(a),
///     TaggedSymbol::Return(a),
///     TaggedSymbol::Return(a),
/// ];
/// let outcome = query::run_stream(&even, events);
/// assert!(outcome.accepted);
/// assert_eq!(outcome.events, 4);
/// assert_eq!(outcome.peak_memory, 2);
/// ```
pub fn run_stream<A, E>(a: &A, events: E) -> StreamOutcome
where
    A: StreamAcceptor,
    E: IntoIterator<Item = TaggedSymbol>,
{
    let mut run = a.start();
    for event in events {
        run.step(event);
    }
    StreamOutcome {
        accepted: run.is_accepting(),
        events: run.steps(),
        peak_memory: run.peak_memory(),
    }
}

/// Returns `true` if automaton `a` accepts the stream of tagged-symbol
/// events, evaluated in one pass with memory proportional to the nesting
/// depth (the streaming counterpart of [`contains`]).
///
/// ```
/// use automata_core::query;
/// use nested_words::{Alphabet, tagged::parse_nested_word};
/// use nwa::{Nnwa, NnwaBuilder};
/// use nested_words::Symbol;
///
/// // Nondeterministic NWA accepting words containing an a-labelled internal.
/// let a = Symbol(0);
/// let n = NnwaBuilder::new(2, 1)
///     .initial(0)
///     .accepting(1)
///     .internal(0, a, 0)
///     .internal(0, a, 1)
///     .internal(1, a, 1)
///     .call(0, a, 0, 0)
///     .call(1, a, 1, 0)
///     .ret(0, 0, a, 0)
///     .ret(1, 0, a, 1)
///     .build();
///
/// let mut ab = Alphabet::from_names(["a"]);
/// let w = parse_nested_word("<a a a>", &mut ab).unwrap();
/// assert!(query::contains_stream(&n, w.to_tagged()));
/// assert_eq!(
///     query::contains_stream(&n, w.to_tagged()),
///     query::contains(&n, &w),
/// );
/// ```
pub fn contains_stream<A, E>(a: &A, events: E) -> bool
where
    A: StreamAcceptor,
    E: IntoIterator<Item = TaggedSymbol>,
{
    run_stream(a, events).accepted
}

/// Advances N independent event streams in software-pipelined lockstep over
/// one shared automaton and returns one [`StreamOutcome`] per stream — the
/// model-generic entry point to every [`BatchAcceptor`] implementation.
///
/// Per stream, the outcome equals [`run_stream`] on that stream alone
/// (property-tested in `tests/service.rs`); the point of the batch is
/// throughput: the lanes' `state → table → state` load chains are mutually
/// independent, so interleaving them hides each lane's dependency stall
/// behind the others' table lookups. Compile once, batch many.
///
/// ```
/// use automata_core::query;
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let compiled = query::compile(&builder.build());
///
/// let even = [TaggedSymbol::Call(a), TaggedSymbol::Return(a)];
/// let odd = [TaggedSymbol::Internal(a)];
/// let outcomes = query::run_batch(&compiled, &[&even, &odd]);
/// assert!(outcomes[0].accepted);
/// assert!(!outcomes[1].accepted);
/// assert_eq!(outcomes[0], query::run_stream(&compiled, even));
/// ```
pub fn run_batch<A: BatchAcceptor>(a: &A, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
    a.run_batch(streams)
}

/// Compiles a set of M queries into **one** artifact that decides all of
/// them per event — the model-generic entry point to every [`MultiCompile`]
/// implementation. Drive the result with [`run_multi`] (or the bytes-in →
/// verdicts-out pipeline `nwa_xml::queries::run_multi_streaming_reader`):
/// one stream pass, M verdicts, the tokenization amortized across the set.
///
/// ```
/// use automata_core::query;
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Two queries over {a}: "even length" and "contains a call".
/// let a = Symbol(0);
/// let mut even = NwaBuilder::new(2, 1, 0).accepting(0);
/// let mut some_call = NwaBuilder::new(2, 1, 0).accepting(1);
/// for q in 0..2usize {
///     even = even
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
///     some_call = some_call
///         .internal(q, a, q)
///         .call(q, a, 1, 0)
///         .ret(q, 0, a, q)
///         .ret(q, 1, a, q);
/// }
///
/// let set = query::compile_set(&[even.build(), some_call.build()]);
/// let outcomes = query::run_multi(&set, [TaggedSymbol::Internal(a)]);
/// assert!(!outcomes[0].accepted); // odd length
/// assert!(!outcomes[1].accepted); // no call
/// ```
pub fn compile_set<Q: MultiCompile>(queries: &[Q]) -> Q::CompiledSet {
    Q::compile_set(queries)
}

/// Runs a compiled query set over one stream of tagged-symbol events and
/// returns the per-query [`StreamOutcome`]s in query order — the
/// model-generic entry point to every [`MultiAcceptor`] implementation.
///
/// Per query, the outcome equals [`run_stream`] of that query alone over
/// the same events (property-tested in `tests/multiquery.rs`); the point of
/// the set is that the stream is consumed **once** for all M answers.
/// Events are buffered into fixed 4 Ki-event slices (the byte pipeline's
/// slice length) and handed to [`StreamRun::step_slice`], so every backend
/// runs its bulk kernel.
///
/// ```
/// use automata_core::query;
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Two queries over {a}: "even length" and "contains a call".
/// let a = Symbol(0);
/// let mut even_b = NwaBuilder::new(2, 1, 0).accepting(0);
/// let mut some_call_b = NwaBuilder::new(2, 1, 0).accepting(1);
/// for q in 0..2usize {
///     even_b = even_b
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
///     some_call_b = some_call_b
///         .internal(q, a, q)
///         .call(q, a, 1, 0)
///         .ret(q, 0, a, q)
///         .ret(q, 1, a, q);
/// }
/// let (even, some_call) = (even_b.build(), some_call_b.build());
///
/// let set = query::compile_set(&[even.clone(), some_call.clone()]);
/// let events = [TaggedSymbol::Call(a), TaggedSymbol::Return(a)];
/// let outcomes = query::run_multi(&set, events);
/// assert_eq!(outcomes[0], query::run_stream(&even, events));
/// assert_eq!(outcomes[1], query::run_stream(&some_call, events));
/// assert!(outcomes[0].accepted && outcomes[1].accepted);
/// ```
pub fn run_multi<S, E>(set: &S, events: E) -> Vec<StreamOutcome>
where
    S: MultiAcceptor,
    E: IntoIterator<Item = TaggedSymbol>,
{
    let mut run = set.start_set();
    let mut chunk: Vec<TaggedSymbol> = Vec::with_capacity(RUN_MULTI_CHUNK);
    for event in events {
        chunk.push(event);
        if chunk.len() == RUN_MULTI_CHUNK {
            run.step_slice(&chunk);
            chunk.clear();
        }
    }
    run.step_slice(&chunk);
    run.outcomes()
}

/// Events [`run_multi`] buffers per [`StreamRun::step_slice`] call.
const RUN_MULTI_CHUNK: usize = 4 * 1024;

/// Lowers automaton `a` into its dense-table execution artifact — the
/// model-generic entry point to every [`Compile`] implementation. The
/// artifact accepts exactly the streams `a` accepts (property-tested), but
/// runs them through flat, cache-friendly tables; compile once, then drive
/// the result with [`run_stream`] / [`contains_stream`] many times.
///
/// ```
/// use automata_core::query;
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let even = builder.build();
///
/// let compiled = query::compile(&even);
/// let events = [TaggedSymbol::Call(a), TaggedSymbol::Return(a)];
/// assert_eq!(
///     query::contains_stream(&compiled, events),
///     query::contains_stream(&even, events),
/// );
/// ```
pub fn compile<A: Compile>(a: &A) -> A::Compiled {
    a.compile()
}

/// Serializes a compiled artifact into its versioned byte format — the
/// model-generic entry point to every [`Persist`] implementation. The bytes
/// are self-describing (magic, format version, alphabet fingerprint,
/// payload checksum) and [`load`] reconstructs an equal artifact from them,
/// in this process or any other: compile once offline, ship bytes to a
/// fleet.
///
/// ```
/// use automata_core::query;
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::{CompiledNwa, NwaBuilder};
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let compiled = query::compile(&builder.build());
///
/// let bytes = query::save(&compiled);
/// let reloaded: CompiledNwa = query::load(&bytes).unwrap();
/// assert_eq!(reloaded, compiled);
/// ```
pub fn save<A: Persist>(a: &A) -> Vec<u8> {
    a.save()
}

/// Reconstructs a compiled artifact from bytes written by [`save`] — the
/// model-generic entry point to every [`Persist`] implementation. Corrupt,
/// truncated or mismatched bytes yield a typed [`PersistError`], never a
/// panic; on success the artifact equals the saved one structurally and
/// behaviorally (property-tested in `tests/persist.rs`).
///
/// ```
/// use automata_core::{query, PersistError};
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::{CompiledNwa, NwaBuilder};
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let compiled = query::compile(&builder.build());
///
/// let bytes = query::save(&compiled);
/// let reloaded: CompiledNwa = query::load(&bytes).unwrap();
/// let events = [TaggedSymbol::Call(a), TaggedSymbol::Return(a)];
/// assert_eq!(
///     query::run_stream(&reloaded, events),
///     query::run_stream(&compiled, events),
/// );
///
/// // Truncated bytes are a typed error, not a panic.
/// assert!(matches!(
///     query::load::<CompiledNwa>(&bytes[..bytes.len() - 1]),
///     Err(PersistError::Truncated { .. }),
/// ));
/// ```
pub fn load<A: Persist>(bytes: &[u8]) -> Result<A, PersistError> {
    A::load(bytes)
}

/// Captures the state of a batch lane as an owned, serializable
/// [`Snapshot`] — the model-generic entry point to every [`Suspend`]
/// implementation. The snapshot is the run's entire state (state id +
/// `u32` stack + peak/step counters, the Theorem 1 bound made concrete);
/// [`resume`] rebuilds the lane at the exact prefix, on this artifact or on
/// any artifact with the same fingerprint.
///
/// ```
/// use automata_core::{query, BatchAcceptor};
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let compiled = query::compile(&builder.build());
///
/// // Park a lane mid-document, inside an open call.
/// let mut lane = compiled.lane_start();
/// compiled.lane_step(&mut lane, TaggedSymbol::Call(a));
/// let parked = query::suspend(&compiled, &lane);
/// assert_eq!(parked.steps, 1);
///
/// // Resume and finish; the verdict matches the uninterrupted run.
/// let mut lane = query::resume(&compiled, &parked).unwrap();
/// compiled.lane_step(&mut lane, TaggedSymbol::Return(a));
/// let full = [TaggedSymbol::Call(a), TaggedSymbol::Return(a)];
/// assert_eq!(compiled.lane_outcome(&lane), query::run_stream(&compiled, full));
/// ```
pub fn suspend<A: Suspend>(a: &A, lane: &A::Lane) -> Snapshot {
    a.suspend_lane(lane)
}

/// Rebuilds a batch lane from a [`Snapshot`] taken by [`suspend`] — the
/// model-generic entry point to every [`Suspend`] implementation. The
/// artifact fingerprint and the snapshot's structure are validated first: a
/// snapshot from a different artifact fails with
/// [`PersistError::FingerprintMismatch`], garbage fails with a typed error,
/// and a resumed lane can never index outside the artifact's tables.
///
/// ```
/// use automata_core::{query, BatchAcceptor, PersistError};
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NwaBuilder;
///
/// // Deterministic NWA over {a} accepting nested words of even length.
/// let a = Symbol(0);
/// let mut builder = NwaBuilder::new(2, 1, 0).accepting(0);
/// for q in 0..2usize {
///     builder = builder
///         .internal(q, a, 1 - q)
///         .call(q, a, 1 - q, 0)
///         .ret(q, 0, a, 1 - q)
///         .ret(q, 1, a, 1 - q);
/// }
/// let compiled = query::compile(&builder.build());
///
/// let lane = compiled.lane_start();
/// let mut parked = query::suspend(&compiled, &lane);
/// assert!(query::resume(&compiled, &parked).is_ok());
///
/// // A snapshot stamped by some other artifact is rejected, typed.
/// parked.fingerprint ^= 1;
/// assert!(matches!(
///     query::resume(&compiled, &parked),
///     Err(PersistError::FingerprintMismatch { .. }),
/// ));
/// ```
pub fn resume<A: Suspend>(a: &A, snapshot: &Snapshot) -> Result<A::Lane, PersistError> {
    a.resume_lane(snapshot)
}

/// Returns `true` if automaton `a` accepts no input at all
/// (WALi's `languageIsEmpty`).
///
/// ```
/// use automata_core::query;
/// use nested_words::Symbol;
/// use nwa::NnwaBuilder;
///
/// // The accepting state is unreachable until a transition is added.
/// let a = Symbol(0);
/// let dead = NnwaBuilder::new(2, 1).initial(0).accepting(1).build();
/// assert!(query::is_empty(&dead));
///
/// let alive = NnwaBuilder::new(2, 1)
///     .initial(0)
///     .accepting(1)
///     .internal(0, a, 1)
///     .build();
/// assert!(!query::is_empty(&alive));
/// ```
pub fn is_empty<A: Emptiness>(a: &A) -> bool {
    a.is_empty()
}

/// Returns the minimized automaton for `a` — the model-generic entry point
/// to every [`Minimize`] implementation, so succinctness sweeps can obtain
/// minimal state counts without naming a model-specific procedure.
///
/// For deterministic word and stepwise tree automata the result is the
/// unique minimal machine; for nested word automata it is the quotient by
/// the coarsest state congruence (exact on flat automata).
///
/// ```
/// use automata_core::{query, Minimize};
/// use nested_words::Symbol;
/// use tree_automata::StepwiseTA;
///
/// // Nondeterministic "some leaf is b": determinization is wasteful,
/// // minimization brings it back to the 2-state machine.
/// let (a, b) = (Symbol(0), Symbol(1));
/// let mut ta = StepwiseTA::new(2, 2);
/// ta.add_init(a, 0);
/// ta.add_init(b, 0);
/// ta.add_init(b, 1);
/// for q in 0..2 {
///     for r in 0..2 {
///         ta.add_combine(q, r, usize::from(q == 1 || r == 1));
///     }
/// }
/// ta.add_accepting(1);
/// let det = ta.determinize();
/// let min = query::minimize(&det);
/// assert!(Minimize::num_states(&min) <= Minimize::num_states(&det));
/// assert_eq!(Minimize::num_states(&min), 2);
/// ```
pub fn minimize<A: Minimize>(a: &A) -> A {
    a.minimize()
}

/// Returns a shortest-ish input accepted by `a`, or `None` iff the language
/// is empty — the model-generic entry point to every [`Witness`]
/// implementation, turning the bare emptiness bit into an explanation.
///
/// ```
/// use automata_core::query;
/// use nested_words::{Symbol, TaggedSymbol};
/// use nwa::NnwaBuilder;
///
/// // Accepting state only reachable through a matched b-labelled pair.
/// let b = Symbol(0);
/// let n = NnwaBuilder::new(3, 1)
///     .initial(0)
///     .accepting(2)
///     .call(0, b, 1, 1)
///     .ret(1, 1, b, 2)
///     .build();
///
/// let w = query::witness(&n).unwrap();
/// assert!(query::contains(&n, &w));
/// assert_eq!(
///     w.to_tagged(),
///     vec![TaggedSymbol::Call(b), TaggedSymbol::Return(b)],
/// );
/// ```
pub fn witness<A: Witness>(a: &A) -> Option<A::Input> {
    a.witness()
}

/// Returns an input accepted by `a` but rejected by `b`, or `None` iff
/// `L(a) ⊆ L(b)` — the explanation for a failed [`subset_eq`] check, derived
/// for every model from [`BooleanOps`] + [`Witness`] as a witness of
/// `L(a) ∩ L(b)ᶜ`.
///
/// ```
/// use automata_core::query;
/// use word_automata::DfaBuilder;
///
/// // Over {0,1}: "even number of 1s" vs "ends in 1".
/// let even_ones = DfaBuilder::new(2, 2, 0)
///     .accepting(0)
///     .transition(0, 0, 0)
///     .transition(0, 1, 1)
///     .transition(1, 0, 1)
///     .transition(1, 1, 0)
///     .build();
/// let ends_in_one = DfaBuilder::new(2, 2, 0)
///     .accepting(1)
///     .transition(0, 0, 0)
///     .transition(0, 1, 1)
///     .transition(1, 0, 0)
///     .transition(1, 1, 1)
///     .build();
///
/// // The empty word has an even number of 1s but does not end in 1.
/// let w = query::counterexample(&even_ones, &ends_in_one).unwrap();
/// assert!(query::contains(&even_ones, &w[..]));
/// assert!(!query::contains(&ends_in_one, &w[..]));
///
/// // Inclusions that hold produce no counterexample.
/// assert!(query::counterexample(&even_ones, &even_ones).is_none());
/// ```
pub fn counterexample<A>(a: &A, b: &A) -> Option<A::Input>
where
    A: Witness + BooleanOps,
{
    a.intersect(&b.complement()).witness()
}

/// Returns an input accepted by exactly one of `a` and `b` (either
/// direction), or `None` iff `L(a) = L(b)` — the separator behind a failed
/// [`equals`] check, derived from [`BooleanOps`] + [`Witness`] by trying
/// [`counterexample`] both ways.
///
/// ```
/// use automata_core::query;
/// use nested_words::Symbol;
/// use tree_automata::DetStepwiseTA;
///
/// // "contains a b-labelled node" vs its complement: any non-empty tree
/// // separates them, and exactly one side accepts the returned one.
/// let (a, b) = (Symbol(0), Symbol(1));
/// let mut ta = DetStepwiseTA::new(2, 2);
/// ta.set_init(a, 0);
/// ta.set_init(b, 1);
/// for q in 0..2 {
///     for r in 0..2 {
///         ta.set_combine(q, r, usize::from(q == 1 || r == 1));
///     }
/// }
/// ta.set_accepting(1, true);
///
/// let sep = query::distinguish(&ta, &ta.complement()).unwrap();
/// assert_ne!(query::contains(&ta, &sep), query::contains(&ta.complement(), &sep));
/// assert!(query::distinguish(&ta, &ta).is_none());
/// ```
pub fn distinguish<A>(a: &A, b: &A) -> Option<A::Input>
where
    A: Witness + BooleanOps,
{
    counterexample(a, b).or_else(|| counterexample(b, a))
}

/// Returns `true` if `L(a) ⊆ L(b)` (WALi's `languageSubsetEq`).
///
/// ```
/// use automata_core::{query, BooleanOps};
/// use word_automata::DfaBuilder;
///
/// // Over {0,1}: "even number of 1s" and "ends in 1".
/// let even_ones = DfaBuilder::new(2, 2, 0)
///     .accepting(0)
///     .transition(0, 0, 0)
///     .transition(0, 1, 1)
///     .transition(1, 0, 1)
///     .transition(1, 1, 0)
///     .build();
/// let ends_in_one = DfaBuilder::new(2, 2, 0)
///     .accepting(1)
///     .transition(0, 0, 0)
///     .transition(0, 1, 1)
///     .transition(1, 0, 0)
///     .transition(1, 1, 1)
///     .build();
///
/// let both = even_ones.intersect(&ends_in_one);
/// assert!(query::subset_eq(&both, &ends_in_one));
/// assert!(!query::subset_eq(&ends_in_one, &even_ones));
/// ```
pub fn subset_eq<A: Decide>(a: &A, b: &A) -> bool {
    a.subset_eq(b)
}

/// Returns `true` if `L(a) = L(b)` (WALi's `languageEquals`).
///
/// ```
/// use automata_core::{query, BooleanOps};
/// use nested_words::Symbol;
/// use tree_automata::DetStepwiseTA;
///
/// // Stepwise tree automaton: "the tree contains a b-labelled node".
/// let (a, b) = (Symbol(0), Symbol(1));
/// let mut ta = DetStepwiseTA::new(2, 2);
/// ta.set_init(a, 0);
/// ta.set_init(b, 1);
/// for q in 0..2 {
///     for r in 0..2 {
///         ta.set_combine(q, r, usize::from(q == 1 || r == 1));
///     }
/// }
/// ta.set_accepting(1, true);
///
/// // Double complement is a no-op on the language.
/// assert!(query::equals(&ta, &ta.complement().complement()));
/// assert!(!query::equals(&ta, &ta.complement()));
/// ```
pub fn equals<A: Decide>(a: &A, b: &A) -> bool {
    a.equals(b)
}
