//! Streaming (event-at-a-time) runs over tagged-symbol streams.
//!
//! The headline application of the paper (§1, §3.2) is SAX processing: a
//! document arrives as a stream of open-tags, text tokens and close-tags —
//! i.e. as a sequence of [`TaggedSymbol`] events — and a nested word
//! automaton decides membership in a single pass with memory proportional to
//! the nesting depth, never materializing the document. The batch
//! [`Acceptor`](crate::Acceptor) trait cannot express that: it takes the
//! whole input at once.
//!
//! [`StreamAcceptor`] is the incremental counterpart. A model starts a
//! [`StreamRun`], feeds it one event at a time, and may interrogate it at any
//! prefix: would stopping here accept, how many stack frames are live right
//! now, and what is the peak memory the run has ever needed. The free
//! functions [`query::run_stream`](crate::query::run_stream) and
//! [`query::contains_stream`](crate::query::contains_stream) drive a run
//! over any `IntoIterator` of events.
//!
//! [`BatchAcceptor`] is the multi-stream counterpart: N independent streams
//! advanced in software-pipelined lockstep over one shared (compiled)
//! automaton, each stream's state held in an owned, `Send`able *lane*. One
//! stream's per-event cost is bounded by the `state → table → state`
//! load-to-use chain; interleaving independent lanes hides each lane's
//! dependency stall behind the others' table lookups, which is what the
//! `nwa-service` batched runner and decision service are built on
//! ([`query::run_batch`](crate::query::run_batch) is the free-function
//! spelling).

use nested_words::TaggedSymbol;

/// One in-progress run of an automaton over a stream of tagged symbols.
///
/// A run is created by [`StreamAcceptor::start`], consumes events via
/// [`step`](StreamRun::step), and can be queried after any prefix. Runs
/// borrow their automaton, so they are cheap to create and carry only the
/// per-run state (for nested word automata: a stack whose height equals the
/// number of currently open calls).
pub trait StreamRun {
    /// Consumes one tagged-symbol event.
    fn step(&mut self, event: TaggedSymbol);

    /// Consumes a slice of events in one call.
    ///
    /// Observably identical to stepping each event in order; the default
    /// does exactly that. Compiled engines run their bulk kernel here
    /// (through [`LaneRun`] and
    /// [`BatchAcceptor::lane_step_slice`]), keeping the run state in
    /// registers for the whole slice — which is what the bytes-in →
    /// verdict-out pipeline (`nwa_xml::queries::run_streaming_reader`)
    /// feeds with buffered event runs from the bulk scanner.
    fn step_slice(&mut self, events: &[TaggedSymbol]) {
        for &event in events {
            self.step(event);
        }
    }

    /// Returns `true` if ending the stream now would accept the prefix read
    /// so far.
    fn is_accepting(&self) -> bool;

    /// The number of stack frames currently live (equals the number of
    /// currently open calls; `0` for stack-free models such as word
    /// automata).
    fn stack_height(&self) -> usize;

    /// The maximum [`stack_height`](StreamRun::stack_height) observed so far
    /// — the memory bound of §3.2: proportional to the depth of the input,
    /// not its length.
    fn peak_memory(&self) -> usize;

    /// Number of events consumed so far.
    fn steps(&self) -> usize;
}

/// An automaton that can run incrementally over a stream of
/// [`TaggedSymbol`] events.
///
/// Implementors: the interpreted models run their own reference runs —
/// `Nwa` steps its deterministic transition functions directly, `Nnwa` and
/// `JoinlessNwa` simulate the on-the-fly subset construction over
/// (summary-set, stack) configurations, and `Dfa` reads the events as
/// letters of the tagged alphabet Σ̂ (the flat view of §3.3) with no stack
/// at all. Every compiled artifact's run is a [`LaneRun`]: its one owned
/// [`BatchAcceptor::Lane`] next to a borrow of the artifact.
pub trait StreamAcceptor {
    /// The run type; borrows the automaton for the duration of the run.
    type Run<'a>: StreamRun
    where
        Self: 'a;

    /// Starts a fresh run in the initial configuration with an empty stack.
    fn start(&self) -> Self::Run<'_>;
}

/// Batched execution: advancing many independent event streams in lockstep
/// over one shared automaton.
///
/// A [`StreamRun`] is the right shape for one stream, but its per-event cost
/// is dominated by the load-to-use dependency chain `state → table → state`:
/// the next table lookup cannot issue before the previous one retires, so a
/// single run leaves most of the core's memory-level parallelism idle. A
/// *batch* breaks the bottleneck by construction: N streams advance in
/// round-robin lockstep over the same shared tables, and because the lanes'
/// chains are mutually independent, lane B's table load executes in the
/// shadow of lane A's — the software-pipelining observation behind the
/// multi-stream service layer (`nwa-service`).
///
/// The capability is factored as a *lane*: a self-contained, owned per-stream
/// state ([`BatchAcceptor::Lane`] — for nested word automata a `u32` linear
/// state plus a `u32` stack; nothing borrows the automaton), advanced one
/// event at a time by [`lane_step`](BatchAcceptor::lane_step) or a slice at
/// a time by [`lane_step_slice`](BatchAcceptor::lane_step_slice). The
/// automaton itself stays shared and immutable (`&self` everywhere), so one
/// compiled artifact can drive any number of lanes from any number of
/// threads. The lane is the artifact's *only* per-stream state: its
/// [`StreamAcceptor::Run`] is a [`LaneRun`], so a single stream and a batch
/// run the same stepping code.
///
/// Laws (property-tested in `tests/service.rs`):
///
/// 1. **lane ≡ reference** — stepping a lane through a stream observes
///    exactly what the source model's interpreted [`StreamRun`] observes at
///    every prefix (acceptance, stack height, peak memory, step count);
/// 2. **batch ≡ sequential** — [`run_batch`](BatchAcceptor::run_batch)
///    returns, per lane, the [`StreamOutcome`] of running that lane's stream
///    alone.
pub trait BatchAcceptor: StreamAcceptor {
    /// Self-contained per-stream state: owns its stack, borrows nothing, so
    /// a batch is just N lanes next to each other and lanes can migrate
    /// across worker threads.
    type Lane: Send;

    /// A fresh lane in the initial configuration with an empty stack.
    fn lane_start(&self) -> Self::Lane;

    /// Advances one lane by one event. Implementations keep this small and
    /// branch-light — it is the body of the batched inner loop.
    fn lane_step(&self, lane: &mut Self::Lane, event: TaggedSymbol);

    /// Advances one lane through a slice of events, observably identical to
    /// [`lane_step`](BatchAcceptor::lane_step) on each event in order (the
    /// default does exactly that). Compiled engines override it with their
    /// bulk kernel, hoisting the lane into registers for the whole slice.
    fn lane_step_slice(&self, lane: &mut Self::Lane, events: &[TaggedSymbol]) {
        for &event in events {
            self.lane_step(lane, event);
        }
    }

    /// The number of stack frames currently live in the lane.
    fn lane_height(&self, lane: &Self::Lane) -> usize;

    /// The lane's run observables at the current prefix: acceptance,
    /// events consumed, peak stack height.
    fn lane_outcome(&self, lane: &Self::Lane) -> StreamOutcome;

    /// Advances stream `i` through lane `i` for every `i`, interleaved in
    /// lockstep: the common prefix of all streams runs round-robin (one
    /// event per lane per round, so the lanes' table loads overlap), then
    /// each lane drains its remaining tail. Returns one [`StreamOutcome`]
    /// per stream.
    ///
    /// The default implementation performs the lockstep interleaving
    /// generically; with [`lane_step`](BatchAcceptor::lane_step) inlined
    /// the round loop is exactly the software-pipelined shape the batched
    /// runner wants, so implementors rarely need to override it.
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        let mut lanes: Vec<Self::Lane> = streams.iter().map(|_| self.lane_start()).collect();
        let common = streams.iter().map(|s| s.len()).min().unwrap_or(0);
        for round in 0..common {
            for (lane, stream) in lanes.iter_mut().zip(streams) {
                self.lane_step(lane, stream[round]);
            }
        }
        for (lane, stream) in lanes.iter_mut().zip(streams) {
            self.lane_step_slice(lane, &stream[common..]);
        }
        lanes.iter().map(|lane| self.lane_outcome(lane)).collect()
    }
}

/// The [`StreamRun`] of every compiled artifact: one owned
/// [`BatchAcceptor::Lane`] next to a borrow of the artifact that steps it.
///
/// Every method delegates to the artifact's `lane_*` methods, so a run and
/// a lane are one state stepped by one kernel —
/// [`step_slice`](StreamRun::step_slice) is
/// [`lane_step_slice`](BatchAcceptor::lane_step_slice) — and a run can hand
/// its lane to [`Suspend`](crate::Suspend) or to a worker thread at any
/// prefix ([`lane`](LaneRun::lane), [`into_lane`](LaneRun::into_lane)).
#[derive(Debug)]
pub struct LaneRun<'a, A: BatchAcceptor> {
    pub(crate) artifact: &'a A,
    pub(crate) lane: A::Lane,
}

impl<'a, A: BatchAcceptor> LaneRun<'a, A> {
    /// A run from the artifact's initial configuration.
    pub fn new(artifact: &'a A) -> Self {
        LaneRun::from_lane(artifact, artifact.lane_start())
    }

    /// A run continuing from `lane` (e.g. one resumed from a
    /// [`Snapshot`](crate::Snapshot)).
    pub fn from_lane(artifact: &'a A, lane: A::Lane) -> Self {
        LaneRun { artifact, lane }
    }

    /// The run's state.
    pub fn lane(&self) -> &A::Lane {
        &self.lane
    }

    /// Ends the borrow of the artifact, keeping the run's state.
    pub fn into_lane(self) -> A::Lane {
        self.lane
    }
}

impl<A: BatchAcceptor> StreamRun for LaneRun<'_, A> {
    fn step(&mut self, event: TaggedSymbol) {
        self.artifact.lane_step(&mut self.lane, event);
    }

    fn step_slice(&mut self, events: &[TaggedSymbol]) {
        self.artifact.lane_step_slice(&mut self.lane, events);
    }

    fn is_accepting(&self) -> bool {
        self.artifact.lane_outcome(&self.lane).accepted
    }

    fn stack_height(&self) -> usize {
        self.artifact.lane_height(&self.lane)
    }

    fn peak_memory(&self) -> usize {
        self.artifact.lane_outcome(&self.lane).peak_memory
    }

    fn steps(&self) -> usize {
        self.artifact.lane_outcome(&self.lane).events
    }
}

/// Summary of a completed streaming evaluation, as reported by
/// [`query::run_stream`](crate::query::run_stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Whether the automaton accepted the stream.
    pub accepted: bool,
    /// Number of events processed.
    pub events: usize,
    /// Maximum stack height used: proportional to the nesting depth of the
    /// input, not to its length.
    pub peak_memory: usize,
}
