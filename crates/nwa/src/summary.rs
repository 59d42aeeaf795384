//! The shared summary-set streaming engine behind the nondeterministic
//! streaming runs (§3.2).
//!
//! [`Nnwa`](crate::Nnwa) and [`JoinlessNwa`](crate::JoinlessNwa) both decide
//! membership on the fly by tracking a *summary*: the set of pairs
//! `(anchor, current)` such that some nondeterministic run entered the
//! innermost currently-open call at `anchor` and sits at `current` now. The
//! two models differ only in the step relations (the joinless return
//! relation splits by linear/hierarchical mode); the run bookkeeping — one
//! `(summary, call symbol)` stack frame per open call, peak tracking, event
//! counting — is identical and lives here once, in
//! [`SummaryStreamingRun`].

use nested_words::{PositionKind, Symbol, TaggedSymbol};
use std::collections::BTreeSet;

/// A summary: the set of `(anchor, current)` state pairs reachable by some
/// nondeterministic run, where `anchor` is the state right after the
/// innermost currently-open call (or the run's initial state at top level).
pub type Summary = BTreeSet<(usize, usize)>;

/// The per-model step relations of the summary-set subset construction.
///
/// Implementors supply the four transition steps and the acceptance test;
/// [`SummaryStreamingRun`] supplies the (summary, stack) execution. The
/// construction is exact: it simulates all nondeterministic runs at once
/// with a stack whose height equals the number of open calls.
pub trait SummarySemantics {
    /// The summary before any event: `{(q, q) : q initial}`.
    fn initial_summary(&self) -> Summary;

    /// Advances every pair across an internal position labelled `a`.
    fn summary_internal(&self, s: &Summary, a: Symbol) -> Summary;

    /// The summary entering the body of a call labelled `a`:
    /// `{(q', q') : q' a linear call successor of some current state}`.
    fn summary_call(&self, s: &Summary, a: Symbol) -> Summary;

    /// Joins the summary saved at the matching call (`outer`, which read
    /// `call_symbol`) with the body summary (`inner`) across a return
    /// labelled `a`.
    fn summary_matched_return(
        &self,
        outer: &Summary,
        call_symbol: Symbol,
        inner: &Summary,
        a: Symbol,
    ) -> Summary;

    /// Advances every pair across a pending return labelled `a` (the
    /// hierarchical edge carries an initial state, §3.1).
    fn summary_pending_return(&self, s: &Summary, a: Symbol) -> Summary;

    /// Returns `true` if the summary contains an accepting current state.
    fn summary_accepting(&self, s: &Summary) -> bool;

    /// Alphabet size: events carry symbols below it.
    fn sigma(&self) -> usize;
}

/// A streaming run of a summary-based nondeterministic model over
/// tagged-symbol events: the subset construction of §3.2 executed on the
/// fly over (summary-set, stack) configurations. Memory is proportional to
/// the nesting depth of the stream, not its length.
#[derive(Debug, Clone)]
pub struct SummaryStreamingRun<'a, A: SummarySemantics> {
    automaton: &'a A,
    current: Summary,
    stack: Vec<(Summary, Symbol)>,
    max_stack: usize,
    steps: usize,
}

impl<'a, A: SummarySemantics> SummaryStreamingRun<'a, A> {
    /// Starts a run in the initial summary with an empty stack.
    pub fn new(automaton: &'a A) -> Self {
        SummaryStreamingRun {
            automaton,
            current: automaton.initial_summary(),
            stack: Vec::new(),
            max_stack: 0,
            steps: 0,
        }
    }

    /// Consumes one tagged-symbol event.
    pub fn step(&mut self, event: TaggedSymbol) {
        self.steps += 1;
        let a = event.symbol();
        match event.kind() {
            PositionKind::Internal => {
                self.current = self.automaton.summary_internal(&self.current, a);
            }
            PositionKind::Call => {
                let linear = self.automaton.summary_call(&self.current, a);
                let outer = std::mem::replace(&mut self.current, linear);
                self.stack.push((outer, a));
                self.max_stack = self.max_stack.max(self.stack.len());
            }
            PositionKind::Return => match self.stack.pop() {
                Some((outer, call_symbol)) => {
                    self.current = self.automaton.summary_matched_return(
                        &outer,
                        call_symbol,
                        &self.current,
                        a,
                    );
                }
                None => {
                    self.current = self.automaton.summary_pending_return(&self.current, a);
                }
            },
        }
    }

    /// Returns `true` if stopping now would accept the stream read so far.
    pub fn is_accepting(&self) -> bool {
        self.automaton.summary_accepting(&self.current)
    }

    /// Current stack height (number of currently open calls).
    pub fn stack_height(&self) -> usize {
        self.stack.len()
    }

    /// Maximum stack height observed so far.
    pub fn max_stack_height(&self) -> usize {
        self.max_stack
    }

    /// Number of events consumed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }
}

impl<A: SummarySemantics> automata_core::StreamRun for SummaryStreamingRun<'_, A> {
    fn step(&mut self, event: TaggedSymbol) {
        SummaryStreamingRun::step(self, event);
    }

    fn is_accepting(&self) -> bool {
        SummaryStreamingRun::is_accepting(self)
    }

    fn stack_height(&self) -> usize {
        SummaryStreamingRun::stack_height(self)
    }

    fn peak_memory(&self) -> usize {
        SummaryStreamingRun::max_stack_height(self)
    }

    fn steps(&self) -> usize {
        SummaryStreamingRun::steps(self)
    }
}
