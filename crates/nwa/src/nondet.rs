//! Nondeterministic nested word automata (§3.2 of the paper): membership by
//! on-the-fly summaries and determinization via the `2^{s²}` summary-set
//! construction.

use crate::automaton::Nwa;
use crate::summary::{Summary, SummarySemantics, SummaryStreamingRun};
use nested_words::{NestedWord, Symbol, TaggedSymbol};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// A nondeterministic nested word automaton.
///
/// Transitions are stored as explicit relations; states and symbols are dense
/// indices. Nondeterministic NWAs accept exactly the regular languages of
/// nested words and determinize with at most `2^{s²}·(|Σ|+1)` states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Nnwa {
    num_states: usize,
    sigma: usize,
    initial: BTreeSet<usize>,
    accepting: BTreeSet<usize>,
    /// Call transitions `(q, a, q_linear, q_hier)`.
    calls: Vec<(usize, Symbol, usize, usize)>,
    /// Internal transitions `(q, a, q')`.
    internals: Vec<(usize, Symbol, usize)>,
    /// Return transitions `(q_linear, q_hier, a, q')`.
    returns: Vec<(usize, usize, Symbol, usize)>,
}

impl Nnwa {
    /// Creates a nondeterministic NWA with `num_states` states over an
    /// alphabet of `sigma` symbols, with no transitions.
    pub fn new(num_states: usize, sigma: usize) -> Self {
        Nnwa {
            num_states,
            sigma,
            ..Default::default()
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Adds a fresh state and returns its index.
    pub fn add_state(&mut self) -> usize {
        self.num_states += 1;
        self.num_states - 1
    }

    /// Marks a state as initial.
    pub fn add_initial(&mut self, q: usize) {
        self.initial.insert(q);
    }

    /// Marks a state as accepting.
    pub fn add_accepting(&mut self, q: usize) {
        self.accepting.insert(q);
    }

    /// The initial states.
    pub fn initial_states(&self) -> impl Iterator<Item = usize> + '_ {
        self.initial.iter().copied()
    }

    /// Returns `true` if `q` is accepting.
    pub fn is_accepting(&self, q: usize) -> bool {
        self.accepting.contains(&q)
    }

    /// Reserves room for the given numbers of further call, internal and
    /// return transitions.
    pub(crate) fn reserve_transitions(&mut self, calls: usize, internals: usize, returns: usize) {
        self.calls.reserve(calls);
        self.internals.reserve(internals);
        self.returns.reserve(returns);
    }

    /// Adds the call transition `(q, a) → (q_linear, q_hier)`.
    pub fn add_call(&mut self, q: usize, a: Symbol, linear: usize, hier: usize) {
        self.calls.push((q, a, linear, hier));
    }

    /// Adds the internal transition `(q, a) → q'`.
    pub fn add_internal(&mut self, q: usize, a: Symbol, target: usize) {
        self.internals.push((q, a, target));
    }

    /// Adds the return transition `(q_linear, q_hier, a) → q'`.
    pub fn add_return(&mut self, linear: usize, hier: usize, a: Symbol, target: usize) {
        self.returns.push((linear, hier, a, target));
    }

    /// Read access to the call transition relation.
    pub fn calls(&self) -> &[(usize, Symbol, usize, usize)] {
        &self.calls
    }

    /// Read access to the internal transition relation.
    pub fn internals(&self) -> &[(usize, Symbol, usize)] {
        &self.internals
    }

    /// Read access to the return transition relation.
    pub fn returns(&self) -> &[(usize, usize, Symbol, usize)] {
        &self.returns
    }

    /// Converts a deterministic NWA into an equivalent nondeterministic one.
    pub fn from_deterministic(nwa: &Nwa) -> Nnwa {
        let mut out = Nnwa::new(nwa.num_states(), nwa.sigma());
        out.add_initial(nwa.initial());
        for q in 0..nwa.num_states() {
            if nwa.is_accepting(q) {
                out.add_accepting(q);
            }
            for a in 0..nwa.sigma() {
                let a = Symbol(a as u16);
                out.add_call(q, a, nwa.call_linear(q, a), nwa.call_hier(q, a));
                out.add_internal(q, a, nwa.internal(q, a));
                for h in 0..nwa.num_states() {
                    out.add_return(q, h, a, nwa.ret(q, h, a));
                }
            }
        }
        out
    }

    // --- summary simulation -------------------------------------------------

    /// One summary: the set of pairs `(anchor, current)` where `anchor` is
    /// the state the run was in right after the innermost currently-open
    /// call, and `current` is the state now. At top level the anchor is the
    /// run's initial state.
    fn initial_summary(&self) -> BTreeSet<(usize, usize)> {
        self.initial.iter().map(|&q| (q, q)).collect()
    }

    fn step_internal(&self, s: &BTreeSet<(usize, usize)>, a: Symbol) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(anchor, cur) in s {
            for &(q, sym, t) in &self.internals {
                if q == cur && sym == a {
                    out.insert((anchor, t));
                }
            }
        }
        out
    }

    fn step_call_linear(
        &self,
        s: &BTreeSet<(usize, usize)>,
        a: Symbol,
    ) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(_, cur) in s {
            for &(q, sym, ql, _qh) in &self.calls {
                if q == cur && sym == a {
                    out.insert((ql, ql));
                }
            }
        }
        out
    }

    fn step_matched_return(
        &self,
        outer: &BTreeSet<(usize, usize)>,
        call_symbol: Symbol,
        inner: &BTreeSet<(usize, usize)>,
        a: Symbol,
    ) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(anchor, before_call) in outer {
            for &(q, sym, ql, qh) in &self.calls {
                if q != before_call || sym != call_symbol {
                    continue;
                }
                for &(start, cur) in inner {
                    if start != ql {
                        continue;
                    }
                    for &(rl, rh, rsym, t) in &self.returns {
                        if rl == cur && rh == qh && rsym == a {
                            out.insert((anchor, t));
                        }
                    }
                }
            }
        }
        out
    }

    fn step_pending_return(
        &self,
        s: &BTreeSet<(usize, usize)>,
        a: Symbol,
    ) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for &(anchor, cur) in s {
            for &(rl, rh, rsym, t) in &self.returns {
                if rl == cur && rsym == a && self.initial.contains(&rh) {
                    out.insert((anchor, t));
                }
            }
        }
        out
    }

    /// Membership test for nondeterministic NWAs: simulates the summary-set
    /// determinization on the fly, using a stack whose height equals the
    /// nesting depth of the word. Polynomial in `|A|` and linear in `ℓ`.
    pub fn accepts(&self, word: &NestedWord) -> bool {
        let mut run = NnwaStreamingRun::new(self);
        for i in 0..word.len() {
            run.step(TaggedSymbol::new(word.kind(i), word.symbol(i)));
        }
        run.is_accepting()
    }

    /// Starts a streaming run: the same on-the-fly summary-set simulation as
    /// [`Nnwa::accepts`], consumable one tagged-symbol event at a time.
    pub fn start_run(&self) -> NnwaStreamingRun<'_> {
        NnwaStreamingRun::new(self)
    }

    // --- determinization ----------------------------------------------------

    /// Determinizes the automaton via the summary-set construction of §3.2:
    /// deterministic states are sets of state pairs, hierarchical states
    /// additionally remember the call symbol, for a worst-case bound of
    /// `2^{s²}·(|Σ|+1)` states. Only reachable deterministic states are
    /// materialized.
    pub fn determinize(&self) -> Nwa {
        type Summary = BTreeSet<(usize, usize)>;
        #[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        enum DetState {
            Linear(Summary),
            Hier(Summary, Symbol),
        }

        let mut index: HashMap<DetState, usize> = HashMap::new();
        let mut states: Vec<DetState> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let intern = |st: DetState,
                      states: &mut Vec<DetState>,
                      queue: &mut VecDeque<usize>,
                      index: &mut HashMap<DetState, usize>|
         -> usize {
            if let Some(&i) = index.get(&st) {
                return i;
            }
            let i = states.len();
            index.insert(st.clone(), i);
            states.push(st);
            queue.push_back(i);
            i
        };

        let initial_idx = intern(
            DetState::Linear(self.initial_summary()),
            &mut states,
            &mut queue,
            &mut index,
        );

        // Transition tables built during exploration, keyed by state index.
        let mut internal_tab: HashMap<(usize, Symbol), usize> = HashMap::new();
        let mut call_tab: HashMap<(usize, Symbol), (usize, usize)> = HashMap::new();
        // Return transitions are completed after exploration because they
        // pair every linear state with every hierarchical state.

        while let Some(idx) = queue.pop_front() {
            let summary = match &states[idx] {
                DetState::Linear(s) => s.clone(),
                DetState::Hier(..) => continue, // hierarchical-only states have no outgoing edges
            };
            for a in 0..self.sigma {
                let a = Symbol(a as u16);
                let int_next = self.step_internal(&summary, a);
                let int_idx = intern(
                    DetState::Linear(int_next),
                    &mut states,
                    &mut queue,
                    &mut index,
                );
                internal_tab.insert((idx, a), int_idx);

                let call_linear = self.step_call_linear(&summary, a);
                let lin_idx = intern(
                    DetState::Linear(call_linear),
                    &mut states,
                    &mut queue,
                    &mut index,
                );
                let hier_idx = intern(
                    DetState::Hier(summary.clone(), a),
                    &mut states,
                    &mut queue,
                    &mut index,
                );
                call_tab.insert((idx, a), (lin_idx, hier_idx));
            }
        }

        // Returns can create new linear states; iterate to closure.
        let mut return_tab: HashMap<(usize, usize, Symbol), usize> = HashMap::new();
        let mut changed = true;
        while changed {
            changed = false;
            let snapshot = states.len();
            for lin_i in 0..snapshot {
                let inner = match &states[lin_i] {
                    DetState::Linear(s) => s.clone(),
                    DetState::Hier(..) => continue,
                };
                for hier_i in 0..snapshot {
                    for a in 0..self.sigma {
                        let a = Symbol(a as u16);
                        if return_tab.contains_key(&(lin_i, hier_i, a)) {
                            continue;
                        }
                        let next = match &states[hier_i] {
                            DetState::Hier(outer, call_symbol) => {
                                self.step_matched_return(outer, *call_symbol, &inner, a)
                            }
                            DetState::Linear(_) => {
                                // Only the initial deterministic state can label a
                                // hierarchical edge of a pending return (§3.1).
                                if hier_i == initial_idx {
                                    self.step_pending_return(&inner, a)
                                } else {
                                    BTreeSet::new()
                                }
                            }
                        };
                        let next_idx =
                            intern(DetState::Linear(next), &mut states, &mut queue, &mut index);
                        return_tab.insert((lin_i, hier_i, a), next_idx);
                        changed = true;
                    }
                }
            }
            // Newly interned linear states need their internal/call rows too.
            while let Some(idx) = queue.pop_front() {
                let summary = match &states[idx] {
                    DetState::Linear(s) => s.clone(),
                    DetState::Hier(..) => continue,
                };
                for a in 0..self.sigma {
                    let a = Symbol(a as u16);
                    if internal_tab.contains_key(&(idx, a)) {
                        continue;
                    }
                    let int_next = self.step_internal(&summary, a);
                    let int_idx = intern(
                        DetState::Linear(int_next),
                        &mut states,
                        &mut queue,
                        &mut index,
                    );
                    internal_tab.insert((idx, a), int_idx);
                    let call_linear = self.step_call_linear(&summary, a);
                    let lin_idx = intern(
                        DetState::Linear(call_linear),
                        &mut states,
                        &mut queue,
                        &mut index,
                    );
                    let hier_idx = intern(
                        DetState::Hier(summary.clone(), a),
                        &mut states,
                        &mut queue,
                        &mut index,
                    );
                    call_tab.insert((idx, a), (lin_idx, hier_idx));
                }
                changed = true;
            }
        }

        let mut det = Nwa::new(states.len(), self.sigma, initial_idx);
        for (i, st) in states.iter().enumerate() {
            if let DetState::Linear(s) = st {
                det.set_accepting(i, s.iter().any(|&(_, q)| self.accepting.contains(&q)));
            }
        }
        for (&(q, a), &t) in &internal_tab {
            det.set_internal(q, a, t);
        }
        for (&(q, a), &(l, h)) in &call_tab {
            det.set_call(q, a, l, h);
        }
        for (&(l, h, a), &t) in &return_tab {
            det.set_return(l, h, a, t);
        }
        det
    }
}

/// A streaming run of a nondeterministic NWA over tagged-symbol events: the
/// subset construction of §3.2 executed on the fly over (summary-set, stack)
/// configurations, shared with [`JoinlessNwa`](crate::JoinlessNwa) through
/// [`SummaryStreamingRun`].
pub type NnwaStreamingRun<'a> = SummaryStreamingRun<'a, Nnwa>;

impl SummarySemantics for Nnwa {
    fn initial_summary(&self) -> Summary {
        Nnwa::initial_summary(self)
    }

    fn summary_internal(&self, s: &Summary, a: Symbol) -> Summary {
        self.step_internal(s, a)
    }

    fn summary_call(&self, s: &Summary, a: Symbol) -> Summary {
        self.step_call_linear(s, a)
    }

    fn summary_matched_return(
        &self,
        outer: &Summary,
        call_symbol: Symbol,
        inner: &Summary,
        a: Symbol,
    ) -> Summary {
        self.step_matched_return(outer, call_symbol, inner, a)
    }

    fn summary_pending_return(&self, s: &Summary, a: Symbol) -> Summary {
        self.step_pending_return(s, a)
    }

    fn summary_accepting(&self, s: &Summary) -> bool {
        s.iter().any(|&(_, q)| self.accepting.contains(&q))
    }
    fn sigma(&self) -> usize {
        Nnwa::sigma(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_words::tagged::parse_nested_word;
    use nested_words::Alphabet;

    fn parse(ab: &mut Alphabet, s: &str) -> NestedWord {
        parse_nested_word(s, ab).unwrap()
    }

    /// Nondeterministic NWA over {a,b} accepting nested words that contain a
    /// matched call/return pair both labelled b (guess which call it is).
    ///
    /// States: 0 = searching, 1 = hierarchical marker, 2 = found.
    fn some_b_block() -> Nnwa {
        let a = Symbol(0);
        let b = Symbol(1);
        let mut n = Nnwa::new(3, 2);
        n.add_initial(0);
        n.add_accepting(2);
        for sym in [a, b] {
            // keep searching through internals
            n.add_internal(0, sym, 0);
            n.add_internal(2, sym, 2);
            // calls while searching: don't mark (hier carries 0)
            n.add_call(0, sym, 0, 0);
            // calls after found: keep found
            n.add_call(2, sym, 2, 0);
            // returns that ignore the marker
            for h in [0usize, 1] {
                n.add_return(0, h, sym, 0);
                n.add_return(2, h, sym, 2);
            }
        }
        // the guessed b-call: mark the hierarchical edge with state 1
        n.add_call(0, b, 0, 1);
        // matching b-return with marker 1: found
        n.add_return(0, 1, b, 2);
        n
    }

    #[test]
    fn nondet_membership() {
        let mut ab = Alphabet::ab();
        let n = some_b_block();
        assert!(n.accepts(&parse(&mut ab, "<b a b>")));
        assert!(n.accepts(&parse(&mut ab, "<a <b b> a>")));
        assert!(n.accepts(&parse(&mut ab, "a <a a> <b b> a")));
        assert!(!n.accepts(&parse(&mut ab, "<a b a>")));
        assert!(!n.accepts(&parse(&mut ab, "b b b")));
        // b-call matched by an a-return does not count
        assert!(!n.accepts(&parse(&mut ab, "<b a>")));
        // pending b-call does not count
        assert!(!n.accepts(&parse(&mut ab, "<b")));
    }

    #[test]
    fn determinization_preserves_language() {
        let mut ab = Alphabet::ab();
        let n = some_b_block();
        let d = n.determinize();
        let samples = [
            "<b a b>",
            "<a <b b> a>",
            "a <a a> <b b> a",
            "<a b a>",
            "b b b",
            "<b a>",
            "<b",
            "b>",
            "<a <b b>",
            "a> <b b>",
            "",
            "<b <b b> b>",
            "<a <a <b b> a> a>",
        ];
        for s in samples {
            let w = parse(&mut ab, s);
            assert_eq!(n.accepts(&w), d.accepts(&w), "word `{s}`");
        }
    }

    #[test]
    fn determinization_handles_pending_returns() {
        let a = Symbol(0);
        // language: a single pending return labelled a (hier edge = initial)
        let mut n = Nnwa::new(2, 1);
        n.add_initial(0);
        n.add_accepting(1);
        n.add_return(0, 0, a, 1);
        let mut ab = Alphabet::from_names(["a"]);
        let w = parse(&mut ab, "a>");
        assert!(n.accepts(&w));
        let d = n.determinize();
        assert!(d.accepts(&w));
        let w2 = parse(&mut ab, "<a a>");
        assert!(!n.accepts(&w2));
        assert!(!d.accepts(&w2));
    }

    #[test]
    fn from_deterministic_roundtrip() {
        let mut ab = Alphabet::ab();
        let n = some_b_block();
        let d = n.determinize();
        let n2 = Nnwa::from_deterministic(&d);
        for s in ["<b a b>", "<a b a>", "<b", "a <b b>"] {
            let w = parse(&mut ab, s);
            assert_eq!(d.accepts(&w), n2.accepts(&w), "word `{s}`");
        }
    }

    #[test]
    fn empty_automaton_accepts_nothing() {
        let n = Nnwa::new(1, 2);
        let mut ab = Alphabet::ab();
        assert!(!n.accepts(&parse(&mut ab, "a")));
        assert!(!n.accepts(&NestedWord::empty()));
    }

    #[test]
    fn deterministic_membership_matches_nondet_on_random_words() {
        use nested_words::generate::{random_nested_word, NestedWordConfig};
        let n = some_b_block();
        let d = n.determinize();
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 40,
            allow_pending: true,
            ..Default::default()
        };
        for seed in 0..50 {
            let w = random_nested_word(&ab, cfg, seed);
            assert_eq!(n.accepts(&w), d.accepts(&w), "seed {seed}");
        }
    }
}
