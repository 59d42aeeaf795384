//! Compiled execution engines: the hot-path automata lowered into dense,
//! cache-friendly tables behind the `automata-core`
//! [`Compile`] capability.
//!
//! The interpreted runners ([`StreamingRun`](crate::StreamingRun),
//! [`SummaryStreamingRun`](crate::summary::SummaryStreamingRun)) already
//! meet the paper's asymptotics — one pass, memory proportional to depth.
//! Compilation attacks the constant factor:
//!
//! * [`CompiledNwa`] fuses the three transition functions of a
//!   deterministic NWA into **one** flat `u32` table over the tagged
//!   alphabet Σ̂ with **premultiplied row offsets**: a linear state is
//!   represented as `q·3σ`, a hierarchical stack entry as the absolute
//!   base of its block of return rows. Every event then resolves as one
//!   addition and one array load, and — the part the microbenchmarks say
//!   matters most — the event kind enters the address as *arithmetic on
//!   the discriminant* rather than a three-way dispatch, so the
//!   unpredictable call/internal/return mix of real documents stops
//!   costing a branch misprediction per event.
//! * [`CompiledSummary`] executes the summary-set subset construction of
//!   §3.2 over **interned** state-pair sets. The interned summaries are the
//!   states of the determinized NWA, so the engine stores each derived step
//!   in the same kind of dense `u32` rows: summary `id` is the state offset
//!   `id·σ`, an event decodes to `kind·σ + a`, and a hierarchical state
//!   (outer summary, call symbol) owns a block of return rows. A step is
//!   derived once from the nondeterministic relations, on the first miss,
//!   under a write lock. A slice of events takes the read guard once and
//!   runs on the rows in a register-resident loop, so streams with
//!   repeated event patterns run at deterministic-automaton speed after
//!   warm-up.
//!
//! The trade-off is memory: `CompiledNwa` materializes the full
//! `states² × 3σ` return block in `u32`s up front (compilation fails on
//! automata where the offsets would overflow `u32`). `CompiledSummary`'s
//! table grows by 5σ–6σ `u32`s per *distinct* summary the input streams
//! visit — 3σ linear rows, σ hierarchical slots and σ–2σ of the shared
//! all-miss return block — bounded by the (exponential) determinization
//! size, but in practice tiny and shared across runs. Its return blocks,
//! the all-miss block included, are placed only while they fit
//! [`PRODUCT_TABLE_BYTE_CAP`]; return rows past the cap live in a residual
//! hash map.
//! Both artifacts are language-exact: `tests/compile.rs` property-tests
//! compiled ≡ interpreted at every prefix, pending edges included.

use crate::automaton::Nwa;
use crate::joinless::JoinlessNwa;
use crate::multi::PRODUCT_TABLE_BYTE_CAP;
use crate::nondet::Nnwa;
use crate::summary::{Summary, SummarySemantics};
use automata_core::{BatchAcceptor, Compile, LaneRun, StreamAcceptor, StreamOutcome};
use nested_words::{Symbol, TaggedSymbol};
use std::collections::HashMap;
use std::sync::RwLock;

// --------------------------------------------------------------------------
// Deterministic NWAs: premultiplied dense tables
// --------------------------------------------------------------------------

/// A deterministic NWA lowered into one fused `u32` transition table over
/// the tagged alphabet Σ̂, with premultiplied row offsets (see the
/// [module docs](self) for the design rationale).
///
/// Internally a linear state `q` is the row offset `q·3σ` and every event
/// is the in-row offset `kind·σ + a` (calls `0..σ`, internals `σ..2σ`,
/// returns `2σ..3σ` — exactly [`TaggedSymbol::tagged_index`]). The fused
/// table `T` concatenates
///
/// * the **linear block** (`n·3σ` entries): `T[q·3σ + a] = δc^l(q,a)·3σ`
///   and `T[q·3σ + σ + a] = δi(q,a)·3σ`, and
/// * the **return block** (`n·n·3σ` entries): for a return the stack
///   supplies the absolute base of the hierarchical state's row, so
///   `T[pop() + q·3σ + (2σ + a)] = δr(q,h,a)·3σ`.
///
/// One event is therefore *one* add-and-load wherever it lands: a call
/// additionally pushes `push[q·3σ + a]` (the matching return-row base), a
/// return pops (an empty stack pops the initial state's base — the
/// pending-return rule of §3.1). Crucially the decode `kind·σ + a` is plain
/// arithmetic on the event discriminant — unlike a three-way dispatch it
/// never branches on the (unpredictable) event kind, which is where the
/// interpreted runner's cycles go.
///
/// Build one with [`Compile::compile`] (or `query::compile`) and drive it
/// through [`StreamAcceptor`], or hand a whole slice to
/// [`CompiledNwa::run_tagged`]; it accepts exactly the streams the source
/// [`Nwa`] accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNwa {
    /// Row stride of linear states: `max(3σ, 1)`.
    pub(crate) stride: u32,
    /// σ itself (`stride / 3`, kept separately for the band offsets).
    pub(crate) sigma: u32,
    pub(crate) num_states: usize,
    /// The fused table: linear block then return block.
    pub(crate) table: Vec<u32>,
    /// `push[q·3σ + a]` = absolute base of `δc^h(q, a)`'s block of return
    /// rows, so a return resolves as `T[pop() + state + 2σ + a]`.
    pub(crate) push: Vec<u32>,
    /// The pushed value for the initial state — what a pending return pops.
    pub(crate) pending_row: u32,
    /// Initial linear state, as a row offset.
    pub(crate) initial: u32,
    /// Acceptance by plain state index (`q`, not the row offset).
    pub(crate) accepting: Vec<bool>,
    /// Content hash over the tables (see `persist`), stamped into
    /// snapshots and validated on resume.
    pub(crate) fingerprint: u64,
}

impl CompiledNwa {
    /// Lowers `nwa` into the fused premultiplied table.
    ///
    /// Panics if the table offsets would not fit `u32` (i.e.
    /// `(states + states²) · 3σ > u32::MAX`); such automata are beyond what
    /// the dense return block can represent and must use the interpreted
    /// runner.
    pub fn new(nwa: &Nwa) -> CompiledNwa {
        let n = nwa.num_states();
        let sigma = nwa.sigma();
        let stride = (3 * sigma).max(1);
        let table_len = n
            .checked_add(n.checked_mul(n).expect("table size overflows usize"))
            .and_then(|x| x.checked_mul(stride))
            .expect("table size overflows usize");
        assert!(
            u32::try_from(table_len).is_ok(),
            "automaton too large to compile: (states + states^2) * 3*sigma must fit u32"
        );
        // Absolute base of hierarchical state h's block of return rows; a
        // return lands at `base + q·3σ + 2σ + a`.
        let ret_base = |h: usize| ((n + h * n) * stride) as u32;
        let mut table = vec![0u32; table_len];
        let mut push = vec![0u32; n * stride];
        for q in 0..n {
            for a in 0..sigma {
                let sym = Symbol(a as u16);
                let row = q * stride;
                table[row + a] = (nwa.call_linear(q, sym) * stride) as u32;
                table[row + sigma + a] = (nwa.internal(q, sym) * stride) as u32;
                push[row + a] = ret_base(nwa.call_hier(q, sym));
                for h in 0..n {
                    table[(n + h * n) * stride + row + 2 * sigma + a] =
                        (nwa.ret(q, h, sym) * stride) as u32;
                }
            }
        }
        let mut compiled = CompiledNwa {
            stride: stride as u32,
            sigma: sigma as u32,
            num_states: n,
            table,
            push,
            pending_row: ret_base(nwa.initial()),
            initial: (nwa.initial() * stride) as u32,
            accepting: (0..n).map(|q| nwa.is_accepting(q)).collect(),
            fingerprint: 0,
        };
        compiled.fingerprint = compiled.compute_fingerprint();
        compiled
    }

    /// Number of states of the source automaton.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size of the source automaton.
    pub fn sigma(&self) -> usize {
        self.sigma as usize
    }

    /// Bytes occupied by the transition tables — the memory the compiled
    /// representation trades for speed (the `states² × 3σ` return block
    /// dominates).
    pub fn table_bytes(&self) -> usize {
        (self.table.len() + self.push.len()) * std::mem::size_of::<u32>()
    }

    /// Runs a whole pre-materialized event slice through the fused table
    /// and reports the outcome: a fresh lane, the slice kernel
    /// ([`BatchAcceptor::lane_step_slice`]) and the lane's outcome.
    pub fn run_tagged(&self, events: &[TaggedSymbol]) -> StreamOutcome {
        let mut lane = self.lane_start();
        self.lane_step_slice(&mut lane, events);
        self.lane_outcome(&lane)
    }

    /// The branch-free event step on explicit locals. `inline(always)` so
    /// the callers' locals stay register-promoted: the slice loop of
    /// [`BatchAcceptor::lane_step_slice`] keeps the whole lane state in
    /// registers for the duration of a slice, and the stored-lane
    /// [`BatchAcceptor::lane_step`] reuses the same body.
    #[inline(always)]
    fn step_local(
        &self,
        state: &mut u32,
        top: &mut u32,
        sp: &mut usize,
        max_sp: &mut usize,
        spilled: &mut Vec<u32>,
        event: TaggedSymbol,
    ) {
        let sigma = self.sigma;
        // Flag-style decode: `matches!` comparisons compile to setcc,
        // where a `match` yielding per-arm values compiles to data-
        // dependent (hence mispredicted) branches.
        let a = event.symbol().index() as u32;
        let is_int = u32::from(matches!(event, TaggedSymbol::Internal(_)));
        let is_ret = u32::from(matches!(event, TaggedSymbol::Return(_)));
        let kind = is_int + 2 * is_ret;
        debug_assert!(a < sigma.max(1), "event symbol outside the alphabet");
        // Predictable (amortized-rare) growth branch, never a per-kind one.
        if *sp + 1 >= spilled.len() {
            spilled.resize(spilled.len() * 2, 0);
        }
        // Unconditional spill of the cached top into its memory home
        // `sp - 1` (a call's push must preserve it there; harmless
        // otherwise — the slot is dead while the top lives in the
        // register), then one add-and-load resolves the event, with the
        // return block masked in only for returns.
        spilled[*sp - 1] = *top;
        let ret_mask = is_ret.wrapping_neg();
        let pushed = self.push[(*state + a) as usize];
        *state = self.table[(*state + kind * sigma + a + (*top & ret_mask)) as usize];
        // New height and new top, all selected without branching: a
        // call caches its pushed value, an internal keeps the top, a
        // return refills from the slot that becomes the new top.
        let is_call = usize::from(kind == 0);
        *sp = (*sp + is_call - is_ret as usize).max(1);
        let refill = spilled[*sp - 1];
        *top = [pushed, *top, refill][kind as usize];
        *max_sp = (*max_sp).max(*sp);
    }
}

impl StreamAcceptor for CompiledNwa {
    type Run<'a> = LaneRun<'a, Self>;

    fn start(&self) -> LaneRun<'_, Self> {
        LaneRun::new(self)
    }
}

/// One stream's worth of run state for a [`CompiledNwa`]: the
/// premultiplied linear state, the register-style cached stack top, and
/// the spilled `u32` stack with its pending-return sentinel — exactly the
/// state the slice kernel keeps in registers, made storable so N lanes can
/// sit side by side and migrate across worker threads.
#[derive(Debug, Clone)]
pub struct CompiledNwaLane {
    /// Current linear state as a premultiplied row offset.
    pub(crate) state: u32,
    /// Cached top of the stack (a return-row base).
    pub(crate) top: u32,
    /// Stack pointer into `spilled`; the live height is `sp - 1` because
    /// `spilled[0]` is the pending-return sentinel.
    pub(crate) sp: u32,
    /// Peak `sp` observed.
    pub(crate) max_sp: u32,
    /// Events consumed.
    pub(crate) steps: usize,
    /// The spilled stack; `spilled[sp - 1]` mirrors `top` after each
    /// internal or return step (after a call the register `top` is
    /// authoritative and the slot is dead).
    pub(crate) spilled: Vec<u32>,
}

impl BatchAcceptor for CompiledNwa {
    type Lane = CompiledNwaLane;

    fn lane_start(&self) -> CompiledNwaLane {
        CompiledNwaLane {
            state: self.initial,
            top: self.pending_row,
            sp: 1,
            max_sp: 1,
            steps: 0,
            spilled: vec![self.pending_row; 64],
        }
    }

    /// The branch-free event step (`step_local`) on a stored lane: setcc
    /// decode of the event kind, unconditional spill of the cached top, one
    /// add-and-load with the return base masked in, comparison-selected
    /// stack adjustment. Lanes touch only their own state, so interleaved
    /// calls on different lanes are independent dependency chains.
    #[inline]
    fn lane_step(&self, lane: &mut CompiledNwaLane, event: TaggedSymbol) {
        let mut sp = lane.sp as usize;
        let mut max_sp = lane.max_sp as usize;
        self.step_local(
            &mut lane.state,
            &mut lane.top,
            &mut sp,
            &mut max_sp,
            &mut lane.spilled,
            event,
        );
        lane.sp = sp as u32;
        lane.max_sp = max_sp as u32;
        lane.steps += 1;
    }

    /// The engine's one slice loop, branch-free on the event kind: real
    /// event streams mix calls, internals and returns unpredictably, so any
    /// per-kind dispatch mispredicts constantly. Every event
    ///
    /// 1. decodes to `kind·σ + a` by pure arithmetic on the discriminant,
    /// 2. unconditionally writes its would-be push (`push[state + a]`) into
    ///    the next free stack slot,
    /// 3. resolves `state = T[state + kind·σ + a + (top & ret_mask)]` —
    ///    one load, with the return-block base masked in only when the
    ///    event is a return — and
    /// 4. adjusts the stack pointer with comparisons, not branches.
    ///
    /// A sentinel slot holding the initial state's return base sits below
    /// the stack, so a pending return (pop on an empty stack) resolves
    /// against the §3.1 hierarchical-initial row with no special case.
    /// State, cached top, stack pointer and peak are copied into locals for
    /// the whole slice and written back once, so the loop stays
    /// register-resident.
    fn lane_step_slice(&self, lane: &mut CompiledNwaLane, events: &[TaggedSymbol]) {
        let mut state = lane.state;
        let mut top = lane.top;
        let mut sp = lane.sp as usize;
        let mut max_sp = lane.max_sp as usize;
        let spilled = &mut lane.spilled;
        for &event in events {
            self.step_local(&mut state, &mut top, &mut sp, &mut max_sp, spilled, event);
        }
        lane.state = state;
        lane.top = top;
        lane.sp = sp as u32;
        lane.max_sp = max_sp as u32;
        lane.steps += events.len();
    }

    fn lane_height(&self, lane: &CompiledNwaLane) -> usize {
        lane.sp as usize - 1
    }

    fn lane_outcome(&self, lane: &CompiledNwaLane) -> StreamOutcome {
        StreamOutcome {
            accepted: self.accepting[(lane.state / self.stride) as usize],
            events: lane.steps,
            peak_memory: (lane.max_sp - 1) as usize,
        }
    }

    /// Overrides the generic lockstep to run each stream back to back
    /// through the register-resident slice loop — deliberately
    /// *not* interleaved. The fused NWA step is issue-width-bound, not
    /// load-latency-bound: besides the table load it decodes the kind,
    /// spills the cached top, maintains the stack pointer and tracks the
    /// peak, which together keep the core's ports busy through the load's
    /// latency. Interleaving lanes therefore buys no overlap, and the extra
    /// lanes' state (~8 live values each against 15 usable x86-64 GPRs)
    /// spills to the stack and *loses* 15–30% to the sequential engine —
    /// measured on the lockstep kernel this override replaced. Flat
    /// automata, whose step is a pure add-and-load, are the opposite case:
    /// see `CompiledTaggedDfa::run_batch` in `word-automata`.
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        streams.iter().map(|s| self.run_tagged(s)).collect()
    }
}

// --------------------------------------------------------------------------
// Lockstep replay: one decoded slice, many member engines
// --------------------------------------------------------------------------

// The frame array of a lockstep member is `[0, dump, pending_row, frames…]`:
// non-returns read the zero slot (adding nothing to the table offset),
// non-calls write their would-be push into the dump slot (never read), and
// a return on an empty stack reads the member's own `pending_row`. The
// frame at stack height `h ≥ 1` lives at `PENDING_SLOT + h`.
const ZERO_SLOT: u32 = 0;
const DUMP_SLOT: u32 = 1;
const PENDING_SLOT: u32 = 2;

/// One event decoded once for every member of a lockstep set: which table
/// column it lands in and which frame slots it reads and writes. None of it
/// depends on a member's state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameOp {
    /// In-row offset `kind·σ + a`.
    off: u32,
    /// The symbol `a`: the in-row offset of the would-be push.
    a: u32,
    /// Slot read into the table offset: the popped frame for a return
    /// (`PENDING_SLOT` on an empty stack), `ZERO_SLOT` otherwise.
    rd: u32,
    /// Slot the would-be push lands in: the new frame for a call,
    /// `DUMP_SLOT` otherwise.
    wr: u32,
}

/// The half of a lockstep run that depends on the event stream alone:
/// stack height, peak and step count kept once for the whole set, plus a
/// reused buffer holding the current slice decoded into [`FrameOp`]s.
#[derive(Debug)]
pub(crate) struct FramePlan {
    sigma: u32,
    height: u32,
    peak: u32,
    steps: usize,
    ops: Vec<FrameOp>,
}

impl FramePlan {
    /// An empty-stack plan for members compiled over `sigma` symbols.
    pub(crate) fn new(sigma: u32) -> FramePlan {
        FramePlan {
            sigma,
            height: 0,
            peak: 0,
            steps: 0,
            ops: Vec::new(),
        }
    }

    pub(crate) fn height(&self) -> usize {
        self.height as usize
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak as usize
    }

    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Frame-array length every member needs to replay what was decoded.
    fn frames_len(&self) -> usize {
        (PENDING_SLOT + 1 + self.peak) as usize
    }

    /// Rejects inputs whose stack could outgrow the `u32` frame slots.
    fn check_depth(&self, events: usize) {
        assert!(
            (self.height as usize).saturating_add(events) < (u32::MAX - PENDING_SLOT) as usize,
            "stack depth exceeds the lockstep frame space"
        );
    }

    /// Decodes one event against the running height, with branch-free
    /// selects. The symbol check is a real `assert!`: it is paid once per
    /// event for all members, and an out-of-alphabet symbol would otherwise
    /// index into a neighbouring band and give a silently wrong verdict.
    #[inline(always)]
    fn decode_event(sigma: u32, height: &mut u32, event: TaggedSymbol) -> FrameOp {
        let a = event.symbol().index() as u32;
        assert!(a < sigma, "event symbol outside the query set's alphabet");
        let is_call = matches!(event, TaggedSymbol::Call(_));
        let is_ret = matches!(event, TaggedSymbol::Return(_));
        let kind = u32::from(matches!(event, TaggedSymbol::Internal(_))) + 2 * u32::from(is_ret);
        let h = *height;
        let op = FrameOp {
            off: kind * sigma + a,
            a,
            rd: if is_ret { PENDING_SLOT + h } else { ZERO_SLOT },
            wr: if is_call {
                PENDING_SLOT + 1 + h
            } else {
                DUMP_SLOT
            },
        };
        *height = h + u32::from(is_call) - u32::from(is_ret && h > 0);
        op
    }

    /// Decodes a single event, updating height, peak and steps.
    pub(crate) fn decode_one(&mut self, event: TaggedSymbol) -> FrameOp {
        self.check_depth(1);
        let op = Self::decode_event(self.sigma, &mut self.height, event);
        self.peak = self.peak.max(self.height);
        self.steps += 1;
        op
    }

    /// Decodes a whole slice into the reused op buffer, updating height,
    /// peak and steps as if every event had been decoded one at a time.
    pub(crate) fn decode(&mut self, events: &[TaggedSymbol]) {
        self.check_depth(events.len());
        let (sigma, mut height, mut peak) = (self.sigma, self.height, self.peak);
        self.ops.clear();
        self.ops.extend(events.iter().map(|&event| {
            let op = Self::decode_event(sigma, &mut height, event);
            peak = peak.max(height);
            op
        }));
        self.height = height;
        self.peak = peak;
        self.steps += events.len();
    }
}

/// One member's half of a lockstep run: its linear state (a premultiplied
/// row offset) and its frame array `[0, dump, pending_row, frames…]`.
#[derive(Debug)]
pub(crate) struct FrameMember {
    state: u32,
    frames: Vec<u32>,
}

impl CompiledNwa {
    /// A fresh lockstep member: initial state, empty stack.
    pub(crate) fn frame_member(&self) -> FrameMember {
        FrameMember {
            state: self.initial,
            frames: vec![0, 0, self.pending_row],
        }
    }

    pub(crate) fn member_accepting(&self, member: &FrameMember) -> bool {
        self.accepting[(member.state / self.stride) as usize]
    }

    /// The lockstep member step: two loads and a store, every index
    /// bounds-checked. The stack read `frames[rd]` does not depend on the
    /// state, so the only serial chain is `state → table → state`.
    #[inline(always)]
    fn frame_step(&self, state: &mut u32, frames: &mut [u32], op: FrameOp) {
        frames[op.wr as usize] = self.push[(*state + op.a) as usize];
        *state = self.table[(*state + op.off + frames[op.rd as usize]) as usize];
    }

    /// Advances every member by one decoded event: the direct path behind
    /// a lockstep set's single-event `step`.
    pub(crate) fn step_members(
        engines: &[CompiledNwa],
        members: &mut [FrameMember],
        plan: &FramePlan,
        op: FrameOp,
    ) {
        for (engine, member) in engines.iter().zip(members) {
            member.frames.resize(plan.frames_len(), 0);
            engine.frame_step(&mut member.state, &mut member.frames, op);
        }
    }

    /// Replays the plan's decoded slice through every member, four at a
    /// time: the members' load chains are independent, so interleaving
    /// them overlaps one member's table-load latency with the others'
    /// work. Each frame array is grown to the slice's peak first.
    pub(crate) fn replay_members(
        engines: &[CompiledNwa],
        members: &mut [FrameMember],
        plan: &FramePlan,
    ) {
        for member in members.iter_mut() {
            member.frames.resize(plan.frames_len(), 0);
        }
        let (engine_groups, engine_rest) = engines.as_chunks::<4>();
        let (member_groups, member_rest) = members.as_chunks_mut::<4>();
        for (e, m) in engine_groups.iter().zip(member_groups) {
            Self::replay(e, m, &plan.ops);
        }
        for (e, m) in engine_rest.iter().zip(member_rest) {
            Self::replay(std::array::from_ref(e), std::array::from_mut(m), &plan.ops);
        }
    }

    /// The lockstep kernel over a group of `N` members, states held in
    /// locals for the whole slice.
    #[inline(always)]
    fn replay<const N: usize>(
        engines: &[CompiledNwa; N],
        members: &mut [FrameMember; N],
        ops: &[FrameOp],
    ) {
        let mut states: [u32; N] = std::array::from_fn(|i| members[i].state);
        let frames = members.each_mut().map(|m| m.frames.as_mut_slice());
        for &op in ops {
            for i in 0..N {
                engines[i].frame_step(&mut states[i], frames[i], op);
            }
        }
        for (member, state) in members.iter_mut().zip(states) {
            member.state = state;
        }
    }
}

impl Compile for Nwa {
    type Compiled = CompiledNwa;

    /// One fused premultiplied `u32` table ([`CompiledNwa`]); panics if
    /// `(states + states²) · 3σ` overflows `u32`.
    fn compile(&self) -> CompiledNwa {
        CompiledNwa::new(self)
    }
}

// --------------------------------------------------------------------------
// Nondeterministic models: the summary engine's dense memo table
// --------------------------------------------------------------------------

/// Table entry of a row that is not derived yet. Real entries are state
/// offsets `id·σ`, which stay below the table's `u32` offset space (see
/// [`SummaryCache::fits`]), so they never collide with it.
const MISS: u32 = u32::MAX;

/// Most events stepped under one read guard: a writer deriving a miss on
/// another thread waits for at most this many events.
const GUARD_EVENTS: usize = 4096;

/// A summary interned by the memoized subset engine: the set itself (needed
/// to derive yet-unseen transitions) plus its memoized acceptance bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InternedSummary {
    pub(crate) summary: Summary,
    pub(crate) accepting: bool,
}

/// Where one memoized step of the subset construction lives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Row {
    /// A call-linear, internal or pending-return entry: the index
    /// `3·s + kind·σ + a` into the linear rows.
    Linear(usize),
    /// A matched return: the popped frame `outer·σ + call symbol`, the
    /// inner summary's state offset and the return symbol.
    Matched { frame: u32, inner: u32, a: u32 },
}

/// The memo table of a [`CompiledSummary`] engine: the interned summaries
/// and every derived step, laid out as the rows of the determinized NWA.
///
/// Summary `id` runs as the state offset `s = id·σ` (σ at least 1 here).
///
/// * `rows[3·s + kind·σ + a]` is the successor of a call (kind 0, the
///   linear successor), an internal (1) or a pending return (2). Every
///   interned summary appends its 3σ entries, all `MISS`.
/// * `hier[s + a]` is the hierarchical state (summary `id`, call symbol
///   `a`): the base in `ret` of its block of return rows, or 0, the shared
///   all-`MISS` block. A lane's stack frame is the slot index `s + a`.
/// * `ret[base + s + a]` is the matched return of that hierarchical state
///   over inner summary `s` by symbol `a`. A block has rows for
///   `block_rows` summaries (the power of two at or above the interned
///   count); when the count outgrows that, every block is re-placed at
///   twice the size. A hierarchical state gets its block on the first
///   matched return through it, while `ret` — the all-`MISS` block
///   included — stays within [`PRODUCT_TABLE_BYTE_CAP`]. The all-`MISS`
///   block itself must cover every summary, so it grows past the cap once
///   the count does; from then on no block is placed.
/// * `matched` is the residual map for return rows past that cap. It is
///   the only path for automata whose visited summaries outgrow the cap,
///   and the slice kernel consults it only when the dense lookup misses.
///
/// Each summary thus costs 5σ–6σ `u32`s before any block is placed
/// ([`SummaryCache::dense_bytes`]).
///
/// Ids never change, so the relations this layout stores — and the
/// artifact bytes saved from them — are the same as under any other
/// layout; equality compares the relations ([`SummaryCache::memo_rows`]).
#[derive(Debug, Clone)]
pub(crate) struct SummaryCache {
    /// Interned summaries by id.
    pub(crate) summaries: Vec<InternedSummary>,
    /// Summary → id, keyed by the packed sorted pair list.
    pub(crate) index: HashMap<Vec<u64>, u32>,
    /// `max(σ, 1)`: the band width and the state-offset unit.
    sigma: u32,
    rows: Vec<u32>,
    hier: Vec<u32>,
    ret: Vec<u32>,
    /// Summaries each return block has rows for.
    block_rows: u32,
    /// The hierarchical slot owning each real block, in block order.
    pub(crate) owners: Vec<u32>,
    /// `(outer, call symbol, inner, a)` → id for return rows past the cap.
    matched: HashMap<(u32, u16, u32, u16), u32>,
}

/// The derived steps of a [`SummaryCache`] as sorted relations over ids:
/// `(summary, a, successor)` per linear band and `(outer, call symbol,
/// inner, a, successor)` for matched returns.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct MemoRows {
    pub(crate) call: Vec<(u32, u16, u32)>,
    pub(crate) internal: Vec<(u32, u16, u32)>,
    pub(crate) pending: Vec<(u32, u16, u32)>,
    pub(crate) matched: Vec<(u32, u16, u32, u16, u32)>,
}

/// Packs a summary into its canonical hash key (pairs are already sorted in
/// the `BTreeSet`).
pub(crate) fn summary_key(s: &Summary) -> Vec<u64> {
    s.iter()
        .map(|&(anchor, cur)| {
            debug_assert!(anchor <= u32::MAX as usize && cur <= u32::MAX as usize);
            ((anchor as u64) << 32) | cur as u64
        })
        .collect()
}

/// The derived entries of one return block as `(inner, a, successor id)`.
fn block_entries(block: &[u32], sigma: u32) -> impl Iterator<Item = (u32, u16, u32)> + '_ {
    block
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != MISS)
        .map(move |(i, &v)| {
            let i = i as u32;
            (i / sigma, (i % sigma) as u16, v / sigma)
        })
}

impl SummaryCache {
    /// An empty table for an automaton over `sigma` symbols; it grows with
    /// every [`push`](Self::push).
    pub(crate) fn new(sigma: usize) -> SummaryCache {
        SummaryCache::with_summaries(sigma, Vec::new(), HashMap::new())
    }

    /// A table of the `summaries` already interned under `index`, every
    /// step underived: the same table pushing them one by one builds, in
    /// one allocation per array. Panics past the `u32` offset space.
    pub(crate) fn with_summaries(
        sigma: usize,
        summaries: Vec<InternedSummary>,
        index: HashMap<Vec<u64>, u32>,
    ) -> SummaryCache {
        let sigma = sigma.max(1);
        let count = summaries.len();
        assert!(
            Self::fits(count, sigma),
            "summary table overflows the u32 offset space"
        );
        let block_rows = count.next_power_of_two();
        SummaryCache {
            summaries,
            index,
            sigma: u32::try_from(sigma).expect("alphabet exceeds the u32 offset space"),
            rows: vec![MISS; 3 * sigma * count],
            hier: vec![0; sigma * count],
            ret: vec![MISS; block_rows * sigma],
            block_rows: block_rows as u32,
            owners: Vec::new(),
            matched: HashMap::new(),
        }
    }

    /// Whether `count` summaries over `sigma` symbols fit the `u32` offset
    /// space the rows are addressed in.
    pub(crate) fn fits(count: usize, sigma: usize) -> bool {
        count
            .checked_mul(3 * sigma.max(1))
            .is_some_and(|len| len < MISS as usize)
    }

    /// The most bytes `count` summaries over `sigma` symbols take before
    /// any return block is placed: 3σ linear rows, σ hierarchical slots and
    /// at most 2σ of the all-`MISS` block each. `None` on overflow.
    pub(crate) fn dense_bytes(count: usize, sigma: usize) -> Option<usize> {
        count
            .checked_mul(6 * sigma.max(1))?
            .checked_mul(std::mem::size_of::<u32>())
    }

    /// The state offset of summary `id`.
    pub(crate) fn offset(&self, id: u32) -> u32 {
        id * self.sigma
    }

    /// The summary id of state offset `s`.
    pub(crate) fn id(&self, s: u32) -> u32 {
        s / self.sigma
    }

    /// The stack frame of the hierarchical state (summary `outer`, call
    /// symbol `a`): its slot `outer·σ + a`.
    pub(crate) fn frame(&self, outer: u32, a: Symbol) -> u32 {
        self.offset(outer) + u32::from(a.0)
    }

    /// The (outer summary id, call symbol) a frame stands for.
    pub(crate) fn split_frame(&self, frame: u32) -> (u32, Symbol) {
        (frame / self.sigma, Symbol((frame % self.sigma) as u16))
    }

    /// Interns `summary` and returns its state offset.
    fn intern<A: SummarySemantics>(&mut self, automaton: &A, summary: Summary) -> u32 {
        let key = summary_key(&summary);
        if let Some(&id) = self.index.get(&key) {
            return self.offset(id);
        }
        let accepting = automaton.summary_accepting(&summary);
        self.push(key, summary, accepting)
    }

    /// Appends a summary the index does not hold yet, with its underived
    /// linear rows and hierarchical slots, and returns its state offset.
    fn push(&mut self, key: Vec<u64>, summary: Summary, accepting: bool) -> u32 {
        let sigma = self.sigma as usize;
        assert!(
            Self::fits(self.summaries.len() + 1, sigma),
            "summary table overflows the u32 offset space"
        );
        let id = self.summaries.len() as u32;
        self.index.insert(key, id);
        self.summaries.push(InternedSummary { summary, accepting });
        self.rows.resize(self.rows.len() + 3 * sigma, MISS);
        self.hier.resize(self.hier.len() + sigma, 0);
        if self.summaries.len() > self.block_rows as usize {
            self.grow_blocks();
        }
        self.offset(id)
    }

    fn block_len(&self) -> usize {
        self.block_rows as usize * self.sigma as usize
    }

    /// Whether one more block keeps `ret` within the byte cap.
    fn block_fits(&self) -> bool {
        ((self.ret.len() + self.block_len()) * std::mem::size_of::<u32>()) as u64
            <= PRODUCT_TABLE_BYTE_CAP
    }

    /// Reserves room in `ret` for up to `blocks` more return blocks, as far
    /// as they fit the byte cap.
    pub(crate) fn reserve_blocks(&mut self, blocks: usize) {
        let cap = PRODUCT_TABLE_BYTE_CAP as usize / std::mem::size_of::<u32>();
        let room = cap.saturating_sub(self.ret.len()) / self.block_len();
        self.ret.reserve(blocks.min(room) * self.block_len());
    }

    /// Doubles the rows of every return block and re-places the blocks in
    /// owner order. The blocks that no longer fit under the cap hand their
    /// rows to the residual map and point back at the all-`MISS` block.
    fn grow_blocks(&mut self) {
        let old_len = self.block_len();
        self.block_rows *= 2;
        let miss_block = vec![MISS; self.block_len()];
        let old = std::mem::replace(&mut self.ret, miss_block);
        for (k, frame) in std::mem::take(&mut self.owners).into_iter().enumerate() {
            let block = &old[(1 + k) * old_len..(2 + k) * old_len];
            if self.block_fits() {
                self.hier[frame as usize] = self.ret.len() as u32;
                self.ret.extend_from_slice(block);
                self.ret
                    .resize(self.ret.len() + self.block_len() - old_len, MISS);
                self.owners.push(frame);
            } else {
                self.hier[frame as usize] = 0;
                let (outer, ca) = self.split_frame(frame);
                for (inner, a, v) in block_entries(block, self.sigma) {
                    self.matched.insert((outer, ca.0, inner, a), v);
                }
            }
        }
    }

    /// Where the step of `event` from the configuration `(state, top, sp)`
    /// is memoized.
    pub(crate) fn row_of(&self, state: u32, top: u32, sp: usize, event: TaggedSymbol) -> Row {
        let a = event.symbol().index() as u32;
        match event {
            TaggedSymbol::Return(_) if sp > 1 => Row::Matched {
                frame: top,
                inner: state,
                a,
            },
            _ => Row::Linear(3 * state as usize + event.tagged_index(self.sigma as usize)),
        }
    }

    /// The residual map's key of a matched-return row: ids and symbols.
    fn residual_key(&self, frame: u32, inner: u32, a: u32) -> (u32, u16, u32, u16) {
        let (outer, ca) = self.split_frame(frame);
        (outer, ca.0, self.id(inner), a as u16)
    }

    /// The memoized successor's state offset, if derived.
    pub(crate) fn get(&self, row: Row) -> Option<u32> {
        let v = match row {
            Row::Linear(i) => self.rows[i],
            Row::Matched { frame, inner, a } => {
                let v = self.ret[(self.hier[frame as usize] + inner + a) as usize];
                if v == MISS {
                    let key = self.residual_key(frame, inner, a);
                    return self.matched.get(&key).map(|&id| self.offset(id));
                }
                v
            }
        };
        (v != MISS).then_some(v)
    }

    /// Memoizes `next` (a state offset) at `row`, giving a matched return's
    /// hierarchical state its block first if it has none and one fits.
    pub(crate) fn set(&mut self, row: Row, next: u32) {
        match row {
            Row::Linear(i) => self.rows[i] = next,
            Row::Matched { frame, inner, a } => {
                if self.hier[frame as usize] == 0 && self.block_fits() {
                    self.hier[frame as usize] = self.ret.len() as u32;
                    self.ret.resize(self.ret.len() + self.block_len(), MISS);
                    self.owners.push(frame);
                }
                match self.hier[frame as usize] {
                    0 => {
                        let key = self.residual_key(frame, inner, a);
                        self.matched.insert(key, self.id(next));
                    }
                    base => self.ret[(base + inner + a) as usize] = next,
                }
            }
        }
    }

    /// Every derived step as sorted relations over ids — what an artifact
    /// saves and what equality compares, whatever the layout.
    pub(crate) fn memo_rows(&self) -> MemoRows {
        let sigma = self.sigma;
        let mut bands: [Vec<(u32, u16, u32)>; 3] = Default::default();
        for (i, &v) in self.rows.iter().enumerate() {
            if v != MISS {
                let i = i as u32;
                bands[(i / sigma % 3) as usize].push((
                    i / (3 * sigma),
                    (i % sigma) as u16,
                    v / sigma,
                ));
            }
        }
        let mut matched: Vec<_> = self
            .matched
            .iter()
            .map(|(&(outer, ca, inner, a), &v)| (outer, ca, inner, a, v))
            .collect();
        for &frame in &self.owners {
            let base = self.hier[frame as usize] as usize;
            let (outer, ca) = self.split_frame(frame);
            matched.extend(
                block_entries(&self.ret[base..base + self.block_len()], sigma)
                    .map(|(inner, a, v)| (outer, ca.0, inner, a, v)),
            );
        }
        matched.sort_unstable();
        let [call, internal, pending] = bands;
        MemoRows {
            call,
            internal,
            pending,
            matched,
        }
    }

    /// Bytes held by the rows, the return blocks and the residual map.
    fn table_bytes(&self) -> usize {
        (self.rows.len() + self.hier.len() + self.ret.len()) * std::mem::size_of::<u32>()
            + self.matched.len() * std::mem::size_of::<((u32, u16, u32, u16), u32)>()
    }

    /// The slice kernel: steps `lane` through `events` on the dense rows
    /// until the end or the first underived step, and returns how many
    /// events it consumed. The lane is left at that event, untouched by it.
    ///
    /// The step mirrors [`CompiledNwa`]'s: the event kind is decoded with
    /// comparisons, the cached stack top is spilled unconditionally, and
    /// both candidate successors — the linear row entry and the return
    /// block entry under the top frame — are loaded and one is selected,
    /// so no branch depends on the event kind. The sentinel frame 0 below
    /// the stack keeps the return-block load in range when the stack is
    /// empty; a pending return selects the linear entry. Only a `MISS`
    /// leaves the straight line: the residual map may still hold a matched
    /// return, and otherwise the loop exits to the write-locked derivation.
    fn run(&self, lane: &mut CompiledSummaryLane, events: &[TaggedSymbol]) -> usize {
        let (rows, hier, ret) = (&self.rows[..], &self.hier[..], &self.ret[..]);
        let sigma = self.sigma;
        let mut state = lane.state;
        let mut top = lane.top;
        let mut sp = lane.sp as usize;
        let mut max_sp = lane.max_sp as usize;
        let spilled = &mut lane.spilled;
        let mut done = 0;
        for &event in events {
            let a = event.symbol().index() as u32;
            assert!(a < sigma, "event symbol outside the automaton's alphabet");
            let is_int = u32::from(matches!(event, TaggedSymbol::Internal(_)));
            let is_ret = u32::from(matches!(event, TaggedSymbol::Return(_)));
            let kind = is_int + 2 * is_ret;
            if sp + 1 >= spilled.len() {
                spilled.resize(spilled.len() * 2, 0);
            }
            spilled[sp - 1] = top;
            let linear = rows[(3 * state + kind * sigma + a) as usize];
            let nested = ret[(hier[top as usize] + state + a) as usize];
            let mut next = if (is_ret != 0) & (sp > 1) {
                nested
            } else {
                linear
            };
            if next == MISS {
                match self.get(self.row_of(state, top, sp, event)) {
                    Some(v) => next = v,
                    None => break,
                }
            }
            let is_call = usize::from(kind == 0);
            sp = (sp + is_call - is_ret as usize).max(1);
            let refill = spilled[sp - 1];
            top = [state + a, top, refill][kind as usize];
            state = next;
            max_sp = max_sp.max(sp);
            done += 1;
        }
        lane.state = state;
        lane.top = top;
        lane.sp = sp as u32;
        lane.max_sp = max_sp as u32;
        lane.steps += done;
        done
    }
}

impl PartialEq for SummaryCache {
    /// The same summaries under the same ids and the same derived steps,
    /// wherever the layout placed them.
    fn eq(&self, other: &Self) -> bool {
        self.summaries == other.summaries && self.memo_rows() == other.memo_rows()
    }
}

impl Eq for SummaryCache {}

/// The summary-set subset construction of §3.2 compiled on the fly into a
/// deterministic NWA: state sets are interned once, and every (summary,
/// event) step is derived from the nondeterministic relations at most once,
/// then served from dense `u32` rows indexed by the interned ids. Streams
/// with repeated event patterns — the common case for document queries —
/// run almost entirely on derived rows.
///
/// The rows use [`CompiledNwa`]'s layout: summary `id` is the state offset
/// `id·σ`, an event decodes to the in-row offset `kind·σ + a`, and a
/// hierarchical state (outer summary, call symbol) owns a block of return
/// rows. Each interned summary costs 5σ–6σ `u32`s of rows, slots and
/// shared all-miss return block; further return blocks are placed only
/// while the return blocks, the all-miss block included, fit
/// [`PRODUCT_TABLE_BYTE_CAP`], and return rows past the cap live in a
/// residual hash map. [`table_bytes`] reports the footprint.
///
/// Generic over [`SummarySemantics`], so one engine serves both
/// [`Nnwa`] (ordinary return relation) and [`JoinlessNwa`] (mode-split
/// return relation). The table is interior-mutable behind an [`RwLock`] and
/// shared by every run started from the same compiled artifact — warm-up
/// amortizes across runs *and* across threads: the artifact is
/// `Send + Sync` (asserted in the test suite), so one `Arc`'d engine can
/// serve every worker of a decision service. A slice takes the read guard
/// once and walks the rows in a register-resident loop; an underived row
/// drops the guard, derives the step under the write lock and resumes at
/// the same event.
///
/// This is in effect determinization restricted to the reachable,
/// actually-visited part of the `2^{s²}` summary-set automaton — the memory
/// trade-off is the table, which grows with the number of distinct
/// summaries visited, not with the stream length.
///
/// [`table_bytes`]: CompiledSummary::table_bytes
#[derive(Debug)]
pub struct CompiledSummary<A: SummarySemantics> {
    pub(crate) automaton: A,
    pub(crate) initial: u32,
    pub(crate) cache: RwLock<SummaryCache>,
}

impl<A: SummarySemantics + PartialEq> PartialEq for CompiledSummary<A> {
    /// Structural equality over the automaton, the initial id *and* the
    /// memo table's relations — `load(save(a)) == a` asserts that the
    /// warmed rows shipped with the artifact, not just the automaton.
    fn eq(&self, other: &Self) -> bool {
        self.automaton == other.automaton
            && self.initial == other.initial
            && *self.lock_read() == *other.lock_read()
    }
}

impl<A: SummarySemantics + Eq> Eq for CompiledSummary<A> {}

impl<A: SummarySemantics + Clone> Clone for CompiledSummary<A> {
    fn clone(&self) -> Self {
        CompiledSummary {
            automaton: self.automaton.clone(),
            initial: self.initial,
            cache: RwLock::new(self.lock_read().clone()),
        }
    }
}

impl<A: SummarySemantics> CompiledSummary<A> {
    /// Compiles the engine around (an owned copy of) the automaton.
    pub fn new(automaton: A) -> Self {
        let mut cache = SummaryCache::new(automaton.sigma());
        let initial = cache.intern(&automaton, automaton.initial_summary());
        let initial = cache.id(initial);
        CompiledSummary {
            automaton,
            initial,
            cache: RwLock::new(cache),
        }
    }

    /// Number of distinct summaries interned so far — the size of the
    /// visited part of the subset construction (grows as runs explore new
    /// event patterns, never with stream length).
    pub fn cached_summaries(&self) -> usize {
        self.lock_read().summaries.len()
    }

    /// Bytes held by the memo table: the dense linear rows and
    /// hierarchical slots, the return blocks with the shared all-miss block
    /// (blocks are placed only while these fit [`PRODUCT_TABLE_BYTE_CAP`])
    /// and the residual map's entries.
    pub fn table_bytes(&self) -> usize {
        self.lock_read().table_bytes()
    }

    pub(crate) fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, SummaryCache> {
        self.cache.read().expect("summary cache lock poisoned")
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, SummaryCache> {
        self.cache.write().expect("summary cache lock poisoned")
    }

    /// The miss path: derives the step of `event` from `lane`'s
    /// configuration under the write lock, unless another thread derived it
    /// since this one dropped its read guard.
    #[cold]
    #[inline(never)]
    fn derive(&self, lane: &CompiledSummaryLane, event: TaggedSymbol) {
        let mut cache = self.lock_write();
        let row = cache.row_of(lane.state, lane.top, lane.sp as usize, event);
        if cache.get(row).is_some() {
            return;
        }
        let current = &cache.summaries[cache.id(lane.state) as usize].summary;
        let a = event.symbol();
        let next = match (row, event) {
            (Row::Matched { frame, .. }, _) => {
                let (outer, ca) = cache.split_frame(frame);
                let outer = &cache.summaries[outer as usize].summary;
                self.automaton.summary_matched_return(outer, ca, current, a)
            }
            (_, TaggedSymbol::Call(_)) => self.automaton.summary_call(current, a),
            (_, TaggedSymbol::Internal(_)) => self.automaton.summary_internal(current, a),
            (_, TaggedSymbol::Return(_)) => self.automaton.summary_pending_return(current, a),
        };
        let next = cache.intern(&self.automaton, next);
        cache.set(row, next);
    }
}

impl<A: SummarySemantics> StreamAcceptor for CompiledSummary<A> {
    type Run<'a>
        = LaneRun<'a, Self>
    where
        Self: 'a;

    fn start(&self) -> LaneRun<'_, Self> {
        LaneRun::new(self)
    }
}

/// One stream's worth of run state for a [`CompiledSummary`] engine, owned
/// so N lanes share one engine (and its memo table) from any number of
/// threads. It has [`CompiledNwaLane`]'s shape: the current summary as a
/// state offset, a register-style cached stack top and the spilled stack.
/// A stack frame is the hierarchical state `outer·σ + call symbol` — the
/// (outer summary, call symbol) pair that snapshots carry.
#[derive(Debug, Clone)]
pub struct CompiledSummaryLane {
    /// Current summary as a state offset `id·σ`.
    pub(crate) state: u32,
    /// Cached top frame; the sentinel 0 when the stack is empty.
    pub(crate) top: u32,
    /// Stack pointer into `spilled`; the live height is `sp - 1` because
    /// `spilled[0]` is the sentinel.
    pub(crate) sp: u32,
    /// Peak `sp` observed.
    pub(crate) max_sp: u32,
    /// Events consumed.
    pub(crate) steps: usize,
    /// The spilled stack; after a call the register `top` is authoritative
    /// and its slot is stale.
    pub(crate) spilled: Vec<u32>,
}

impl<A: SummarySemantics> BatchAcceptor for CompiledSummary<A> {
    type Lane = CompiledSummaryLane;

    fn lane_start(&self) -> CompiledSummaryLane {
        CompiledSummaryLane {
            state: self.lock_read().offset(self.initial),
            top: 0,
            sp: 1,
            max_sp: 1,
            steps: 0,
            spilled: vec![0; 64],
        }
    }

    /// The slice kernel on one event (see `lane_step_slice`).
    #[inline]
    fn lane_step(&self, lane: &mut CompiledSummaryLane, event: TaggedSymbol) {
        self.lane_step_slice(lane, std::slice::from_ref(&event));
    }

    /// Takes the read guard once per slice (of at most 4096 events) and
    /// runs the dense kernel. On an underived step the guard is dropped —
    /// never re-entered while held, since a std `RwLock` may deadlock on a
    /// re-entrant read while a writer waits — the step is derived under the
    /// write lock, and the kernel resumes at the same event under a fresh
    /// guard.
    fn lane_step_slice(&self, lane: &mut CompiledSummaryLane, events: &[TaggedSymbol]) {
        for chunk in events.chunks(GUARD_EVENTS) {
            let mut done = 0;
            while done < chunk.len() {
                // The guard is a temporary, released before `derive` locks.
                done += self.lock_read().run(lane, &chunk[done..]);
                if let Some(&event) = chunk.get(done) {
                    self.derive(lane, event);
                }
            }
        }
    }

    fn lane_height(&self, lane: &CompiledSummaryLane) -> usize {
        lane.sp as usize - 1
    }

    fn lane_outcome(&self, lane: &CompiledSummaryLane) -> StreamOutcome {
        let cache = self.lock_read();
        StreamOutcome {
            accepted: cache.summaries[cache.id(lane.state) as usize].accepting,
            events: lane.steps,
            peak_memory: (lane.max_sp - 1) as usize,
        }
    }

    /// Runs each stream back to back through the slice kernel, like
    /// [`CompiledNwa::run_batch`](BatchAcceptor::run_batch): the generic
    /// lockstep would take the guard once per event.
    fn run_batch(&self, streams: &[&[TaggedSymbol]]) -> Vec<StreamOutcome> {
        streams
            .iter()
            .map(|stream| {
                let mut lane = self.lane_start();
                self.lane_step_slice(&mut lane, stream);
                self.lane_outcome(&lane)
            })
            .collect()
    }
}

impl Compile for Nnwa {
    type Compiled = CompiledSummary<Nnwa>;

    /// The memoized summary subset engine ([`CompiledSummary`]) around an
    /// owned copy of the automaton.
    fn compile(&self) -> CompiledSummary<Nnwa> {
        CompiledSummary::new(self.clone())
    }
}

impl Compile for JoinlessNwa {
    type Compiled = CompiledSummary<JoinlessNwa>;

    /// The memoized summary subset engine ([`CompiledSummary`]) over the
    /// mode-split return relation, around an owned copy of the automaton.
    fn compile(&self) -> CompiledSummary<JoinlessNwa> {
        CompiledSummary::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata_core::{query, Persist, StreamRun};
    use nested_words::generate::{random_nested_word, NestedWordConfig};
    use nested_words::rng::Prng;
    use nested_words::tagged::parse_nested_word;
    use nested_words::{Alphabet, NestedWord};

    fn parse(ab: &mut Alphabet, s: &str) -> NestedWord {
        parse_nested_word(s, ab).unwrap()
    }

    /// The matching-labels NWA from the `automaton` tests: genuinely uses
    /// hierarchical states, pending calls and pending returns.
    fn matching_labels_nwa() -> Nwa {
        let a = Symbol(0);
        let b = Symbol(1);
        let mut m = Nwa::new(4, 2, 0);
        m.set_accepting(0, true);
        m.set_all_transitions_to(3, 3);
        m.set_internal(0, a, 0);
        m.set_internal(0, b, 0);
        m.set_call(0, a, 0, 1);
        m.set_call(0, b, 0, 2);
        for q in [1usize, 2] {
            m.set_all_transitions_to(q, 3);
        }
        for h in 0..4usize {
            for (sym, want) in [(a, 1usize), (b, 2usize)] {
                let target = if h == want { 0 } else { 3 };
                m.set_return(0, h, sym, target);
            }
        }
        m
    }

    #[test]
    fn compiled_nwa_agrees_with_interpreted() {
        let mut ab = Alphabet::ab();
        let m = matching_labels_nwa();
        let c = query::compile(&m);
        for s in [
            "",
            "<a a>",
            "<a b>",
            "<a <b b> a>",
            "a>",
            "<a",
            "<a a> b>",
            "<a <b <a a> b> a> <b b>",
        ] {
            let w = parse(&mut ab, s);
            let interpreted = query::run_stream(&m, w.to_tagged());
            let compiled = query::run_stream(&c, w.to_tagged());
            assert_eq!(interpreted, compiled, "word `{s}`");
        }
    }

    #[test]
    fn compiled_nwa_prefix_observables_match() {
        let m = matching_labels_nwa();
        let c = m.compile();
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 30,
            allow_pending: true,
            ..Default::default()
        };
        for seed in 0..25u64 {
            let w = random_nested_word(&ab, cfg, seed);
            let mut ir = m.start();
            let mut cr = c.start();
            for (i, &event) in w.to_tagged().iter().enumerate() {
                ir.step(event);
                cr.step(event);
                assert_eq!(ir.is_accepting(), cr.is_accepting(), "seed {seed} pos {i}");
                assert_eq!(ir.stack_height(), cr.stack_height(), "seed {seed} pos {i}");
                assert_eq!(ir.peak_memory(), cr.peak_memory(), "seed {seed} pos {i}");
            }
        }
    }

    /// Nondeterministic "some matched `marked` pair" automaton over
    /// `{a, b}`: it guesses which `marked` call to follow on its
    /// hierarchical edge, a genuine join.
    fn some_matched_pair_nnwa(marked: Symbol) -> Nnwa {
        let mut n = Nnwa::new(3, 2);
        n.add_initial(0);
        n.add_accepting(2);
        for sym in [Symbol(0), Symbol(1)] {
            n.add_internal(0, sym, 0);
            n.add_internal(2, sym, 2);
            n.add_call(0, sym, 0, 0);
            n.add_call(2, sym, 2, 0);
            for h in [0usize, 1] {
                n.add_return(0, h, sym, 0);
                n.add_return(2, h, sym, 2);
            }
        }
        n.add_call(0, marked, 0, 1);
        n.add_return(0, 1, marked, 2);
        n
    }

    #[test]
    fn compiled_summary_caches_rows_across_runs() {
        let mut ab = Alphabet::ab();
        let n = some_matched_pair_nnwa(Symbol(1));

        let c = n.compile();
        let w = parse(&mut ab, "<b a b> <a <b b> a>");
        assert!(query::contains_stream(&c, w.to_tagged()));
        let warm = c.cached_summaries();
        assert!(warm > 0);
        // A second, repeated-pattern run derives nothing new.
        assert!(query::contains_stream(&c, w.to_tagged()));
        assert_eq!(c.cached_summaries(), warm);
        // And it still agrees with the interpreted engine on fresh input.
        for s in ["<b a>", "<a b a>", "b>", "<b", "<a <b b>"] {
            let v = parse(&mut ab, s);
            assert_eq!(
                query::contains_stream(&c, v.to_tagged()),
                query::contains(&n, &v),
                "word `{s}`"
            );
        }
    }

    /// The `Arc` serving path of the decision service requires the compiled
    /// artifacts to cross and be shared between threads. This did not
    /// compile while `CompiledSummary` held its memoized row caches in a
    /// `RefCell` (not `Sync`); the `RwLock`-backed cache makes it hold by
    /// construction, and this assertion keeps it held.
    #[test]
    fn compiled_artifacts_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledNwa>();
        assert_send_sync::<CompiledSummary<Nnwa>>();
        assert_send_sync::<CompiledSummary<JoinlessNwa>>();
        // Lanes migrate into worker threads on their own.
        fn assert_send<T: Send>() {}
        assert_send::<CompiledNwaLane>();
        assert_send::<CompiledSummaryLane>();
    }

    #[test]
    fn one_summary_engine_shared_across_threads() {
        let mut ab = Alphabet::ab();
        let n = some_matched_pair_nnwa(Symbol(1));
        let c = std::sync::Arc::new(n.compile());
        let words: Vec<_> = ["<b a b>", "<a <b b> a>", "b>", "<b", "a a"]
            .iter()
            .map(|s| parse(&mut ab, s))
            .collect();
        let expected: Vec<bool> = words.iter().map(|w| n.accepts(w)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                let words = words.clone();
                std::thread::spawn(move || {
                    words
                        .iter()
                        .map(|w| query::contains_stream(&*c, w.to_tagged()))
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    }

    /// A *cold* engine fed by `lane_step_slice` from four threads at once:
    /// every thread misses, drops its read guard and derives under the
    /// write lock while the others read, and every verdict still matches
    /// the interpreted automaton. Afterwards the one shared table answers
    /// every word without deriving anything.
    #[test]
    fn cold_summary_engine_sliced_from_four_threads() {
        let ab = Alphabet::with_size(3);
        let n = random_nnwa(4, 3, 14, 5);
        let cfg = NestedWordConfig {
            len: 300,
            allow_pending: true,
            ..Default::default()
        };
        let words: Vec<NestedWord> = (0..12u64)
            .map(|seed| random_nested_word(&ab, cfg, seed))
            .collect();
        let expected: Vec<bool> = words.iter().map(|w| n.accepts(w)).collect();
        let c = std::sync::Arc::new(n.compile());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                let words = words.clone();
                std::thread::spawn(move || {
                    let mut rng = Prng::new(t);
                    words
                        .iter()
                        .map(|w| {
                            let events = w.to_tagged();
                            let mut lane = c.lane_start();
                            let mut at = 0;
                            while at < events.len() {
                                let end = (at + 1 + rng.below(40)).min(events.len());
                                c.lane_step_slice(&mut lane, &events[at..end]);
                                at = end;
                            }
                            c.lane_outcome(&lane).accepted
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
        let rows = c.lock_read().memo_rows();
        for w in &words {
            c.run_batch(&[&w.to_tagged()]);
        }
        assert_eq!(
            c.lock_read().memo_rows(),
            rows,
            "a warm engine derives nothing"
        );
    }

    /// A random nondeterministic NWA with `transitions` random edges and
    /// one initial and one accepting state.
    fn random_nnwa(states: usize, sigma: usize, transitions: usize, seed: u64) -> Nnwa {
        let mut rng = Prng::new(seed);
        let mut n = Nnwa::new(states, sigma);
        n.add_initial(rng.below(states));
        n.add_accepting(rng.below(states));
        for _ in 0..transitions {
            let a = Symbol(rng.below(sigma) as u16);
            let (q, r, h) = (rng.below(states), rng.below(states), rng.below(states));
            match rng.below(3) {
                0 => n.add_internal(q, a, r),
                1 => n.add_call(q, a, r, h),
                _ => n.add_return(q, h, a, r),
            }
        }
        n
    }

    /// A random complete deterministic NWA.
    fn random_nwa(states: usize, sigma: usize, seed: u64) -> Nwa {
        let mut rng = Prng::new(seed);
        let mut m = Nwa::new(states, sigma, 0);
        for q in 0..states {
            m.set_accepting(q, rng.bool(0.5));
            for a in 0..sigma {
                let a = Symbol(a as u16);
                m.set_internal(q, a, rng.below(states));
                m.set_call(q, a, rng.below(states), rng.below(states));
                for h in 0..states {
                    m.set_return(q, h, a, rng.below(states));
                }
            }
        }
        m
    }

    /// Bytes of the return-block region.
    fn return_block_bytes<A: SummarySemantics>(c: &CompiledSummary<A>) -> usize {
        c.lock_read().ret.len() * std::mem::size_of::<u32>()
    }

    /// A deterministic NWA read as an `Nnwa` visits up to `states²`
    /// singleton summaries, so over a long, deep stream the return blocks
    /// outgrow [`PRODUCT_TABLE_BYTE_CAP`]: growing them evicts blocks, and
    /// later hierarchical states get none. The residual map must then carry
    /// those rows, and the verdict must stay exact at every prefix.
    #[test]
    fn summary_rows_past_the_cap_take_the_residual_path() {
        let m = random_nwa(24, 8, 3);
        let n = Nnwa::from_deterministic(&m);
        let c = n.compile();
        let ab = Alphabet::with_size(8);
        let cfg = NestedWordConfig {
            len: 6000,
            call_prob: 0.45,
            return_prob: 0.35,
            allow_pending: true,
            max_depth: 40,
        };
        let mut rng = Prng::new(9);
        let words: Vec<NestedWord> = (0..6u64)
            .map(|seed| random_nested_word(&ab, cfg, seed))
            .collect();
        for (seed, w) in words.iter().enumerate() {
            let events = w.to_tagged();
            // The compiled run, in random slices, against the interpreted
            // deterministic run stepped event by event.
            let mut lane = c.lane_start();
            let mut reference = m.start();
            let mut at = 0;
            while at < events.len() {
                let end = (at + 1 + rng.below(64)).min(events.len());
                c.lane_step_slice(&mut lane, &events[at..end]);
                for &e in &events[at..end] {
                    reference.step(e);
                }
                at = end;
                let outcome = c.lane_outcome(&lane);
                assert_eq!(
                    outcome.accepted,
                    reference.is_accepting(),
                    "seed {seed} prefix {at}"
                );
                assert_eq!(
                    outcome.peak_memory,
                    reference.peak_memory(),
                    "seed {seed} prefix {at}"
                );
            }
            assert_eq!(c.lane_outcome(&lane).accepted, n.accepts(w), "seed {seed}");
        }
        let residual = c.lock_read().matched.len();
        assert!(residual > 0, "the stream never outgrew the cap");
        assert!(return_block_bytes(&c) as u64 <= PRODUCT_TABLE_BYTE_CAP);
        let cache = c.lock_read();
        let dense = (cache.rows.len() + cache.hier.len()) * 4;
        drop(cache);
        assert!(
            c.table_bytes() as u64 <= dense as u64 + PRODUCT_TABLE_BYTE_CAP + 24 * residual as u64
        );
        // The residual rows ship with the artifact and replay exactly.
        let back = CompiledSummary::<Nnwa>::load(&c.save()).unwrap();
        assert_eq!(back, c);
        let streams: Vec<Vec<TaggedSymbol>> = words.iter().map(NestedWord::to_tagged).collect();
        let streams: Vec<&[TaggedSymbol]> = streams.iter().map(Vec::as_slice).collect();
        assert_eq!(back.run_batch(&streams), c.run_batch(&streams));
    }

    /// An empty stack's sentinel frame 0 is also the hierarchical state
    /// (initial summary, symbol 0): a pending return must take the linear
    /// pending row, never that slot's return block.
    #[test]
    fn pending_returns_ignore_the_sentinel_frame() {
        let mut ab = Alphabet::ab();
        let c = some_matched_pair_nnwa(Symbol(0)).compile();
        // Gives (initial summary, a) a block holding an accepting row.
        assert!(query::contains_stream(
            &c,
            parse(&mut ab, "<a a>").to_tagged()
        ));
        assert!(!query::contains_stream(
            &c,
            parse(&mut ab, "a>").to_tagged()
        ));
        assert!(!query::contains_stream(
            &c,
            parse(&mut ab, "b a> a>").to_tagged()
        ));
    }

    /// The memo only ever grows: re-placing the return blocks as the
    /// summary count doubles keeps every derived row at its value, so a
    /// replay of the earlier streams derives nothing.
    #[test]
    fn growing_the_return_blocks_keeps_every_derived_row() {
        let c = Nnwa::from_deterministic(&random_nwa(8, 3, 1)).compile();
        let ab = Alphabet::with_size(3);
        // Short streams first, so the summary count doubles between them.
        let streams: Vec<Vec<TaggedSymbol>> = (0..16u64)
            .map(|seed| {
                let cfg = NestedWordConfig {
                    len: 10 << (seed / 3),
                    call_prob: 0.45,
                    return_prob: 0.35,
                    allow_pending: true,
                    max_depth: 20,
                };
                random_nested_word(&ab, cfg, seed).to_tagged()
            })
            .collect();
        let mut grown = 0;
        for stream in &streams {
            let before = c.lock_read().memo_rows();
            let block_rows = c.lock_read().block_rows;
            c.run_batch(&[stream]);
            let after = c.lock_read().memo_rows();
            grown += usize::from(c.lock_read().block_rows > block_rows);
            let kept = |old: &[(u32, u16, u32)], new: &[(u32, u16, u32)]| {
                old.iter().all(|row| new.binary_search(row).is_ok())
            };
            assert!(kept(&before.call, &after.call));
            assert!(kept(&before.internal, &after.internal));
            assert!(kept(&before.pending, &after.pending));
            assert!(before
                .matched
                .iter()
                .all(|row| after.matched.binary_search(row).is_ok()));
        }
        assert!(grown >= 2, "the blocks never grew");
        let cache = c.lock_read();
        assert!(!cache.owners.is_empty(), "no return block was placed");
        let rows = cache.memo_rows();
        drop(cache);
        c.run_batch(&streams.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert_eq!(c.lock_read().memo_rows(), rows);
    }

    #[test]
    fn summary_table_bytes_counts_rows_blocks_and_residual() {
        let mut ab = Alphabet::ab();
        let c = some_matched_pair_nnwa(Symbol(1)).compile();
        // One summary: 3σ linear entries, σ slots and a σ-entry miss block.
        assert_eq!(c.table_bytes(), (6 + 2 + 2) * 4);
        let w = parse(&mut ab, "<b a b> <a <b b> a>");
        assert!(query::contains_stream(&c, w.to_tagged()));
        let cache = c.lock_read();
        let (count, blocks) = (cache.summaries.len(), cache.owners.len());
        let block_rows = cache.block_rows as usize;
        assert!(blocks > 0 && count <= block_rows && cache.matched.is_empty());
        drop(cache);
        assert_eq!(
            c.table_bytes(),
            (count * (6 + 2) + (1 + blocks) * block_rows * 2) * 4
        );
    }

    #[test]
    fn batched_lanes_agree_with_streaming_runs() {
        let m = matching_labels_nwa();
        let c = m.compile();
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 40,
            allow_pending: true,
            ..Default::default()
        };
        let words: Vec<Vec<TaggedSymbol>> = (0..8u64)
            .map(|seed| random_nested_word(&ab, cfg, seed).to_tagged())
            .collect();
        let streams: Vec<&[TaggedSymbol]> = words.iter().map(Vec::as_slice).collect();
        let outcomes = c.run_batch(&streams);
        for (stream, outcome) in streams.iter().zip(&outcomes) {
            assert_eq!(*outcome, c.run_tagged(stream));
        }
    }

    #[test]
    fn table_bytes_reports_the_dense_footprint() {
        let m = matching_labels_nwa();
        let c = m.compile();
        // fused table (4 + 4²)·3·2 entries + push table 4·3·2, 4 bytes each.
        assert_eq!(c.table_bytes(), ((4 + 16) * 6 + 24) * 4);
        assert_eq!(c.num_states(), 4);
        assert_eq!(c.sigma(), 2);
    }

    #[test]
    fn bulk_runner_agrees_with_stepwise_runs() {
        let m = matching_labels_nwa();
        let c = m.compile();
        let ab = Alphabet::ab();
        let cfg = NestedWordConfig {
            len: 40,
            allow_pending: true,
            ..Default::default()
        };
        for seed in 0..50u64 {
            let w = random_nested_word(&ab, cfg, seed);
            let events = w.to_tagged();
            assert_eq!(
                c.run_tagged(&events),
                query::run_stream(&m, events.iter().copied()),
                "seed {seed}"
            );
        }
        // Deep nesting exercises the bulk runner's stack growth path.
        let deep: Vec<TaggedSymbol> = std::iter::repeat_n(TaggedSymbol::Call(Symbol(0)), 500)
            .chain(std::iter::repeat_n(TaggedSymbol::Return(Symbol(0)), 500))
            .collect();
        let outcome = c.run_tagged(&deep);
        assert_eq!(outcome, query::run_stream(&m, deep.iter().copied()));
        assert_eq!(outcome.peak_memory, 500);
    }
}
