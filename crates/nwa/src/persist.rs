//! `Persist` and `Suspend` for the compiled NWA engines.
//!
//! * [`CompiledNwa`] is already plain old data — the payload is its scalars
//!   plus the fused table, the push table and the acceptance bits, and the
//!   loader re-derives the stride and range-checks **every** decoded entry
//!   (linear states must be in-range row offsets, pushed values must be
//!   return-block bases) so that a successfully loaded artifact can never
//!   index out of its own tables.
//! * [`CompiledSummary`] persists the automaton *and* its memoization cache:
//!   the interned summary universe in id order plus every memoized
//!   transition row, so a warmed engine ships warm (`load(save(a)) == a`
//!   compares the cache too). Ids are range-checked on load; the rows
//!   themselves are trusted content guarded by the payload checksum —
//!   re-deriving them would be re-compiling, which is exactly what loading
//!   exists to avoid.
//!
//! Snapshots of the dense engine are self-contained (state row offset plus
//! a stack of return-block bases, `check = 0`); snapshots of the subset
//! engine reference *interned ids*, which are only meaningful relative to
//! one intern order, so they carry a content hash of the referenced
//! summaries in [`Snapshot::check`] and resumption re-derives and compares
//! it — resuming on an artifact with the same automaton but a different
//! warm-up history fails with a typed error instead of silently running
//! from the wrong summary.

use crate::compile::{
    summary_key, CompiledNwa, CompiledNwaLane, CompiledNwaRun, CompiledSummary,
    CompiledSummaryLane, CompiledSummaryRun, InternedSummary, SummaryCache,
};
use crate::joinless::JoinlessNwa;
use crate::nondet::Nnwa;
use crate::summary::{Summary, SummarySemantics};
use automata_core::persist::{
    checksum_bytes, expect_alphabet, fingerprint_alphabet, fingerprint_payload, fnv1a_words, kind,
    Reader, Writer,
};
use automata_core::{Persist, PersistError, Snapshot, Suspend};
use nested_words::Symbol;
use std::sync::RwLock;

// --------------------------------------------------------------------------
// CompiledNwa: dense premultiplied tables
// --------------------------------------------------------------------------

impl CompiledNwa {
    /// Serializes the scalars and tables — the payload [`Persist::save`]
    /// seals, and the bytes the content fingerprint hashes. One definition
    /// for both, so the fingerprint computed at compile time equals the one
    /// a loader derives from [`Reader::payload_checksum`].
    fn write_payload(&self, w: &mut Writer) {
        w.put_u64(self.num_states as u64);
        w.put_u32(self.sigma);
        w.put_u32(self.initial);
        w.put_u32(self.pending_row);
        w.put_u32_slice(&self.table);
        w.put_u32_slice(&self.push);
        w.put_bools(&self.accepting);
    }

    /// Content hash over the serialized payload — computed once at compile
    /// time and stamped into every snapshot. Loaders do *not* call this:
    /// they fold the fingerprint out of the checksum pass [`Reader::open`]
    /// already made (one integrity walk, not two).
    pub(crate) fn compute_fingerprint(&self) -> u64 {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        fingerprint_payload(kind::COMPILED_NWA, checksum_bytes(w.payload()))
    }

    /// Length of the linear block — one past the largest valid row offset.
    fn lin(&self) -> u32 {
        self.num_states as u32 * self.stride
    }

    /// A valid linear-state row offset: `q·stride` for some `q < n`.
    fn is_row(&self, v: u32) -> bool {
        v < self.lin() && v.is_multiple_of(self.stride)
    }

    /// A valid return-block base: `lin·(1 + h)` for some `h < n` — what
    /// `push` entries, `pending_row` and dense-engine stack frames hold.
    fn is_ret_base(&self, v: u32) -> bool {
        let lin = u64::from(self.lin());
        let v = u64::from(v);
        v != 0 && v % lin == 0 && v / lin <= self.num_states as u64
    }

    /// Shared validation for [`Suspend::resume_run`] /
    /// [`Suspend::resume_lane`]: the snapshot must come from this artifact
    /// and describe a state the tables can actually index.
    fn check_snapshot(&self, s: &Snapshot) -> Result<(), PersistError> {
        if s.fingerprint != self.fingerprint {
            return Err(PersistError::FingerprintMismatch {
                expected: self.fingerprint,
                found: s.fingerprint,
            });
        }
        if !self.is_row(s.state) {
            return Err(PersistError::Malformed {
                context: "snapshot state is not a row offset of this artifact",
            });
        }
        for &frame in &s.stack {
            if !self.is_ret_base(frame) {
                return Err(PersistError::Malformed {
                    context: "snapshot stack frame is not a return-block base",
                });
            }
        }
        if (s.peak as usize) < s.stack.len() {
            return Err(PersistError::Malformed {
                context: "snapshot peak below its stack height",
            });
        }
        if s.check != 0 {
            return Err(PersistError::Malformed {
                context: "dense-engine snapshots carry no integrity word",
            });
        }
        Ok(())
    }
}

impl Persist for CompiledNwa {
    const KIND: u16 = kind::COMPILED_NWA;

    fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_payload(&mut w);
        w.seal(Self::KIND, self.alphabet_fingerprint())
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, Self::KIND)?;
        // `open` just hashed the whole payload; the content fingerprint
        // derives from that same walk instead of re-hashing the tables.
        let fingerprint = fingerprint_payload(Self::KIND, r.payload_checksum());
        let n = usize::try_from(r.get_u64()?).map_err(|_| PersistError::Malformed {
            context: "state count overflows",
        })?;
        let sigma = r.get_u32()?;
        let initial = r.get_u32()?;
        let pending_row = r.get_u32()?;
        let table = r.get_u32_vec()?;
        let push = r.get_u32_vec()?;
        let accepting = r.get_bool_vec()?;
        r.finish()?;
        expect_alphabet(alphabet, sigma as usize)?;
        if n == 0 {
            return Err(PersistError::Malformed {
                context: "compiled NWA with no states",
            });
        }
        let stride = (3 * u64::from(sigma)).max(1);
        let table_len = (n as u64)
            .checked_add(
                (n as u64)
                    .checked_mul(n as u64)
                    .ok_or(PersistError::Malformed {
                        context: "table size overflows",
                    })?,
            )
            .and_then(|x| x.checked_mul(stride))
            .ok_or(PersistError::Malformed {
                context: "table size overflows",
            })?;
        if u32::try_from(table_len).is_err() {
            return Err(PersistError::Malformed {
                context: "table size exceeds the u32 offset space",
            });
        }
        if table.len() as u64 != table_len {
            return Err(PersistError::Malformed {
                context: "fused table length disagrees with the state count",
            });
        }
        if push.len() as u64 != (n as u64) * stride {
            return Err(PersistError::Malformed {
                context: "push table length disagrees with the state count",
            });
        }
        if accepting.len() != n {
            return Err(PersistError::Malformed {
                context: "acceptance table length disagrees with the state count",
            });
        }
        let artifact = CompiledNwa {
            stride: stride as u32,
            sigma,
            num_states: n,
            table,
            push,
            pending_row,
            initial,
            accepting,
            fingerprint,
        };
        if !artifact.is_row(artifact.initial) {
            return Err(PersistError::Malformed {
                context: "initial state is not a row offset",
            });
        }
        if !artifact.is_ret_base(artifact.pending_row) {
            return Err(PersistError::Malformed {
                context: "pending-return row is not a return-block base",
            });
        }
        // Every decoded entry is range-checked before the artifact can ever
        // run: states must be row offsets (so `state + kind·σ + a + base`
        // stays inside the table) and pushed values return-block bases.
        // `push` is only ever indexed in the call band `q·stride + a` with
        // `a < σ`; the rest of each row is dead and canonically zero.
        for (i, &v) in artifact.push.iter().enumerate() {
            let live = (i as u64 % stride) < u64::from(sigma);
            if live && !artifact.is_ret_base(v) {
                return Err(PersistError::Malformed {
                    context: "push entry is not a return-block base",
                });
            }
            if !live && v != 0 {
                return Err(PersistError::Malformed {
                    context: "dead push entry is not zero",
                });
            }
        }
        // The fused table is by far the largest section (n·(1+n)·stride
        // entries), so its per-entry check avoids the `% stride` hardware
        // divide of `is_row`: valid row offsets are the n multiples of
        // `stride` below `lin`, a lookup table built in O(lin).
        let lin = artifact.lin() as usize;
        let mut row_lut = vec![false; lin];
        let mut row = 0;
        while row < lin {
            row_lut[row] = true;
            row += artifact.stride as usize;
        }
        if artifact
            .table
            .iter()
            .any(|&v| (v as usize) >= lin || !row_lut[v as usize])
        {
            return Err(PersistError::Malformed {
                context: "table entry is not a row offset",
            });
        }
        Ok(artifact)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.sigma as usize)
    }
}

impl Suspend for CompiledNwa {
    fn suspend_lane(&self, lane: &CompiledNwaLane) -> Snapshot {
        let sp = lane.sp as usize;
        // The logical stack is spilled[1..sp] — minus the sentinel — except
        // that after a call the register `top` is authoritative and the
        // top slot is stale, so overwrite it.
        let mut stack = lane.spilled[1..sp].to_vec();
        if let Some(top_slot) = stack.last_mut() {
            *top_slot = lane.top;
        }
        Snapshot {
            fingerprint: self.fingerprint,
            state: lane.state,
            stack,
            peak: lane.max_sp - 1,
            steps: lane.steps as u64,
            check: 0,
        }
    }

    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledNwaLane, PersistError> {
        self.check_snapshot(snapshot)?;
        let height = snapshot.stack.len();
        let mut spilled = Vec::with_capacity((height + 1).max(64));
        spilled.push(self.pending_row);
        spilled.extend_from_slice(&snapshot.stack);
        if spilled.len() < 64 {
            spilled.resize(64, self.pending_row);
        }
        Ok(CompiledNwaLane {
            state: snapshot.state,
            top: snapshot.stack.last().copied().unwrap_or(self.pending_row),
            sp: u32::try_from(height + 1).map_err(|_| PersistError::Malformed {
                context: "snapshot stack too deep for a lane",
            })?,
            max_sp: snapshot
                .peak
                .checked_add(1)
                .ok_or(PersistError::Malformed {
                    context: "snapshot peak overflows",
                })?,
            steps: decode_steps(snapshot.steps)?,
            spilled,
        })
    }

    fn suspend_run(&self, run: &CompiledNwaRun<'_>) -> Snapshot {
        Snapshot {
            fingerprint: self.fingerprint,
            state: run.state,
            stack: run.stack.clone(),
            peak: run.max_stack as u32,
            steps: run.steps as u64,
            check: 0,
        }
    }

    fn resume_run<'a>(&'a self, snapshot: &Snapshot) -> Result<CompiledNwaRun<'a>, PersistError> {
        self.check_snapshot(snapshot)?;
        Ok(CompiledNwaRun {
            tables: self,
            state: snapshot.state,
            stack: snapshot.stack.clone(),
            max_stack: snapshot.peak as usize,
            steps: decode_steps(snapshot.steps)?,
        })
    }
}

/// Step counters are `u64` on the wire and `usize` in run state.
fn decode_steps(steps: u64) -> Result<usize, PersistError> {
    usize::try_from(steps).map_err(|_| PersistError::Malformed {
        context: "snapshot step count overflows",
    })
}

// --------------------------------------------------------------------------
// CompiledSummary: the subset engine, cache included
// --------------------------------------------------------------------------

/// A [`SummarySemantics`] whose automaton can ride inside a
/// [`CompiledSummary`] payload: a kind code, the alphabet size for header
/// validation, and an encode/decode pair for the nondeterministic relations.
pub trait PersistableSemantics: SummarySemantics + PartialEq + Sized {
    /// The artifact kind code of `CompiledSummary<Self>`.
    const KIND: u16;

    /// Number of states — the range bound for decoded summary pairs.
    fn num_states(&self) -> usize;

    /// Alphabet size — the range bound for decoded symbols, and what the
    /// header's alphabet fingerprint hashes.
    fn sigma(&self) -> usize;

    /// Appends the automaton's relations to a payload.
    fn encode(&self, w: &mut Writer);

    /// Decodes what [`encode`](PersistableSemantics::encode) wrote,
    /// range-checking every state and symbol.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// Decodes a `u64` length already bounded by the payload into a `usize`.
fn decode_count(v: u64, context: &'static str) -> Result<usize, PersistError> {
    usize::try_from(v).map_err(|_| PersistError::Malformed { context })
}

/// Range-checks one decoded state index.
fn decode_state(v: u32, n: usize) -> Result<usize, PersistError> {
    let q = v as usize;
    if q < n {
        Ok(q)
    } else {
        Err(PersistError::Malformed {
            context: "transition references a state out of range",
        })
    }
}

/// Range-checks one decoded symbol.
fn decode_symbol(v: u32, sigma: usize) -> Result<Symbol, PersistError> {
    if (v as usize) < sigma && v <= u32::from(u16::MAX) {
        Ok(Symbol(v as u16))
    } else {
        Err(PersistError::Malformed {
            context: "transition symbol outside the alphabet",
        })
    }
}

/// Shared head of the [`Nnwa`] / [`JoinlessNwa`] codecs: state count,
/// alphabet size and the initial/accepting flag arrays.
fn decode_automaton_head(
    r: &mut Reader<'_>,
) -> Result<(usize, usize, Vec<bool>, Vec<bool>), PersistError> {
    let n = decode_count(r.get_u64()?, "state count overflows")?;
    let sigma = decode_count(r.get_u64()?, "alphabet size overflows")?;
    if sigma > usize::from(u16::MAX) + 1 {
        return Err(PersistError::Malformed {
            context: "alphabet size exceeds the symbol space",
        });
    }
    let initial = r.get_bool_vec()?;
    let accepting = r.get_bool_vec()?;
    if initial.len() != n || accepting.len() != n {
        return Err(PersistError::Malformed {
            context: "state flag array length disagrees with the state count",
        });
    }
    Ok((n, sigma, initial, accepting))
}

fn state_word(q: usize) -> u32 {
    u32::try_from(q).expect("state id fits u32")
}

impl PersistableSemantics for Nnwa {
    const KIND: u16 = kind::COMPILED_SUMMARY_NNWA;

    fn num_states(&self) -> usize {
        Nnwa::num_states(self)
    }

    fn sigma(&self) -> usize {
        Nnwa::sigma(self)
    }

    fn encode(&self, w: &mut Writer) {
        let n = Nnwa::num_states(self);
        w.put_u64(n as u64);
        w.put_u64(Nnwa::sigma(self) as u64);
        let mut initial = vec![false; n];
        for q in self.initial_states() {
            initial[q] = true;
        }
        w.put_bools(&initial);
        let accepting: Vec<bool> = (0..n).map(|q| self.is_accepting(q)).collect();
        w.put_bools(&accepting);
        let calls: Vec<u32> = self
            .calls()
            .iter()
            .flat_map(|&(q, a, linear, hier)| {
                [
                    state_word(q),
                    u32::from(a.0),
                    state_word(linear),
                    state_word(hier),
                ]
            })
            .collect();
        w.put_u32_slice(&calls);
        let internals: Vec<u32> = self
            .internals()
            .iter()
            .flat_map(|&(q, a, target)| [state_word(q), u32::from(a.0), state_word(target)])
            .collect();
        w.put_u32_slice(&internals);
        let returns: Vec<u32> = self
            .returns()
            .iter()
            .flat_map(|&(linear, hier, a, target)| {
                [
                    state_word(linear),
                    state_word(hier),
                    u32::from(a.0),
                    state_word(target),
                ]
            })
            .collect();
        w.put_u32_slice(&returns);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Nnwa, PersistError> {
        let (n, sigma, initial, accepting) = decode_automaton_head(r)?;
        let mut a = Nnwa::new(n, sigma);
        for (q, &flag) in initial.iter().enumerate() {
            if flag {
                a.add_initial(q);
            }
        }
        for (q, &flag) in accepting.iter().enumerate() {
            if flag {
                a.add_accepting(q);
            }
        }
        let calls = r.get_u32_vec()?;
        if calls.len() % 4 != 0 {
            return Err(PersistError::Malformed {
                context: "call relation truncated mid-transition",
            });
        }
        for t in calls.chunks_exact(4) {
            a.add_call(
                decode_state(t[0], n)?,
                decode_symbol(t[1], sigma)?,
                decode_state(t[2], n)?,
                decode_state(t[3], n)?,
            );
        }
        let internals = r.get_u32_vec()?;
        if internals.len() % 3 != 0 {
            return Err(PersistError::Malformed {
                context: "internal relation truncated mid-transition",
            });
        }
        for t in internals.chunks_exact(3) {
            a.add_internal(
                decode_state(t[0], n)?,
                decode_symbol(t[1], sigma)?,
                decode_state(t[2], n)?,
            );
        }
        let returns = r.get_u32_vec()?;
        if returns.len() % 4 != 0 {
            return Err(PersistError::Malformed {
                context: "return relation truncated mid-transition",
            });
        }
        for t in returns.chunks_exact(4) {
            a.add_return(
                decode_state(t[0], n)?,
                decode_state(t[1], n)?,
                decode_symbol(t[2], sigma)?,
                decode_state(t[3], n)?,
            );
        }
        Ok(a)
    }
}

impl PersistableSemantics for JoinlessNwa {
    const KIND: u16 = kind::COMPILED_SUMMARY_JOINLESS;

    fn num_states(&self) -> usize {
        JoinlessNwa::num_states(self)
    }

    fn sigma(&self) -> usize {
        JoinlessNwa::sigma(self)
    }

    fn encode(&self, w: &mut Writer) {
        let n = JoinlessNwa::num_states(self);
        w.put_u64(n as u64);
        w.put_u64(JoinlessNwa::sigma(self) as u64);
        let mut initial = vec![false; n];
        for q in self.initial_states() {
            initial[q] = true;
        }
        w.put_bools(&initial);
        let accepting: Vec<bool> = (0..n).map(|q| self.is_accepting(q)).collect();
        w.put_bools(&accepting);
        let linear: Vec<bool> = (0..n).map(|q| self.is_linear(q)).collect();
        w.put_bools(&linear);
        let calls: Vec<u32> = self
            .calls()
            .iter()
            .flat_map(|&(q, a, linear, hier)| {
                [
                    state_word(q),
                    u32::from(a.0),
                    state_word(linear),
                    state_word(hier),
                ]
            })
            .collect();
        w.put_u32_slice(&calls);
        let internals: Vec<u32> = self
            .internals()
            .iter()
            .flat_map(|&(q, a, target)| [state_word(q), u32::from(a.0), state_word(target)])
            .collect();
        w.put_u32_slice(&internals);
        let returns: Vec<u32> = self
            .returns()
            .iter()
            .flat_map(|&(q, a, target)| [state_word(q), u32::from(a.0), state_word(target)])
            .collect();
        w.put_u32_slice(&returns);
    }

    fn decode(r: &mut Reader<'_>) -> Result<JoinlessNwa, PersistError> {
        let (n, sigma, initial, accepting) = decode_automaton_head(r)?;
        let linear = r.get_bool_vec()?;
        if linear.len() != n {
            return Err(PersistError::Malformed {
                context: "state flag array length disagrees with the state count",
            });
        }
        let mut a = JoinlessNwa::new(n, sigma);
        for (q, &flag) in linear.iter().enumerate() {
            a.set_linear(q, flag);
        }
        for (q, &flag) in initial.iter().enumerate() {
            if flag {
                a.add_initial(q);
            }
        }
        for (q, &flag) in accepting.iter().enumerate() {
            if flag {
                a.add_accepting(q);
            }
        }
        let calls = r.get_u32_vec()?;
        if calls.len() % 4 != 0 {
            return Err(PersistError::Malformed {
                context: "call relation truncated mid-transition",
            });
        }
        for t in calls.chunks_exact(4) {
            a.add_call(
                decode_state(t[0], n)?,
                decode_symbol(t[1], sigma)?,
                decode_state(t[2], n)?,
                decode_state(t[3], n)?,
            );
        }
        let internals = r.get_u32_vec()?;
        if internals.len() % 3 != 0 {
            return Err(PersistError::Malformed {
                context: "internal relation truncated mid-transition",
            });
        }
        for t in internals.chunks_exact(3) {
            a.add_internal(
                decode_state(t[0], n)?,
                decode_symbol(t[1], sigma)?,
                decode_state(t[2], n)?,
            );
        }
        let returns = r.get_u32_vec()?;
        if returns.len() % 3 != 0 {
            return Err(PersistError::Malformed {
                context: "return relation truncated mid-transition",
            });
        }
        for t in returns.chunks_exact(3) {
            a.add_return(
                decode_state(t[0], n)?,
                decode_symbol(t[1], sigma)?,
                decode_state(t[2], n)?,
            );
        }
        Ok(a)
    }
}

/// Emits a 2-key memo map sorted by key (deterministic bytes).
fn put_map2(w: &mut Writer, map: &std::collections::HashMap<(u32, u16), u32>) {
    let mut entries: Vec<(u32, u16, u32)> = map.iter().map(|(&(q, a), &v)| (q, a, v)).collect();
    entries.sort_unstable();
    w.put_u64(entries.len() as u64);
    for (q, a, v) in entries {
        w.put_u32(q);
        w.put_u32(u32::from(a));
        w.put_u32(v);
    }
}

/// Emits the 4-key matched-return memo map sorted by key.
fn put_map4(w: &mut Writer, map: &std::collections::HashMap<(u32, u16, u32, u16), u32>) {
    let mut entries: Vec<(u32, u16, u32, u16, u32)> = map
        .iter()
        .map(|(&(outer, ca, inner, a), &v)| (outer, ca, inner, a, v))
        .collect();
    entries.sort_unstable();
    w.put_u64(entries.len() as u64);
    for (outer, ca, inner, a, v) in entries {
        w.put_u32(outer);
        w.put_u32(u32::from(ca));
        w.put_u32(inner);
        w.put_u32(u32::from(a));
        w.put_u32(v);
    }
}

/// Range-checks one decoded summary id.
fn decode_id(v: u32, count: usize) -> Result<u32, PersistError> {
    if (v as usize) < count {
        Ok(v)
    } else {
        Err(PersistError::Malformed {
            context: "memo row references a summary out of range",
        })
    }
}

fn get_map2(
    r: &mut Reader<'_>,
    count: usize,
    sigma: usize,
) -> Result<std::collections::HashMap<(u32, u16), u32>, PersistError> {
    // Rows are (summary, symbol, summary): three u32s.
    let len = r.get_count(3 * 4)?;
    let mut map = std::collections::HashMap::with_capacity(len);
    for _ in 0..len {
        let q = decode_id(r.get_u32()?, count)?;
        let a = decode_symbol(r.get_u32()?, sigma)?;
        let v = decode_id(r.get_u32()?, count)?;
        if map.insert((q, a.0), v).is_some() {
            return Err(PersistError::Malformed {
                context: "duplicate memo row",
            });
        }
    }
    Ok(map)
}

/// The matched-return memo rows: `(outer, call symbol, inner, symbol) →
/// summary id`, the four-key analogue of [`get_map2`]'s layout.
type Map4 = std::collections::HashMap<(u32, u16, u32, u16), u32>;

fn get_map4(r: &mut Reader<'_>, count: usize, sigma: usize) -> Result<Map4, PersistError> {
    // Rows are (outer, call symbol, inner, symbol, summary): five u32s.
    let len = r.get_count(5 * 4)?;
    let mut map = std::collections::HashMap::with_capacity(len);
    for _ in 0..len {
        let outer = decode_id(r.get_u32()?, count)?;
        let ca = decode_symbol(r.get_u32()?, sigma)?;
        let inner = decode_id(r.get_u32()?, count)?;
        let a = decode_symbol(r.get_u32()?, sigma)?;
        let v = decode_id(r.get_u32()?, count)?;
        if map.insert((outer, ca.0, inner, a.0), v).is_some() {
            return Err(PersistError::Malformed {
                context: "duplicate memo row",
            });
        }
    }
    Ok(map)
}

/// A validated subset-engine snapshot, decoded against one artifact's
/// intern table: `(current summary id, stack frames as (outer summary,
/// call symbol), peak, steps)`.
type DecodedSnapshot = (u32, Vec<(u32, Symbol)>, usize, usize);

impl<A: PersistableSemantics> CompiledSummary<A> {
    fn read_cache(&self) -> std::sync::RwLockReadGuard<'_, SummaryCache> {
        self.cache.read().expect("summary cache lock poisoned")
    }

    /// The integrity word of a subset-engine snapshot: a content hash of
    /// the summaries it references (current first, then each stack frame's
    /// outer summary, bottom to top). Interned ids are only meaningful
    /// relative to one intern order; this is how resumption detects a
    /// same-automaton artifact with a different warm-up history.
    fn snapshot_check<'i>(
        cache: &SummaryCache,
        current: u32,
        outers: impl Iterator<Item = &'i (u32, Symbol)>,
    ) -> u64 {
        let mut words = Vec::new();
        for id in std::iter::once(current).chain(outers.map(|&(outer, _)| outer)) {
            let key = summary_key(&cache.summaries[id as usize].summary);
            words.push(key.len() as u64);
            words.extend(key);
        }
        fnv1a_words(words)
    }

    /// Validates a snapshot against this artifact's intern table and
    /// decodes its stack back into `(summary id, call symbol)` frames.
    fn decode_snapshot(&self, snapshot: &Snapshot) -> Result<DecodedSnapshot, PersistError> {
        let fingerprint = self.fingerprint();
        if snapshot.fingerprint != fingerprint {
            return Err(PersistError::FingerprintMismatch {
                expected: fingerprint,
                found: snapshot.fingerprint,
            });
        }
        if !snapshot.stack.len().is_multiple_of(2) {
            return Err(PersistError::Malformed {
                context: "subset-engine snapshot stack must hold (summary, symbol) pairs",
            });
        }
        let cache = self.read_cache();
        let count = cache.summaries.len();
        let current = decode_id(snapshot.state, count).map_err(|_| PersistError::Malformed {
            context: "snapshot references a summary this artifact has not interned",
        })?;
        let sigma = self.automaton.sigma();
        let mut stack = Vec::with_capacity(snapshot.stack.len() / 2);
        for frame in snapshot.stack.chunks_exact(2) {
            let outer = decode_id(frame[0], count).map_err(|_| PersistError::Malformed {
                context: "snapshot references a summary this artifact has not interned",
            })?;
            stack.push((outer, decode_symbol(frame[1], sigma)?));
        }
        if (snapshot.peak as usize) < stack.len() {
            return Err(PersistError::Malformed {
                context: "snapshot peak below its stack height",
            });
        }
        if Self::snapshot_check(&cache, current, stack.iter()) != snapshot.check {
            return Err(PersistError::Malformed {
                context: "snapshot summary ids do not match this artifact's intern order",
            });
        }
        Ok((
            current,
            stack,
            snapshot.peak as usize,
            decode_steps(snapshot.steps)?,
        ))
    }
}

impl<A: PersistableSemantics> Persist for CompiledSummary<A> {
    const KIND: u16 = A::KIND;

    fn save(&self) -> Vec<u8> {
        let cache = self.read_cache();
        let mut w = Writer::new();
        self.automaton.encode(&mut w);
        w.put_u32(self.initial);
        // The interned summary universe, in id order — the warm cache ships
        // with the artifact.
        w.put_u64(cache.summaries.len() as u64);
        let accepting: Vec<bool> = cache.summaries.iter().map(|s| s.accepting).collect();
        w.put_bools(&accepting);
        for s in &cache.summaries {
            let pairs: Vec<u32> = s
                .summary
                .iter()
                .flat_map(|&(anchor, cur)| [state_word(anchor), state_word(cur)])
                .collect();
            w.put_u32_slice(&pairs);
        }
        put_map2(&mut w, &cache.internal);
        put_map2(&mut w, &cache.call);
        put_map2(&mut w, &cache.pending);
        put_map4(&mut w, &cache.matched);
        w.seal(Self::KIND, self.alphabet_fingerprint())
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, Self::KIND)?;
        let automaton = A::decode(&mut r)?;
        expect_alphabet(alphabet, automaton.sigma())?;
        let n = automaton.num_states();
        let initial = r.get_u32()?;
        let count = decode_count(r.get_u64()?, "summary count overflows")?;
        let accepting = r.get_bool_vec()?;
        if accepting.len() != count {
            return Err(PersistError::Malformed {
                context: "summary flag array length disagrees with the summary count",
            });
        }
        let mut cache = SummaryCache::default();
        for (i, &flag) in accepting.iter().enumerate() {
            let words = r.get_u32_vec()?;
            if words.len() % 2 != 0 {
                return Err(PersistError::Malformed {
                    context: "summary pair list truncated mid-pair",
                });
            }
            let mut summary = Summary::new();
            for pair in words.chunks_exact(2) {
                summary.insert((decode_state(pair[0], n)?, decode_state(pair[1], n)?));
            }
            if summary.len() * 2 != words.len() {
                return Err(PersistError::Malformed {
                    context: "duplicate pair inside an interned summary",
                });
            }
            if cache
                .index
                .insert(summary_key(&summary), i as u32)
                .is_some()
            {
                return Err(PersistError::Malformed {
                    context: "the same summary interned twice",
                });
            }
            cache.summaries.push(InternedSummary {
                summary,
                accepting: flag,
            });
        }
        if count == 0 || initial as usize >= count {
            return Err(PersistError::Malformed {
                context: "initial summary out of range",
            });
        }
        let sigma = automaton.sigma();
        cache.internal = get_map2(&mut r, count, sigma)?;
        cache.call = get_map2(&mut r, count, sigma)?;
        cache.pending = get_map2(&mut r, count, sigma)?;
        cache.matched = get_map4(&mut r, count, sigma)?;
        r.finish()?;
        Ok(CompiledSummary {
            automaton,
            initial,
            cache: RwLock::new(cache),
        })
    }

    /// Hashes the automaton and the initial summary — *not* the cache, so
    /// snapshots resume across differently warmed copies of the same
    /// engine (the [`Snapshot::check`] word guards the id mapping).
    fn fingerprint(&self) -> u64 {
        let mut w = Writer::new();
        self.automaton.encode(&mut w);
        w.put_u32(self.initial);
        fingerprint_payload(A::KIND, checksum_bytes(w.payload()))
    }

    fn alphabet_fingerprint(&self) -> u64 {
        fingerprint_alphabet(self.automaton.sigma())
    }
}

impl<A: PersistableSemantics> Suspend for CompiledSummary<A> {
    fn suspend_lane(&self, lane: &CompiledSummaryLane) -> Snapshot {
        let cache = self.read_cache();
        let mut stack = Vec::with_capacity(lane.stack.len() * 2);
        for &(outer, sym) in &lane.stack {
            stack.push(outer);
            stack.push(u32::from(sym.0));
        }
        Snapshot {
            fingerprint: self.fingerprint(),
            state: lane.current,
            stack,
            peak: lane.max_stack as u32,
            steps: lane.steps as u64,
            check: Self::snapshot_check(&cache, lane.current, lane.stack.iter()),
        }
    }

    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledSummaryLane, PersistError> {
        let (current, stack, max_stack, steps) = self.decode_snapshot(snapshot)?;
        Ok(CompiledSummaryLane {
            current,
            stack,
            max_stack,
            steps,
        })
    }

    fn suspend_run(&self, run: &CompiledSummaryRun<'_, A>) -> Snapshot {
        let cache = self.read_cache();
        let mut stack = Vec::with_capacity(run.stack.len() * 2);
        for &(outer, sym) in &run.stack {
            stack.push(outer);
            stack.push(u32::from(sym.0));
        }
        Snapshot {
            fingerprint: self.fingerprint(),
            state: run.current,
            stack,
            peak: run.max_stack as u32,
            steps: run.steps as u64,
            check: Self::snapshot_check(&cache, run.current, run.stack.iter()),
        }
    }

    fn resume_run<'a>(
        &'a self,
        snapshot: &Snapshot,
    ) -> Result<CompiledSummaryRun<'a, A>, PersistError> {
        let (current, stack, max_stack, steps) = self.decode_snapshot(snapshot)?;
        Ok(CompiledSummaryRun {
            engine: self,
            current,
            stack,
            max_stack,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NwaBuilder;
    use automata_core::{BatchAcceptor, Compile, StreamAcceptor, StreamRun};
    use nested_words::TaggedSymbol;

    fn even_calls_nwa() -> crate::Nwa {
        let mut b = NwaBuilder::new(2, 2, 0).accepting(0);
        for q in 0..2usize {
            for a in 0..2u16 {
                let sym = Symbol(a);
                b = b
                    .internal(q, sym, q)
                    .call(q, sym, 1 - q, q)
                    .ret(q, 0usize, sym, q)
                    .ret(q, 1usize, sym, 1 - q);
            }
        }
        b.build()
    }

    #[test]
    fn compiled_nwa_round_trips() {
        let compiled = even_calls_nwa().compile();
        let bytes = compiled.save();
        let back = CompiledNwa::load(&bytes).unwrap();
        assert_eq!(back, compiled);
        assert_eq!(back.fingerprint(), compiled.fingerprint());
    }

    #[test]
    fn compiled_nwa_lane_suspends_and_resumes() {
        let compiled = even_calls_nwa().compile();
        let events = [
            TaggedSymbol::Call(Symbol(0)),
            TaggedSymbol::Internal(Symbol(1)),
            TaggedSymbol::Call(Symbol(1)),
            TaggedSymbol::Return(Symbol(0)),
        ];
        let mut lane = compiled.lane_start();
        for &e in &events {
            compiled.lane_step(&mut lane, e);
        }
        let snapshot = compiled.suspend_lane(&lane);
        let resumed = compiled.resume_lane(&snapshot).unwrap();
        assert_eq!(
            compiled.lane_outcome(&resumed),
            compiled.lane_outcome(&lane)
        );

        // A run resumed from the lane snapshot continues identically.
        let mut run = compiled.resume_run(&snapshot).unwrap();
        let mut full = compiled.start();
        for &e in &events {
            full.step(e);
        }
        let next = TaggedSymbol::Return(Symbol(1));
        run.step(next);
        full.step(next);
        assert_eq!(run.is_accepting(), full.is_accepting());
        assert_eq!(run.stack_height(), full.stack_height());
    }

    #[test]
    fn summary_cache_ships_with_the_artifact() {
        let nnwa = Nnwa::from_deterministic(&even_calls_nwa());
        let engine = CompiledSummary::new(nnwa);
        let events = [
            TaggedSymbol::Call(Symbol(0)),
            TaggedSymbol::Internal(Symbol(1)),
            TaggedSymbol::Return(Symbol(1)),
        ];
        let mut run = engine.start();
        for &e in &events {
            run.step(e);
        }
        drop(run);
        assert!(engine.cached_summaries() > 1);
        let back = CompiledSummary::<Nnwa>::load(&engine.save()).unwrap();
        assert_eq!(back, engine);
        assert_eq!(back.cached_summaries(), engine.cached_summaries());
    }

    #[test]
    fn foreign_snapshots_are_rejected() {
        let compiled = even_calls_nwa().compile();
        let lane = compiled.lane_start();
        let mut snapshot = compiled.suspend_lane(&lane);
        snapshot.fingerprint ^= 1;
        assert!(matches!(
            compiled.resume_lane(&snapshot),
            Err(PersistError::FingerprintMismatch { .. })
        ));
    }
}
