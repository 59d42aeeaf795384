//! `Persist` and `Suspend` for the compiled NWA engines.
//!
//! * [`CompiledNwa`] is already plain old data — the payload is its scalars
//!   plus the fused table, the push table and the acceptance bits, and the
//!   loader re-derives the stride and range-checks **every** decoded entry
//!   (linear states must be in-range row offsets, pushed values must be
//!   return-block bases) so that a successfully loaded artifact can never
//!   index out of its own tables.
//! * [`CompiledSummary`] persists the automaton *and* its memo table: the
//!   interned summary universe in id order plus every derived step as a
//!   sorted `(summary, symbol, summary)` or `(outer, call symbol, inner,
//!   symbol, summary)` row, so a warmed engine ships warm (`load(save(a))
//!   == a` compares the memo relations too). The bytes name ids, never
//!   table offsets, so they do not depend on where the dense table placed
//!   a row. Ids are range-checked and duplicate rows refused on load, which
//!   then rebuilds the dense table from the decoded summaries. An image
//!   whose table would outgrow `TABLE_BYTES_PER_IMAGE_BYTE` bytes per
//!   image byte (floor `TABLE_BYTES_FLOOR`) is refused first, since σ is
//!   one header word and each summary only a few bytes of image. The rows
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
    summary_key, CompiledNwa, CompiledNwaLane, CompiledSummary, CompiledSummaryLane,
    InternedSummary, Row, SummaryCache,
};
use crate::joinless::JoinlessNwa;
use crate::nondet::Nnwa;
use crate::summary::{Summary, SummarySemantics};
use automata_core::persist::{
    checksum_bytes, decode_steps, expect_alphabet, fingerprint_alphabet, fingerprint_payload,
    fnv1a_words, kind, Reader, Writer,
};
use automata_core::{Persist, PersistError, Snapshot, Suspend};
use nested_words::{Symbol, TaggedSymbol};
use std::collections::HashMap;
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

    /// The snapshot must come from this artifact and describe a state the
    /// tables can actually index.
    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledNwaLane, PersistError> {
        if snapshot.fingerprint != self.fingerprint {
            return Err(PersistError::FingerprintMismatch {
                expected: self.fingerprint,
                found: snapshot.fingerprint,
            });
        }
        if !self.is_row(snapshot.state) {
            return Err(PersistError::Malformed {
                context: "snapshot state is not a row offset of this artifact",
            });
        }
        for &frame in &snapshot.stack {
            if !self.is_ret_base(frame) {
                return Err(PersistError::Malformed {
                    context: "snapshot stack frame is not a return-block base",
                });
            }
        }
        if (snapshot.peak as usize) < snapshot.stack.len() {
            return Err(PersistError::Malformed {
                context: "snapshot peak below its stack height",
            });
        }
        if snapshot.check != 0 {
            return Err(PersistError::Malformed {
                context: "dense-engine snapshots carry no integrity word",
            });
        }
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
}

// --------------------------------------------------------------------------
// CompiledSummary: the subset engine, cache included
// --------------------------------------------------------------------------

/// A [`SummarySemantics`] whose automaton can ride inside a
/// [`CompiledSummary`] payload: a kind code, the state count for range
/// checks, and an encode/decode pair for the nondeterministic relations.
/// The alphabet size ([`SummarySemantics::sigma`]) bounds decoded symbols
/// and is what the header's alphabet fingerprint hashes.
pub trait PersistableSemantics: SummarySemantics + PartialEq + Sized {
    /// The artifact kind code of `CompiledSummary<Self>`.
    const KIND: u16;

    /// Number of states — the range bound for decoded summary pairs.
    fn num_states(&self) -> usize;

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

/// Reads a `u32` array written by [`Writer::put_u32_slice`] as rows of
/// `N` words; a length that is no multiple of `N` is malformed.
fn get_relation<'a, const N: usize>(
    r: &mut Reader<'a>,
    context: &'static str,
) -> Result<impl ExactSizeIterator<Item = [u32; N]> + Clone + 'a, PersistError> {
    let words = r.get_count(4)?;
    if words % N != 0 {
        return Err(PersistError::Malformed { context });
    }
    r.get_u32_rows::<N>(words / N)
}

fn state_word(q: usize) -> u32 {
    u32::try_from(q).expect("state id fits u32")
}

impl PersistableSemantics for Nnwa {
    const KIND: u16 = kind::COMPILED_SUMMARY_NNWA;

    fn num_states(&self) -> usize {
        Nnwa::num_states(self)
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
        let calls = get_relation::<4>(r, "call relation truncated mid-transition")?;
        let internals = get_relation::<3>(r, "internal relation truncated mid-transition")?;
        let returns = get_relation::<4>(r, "return relation truncated mid-transition")?;
        a.reserve_transitions(calls.len(), internals.len(), returns.len());
        for [q, s, linear, hier] in calls {
            a.add_call(
                decode_state(q, n)?,
                decode_symbol(s, sigma)?,
                decode_state(linear, n)?,
                decode_state(hier, n)?,
            );
        }
        for [q, s, target] in internals {
            a.add_internal(
                decode_state(q, n)?,
                decode_symbol(s, sigma)?,
                decode_state(target, n)?,
            );
        }
        for [linear, hier, s, target] in returns {
            a.add_return(
                decode_state(linear, n)?,
                decode_state(hier, n)?,
                decode_symbol(s, sigma)?,
                decode_state(target, n)?,
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
        let calls = get_relation::<4>(r, "call relation truncated mid-transition")?;
        let internals = get_relation::<3>(r, "internal relation truncated mid-transition")?;
        let returns = get_relation::<3>(r, "return relation truncated mid-transition")?;
        a.reserve_transitions(calls.len(), internals.len(), returns.len());
        for [q, s, linear, hier] in calls {
            a.add_call(
                decode_state(q, n)?,
                decode_symbol(s, sigma)?,
                decode_state(linear, n)?,
                decode_state(hier, n)?,
            );
        }
        for [q, s, target] in internals {
            a.add_internal(
                decode_state(q, n)?,
                decode_symbol(s, sigma)?,
                decode_state(target, n)?,
            );
        }
        for [q, s, target] in returns {
            a.add_return(
                decode_state(q, n)?,
                decode_symbol(s, sigma)?,
                decode_state(target, n)?,
            );
        }
        Ok(a)
    }
}

/// Emits one relation of memo rows, already sorted by key.
fn put_rows<const N: usize>(w: &mut Writer, rows: impl ExactSizeIterator<Item = [u32; N]>) {
    w.put_u64(rows.len() as u64);
    for row in rows {
        for word in row {
            w.put_u32(word);
        }
    }
}

/// Dense-table bytes a loaded summary image may claim per byte of the
/// image. A summary costs one flag byte and an 8-byte pair-list length in
/// the image but 5σ–6σ `u32`s in the table, and σ is a header word, so
/// without this bound a few kilobytes could ask for gigabytes.
const TABLE_BYTES_PER_IMAGE_BYTE: usize = 64;

/// Dense-table bytes any summary image may claim whatever its length, so a
/// small image of a wide-alphabet engine still loads.
const TABLE_BYTES_FLOOR: usize = 64 << 20;

/// Whether `count` summaries over `sigma` symbols stay within the table
/// bytes an image of `image_len` bytes may claim: at most
/// [`TABLE_BYTES_PER_IMAGE_BYTE`] per image byte, or [`TABLE_BYTES_FLOOR`].
fn table_fits_image(count: usize, sigma: usize, image_len: usize) -> bool {
    let allowance = image_len
        .saturating_mul(TABLE_BYTES_PER_IMAGE_BYTE)
        .max(TABLE_BYTES_FLOOR);
    SummaryCache::dense_bytes(count, sigma).is_some_and(|bytes| bytes <= allowance)
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

/// Memoizes one decoded row, refusing a row the table already holds.
fn insert_row(cache: &mut SummaryCache, row: Row, id: u32) -> Result<(), PersistError> {
    if cache.get(row).is_some() {
        return Err(PersistError::Malformed {
            context: "duplicate memo row",
        });
    }
    let next = cache.offset(id);
    cache.set(row, next);
    Ok(())
}

/// Decodes one linear band of `(summary, symbol, summary)` rows into the
/// table: the steps by `event(symbol)` on an empty stack.
fn get_linear_rows(
    r: &mut Reader<'_>,
    cache: &mut SummaryCache,
    event: fn(Symbol) -> TaggedSymbol,
    sigma: usize,
) -> Result<(), PersistError> {
    let count = cache.summaries.len();
    // Rows are (summary, symbol, summary): three u32s.
    let len = r.get_count(3 * 4)?;
    for [q, a, v] in r.get_u32_rows::<3>(len)? {
        let (q, a, v) = (
            decode_id(q, count)?,
            decode_symbol(a, sigma)?,
            decode_id(v, count)?,
        );
        let row = cache.row_of(cache.offset(q), 0, 1, event(a));
        insert_row(cache, row, v)?;
    }
    Ok(())
}

/// Decodes the `(outer, call symbol, inner, symbol, summary)` matched-return
/// rows into the table.
fn get_matched_rows(
    r: &mut Reader<'_>,
    cache: &mut SummaryCache,
    sigma: usize,
) -> Result<(), PersistError> {
    let count = cache.summaries.len();
    // Rows are (outer, call symbol, inner, symbol, summary): five u32s.
    let len = r.get_count(5 * 4)?;
    let rows = r.get_u32_rows::<5>(len)?;
    // Saved rows are sorted by frame, so each run of one frame is one block.
    let frames = rows.clone().map(|[outer, ca, ..]| (outer, ca));
    let runs = frames
        .clone()
        .zip(frames.skip(1))
        .filter(|(x, y)| x != y)
        .count();
    cache.reserve_blocks(runs + usize::from(len > 0));
    for [outer, ca, inner, a, v] in rows {
        let frame = cache.frame(decode_id(outer, count)?, decode_symbol(ca, sigma)?);
        let (inner, a, v) = (
            decode_id(inner, count)?,
            decode_symbol(a, sigma)?,
            decode_id(v, count)?,
        );
        let row = cache.row_of(cache.offset(inner), frame, 2, TaggedSymbol::Return(a));
        insert_row(cache, row, v)?;
    }
    Ok(())
}

impl<A: PersistableSemantics> CompiledSummary<A> {
    /// The integrity word of a subset-engine snapshot: a content hash of
    /// the summaries it references (current first, then each stack frame's
    /// outer summary, bottom to top). Interned ids are only meaningful
    /// relative to one intern order; this is how resumption detects a
    /// same-automaton artifact with a different warm-up history.
    fn snapshot_check(cache: &SummaryCache, ids: impl Iterator<Item = u32>) -> u64 {
        let mut words = Vec::new();
        for id in ids {
            let key = summary_key(&cache.summaries[id as usize].summary);
            words.push(key.len() as u64);
            words.extend(key);
        }
        fnv1a_words(words)
    }
}

impl<A: PersistableSemantics> Persist for CompiledSummary<A> {
    const KIND: u16 = A::KIND;

    fn save(&self) -> Vec<u8> {
        let cache = self.lock_read();
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
        let memo = cache.memo_rows();
        for band in [&memo.internal, &memo.call, &memo.pending] {
            put_rows(&mut w, band.iter().map(|&(q, a, v)| [q, u32::from(a), v]));
        }
        put_rows(
            &mut w,
            memo.matched
                .iter()
                .map(|&(outer, ca, inner, a, v)| [outer, u32::from(ca), inner, u32::from(a), v]),
        );
        w.seal(Self::KIND, self.alphabet_fingerprint())
    }

    fn load(bytes: &[u8]) -> Result<Self, PersistError> {
        let (alphabet, mut r) = Reader::open(bytes, Self::KIND)?;
        let automaton = A::decode(&mut r)?;
        let sigma = automaton.sigma();
        expect_alphabet(alphabet, sigma)?;
        let n = automaton.num_states();
        let initial = r.get_u32()?;
        let count = decode_count(r.get_u64()?, "summary count overflows")?;
        let accepting = r.get_bool_vec()?;
        if accepting.len() != count {
            return Err(PersistError::Malformed {
                context: "summary flag array length disagrees with the summary count",
            });
        }
        if !SummaryCache::fits(count, sigma) {
            return Err(PersistError::Malformed {
                context: "summary table exceeds the u32 offset space",
            });
        }
        if !table_fits_image(count, sigma, bytes.len()) {
            return Err(PersistError::Malformed {
                context: "summary table too large for the image",
            });
        }
        // Grown as summaries decode: `count` is not yet backed by payload.
        let mut summaries = Vec::new();
        let mut index = HashMap::new();
        for &flag in &accepting {
            let pairs = get_relation::<2>(&mut r, "summary pair list truncated mid-pair")?;
            let len = pairs.len();
            let mut summary = Summary::new();
            for [anchor, cur] in pairs {
                summary.insert((decode_state(anchor, n)?, decode_state(cur, n)?));
            }
            if summary.len() != len {
                return Err(PersistError::Malformed {
                    context: "duplicate pair inside an interned summary",
                });
            }
            if index
                .insert(summary_key(&summary), summaries.len() as u32)
                .is_some()
            {
                return Err(PersistError::Malformed {
                    context: "the same summary interned twice",
                });
            }
            summaries.push(InternedSummary {
                summary,
                accepting: flag,
            });
        }
        let mut cache = SummaryCache::with_summaries(sigma, summaries, index);
        if count == 0 || initial as usize >= count {
            return Err(PersistError::Malformed {
                context: "initial summary out of range",
            });
        }
        // The bands in save order: internal, call, pending, then matched.
        for event in [
            TaggedSymbol::Internal,
            TaggedSymbol::Call,
            TaggedSymbol::Return,
        ] {
            get_linear_rows(&mut r, &mut cache, event, sigma)?;
        }
        get_matched_rows(&mut r, &mut cache, sigma)?;
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
    /// The snapshot holds ids, not offsets: the current summary, and the
    /// stack as `(outer summary, call symbol)` pairs.
    fn suspend_lane(&self, lane: &CompiledSummaryLane) -> Snapshot {
        let cache = self.lock_read();
        // The logical stack is spilled[1..sp], with the register `top`
        // authoritative for its last slot (as for the dense engine).
        let mut frames = lane.spilled[1..lane.sp as usize].to_vec();
        if let Some(top_slot) = frames.last_mut() {
            *top_slot = lane.top;
        }
        let current = cache.id(lane.state);
        Snapshot {
            fingerprint: self.fingerprint(),
            state: current,
            stack: frames
                .iter()
                .flat_map(|&f| {
                    let (outer, a) = cache.split_frame(f);
                    [outer, u32::from(a.0)]
                })
                .collect(),
            peak: lane.max_sp - 1,
            steps: lane.steps as u64,
            check: Self::snapshot_check(
                &cache,
                std::iter::once(current).chain(frames.iter().map(|&f| cache.id(f))),
            ),
        }
    }

    /// Validates the snapshot against this artifact's intern table and
    /// decodes its stack back into `(summary id, call symbol)` frames.
    fn resume_lane(&self, snapshot: &Snapshot) -> Result<CompiledSummaryLane, PersistError> {
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
        let cache = self.lock_read();
        let count = cache.summaries.len();
        let unknown = |_| PersistError::Malformed {
            context: "snapshot references a summary this artifact has not interned",
        };
        let current = decode_id(snapshot.state, count).map_err(unknown)?;
        let sigma = self.automaton.sigma();
        let mut outers = Vec::with_capacity(snapshot.stack.len() / 2);
        // spilled[0] is the sentinel frame under the stack.
        let mut spilled = Vec::with_capacity(snapshot.stack.len() / 2 + 1);
        spilled.push(0);
        for frame in snapshot.stack.chunks_exact(2) {
            let outer = decode_id(frame[0], count).map_err(unknown)?;
            let symbol = decode_symbol(frame[1], sigma)?;
            outers.push(outer);
            spilled.push(cache.frame(outer, symbol));
        }
        let height = outers.len();
        if (snapshot.peak as usize) < height {
            return Err(PersistError::Malformed {
                context: "snapshot peak below its stack height",
            });
        }
        if Self::snapshot_check(&cache, std::iter::once(current).chain(outers)) != snapshot.check {
            return Err(PersistError::Malformed {
                context: "snapshot summary ids do not match this artifact's intern order",
            });
        }
        let top = spilled[height];
        if spilled.len() < 64 {
            spilled.resize(64, 0);
        }
        Ok(CompiledSummaryLane {
            state: cache.offset(current),
            top,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NwaBuilder;
    use automata_core::{BatchAcceptor, Compile, LaneRun, StreamAcceptor, StreamRun};
    use nested_words::generate::{random_nested_word, NestedWordConfig};
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
        let mut run = LaneRun::from_lane(&compiled, compiled.resume_lane(&snapshot).unwrap());
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

    /// Accepts exactly the words whose every return matches its call's
    /// label, so a frame's call symbol decides the verdict.
    fn matching_labels_nwa() -> crate::Nwa {
        let mut m = crate::Nwa::new(4, 2, 0);
        m.set_accepting(0, true);
        for q in 1..4 {
            m.set_all_transitions_to(q, 3);
        }
        for (a, pushed) in [(Symbol(0), 1), (Symbol(1), 2)] {
            m.set_internal(0, a, 0);
            m.set_call(0, a, 0, pushed);
            for h in 0..4 {
                m.set_return(0, h, a, if h == pushed { 0 } else { 3 });
            }
        }
        m
    }

    /// Random nested words over `{0, 1}` with pending calls and returns.
    fn random_streams(count: u64, len: usize) -> Vec<Vec<TaggedSymbol>> {
        let ab = nested_words::Alphabet::ab();
        let cfg = NestedWordConfig {
            len,
            allow_pending: true,
            ..Default::default()
        };
        (0..count)
            .map(|seed| random_nested_word(&ab, cfg, seed).to_tagged())
            .collect()
    }

    /// How many steps the engine has derived so far.
    fn derived<A: SummarySemantics>(engine: &CompiledSummary<A>) -> usize {
        let memo = engine.lock_read().memo_rows();
        memo.call.len() + memo.internal.len() + memo.pending.len() + memo.matched.len()
    }

    /// Equality compares the memo relations, not the layout: a loaded copy
    /// places its return blocks in key order, the original in miss order.
    #[test]
    fn memo_equality_ignores_block_placement() {
        let engine = CompiledSummary::new(Nnwa::from_deterministic(&even_calls_nwa()));
        for events in random_streams(6, 40).iter().rev() {
            engine.run_batch(&[events]);
        }
        let back = CompiledSummary::<Nnwa>::load(&engine.save()).unwrap();
        let owners = |e: &CompiledSummary<Nnwa>| e.lock_read().owners.clone();
        assert_ne!(owners(&back), owners(&engine), "the layouts should differ");
        assert_eq!(back, engine);
        assert_eq!(back.save(), engine.save());
    }

    /// Suspending right after a miss — at the end of a slice whose last
    /// event was derived mid-slice — and resuming on a `load(save())` copy
    /// taken at that moment continues exactly like the original lane, both
    /// engines deriving further rows independently.
    #[test]
    fn suspend_right_after_a_miss_resumes_on_a_reloaded_copy() {
        let mut rng = nested_words::rng::Prng::new(7);
        let mut cuts = 0;
        let automata = [even_calls_nwa(), matching_labels_nwa()];
        for (events, m) in random_streams(8, 60).iter().zip(automata.iter().cycle()) {
            let engine = CompiledSummary::new(Nnwa::from_deterministic(m));
            // Where a cold engine misses: on a copy stepped event by event.
            let probe = engine.clone();
            let mut lane = probe.lane_start();
            let mut misses = Vec::new();
            for (i, &e) in events.iter().enumerate() {
                let before = derived(&probe);
                probe.lane_step(&mut lane, e);
                if derived(&probe) > before {
                    misses.push(i);
                }
            }
            let mut lane = engine.lane_start();
            let mut at = 0;
            for &miss in &misses {
                if miss < at || rng.below(2) == 0 {
                    continue;
                }
                // One slice running from the last cut through the miss.
                engine.lane_step_slice(&mut lane, &events[at..=miss]);
                at = miss + 1;
                let snapshot = engine.suspend_lane(&lane);
                let copy = CompiledSummary::<Nnwa>::load(&engine.save()).unwrap();
                let mut resumed = copy.resume_lane(&snapshot).unwrap();
                let mut original = lane.clone();
                let rest = &events[at..];
                let split = rng.below(rest.len() + 1);
                for part in [&rest[..split], &rest[split..]] {
                    engine.lane_step_slice(&mut original, part);
                    copy.lane_step_slice(&mut resumed, part);
                    assert_eq!(copy.lane_outcome(&resumed), engine.lane_outcome(&original));
                }
                assert_eq!(copy.suspend_lane(&resumed), engine.suspend_lane(&original));
                cuts += 1;
            }
        }
        assert!(cuts > 10, "too few cuts after a miss: {cuts}");
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
