//! Bulk structural scanning of raw XML-ish bytes — the simdjson-style
//! lexer behind [`ByteTokenizer`], and so behind every text and byte entry
//! point of the crate.
//!
//! A char-at-a-time lexer pays several calls and a `String::push` per
//! input byte, and that wall would dominate the bytes-in → verdict-out
//! pipeline: the compiled engines decide hundreds of millions of events
//! per second. This module moves every per-byte decision to a per-*run*
//! decision, the way continuous-readout pipelines move validation from
//! per-sample to per-chunk:
//!
//! * bytes are pulled through a `ChunkWindow` — a reusable buffer of
//!   [`SCAN_CHUNK`] bytes refilled from the reader and **UTF-8-validated a
//!   chunk at a time** (an 8-byte-word ASCII fast path, the WHATWG table
//!   only on non-ASCII runs), with a multi-byte sequence split across a
//!   refill seam carried over and re-validated when its tail arrives;
//! * the tokenizer's sweep methods then cover whole *runs* of the
//!   validated window with unrolled byte loops keyed on the structural
//!   set — `<`, `>`, quotes inside tags, the `-->` / `?>` / `]]>`
//!   terminators — classifying text, tag bodies, CDATA sections,
//!   comments, processing instructions and DOCTYPE internal subsets as
//!   slices, not as characters;
//! * names are resolved straight from window slices through the
//!   [`ResolveName`] policy and the event-building `LexerCore`, which both
//!   the in-window sweeps and the seam-crossing general path share, so the
//!   two agree by construction. `tests/sax_scan.rs` holds the whole lexer
//!   token-for-token, error-for-error and alphabet-for-alphabet equal to an
//!   independent char-at-a-time reference under adversarial read
//!   granularities.
//!
//! Invalid or truncated UTF-8 found by the chunk validator is *deferred*:
//! the window simply ends at the last valid scalar, and the typed
//! [`SaxError`] surfaces exactly when lexing reaches that offset — the same
//! observable order as an incremental decoder, where a token in progress
//! when the bad byte arrives is discarded in favor of the error.

use crate::sax::{ByteTokenizer, LexerCore, ResolveName, SaxError};
use nested_words::{NestedWordError, TaggedSymbol};
use std::io;

/// Default size, in bytes, of the bulk scanning window: the unit reads are
/// requested in, UTF-8 validation runs over, and structural runs are swept
/// from. Used by [`ByteTokenizer`], hence by every text and byte entry
/// point (`sax::tokenize`, `queries::run_streaming_reader`, `nwa-service`'s
/// `submit_bytes`, …). 64 KiB: comfortably past the point where per-chunk
/// costs (one `read` call, one validation sweep, one compaction memmove)
/// amortize to noise, while staying L2-resident on every current core.
pub const SCAN_CHUNK: usize = 64 * 1024;

/// What ended a chunk validation sweep.
enum Utf8Stop {
    /// The run ends on a scalar boundary.
    Clean,
    /// The run ends inside a multi-byte sequence whose bytes so far are
    /// consistent — a refill seam, not (yet) an error.
    Incomplete,
    /// The sequence starting at the reported prefix length is invalid.
    Invalid,
}

/// Length of the longest all-ASCII prefix the wide backend can certify in
/// whole vectors — the UTF-8 validator's fast-forward. Returns 0 on the
/// SWAR backend (or within a vector of the first non-ASCII byte), leaving
/// the word-at-a-time loop to do exactly what it always did.
#[inline]
fn ascii_run(bytes: &[u8]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if let Some(k) = simd::Avx2::active() {
        return k.ascii_run(bytes);
    }
    #[cfg(target_arch = "aarch64")]
    if let Some(k) = simd::Neon::active() {
        return k.ascii_run(bytes);
    }
    let _ = bytes;
    0
}

/// Validates one byte run, returning the length of its longest prefix made
/// of whole valid scalars and what stopped the sweep there.
///
/// ASCII is skipped eight bytes per test (`word & 0x8080…` — the memchr
/// idiom for "any high bit set"); only non-ASCII runs consult the WHATWG
/// second-byte table, which rejects overlong forms (C0/C1, E0 80–9F,
/// F0 80–8F), surrogates (ED A0–BF) and scalars past U+10FFFF (F4 90–BF,
/// F5–FF) — byte-for-byte the acceptance set of `std::str::from_utf8`.
fn validate_utf8(bytes: &[u8]) -> (usize, Utf8Stop) {
    const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
    let n = bytes.len();
    // On the wide backend, whole-vector ASCII runs are swallowed up front
    // and after every non-ASCII scalar; the word loop below keeps the
    // tails and stays the only path on SWAR.
    let mut i = ascii_run(bytes);
    while i < n {
        let b = bytes[i];
        if b < 0x80 {
            if i + 8 <= n {
                let word = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte run"));
                if word & HIGH_BITS == 0 {
                    i += 8;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        let (len, min1, max1) = match b {
            0xC2..=0xDF => (2, 0x80, 0xBF),
            0xE0 => (3, 0xA0, 0xBF),
            0xE1..=0xEC | 0xEE..=0xEF => (3, 0x80, 0xBF),
            0xED => (3, 0x80, 0x9F),
            0xF0 => (4, 0x90, 0xBF),
            0xF1..=0xF3 => (4, 0x80, 0xBF),
            0xF4 => (4, 0x80, 0x8F),
            _ => return (i, Utf8Stop::Invalid),
        };
        let avail = (n - i).min(len);
        for j in 1..avail {
            let c = bytes[i + j];
            let (lo, hi) = if j == 1 { (min1, max1) } else { (0x80, 0xBF) };
            if c < lo || c > hi {
                return (i, Utf8Stop::Invalid);
            }
        }
        if avail < len {
            return (i, Utf8Stop::Incomplete);
        }
        i += len;
        i += ascii_run(&bytes[i..]);
    }
    (n, Utf8Stop::Clean)
}

/// Decodes the (already validated) scalar starting at `bytes[0]`, returning
/// it with its encoded length. Only reached for non-ASCII bytes on the
/// whitespace/terminator checks, so the common path never runs it.
fn decode_scalar(bytes: &[u8]) -> (char, usize) {
    let b0 = bytes[0];
    debug_assert!(b0 >= 0x80, "ASCII is handled inline by the scan loops");
    let len: usize = match b0 {
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    };
    let mut cp = u32::from(b0) & (0x7F >> len);
    for &b in &bytes[1..len] {
        cp = (cp << 6) | (u32::from(b) & 0x3F);
    }
    (
        char::from_u32(cp).expect("the window holds validated UTF-8"),
        len,
    )
}

/// Is this byte one of the six ASCII characters `char::is_whitespace`
/// accepts (TAB, LF, VT, FF, CR, space)? Non-ASCII whitespace (NBSP, the
/// Unicode space block, line/paragraph separators) is caught by decoding,
/// which only triggers on high bytes.
#[inline(always)]
fn is_ascii_ws(b: u8) -> bool {
    b == b' ' || (0x09..=0x0D).contains(&b)
}

// --------------------------------------------------------------------------
// SWAR word sweeps (the memchr idiom, multi-needle)
// --------------------------------------------------------------------------

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Lanes equal to `b`, marked in their high bit (the memchr zero-detect
/// trick on `word ^ splat(b)`). Borrow propagation can set spurious marks,
/// but only in lanes *above* a truly matching lane — so the lowest set
/// mark, which is all the sweeps below consume, is always exact.
#[inline(always)]
fn match_byte(word: u64, b: u8) -> u64 {
    let x = word ^ ONES.wrapping_mul(u64::from(b));
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// ASCII lanes strictly below `n` (`n ≤ 0x80`), marked in their high bit.
/// Same exactness caveat-and-guarantee as [`match_byte`]; lanes with the
/// high bit already set (non-ASCII) are never marked — callers OR in
/// `word & HIGHS` when those matter.
#[inline(always)]
fn match_lt(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES.wrapping_mul(u64::from(n))) & !word & HIGHS
}

/// Byte index of the lowest marked lane.
#[inline(always)]
fn first_mark(mask: u64) -> usize {
    (mask.trailing_zeros() >> 3) as usize
}

#[inline(always)]
fn load_word(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte load"))
}

// --------------------------------------------------------------------------
// Sweep backend selection (runtime-detected wide kernels, SWAR fallback)
// --------------------------------------------------------------------------

/// Which sweep kernel the bulk scanner uses to classify window bytes. The
/// backends are observationally identical — `tests/sax_scan.rs` holds them
/// to token-for-token, error-for-error equivalence — and differ only in
/// throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanBackend {
    /// Portable 8-byte SWAR word sweeps: the fallback on CPUs and targets
    /// without a wide kernel, and the reference the wide kernels are
    /// tested against (pin it with [`force_scan_backend`]).
    Swar,
    /// 64-byte AVX2 block classification (`x86_64`, runtime-detected).
    Avx2,
    /// 64-byte NEON block classification (`aarch64`, baseline ISA).
    Neon,
}

/// The backend the next window fill will use. Unless a backend was forced,
/// the CPU is probed once (AVX2 on `x86_64` via `is_x86_feature_detected!`,
/// NEON unconditionally on `aarch64` where it is baseline, SWAR on every
/// other target) and the answer cached. Benches, perfbench and the
/// examples use this to report which path actually ran.
pub fn scan_backend() -> ScanBackend {
    backend::current()
}

/// Forces the sweep backend process-wide — how the benches and the
/// differential tests run SWAR and SIMD side by side in one process.
/// Returns `false` (changing nothing) if the requested backend does not
/// exist on this target or is not supported by this CPU;
/// [`auto_scan_backend`] returns to runtime detection. Safe at any moment:
/// a lexer mid-stream simply fills its next window with the new backend.
pub fn force_scan_backend(backend: ScanBackend) -> bool {
    backend::force(backend)
}

/// Clears a [`force_scan_backend`] override, back to runtime detection.
pub fn auto_scan_backend() {
    backend::reset()
}

mod backend {
    use super::ScanBackend;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = undecided (probe on first use), else the backend's code below.
    /// Detection is idempotent, so a startup race costs a duplicate probe,
    /// never a wrong answer.
    static STATE: AtomicU8 = AtomicU8::new(0);

    fn code(b: ScanBackend) -> u8 {
        match b {
            ScanBackend::Swar => 1,
            ScanBackend::Avx2 => 2,
            ScanBackend::Neon => 3,
        }
    }

    fn available(b: ScanBackend) -> bool {
        match b {
            ScanBackend::Swar => true,
            #[cfg(target_arch = "x86_64")]
            ScanBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            ScanBackend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    fn detect() -> ScanBackend {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return ScanBackend::Avx2;
        }
        #[cfg(target_arch = "aarch64")]
        return ScanBackend::Neon;
        #[allow(unreachable_code)]
        ScanBackend::Swar
    }

    pub(super) fn current() -> ScanBackend {
        match STATE.load(Ordering::Relaxed) {
            1 => ScanBackend::Swar,
            2 => ScanBackend::Avx2,
            3 => ScanBackend::Neon,
            _ => {
                let b = detect();
                STATE.store(code(b), Ordering::Relaxed);
                b
            }
        }
    }

    pub(super) fn force(b: ScanBackend) -> bool {
        if !available(b) {
            return false;
        }
        STATE.store(code(b), Ordering::Relaxed);
        true
    }

    pub(super) fn reset() {
        STATE.store(0, Ordering::Relaxed);
    }
}

/// Wide structural classification — the simdjson stage-1 idea scoped to
/// this scanner. One vector pass over a 64-byte block produces five
/// bitmasks (ASCII whitespace, `<`, `>`, "breaks a simple tag body",
/// non-ASCII) that the block fill loop then consumes with register bit
/// tests — no per-byte loads, no per-token sweep setup. Only
/// *classification* is vectorized: every tokenization decision, and every
/// case the masks flag as complex (directives, attributes, non-ASCII,
/// block/window seams), goes through the same scalar [`step_token`] the
/// SWAR backend uses, which is how the backends stay equivalent by
/// construction.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[allow(unsafe_code)]
mod simd {
    /// Bytes classified per [`BlockClassifier::classify`] call.
    pub(super) const BLOCK: usize = 64;

    /// One bit per block byte, bit 0 = lowest address.
    #[derive(Clone, Copy, Default)]
    pub(super) struct BlockMasks {
        /// ASCII whitespace (TAB, LF, VT, FF, CR, space) — exactly
        /// [`is_ascii_ws`](super::is_ascii_ws).
        pub ws: u64,
        /// `<`
        pub lt: u64,
        /// `>`
        pub gt: u64,
        /// Bytes that end the *simple tag* fast path: below 0x21, `"`,
        /// `'`, `/`, or non-ASCII — exactly the interest set of
        /// [`find_tag_close`](super::find_tag_close) minus `>`.
        pub bad: u64,
        /// Non-ASCII (bit 7 set).
        pub high: u64,
    }

    /// A vector kernel producing [`BlockMasks`]. Implementations are
    /// zero-sized proofs: a value exists only after the ISA was verified
    /// present (or is baseline), which is what makes their intrinsic use
    /// sound.
    pub(super) trait BlockClassifier: Copy {
        /// Classifies `data[at..at + BLOCK]`; panics if out of bounds.
        fn classify(self, data: &[u8], at: usize) -> BlockMasks;
    }

    /// An append cursor over a `Vec`'s spare capacity: the block fill
    /// loop's spelling of `Vec::push` with the length held in a register
    /// instead of written back per event. Construction reserves room for
    /// `extra` pushes up front, so the per-event step is one store and an
    /// increment — no capacity branch, no length store. Dropping the sink
    /// (normally, on an error return, or on a `break` out of the loop)
    /// publishes the final length, so events pushed before an error stay
    /// visible, exactly like plain `push`.
    pub(super) struct EventSink<'a, T: Copy> {
        vec: &'a mut Vec<T>,
        len: usize,
    }

    impl<'a, T: Copy> EventSink<'a, T> {
        /// `extra` is the hard cap on pushes through this sink (the fill
        /// budget); exceeding it is a debug-checked contract violation.
        pub(super) fn new(vec: &'a mut Vec<T>, extra: usize) -> Self {
            vec.reserve(extra);
            let len = vec.len();
            EventSink { vec, len }
        }

        #[inline(always)]
        pub(super) fn push(&mut self, t: T) {
            debug_assert!(self.len < self.vec.capacity());
            // SAFETY: `new` reserved capacity for every permitted push,
            // the write stays below that capacity (debug-asserted), and
            // `T: Copy` means no drop obligations for `set_len` on Drop.
            unsafe {
                self.vec.as_mut_ptr().add(self.len).write(t);
            }
            self.len += 1;
        }
    }

    impl<T: Copy> Drop for EventSink<'_, T> {
        fn drop(&mut self) {
            // SAFETY: `self.len` only grows past the pushes written above,
            // each below the reserved capacity.
            unsafe {
                self.vec.set_len(self.len);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    pub(super) use x86::Avx2;

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use super::{BlockClassifier, BlockMasks, BLOCK};
        use core::arch::x86_64::*;

        /// Proof-of-AVX2 token (see [`BlockClassifier`]).
        #[derive(Clone, Copy)]
        pub(in crate::scan) struct Avx2(());

        impl Avx2 {
            /// `Some` iff the selected backend is AVX2 — which
            /// [`force_scan_backend`](crate::scan::force_scan_backend)
            /// only permits on CPUs that have it.
            #[inline]
            pub(in crate::scan) fn active() -> Option<Self> {
                (crate::scan::scan_backend() == crate::scan::ScanBackend::Avx2).then_some(Avx2(()))
            }

            /// See [`ascii_run`](crate::scan::ascii_run).
            #[inline]
            pub(in crate::scan) fn ascii_run(self, bytes: &[u8]) -> usize {
                // SAFETY: `self` proves AVX2 is present; all loads stay
                // inside `bytes` by the loop bound.
                unsafe { ascii_run_avx2(bytes) }
            }
        }

        /// 32 bytes per test: the prefix ends inside the first vector with
        /// a set high bit, located by the movemask's trailing zeros.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn ascii_run_avx2(bytes: &[u8]) -> usize {
            let n = bytes.len();
            let mut i = 0;
            while i + 32 <= n {
                let v = _mm256_loadu_si256(bytes.as_ptr().add(i) as *const __m256i);
                let mask = _mm256_movemask_epi8(v) as u32;
                if mask != 0 {
                    return i + mask.trailing_zeros() as usize;
                }
                i += 32;
            }
            i
        }

        impl BlockClassifier for Avx2 {
            #[inline(always)]
            fn classify(self, data: &[u8], at: usize) -> BlockMasks {
                assert!(at + BLOCK <= data.len());
                // SAFETY: the bounds are asserted above, and `self` exists
                // only when AVX2 was detected on this CPU.
                unsafe { classify64(data, at) }
            }
        }

        /// Two 32-byte lanes; each class is one byte-compare (or the
        /// signed-compare union trick) plus a movemask.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2, and `at + BLOCK <= data.len()`.
        #[target_feature(enable = "avx2")]
        unsafe fn classify64(data: &[u8], at: usize) -> BlockMasks {
            let mut m = BlockMasks::default();
            for half in 0..2usize {
                let v = _mm256_loadu_si256(data.as_ptr().add(at + 32 * half) as *const __m256i);
                // ws: `v == ' '` OR `v - 9 <= 4` (TAB..CR as an unsigned
                // range check via saturating subtract).
                let t = _mm256_sub_epi8(v, _mm256_set1_epi8(9));
                let ctl = _mm256_cmpeq_epi8(
                    _mm256_subs_epu8(t, _mm256_set1_epi8(4)),
                    _mm256_setzero_si256(),
                );
                let ws = _mm256_or_si256(_mm256_cmpeq_epi8(v, _mm256_set1_epi8(b' ' as i8)), ctl);
                // Signed `v < 0x21` marks (unsigned < 0x21) ∪ (>= 0x80) in
                // one compare — the same union the SWAR sweeps build from
                // `match_lt(w, 0x21) | (w & HIGHS)`.
                let sub21 = _mm256_cmpgt_epi8(_mm256_set1_epi8(0x21), v);
                let high = _mm256_cmpgt_epi8(_mm256_setzero_si256(), v);
                let bad = _mm256_or_si256(
                    sub21,
                    _mm256_or_si256(
                        _mm256_or_si256(
                            _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'"' as i8)),
                            _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'\'' as i8)),
                        ),
                        _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'/' as i8)),
                    ),
                );
                let lt = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'<' as i8));
                let gt = _mm256_cmpeq_epi8(v, _mm256_set1_epi8(b'>' as i8));
                let shift = 32 * half;
                m.ws |= (_mm256_movemask_epi8(ws) as u32 as u64) << shift;
                m.lt |= (_mm256_movemask_epi8(lt) as u32 as u64) << shift;
                m.gt |= (_mm256_movemask_epi8(gt) as u32 as u64) << shift;
                m.bad |= (_mm256_movemask_epi8(bad) as u32 as u64) << shift;
                m.high |= (_mm256_movemask_epi8(high) as u32 as u64) << shift;
            }
            m
        }
    }

    #[cfg(target_arch = "aarch64")]
    pub(super) use arm::Neon;

    #[cfg(target_arch = "aarch64")]
    mod arm {
        use super::{BlockClassifier, BlockMasks, BLOCK};
        use core::arch::aarch64::*;

        /// Proof-of-NEON token — NEON (ASIMD) is part of the aarch64
        /// baseline, so this is constructible whenever the backend is
        /// selected.
        #[derive(Clone, Copy)]
        pub(in crate::scan) struct Neon(());

        impl Neon {
            #[inline]
            pub(in crate::scan) fn active() -> Option<Self> {
                (crate::scan::scan_backend() == crate::scan::ScanBackend::Neon).then_some(Neon(()))
            }

            /// See [`ascii_run`](crate::scan::ascii_run); 16 bytes per
            /// `vmaxvq_u8` test, stopping short of the vector holding the
            /// first high byte (the word loop finishes it).
            #[inline]
            pub(in crate::scan) fn ascii_run(self, bytes: &[u8]) -> usize {
                let n = bytes.len();
                let mut i = 0;
                // SAFETY: NEON is baseline aarch64; loads stay inside
                // `bytes` by the loop bound.
                unsafe {
                    while i + 16 <= n {
                        let v = vld1q_u8(bytes.as_ptr().add(i));
                        if vmaxvq_u8(v) >= 0x80 {
                            break;
                        }
                        i += 16;
                    }
                }
                i
            }
        }

        impl BlockClassifier for Neon {
            #[inline(always)]
            fn classify(self, data: &[u8], at: usize) -> BlockMasks {
                assert!(at + BLOCK <= data.len());
                // SAFETY: bounds asserted above; NEON is baseline aarch64.
                unsafe { classify64(data, at) }
            }
        }

        /// Builds one 64-bit mask from four 16-lane compare results: AND
        /// each lane with its bit weight, then three pairwise adds fold 64
        /// single-bit bytes into 8 mask bytes (the simdjson-on-arm idiom —
        /// NEON has no movemask).
        ///
        /// # Safety
        ///
        /// None: NEON is baseline on aarch64, and the one load reads `BITS`.
        #[inline(always)]
        unsafe fn movemask4(m0: uint8x16_t, m1: uint8x16_t, m2: uint8x16_t, m3: uint8x16_t) -> u64 {
            const BITS: [u8; 16] = [1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128];
            let bit = vld1q_u8(BITS.as_ptr());
            let t0 = vpaddq_u8(vandq_u8(m0, bit), vandq_u8(m1, bit));
            let t1 = vpaddq_u8(vandq_u8(m2, bit), vandq_u8(m3, bit));
            let t2 = vpaddq_u8(t0, t1);
            vgetq_lane_u64::<0>(vreinterpretq_u64_u8(vpaddq_u8(t2, t2)))
        }

        /// Four 16-byte lanes per block; same classes as the AVX2 kernel,
        /// with the signed-compare union trick spelled `vcltq_s8`.
        ///
        /// # Safety
        ///
        /// `at + BLOCK <= data.len()`.
        unsafe fn classify64(data: &[u8], at: usize) -> BlockMasks {
            let mut ws = [vdupq_n_u8(0); 4];
            let mut lt = [vdupq_n_u8(0); 4];
            let mut gt = [vdupq_n_u8(0); 4];
            let mut bad = [vdupq_n_u8(0); 4];
            let mut high = [vdupq_n_u8(0); 4];
            for lane in 0..4usize {
                let v = vld1q_u8(data.as_ptr().add(at + 16 * lane));
                let sp = vceqq_u8(v, vdupq_n_u8(b' '));
                let ctl = vcleq_u8(vsubq_u8(v, vdupq_n_u8(9)), vdupq_n_u8(4));
                ws[lane] = vorrq_u8(sp, ctl);
                lt[lane] = vceqq_u8(v, vdupq_n_u8(b'<'));
                gt[lane] = vceqq_u8(v, vdupq_n_u8(b'>'));
                let s = vreinterpretq_s8_u8(v);
                let sub21 = vcltq_s8(s, vdupq_n_s8(0x21));
                high[lane] = vcltq_s8(s, vdupq_n_s8(0));
                bad[lane] = vorrq_u8(
                    sub21,
                    vorrq_u8(
                        vorrq_u8(
                            vceqq_u8(v, vdupq_n_u8(b'"')),
                            vceqq_u8(v, vdupq_n_u8(b'\'')),
                        ),
                        vceqq_u8(v, vdupq_n_u8(b'/')),
                    ),
                );
            }
            BlockMasks {
                ws: movemask4(ws[0], ws[1], ws[2], ws[3]),
                lt: movemask4(lt[0], lt[1], lt[2], lt[3]),
                gt: movemask4(gt[0], gt[1], gt[2], gt[3]),
                bad: movemask4(bad[0], bad[1], bad[2], bad[3]),
                high: movemask4(high[0], high[1], high[2], high[3]),
            }
        }
    }
}

/// Index of the `>` closing the tag whose name (or attribute list) starts
/// at `start` (just past `<`, or past `</`), honoring quoted attribute
/// values; `None` if the window ends first. The `bool` is the *simple tag*
/// verdict: `true` means every byte in `start..gt` is plain ASCII name
/// material — no whitespace or control byte, no `"` `'` `/`, no non-ASCII —
/// so that slice **is** the tag's name, verbatim: no trim, no token split,
/// no self-closing mark. Callers hand non-simple tags to the full
/// classifier; simple ones (the overwhelmingly common `<name>` / `</name>`)
/// go straight to name resolution.
#[inline(always)]
fn find_tag_close(data: &[u8], start: usize) -> Option<(usize, bool)> {
    let n = data.len();
    let mut j = start;
    loop {
        if j + 8 <= n {
            let w = load_word(data, j);
            let m = match_byte(w, b'>')
                | match_lt(w, 0x21)
                | match_byte(w, b'"')
                | match_byte(w, b'\'')
                | match_byte(w, b'/')
                | (w & HIGHS);
            if m == 0 {
                j += 8;
                continue;
            }
            let k = j + first_mark(m);
            if data[k] == b'>' {
                return Some((k, true));
            }
            return find_tag_close_general(data, k).map(|gt| (gt, false));
        }
        while j < n {
            let b = data[j];
            if b == b'>' {
                return Some((j, true));
            }
            if !(0x21..0x80).contains(&b) || matches!(b, b'"' | b'\'' | b'/') {
                return find_tag_close_general(data, j).map(|gt| (gt, false));
            }
            j += 1;
        }
        return None;
    }
}

/// The general arm of [`find_tag_close`]: quote-aware sweep for the closing
/// `>` from `start`, which the caller guarantees is outside any quoted
/// attribute value. Sweeps 8 bytes per step for the structural set
/// `>` `"` `'`, and for the matching close quote inside attribute values.
fn find_tag_close_general(data: &[u8], start: usize) -> Option<usize> {
    let n = data.len();
    let mut j = start;
    loop {
        // First of `>`, `"`, `'` at or after j.
        let hit = loop {
            if j + 8 <= n {
                let w = load_word(data, j);
                let m = match_byte(w, b'>') | match_byte(w, b'"') | match_byte(w, b'\'');
                if m == 0 {
                    j += 8;
                    continue;
                }
                break j + first_mark(m);
            }
            while j < n && !matches!(data[j], b'>' | b'"' | b'\'') {
                j += 1;
            }
            if j == n {
                return None;
            }
            break j;
        };
        let quote = data[hit];
        if quote == b'>' {
            return Some(hit);
        }
        // Quoted attribute value: skip to the matching quote.
        j = hit + 1;
        loop {
            if j + 8 <= n {
                let w = load_word(data, j);
                let m = match_byte(w, quote);
                if m == 0 {
                    j += 8;
                    continue;
                }
                j += first_mark(m);
                break;
            }
            while j < n && data[j] != quote {
                j += 1;
            }
            if j == n {
                return None;
            }
            break;
        }
        j += 1;
    }
}

/// Exclusive end of the text token starting at `start`: the index of the
/// first byte that terminates it (`<` or whitespace, ASCII or Unicode);
/// `None` if the token may continue past the window. Sweeps 8 bytes per
/// step; candidate lanes are `<`, anything below 0x21 (a superset of ASCII
/// whitespace that also catches control characters, re-judged precisely)
/// and any non-ASCII byte (decoded to ask `char::is_whitespace`).
#[inline(always)]
fn find_text_end(data: &[u8], start: usize) -> Option<usize> {
    let n = data.len();
    let mut j = start;
    loop {
        let k = loop {
            if j + 8 <= n {
                let w = load_word(data, j);
                let m = match_lt(w, 0x21) | match_byte(w, b'<') | (w & HIGHS);
                if m == 0 {
                    j += 8;
                    continue;
                }
                break j + first_mark(m);
            }
            while j < n {
                let b = data[j];
                if !(0x21..0x80).contains(&b) || b == b'<' {
                    break;
                }
                j += 1;
            }
            if j == n {
                return None;
            }
            break j;
        };
        let b = data[k];
        if b < 0x80 {
            if b == b'<' || is_ascii_ws(b) {
                return Some(k);
            }
            // A control character: part of the token.
            j = k + 1;
        } else {
            let (c, len) = decode_scalar(&data[k..]);
            if c.is_whitespace() {
                return Some(k);
            }
            j = k + len;
        }
    }
}

/// A reusable window of reader bytes, validated chunk-at-a-time.
///
/// Layout: `buf[start..end]` is unread *validated* data, `buf[end..raw_end]`
/// is a carried multi-byte tail split by the last refill seam (re-validated
/// once its continuation arrives), and `offset_base` is the absolute stream
/// offset of `buf[0]`. A validation failure is *deferred* into `pending`:
/// the window behaves as if the stream ended at the last valid scalar, and
/// the typed error is handed out when the lexer actually reaches it.
#[derive(Debug)]
pub(crate) struct ChunkWindow<R> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    raw_end: usize,
    offset_base: usize,
    eof: bool,
    pending: Option<SaxError>,
}

impl<R: io::Read> ChunkWindow<R> {
    fn new(reader: R) -> Self {
        ChunkWindow {
            reader,
            buf: vec![0; SCAN_CHUNK],
            start: 0,
            end: 0,
            raw_end: 0,
            offset_base: 0,
            eof: false,
            pending: None,
        }
    }

    /// The unread validated bytes.
    #[inline(always)]
    fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Absolute stream offset of `data()[0]`.
    #[inline(always)]
    fn abs_offset(&self) -> usize {
        self.offset_base + self.start
    }

    /// Marks `n` leading bytes of `data()` as consumed.
    #[inline(always)]
    fn consume(&mut self, n: usize) {
        debug_assert!(self.start + n <= self.end);
        self.start += n;
    }

    /// Extends the validated window past its current end: compacts the
    /// consumed prefix, pulls one `read`, validates the new bytes (plus any
    /// carried seam tail) and loops until at least one new whole scalar is
    /// available. `Ok(false)` is clean EOF; a deferred UTF-8 error whose
    /// offset the caller has scanned up to, or an I/O failure, is `Err`.
    ///
    /// Because compaction moves only the *unconsumed* suffix to the front,
    /// positions relative to `data()` survive the refill — a token spanning
    /// any number of seams stays addressable as one contiguous slice, at
    /// the cost of growing the buffer only when a single token outgrows it
    /// (memory proportional to the longest token).
    fn grow(&mut self) -> Result<bool, SaxError> {
        loop {
            if let Some(e) = self.pending.take() {
                return Err(e);
            }
            if self.eof {
                return Ok(false);
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.raw_end, 0);
                self.offset_base += self.start;
                self.end -= self.start;
                self.raw_end -= self.start;
                self.start = 0;
            }
            if self.raw_end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.reader.read(&mut self.buf[self.raw_end..]) {
                Ok(0) => {
                    self.eof = true;
                    if self.raw_end > self.end {
                        // The stream ends inside a multi-byte sequence.
                        self.pending = Some(SaxError::TruncatedUtf8 {
                            offset: self.offset_base + self.end,
                        });
                    }
                }
                Ok(n) => {
                    self.raw_end += n;
                    let (valid, stop) = validate_utf8(&self.buf[self.end..self.raw_end]);
                    let grew = valid > 0;
                    self.end += valid;
                    if matches!(stop, Utf8Stop::Invalid) {
                        self.pending = Some(SaxError::InvalidUtf8 {
                            offset: self.offset_base + self.end,
                        });
                        // Nothing past the error is ever examined: the
                        // lexer fuses once the error surfaces.
                        self.eof = true;
                    }
                    if grew {
                        return Ok(true);
                    }
                    // No whole scalar completed (a tiny read inside a
                    // multi-byte sequence, or an error right at the seam):
                    // loop to read again or surface the deferral.
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(SaxError::Io(e)),
            }
        }
    }
}

/// How many events the per-event [`Iterator`] view lexes ahead per
/// [`ByteTokenizer::fill`] call: large enough to amortize the refill, small
/// enough (4 bytes per event) to stay cache-resident.
const ITER_BATCH: usize = 1024;

/// What one [`step_token`] call did with the window.
enum StepOutcome {
    /// One event (plus possibly a queued self-closing twin) was emitted;
    /// the cursor is now at the contained position.
    Emitted(usize),
    /// The next token cannot be decided inside the window (it may span the
    /// seam, or is a stateful directive): consume up to the contained
    /// position and hand over to the growing slow path.
    Window(usize),
    /// Name resolution failed at the token starting at the contained
    /// position (consume up to there, then surface the error).
    Fail(SaxError, usize),
}

/// One scalar token step of the window fill: skip inter-token whitespace
/// from `pos` (ASCII inline, non-ASCII decoded), then classify and emit the
/// next token if it completes inside `data`, charging `budget` per event.
///
/// This is the *shared* per-token arm of both fill backends:
/// `ByteTokenizer::fill_window_swar` is nothing but a loop of these, and
/// the block-classified fill delegates every case its masks flag as complex
/// to exactly one of these — so the backends agree with each other by
/// construction rather than by parallel maintenance.
#[inline(always)]
fn step_token<N: ResolveName>(
    core: &mut LexerCore<N>,
    data: &[u8],
    base: usize,
    mut pos: usize,
    out: &mut Vec<TaggedSymbol>,
    budget: &mut usize,
) -> StepOutcome {
    let n = data.len();
    // Inter-token whitespace — usually none or one byte.
    while pos < n {
        let b = data[pos];
        if b < 0x80 {
            if !is_ascii_ws(b) {
                break;
            }
            pos += 1;
        } else {
            let (c, len) = decode_scalar(&data[pos..]);
            if !c.is_whitespace() {
                break;
            }
            pos += len;
        }
    }
    if pos == n {
        return StepOutcome::Window(n);
    }
    if data[pos] == b'<' {
        if pos + 1 == n {
            return StepOutcome::Window(pos);
        }
        let lead = data[pos + 1];
        if lead == b'!' || lead == b'?' {
            // Directives are rare and stateful: slow path.
            return StepOutcome::Window(pos);
        }
        // `</name>` and `<name>` with nothing but name material between
        // the brackets skip the classifier entirely: the sweep's simple
        // verdict certifies the slice is the name.
        let body_at = if lead == b'/' { pos + 2 } else { pos + 1 };
        let Some((gt, simple)) = find_tag_close(data, body_at) else {
            return StepOutcome::Window(pos);
        };
        if simple && gt > body_at {
            match core.resolve_bytes(&data[body_at..gt]) {
                Ok(sym) => out.push(if lead == b'/' {
                    TaggedSymbol::Return(sym)
                } else {
                    TaggedSymbol::Call(sym)
                }),
                Err(e) => return StepOutcome::Fail(e, pos),
            }
            *budget -= 1;
        } else {
            let body = if lead == b'/' { pos + 1 } else { body_at };
            match core.tag_event_bytes(&data[body..gt], base + pos) {
                Ok(event) => out.push(event),
                Err(e) => return StepOutcome::Fail(e, pos),
            }
            *budget -= 1;
            // A self-closing tag queued its return; emit it in place.
            if let Some(t) = core.queued.pop_front() {
                out.push(t);
                *budget = budget.saturating_sub(1);
            }
        }
        StepOutcome::Emitted(gt + 1)
    } else {
        let Some(end) = find_text_end(data, pos) else {
            // The token may continue past the window: slow path.
            return StepOutcome::Window(pos);
        };
        match core.resolve_bytes(&data[pos..end]) {
            Ok(sym) => out.push(TaggedSymbol::Internal(sym)),
            Err(e) => return StepOutcome::Fail(e, pos),
        }
        *budget -= 1;
        StepOutcome::Emitted(end)
    }
}

/// Packs a 1..=16-byte name starting at `from` into its exact cache key —
/// the same `(w0, w1)` value `LexerCore`'s byte-loop packer produces, built
/// from two raw word loads and a mask instead. Callers guarantee
/// `from + 16 <= data.len()` (the block fill's fast region does by
/// construction), so the overread-free loads stay in bounds.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn pack_short(data: &[u8], from: usize, len: usize) -> (u64, u64) {
    debug_assert!((1..=16).contains(&len) && from + 16 <= data.len());
    let w0 = load_word(data, from);
    if len <= 8 {
        // `!0 >> (64 - 8·len)` keeps the low `len` lanes; len = 8 is the
        // identity shift, so no branch for it.
        return (w0 & (!0u64 >> (64 - 8 * len)), 0);
    }
    let w1 = load_word(data, from + 8);
    (w0, w1 & (!0u64 >> (128 - 8 * len)))
}

impl<R: io::Read, N: ResolveName> ByteTokenizer<R, N> {
    /// Creates a tokenizer over a byte stream, resolving symbol names
    /// through `names`: `&mut Alphabet` interns them, `&Alphabet` looks
    /// them up read-only.
    pub fn new(reader: R, names: N) -> Self {
        ByteTokenizer {
            window: ChunkWindow::new(reader),
            core: LexerCore::new(names),
            ready: Vec::new(),
            ready_pos: 0,
            pending_err: None,
        }
    }

    /// Ensures at least `pos + 1` unread validated bytes are windowed;
    /// `false` means the stream ends first.
    fn ensure(&mut self, pos: usize) -> Result<bool, SaxError> {
        while self.window.data().len() <= pos {
            if !self.window.grow()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn peek_byte(&mut self) -> Result<Option<u8>, SaxError> {
        if self.ensure(0)? {
            Ok(Some(self.window.data()[0]))
        } else {
            Ok(None)
        }
    }

    /// Lexes events in bulk into `out` until roughly `max` are buffered or
    /// the stream ends — the slice-producing entry the bytes-in →
    /// verdict-out pipeline (`queries::run_streaming_reader`) feeds to the
    /// engines' bulk stepping, and the refill behind the per-event
    /// iterator. Interleaving `next()` and `fill` keeps the emission order.
    ///
    /// The hot loop sweeps the *current* window with a local cursor: no
    /// per-event `Result` plumbing, no window bookkeeping, no method
    /// dispatch — one `consume` per window, not per token. Anything that
    /// cannot be finished inside the window (a token cut by the chunk seam,
    /// a directive, EOF, a deferred UTF-8 error) falls back to a general
    /// per-event path, which grows the window and agrees with the fast loop
    /// token-for-token by sharing the same event builder.
    ///
    /// Events lexed before an error stay in `out` (in emission order) when
    /// `Err` is returned — callers either discard them (the error is the
    /// outcome) or, like the draining iterator, hand them out before
    /// surfacing the error, which is exactly the per-event emission order.
    pub fn fill(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<(), SaxError> {
        // Events the iterator view lexed ahead (and a deferred error) come
        // first, so interleaving `next()` and `fill` stays in order.
        while self.ready_pos < self.ready.len() {
            out.push(self.ready[self.ready_pos]);
            self.ready_pos += 1;
            if out.len() >= max {
                return Ok(());
            }
        }
        if let Some(e) = self.pending_err.take() {
            self.core.failed = true;
            return Err(e);
        }
        if self.core.failed {
            return Ok(());
        }
        loop {
            while let Some(t) = self.core.queued.pop_front() {
                out.push(t);
                if out.len() >= max {
                    return Ok(());
                }
            }
            if out.len() >= max {
                return Ok(());
            }
            if self.fill_window(out, max)? {
                return Ok(());
            }
            // The window could not decide the next token: grow-and-lex it
            // on the general path, then resume sweeping.
            match self.next_event()? {
                Some(t) => out.push(t),
                None => return Ok(()),
            }
        }
    }

    /// The register-resident sweep of [`Self::fill`] over the bytes already
    /// windowed: emits every event that completes inside the window,
    /// consumes exactly the bytes of the events emitted, and returns
    /// `Ok(true)` when `out` reached `max` (`Ok(false)` hands the seam to
    /// the caller's slow path). Tag bodies and text tokens are located with
    /// the word-at-a-time sweeps of [`find_tag_close`] / [`find_text_end`]
    /// (or, on the [`scan_backend`]-selected wide backend, with 64-byte
    /// block masks) and classified byte-level
    /// ([`LexerCore::tag_event_bytes`](crate::sax::LexerCore),
    /// `resolve_bytes`), so the common path touches each input byte once in
    /// a word or vector and never re-walks a token as chars.
    fn fill_window(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<bool, SaxError> {
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = simd::Avx2::active() {
            return self.fill_window_blocks(kernel, out, max);
        }
        #[cfg(target_arch = "aarch64")]
        if let Some(kernel) = simd::Neon::active() {
            return self.fill_window_blocks(kernel, out, max);
        }
        self.fill_window_swar(out, max)
    }

    /// The portable backend of [`Self::fill_window`]: a straight loop of
    /// [`step_token`] word-sweep steps over the window.
    fn fill_window_swar(
        &mut self,
        out: &mut Vec<TaggedSymbol>,
        max: usize,
    ) -> Result<bool, SaxError> {
        let base = self.window.abs_offset();
        let data: &[u8] = &self.window.buf[self.window.start..self.window.end];
        let mut pos = 0usize;
        // Counted down instead of re-reading `out.len()` every event.
        let mut budget = max.saturating_sub(out.len());
        let full = loop {
            if budget == 0 {
                break true;
            }
            match step_token(&mut self.core, data, base, pos, out, &mut budget) {
                StepOutcome::Emitted(next) => pos = next,
                StepOutcome::Window(consumed) => {
                    pos = consumed;
                    break false;
                }
                StepOutcome::Fail(e, at) => {
                    self.window.consume(at);
                    return Err(e);
                }
            }
        };
        self.window.consume(pos);
        Ok(full)
    }

    /// The wide backend of [`Self::fill_window`]: classifies the window in
    /// 64-byte blocks ([`simd::BlockClassifier`]) and consumes the common
    /// tokens — ASCII whitespace, simple tags, plain text runs — with
    /// register bit tests over the block masks, several tokens per
    /// classification. Anything else (directives, attribute-laden tags,
    /// non-ASCII bytes, tokens leaving the fast region, the window tail)
    /// falls through to exactly one scalar [`step_token`] and the loop
    /// resumes — so every observable decision is either "trivially the
    /// same token the SWAR sweeps find" (simple-body certification comes
    /// from the `bad` mask, the very interest set of [`find_tag_close`])
    /// or literally the same code.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    fn fill_window_blocks<C: simd::BlockClassifier>(
        &mut self,
        cls: C,
        out: &mut Vec<TaggedSymbol>,
        max: usize,
    ) -> Result<bool, SaxError> {
        use simd::BLOCK;
        let base = self.window.abs_offset();
        let data: &[u8] = &self.window.buf[self.window.start..self.window.end];
        let n = data.len();
        let mut pos = 0usize;
        let mut budget = max.saturating_sub(out.len());
        // The fast region keeps one whole block *and* the 16-byte
        // packed-name loads in bounds; the short window tail (and any
        // window shorter than a block) runs scalar.
        let fast_end = n.saturating_sub(BLOCK + 32);
        // One-sided spelling of `wide && pos <= fast_end`: a window too
        // short for the fast region gets a limit of 0, one comparison per
        // token instead of two.
        let fast_limit = if n >= BLOCK + 32 { fast_end + 1 } else { 0 };
        // Current block base. The sentinel keeps `pos.wrapping_sub(bb)` at
        // `pos + BLOCK + 1 >= BLOCK` for every reachable `pos`, so the first
        // fast-loop iteration always classifies a real block.
        let mut bb = usize::MAX - BLOCK;
        let mut m = simd::BlockMasks::default();
        let full = 'outer: loop {
            if budget == 0 {
                break true;
            }
            // The sink scopes the fast loop: its drop publishes the final
            // length (on every exit, including error returns and the
            // budget break) before the scalar arm touches `out` directly.
            {
                let mut sink = simd::EventSink::new(out, budget);
                while pos < fast_limit {
                    if pos.wrapping_sub(bb) >= BLOCK {
                        bb = pos;
                        m = cls.classify(data, bb);
                    }
                    // Inter-token whitespace, straight off the ws mask.
                    let non_ws = !m.ws & ((!0u64) << (pos - bb));
                    if non_ws == 0 {
                        pos = bb + BLOCK;
                        continue;
                    }
                    let s = bb + non_ws.trailing_zeros() as usize;
                    let rs = s - bb;
                    // The isolated lowest bit doubles as the `s` bit test —
                    // cheaper than a variable shift per class.
                    let sbit = non_ws & non_ws.wrapping_neg();
                    if m.high & sbit != 0 {
                        // Unicode whitespace or a multi-byte token: scalar.
                        pos = s;
                        break;
                    }
                    if m.lt & sbit != 0 {
                        // A tag. (`s + 1 < n` because `s <= fast_end`.)
                        let lead = data[s + 1];
                        if lead == b'!' || lead == b'?' {
                            pos = s;
                            break; // directive: stateful slow path
                        }
                        let from = if lead == b'/' { s + 2 } else { s + 1 };
                        if from >= bb + BLOCK {
                            bb = s;
                            m = cls.classify(data, bb);
                        }
                        let mut stop = (m.gt | m.bad) & ((!0u64) << (from - bb));
                        if stop == 0 {
                            // The body crosses the block: re-anchor on the name.
                            if from > fast_end {
                                pos = s;
                                break;
                            }
                            bb = from;
                            m = cls.classify(data, bb);
                            stop = m.gt | m.bad;
                            if stop == 0 {
                                pos = s;
                                break; // a > 64-byte body: the word sweeps own it
                            }
                        }
                        let close = bb + stop.trailing_zeros() as usize;
                        let cbit = stop & stop.wrapping_neg();
                        if m.bad & cbit != 0 || close == from {
                            pos = s;
                            break; // attributes/quotes/self-closing/`<>`: scalar
                        }
                        let name = &data[from..close];
                        let resolved = if name.len() <= 16 {
                            let (w0, w1) = pack_short(data, from, name.len());
                            self.core.resolve_prepacked(w0, w1, name)
                        } else {
                            self.core.resolve_bytes(name)
                        };
                        match resolved {
                            Ok(sym) => sink.push(if lead == b'/' {
                                TaggedSymbol::Return(sym)
                            } else {
                                TaggedSymbol::Call(sym)
                            }),
                            Err(e) => {
                                self.window.consume(s);
                                return Err(e);
                            }
                        }
                        budget -= 1;
                        pos = close + 1;
                        if budget == 0 {
                            break 'outer true;
                        }
                        continue;
                    }
                    let mut cand = (m.ws | m.lt | m.high) & ((!1u64) << rs);
                    loop {
                        if cand != 0 {
                            break;
                        }
                        let next = bb + BLOCK;
                        if next > fast_end {
                            break; // may outrun the fast region
                        }
                        bb = next;
                        m = cls.classify(data, bb);
                        cand = m.ws | m.lt | m.high;
                    }
                    let cbit = cand & cand.wrapping_neg();
                    if cand == 0 || m.high & cbit != 0 {
                        pos = s;
                        break;
                    }
                    let close = bb + cand.trailing_zeros() as usize;
                    let text = &data[s..close];
                    let resolved = if text.len() <= 16 {
                        let (w0, w1) = pack_short(data, s, text.len());
                        self.core.resolve_prepacked(w0, w1, text)
                    } else {
                        self.core.resolve_bytes(text)
                    };
                    match resolved {
                        Ok(sym) => sink.push(TaggedSymbol::Internal(sym)),
                        Err(e) => {
                            self.window.consume(s);
                            return Err(e);
                        }
                    }
                    budget -= 1;
                    pos = close;
                    if budget == 0 {
                        break 'outer true;
                    }
                }
            }
            // Scalar arm: the window tail, plus whatever the masks flagged.
            match step_token(&mut self.core, data, base, pos, out, &mut budget) {
                StepOutcome::Emitted(next) => pos = next,
                StepOutcome::Window(consumed) => {
                    pos = consumed;
                    break false;
                }
                StepOutcome::Fail(e, at) => {
                    self.window.consume(at);
                    return Err(e);
                }
            }
        };
        self.window.consume(pos);
        Ok(full)
    }

    fn next_event(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        loop {
            // Drained inside the loop: a CDATA section queues text tokens
            // that must come out before the next run is scanned.
            if let Some(t) = self.core.queued.pop_front() {
                return Ok(Some(t));
            }
            if !self.skip_whitespace()? {
                return Ok(None);
            }
            if self.window.data()[0] == b'<' {
                if let Some(t) = self.lex_tag()? {
                    return Ok(Some(t));
                }
                // directive skipped
            } else {
                return self.lex_text().map(Some);
            }
        }
    }

    /// Scans past inter-token whitespace; `false` means clean EOF.
    fn skip_whitespace(&mut self) -> Result<bool, SaxError> {
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            let mut stop = false;
            while i < n {
                let b = data[i];
                if b < 0x80 {
                    if is_ascii_ws(b) {
                        i += 1;
                        continue;
                    }
                    stop = true;
                    break;
                }
                let (c, len) = decode_scalar(&data[i..]);
                if c.is_whitespace() {
                    i += len;
                    continue;
                }
                stop = true;
                break;
            }
            self.window.consume(i);
            if stop {
                return Ok(true);
            }
            if !self.window.grow()? {
                return Ok(false);
            }
        }
    }

    /// Lexes one whitespace-delimited text token, with the window cursor on
    /// its first byte: one sweep to the next `<` or whitespace, then a
    /// single name resolution over the whole slice.
    fn lex_text(&mut self) -> Result<TaggedSymbol, SaxError> {
        let mut pos = 0usize;
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut stop = false;
            while pos < n {
                let b = data[pos];
                if b < 0x80 {
                    if b == b'<' || is_ascii_ws(b) {
                        stop = true;
                        break;
                    }
                    pos += 1;
                    continue;
                }
                let (c, len) = decode_scalar(&data[pos..]);
                if c.is_whitespace() {
                    stop = true;
                    break;
                }
                pos += len;
            }
            if stop {
                break;
            }
            if !self.window.grow()? {
                break; // EOF ends the token
            }
        }
        let token = std::str::from_utf8(&self.window.data()[..pos])
            .expect("the window holds validated UTF-8");
        let sym = self.core.resolve(token)?;
        self.window.consume(pos);
        Ok(TaggedSymbol::Internal(sym))
    }

    /// Lexes one `<…>` construct, with the window cursor on `<`. Returns
    /// `None` for skipped directives. The closing `>` is found by a
    /// quote-aware byte sweep (a `>` inside a quoted attribute value does
    /// not terminate the tag); the body between the brackets is then handed
    /// whole to the shared tag classifier.
    fn lex_tag(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        let tag_start = self.window.abs_offset();
        if self.ensure(1)? {
            let b = self.window.data()[1];
            if b == b'!' || b == b'?' {
                // <!DOCTYPE …>, <!-- … -->, <?xml … ?>: no SAX event.
                self.window.consume(2); // the '<' and the lead byte
                self.lex_directive(tag_start, b)?;
                return Ok(None);
            }
        }
        let mut pos = 1usize;
        let mut quote = 0u8;
        'scan: loop {
            let data = self.window.data();
            let n = data.len();
            while pos < n {
                let b = data[pos];
                pos += 1;
                if quote != 0 {
                    if b == quote {
                        quote = 0;
                    }
                } else if b == b'>' {
                    break 'scan;
                } else if b == b'"' || b == b'\'' {
                    quote = b;
                }
            }
            if !self.window.grow()? {
                return Err(SaxError::Syntax(NestedWordError::Parse {
                    offset: tag_start,
                    message: "unterminated tag".into(),
                }));
            }
        }
        let body = std::str::from_utf8(&self.window.data()[1..pos - 1])
            .expect("the window holds validated UTF-8");
        let event = self.core.tag_event(body, tag_start)?;
        self.window.consume(pos);
        Ok(Some(event))
    }

    /// Skips or lexes one directive, with the window cursor just past the
    /// consumed `<!` or `<?` (`lead` is the second byte). Comments run to
    /// `-->`, processing instructions to `?>`, CDATA sections to `]]>`
    /// (their content is queued as text tokens), and other declarations
    /// (`<!DOCTYPE …>`) to the first `>` outside a `[ … ]` internal subset.
    /// Attribute-quote rules do not apply inside directives. The quirky
    /// corners: `<!-` with no second dash falls through to the bracket
    /// scan, and a partial `CDATA[` marker leaves the consumed `[` as one
    /// open bracket level.
    fn lex_directive(&mut self, tag_start: usize, lead: u8) -> Result<(), SaxError> {
        if lead == b'!' && self.peek_byte()? == Some(b'-') {
            self.window.consume(1);
            if self.peek_byte()? == Some(b'-') {
                self.window.consume(1);
                return self.scan_comment(tag_start);
            }
            // "<!-…" without a second dash: fall through to the '>' scan
        }
        if lead == b'?' {
            return self.scan_pi(tag_start);
        }
        let mut depth = 0usize;
        if lead == b'!' && self.peek_byte()? == Some(b'[') {
            self.window.consume(1);
            // `<![`: a CDATA section if the marker `CDATA[` follows.
            const MARKER: &[u8; 6] = b"CDATA[";
            let mut matched = 0usize;
            while matched < MARKER.len() && self.peek_byte()? == Some(MARKER[matched]) {
                self.window.consume(1);
                matched += 1;
            }
            if matched == MARKER.len() {
                return self.lex_cdata(tag_start);
            }
            // Not CDATA (e.g. a DTD conditional section): the consumed `[`
            // opened one bracket level; fall through to the scan.
            depth = 1;
        }
        self.scan_doctype(tag_start, depth)
    }

    fn unterminated_directive(tag_start: usize) -> SaxError {
        SaxError::Syntax(NestedWordError::Parse {
            offset: tag_start,
            message: "unterminated directive".into(),
        })
    }

    /// Sweeps a comment body to its `-->` terminator, consuming as it goes
    /// — only a trailing-dash count crosses chunk seams, so a comment of
    /// any length never grows the window.
    fn scan_comment(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut dashes = 0usize;
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            while i < n {
                let b = data[i];
                i += 1;
                match b {
                    b'-' => dashes += 1,
                    b'>' if dashes >= 2 => {
                        self.window.consume(i);
                        return Ok(());
                    }
                    _ => dashes = 0,
                }
            }
            self.window.consume(i);
            if !self.window.grow()? {
                return Err(Self::unterminated_directive(tag_start));
            }
        }
    }

    /// Sweeps a processing instruction to its `?>` terminator; only the
    /// previous-byte-was-`?` flag crosses seams.
    fn scan_pi(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut prev_question = false;
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            while i < n {
                let b = data[i];
                i += 1;
                if b == b'>' && prev_question {
                    self.window.consume(i);
                    return Ok(());
                }
                prev_question = b == b'?';
            }
            self.window.consume(i);
            if !self.window.grow()? {
                return Err(Self::unterminated_directive(tag_start));
            }
        }
    }

    /// Sweeps a declaration to the first `>` outside a `[ … ]` internal
    /// subset (DOCTYPEs with entity declarations inside); only the bracket
    /// depth crosses seams.
    fn scan_doctype(&mut self, tag_start: usize, mut depth: usize) -> Result<(), SaxError> {
        loop {
            let data = self.window.data();
            let n = data.len();
            let mut i = 0;
            while i < n {
                let b = data[i];
                i += 1;
                match b {
                    b'[' => depth += 1,
                    b']' => depth = depth.saturating_sub(1),
                    b'>' if depth == 0 => {
                        self.window.consume(i);
                        return Ok(());
                    }
                    _ => {}
                }
            }
            self.window.consume(i);
            if !self.window.grow()? {
                return Err(Self::unterminated_directive(tag_start));
            }
        }
    }

    /// Lexes a CDATA section, with the cursor just past `<![CDATA[`: one
    /// sweep to the `]]>` terminator, then the whole content slice goes to
    /// the shared token splitter. Unlike the other directives the content
    /// is needed whole — its text tokens are all resolved before any is
    /// queued, so a resolution failure surfaces with nothing half-emitted —
    /// so the sweep grows the window instead of consuming.
    fn lex_cdata(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut pos = 0usize;
        let end = 'scan: loop {
            let data = self.window.data();
            let n = data.len();
            while pos < n {
                if data[pos] == b'>' && pos >= 2 && data[pos - 1] == b']' && data[pos - 2] == b']' {
                    break 'scan pos - 2;
                }
                pos += 1;
            }
            if !self.window.grow()? {
                return Err(SaxError::Syntax(NestedWordError::Parse {
                    offset: tag_start,
                    message: "unterminated CDATA section".into(),
                }));
            }
        };
        let content = std::str::from_utf8(&self.window.data()[..end])
            .expect("the window holds validated UTF-8");
        self.core.cdata_tokens(content)?;
        self.window.consume(end + 3);
        Ok(())
    }
}

impl<R: io::Read, N: ResolveName> Iterator for ByteTokenizer<R, N> {
    type Item = Result<TaggedSymbol, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.ready_pos < self.ready.len() {
                let t = self.ready[self.ready_pos];
                self.ready_pos += 1;
                return Some(Ok(t));
            }
            if let Some(e) = self.pending_err.take() {
                self.core.failed = true;
                return Some(Err(e));
            }
            if self.core.failed {
                return None;
            }
            // Lex the next batch ahead; events met before an error drain
            // first, preserving the per-event emission order.
            self.ready.clear();
            self.ready_pos = 0;
            let mut batch = std::mem::take(&mut self.ready);
            let outcome = self.fill(&mut batch, ITER_BATCH);
            self.ready = batch;
            match outcome {
                Ok(()) if self.ready.is_empty() => return None,
                Ok(()) => {}
                Err(e) => self.pending_err = Some(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_matches_std_on_valid_prefixes() {
        let text = "A£ह𐍈\u{10FFFF}\u{D7FF}\u{E000}ß\u{7F}\u{80} plain ascii run!";
        let bytes = text.as_bytes();
        // Every prefix of valid UTF-8 validates to its longest whole-scalar
        // prefix, never flagging an error.
        for cut in 0..=bytes.len() {
            let (valid, stop) = validate_utf8(&bytes[..cut]);
            assert!(std::str::from_utf8(&bytes[..valid]).is_ok(), "cut {cut}");
            match stop {
                Utf8Stop::Invalid => panic!("valid prefix flagged invalid at cut {cut}"),
                Utf8Stop::Clean => assert_eq!(valid, cut),
                Utf8Stop::Incomplete => assert!(valid < cut),
            }
        }
    }

    #[test]
    fn validator_rejects_what_the_whatwg_table_rejects() {
        let cases: &[&[u8]] = &[
            b"\x80",             // bare continuation byte
            b"\xFF",             // invalid leading byte
            b"\xC3\x28",         // bad continuation
            b"\xC0\xAF",         // overlong '/'
            b"\xE0\x80\xAF",     // overlong 3-byte
            b"\xED\xA0\x80",     // surrogate half
            b"\xF4\x90\x80\x80", // scalar above U+10FFFF
        ];
        for &bad in cases {
            let mut input = b"ok ".to_vec();
            input.extend_from_slice(bad);
            let (valid, stop) = validate_utf8(&input);
            assert_eq!(valid, 3, "input {input:?}");
            assert!(matches!(stop, Utf8Stop::Invalid), "input {input:?}");
        }
    }

    #[test]
    fn validator_ascii_fast_path_spans_word_boundaries() {
        // 8-byte-aligned and unaligned ASCII runs around a multi-byte char.
        let text = "0123456789abcdef€0123456789abcdef";
        let (valid, stop) = validate_utf8(text.as_bytes());
        assert_eq!(valid, text.len());
        assert!(matches!(stop, Utf8Stop::Clean));
    }
}
