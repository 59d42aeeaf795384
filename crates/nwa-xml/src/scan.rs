//! Bulk structural scanning of raw XML-ish bytes — the lexer behind
//! [`ByteTokenizer`], and so behind every text and byte entry point of the
//! crate.
//!
//! A char-at-a-time lexer pays several calls and a `String::push` per
//! input byte, and that wall would dominate the bytes-in → verdict-out
//! pipeline: the compiled engines decide hundreds of millions of events
//! per second. This module moves every per-byte decision to a per-block or
//! per-token one:
//!
//! * bytes are pulled through a `ChunkWindow` — a reusable buffer of
//!   [`SCAN_CHUNK`] bytes refilled from the reader and **UTF-8-validated a
//!   chunk at a time** (an 8-byte-word ASCII fast path, the WHATWG table
//!   only on non-ASCII runs), with a multi-byte sequence split across a
//!   refill seam carried over and re-validated when its tail arrives;
//! * on a CPU with a wide kernel (AVX2 on `x86_64`, NEON on `aarch64`), the
//!   window is lexed in two stages per batch of up to 4 KiB, after simdjson
//!   (Langdale & Lemire, arXiv:1902.08318). **Stage 1** classifies 64-byte
//!   blocks into whitespace, `<` and `>` bitmasks and derives, with one-bit
//!   carries between blocks, where every token starts and ends; it
//!   flattens both into two offset tapes. **Stage 2** walks the tapes with
//!   no dependency between tokens: it takes each token's kind from its
//!   first two bytes, packs its name with two masked word loads, probes the
//!   exact-key name memo, folds every check into one flag and writes the
//!   event by index. A token the tapes cannot certify — attributes,
//!   directives, non-ASCII, names over 16 bytes or not yet in the memo,
//!   window seams — goes to the scalar `step_token`;
//! * elsewhere, and as the reference the wide fill is tested against, the
//!   portable SWAR fill is a loop of `step_token`, whose unrolled 8-byte
//!   word sweeps cover whole *runs* keyed on the structural set — `<`, `>`,
//!   quotes inside tags, the `-->` / `?>` / `]]>` terminators — classifying
//!   text, tag bodies, CDATA sections, comments, processing instructions
//!   and DOCTYPE internal subsets as slices, not as characters;
//! * names are resolved straight from window slices through the
//!   [`ResolveName`] policy and the event-building `LexerCore`, which both
//!   fills and the seam-crossing general path share, so they agree by
//!   construction. `tests/sax_scan.rs` holds the whole lexer
//!   token-for-token, error-for-error and alphabet-for-alphabet equal to an
//!   independent char-at-a-time reference under adversarial read
//!   granularities, on both backends and at every stage-1 seam.
//!
//! Invalid or truncated UTF-8 found by the chunk validator is *deferred*:
//! the window simply ends at the last valid scalar, and the typed
//! [`SaxError`] surfaces exactly when lexing reaches that offset — the same
//! observable order as an incremental decoder, where a token in progress
//! when the bad byte arrives is discarded in favor of the error.
//!
//! [`ByteTokenizer::stats`] reports a run's counters ([`ScanStats`]): bytes,
//! events, the events the scalar paths lexed, and the backend.

use crate::sax::{ByteTokenizer, LexerCore, ResolveName, SaxError};
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use nested_words::Symbol;
use nested_words::{NestedWordError, TaggedSymbol};
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use std::hint::select_unpredictable;
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

/// A tokenizer's scanner counters ([`ByteTokenizer::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Input bytes consumed so far.
    pub bytes: u64,
    /// Events lexed so far (including any the per-event iterator has
    /// buffered but not yet handed out).
    pub events: u64,
    /// Events lexed by the scalar paths: every event on the SWAR backend;
    /// on a wide backend, those of tokens the tapes could not certify
    /// (directives, attributes, non-ASCII, names over 16 bytes, unknown
    /// names), window tails and seams.
    pub scalar_tokens: u64,
    /// The backend of the latest window fill (before the first fill, the
    /// backend selected when the tokenizer was built).
    pub backend: ScanBackend,
}

impl std::fmt::Display for ScanStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scan.bytes {} scan.events {} scan.scalar_tokens {} scan.backend {:?}",
            self.bytes, self.events, self.scalar_tokens, self.backend
        )
    }
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

/// Wide structural classification: the vector half of stage 1 of the
/// two-stage wide fill. One vector pass over a 64-byte block produces four
/// bitmasks (ASCII whitespace, `<`, `>`, "breaks a simple name");
/// stage 1 ([`stage1`](super::stage1)) turns them into token tapes with
/// scalar bit arithmetic, and stage 2 resolves names off the tapes. Only
/// this module holds `unsafe` code: the intrinsics behind
/// [`BlockClassifier::classify`] and the ASCII-run probe of the UTF-8
/// validator. Everything the masks cannot certify (directives, attributes,
/// non-ASCII, control characters, names over 16 bytes, window seams) goes
/// through the same scalar [`step_token`](super::step_token) the SWAR
/// backend uses, which is how the backends stay equivalent by construction.
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
    }

    /// A vector kernel producing [`BlockMasks`]. Implementations are
    /// zero-sized proofs: a value exists only after the ISA was verified
    /// present (or is baseline), which is what makes their intrinsic use
    /// sound.
    pub(super) trait BlockClassifier: Copy {
        /// Classifies `data[at..at + BLOCK]`; panics if out of bounds.
        fn classify(self, data: &[u8], at: usize) -> BlockMasks;
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
            for lane in 0..4usize {
                let v = vld1q_u8(data.as_ptr().add(at + 16 * lane));
                let sp = vceqq_u8(v, vdupq_n_u8(b' '));
                let ctl = vcleq_u8(vsubq_u8(v, vdupq_n_u8(9)), vdupq_n_u8(4));
                ws[lane] = vorrq_u8(sp, ctl);
                lt[lane] = vceqq_u8(v, vdupq_n_u8(b'<'));
                gt[lane] = vceqq_u8(v, vdupq_n_u8(b'>'));
                let s = vreinterpretq_s8_u8(v);
                let sub21 = vcltq_s8(s, vdupq_n_s8(0x21));
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

// --------------------------------------------------------------------------
// The two-stage wide fill: block masks → token tapes → events
// --------------------------------------------------------------------------

/// Window bytes per stage-1 batch: 64 blocks. Both `u16` tapes and the
/// complex-byte bitmap of a batch (≤ 2 × 8 KiB + 1 KiB) stay L1-resident
/// while stage 2 walks them, and the per-batch setup amortizes over ~1k
/// tokens at the corpus' ~4 bytes per event.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const BATCH: usize = 64 * simd::BLOCK;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const _: () = assert!(
    BATCH <= u16::MAX as usize
        && COMPLEX_WORDS.is_power_of_two()
        && COMPLEX_WORDS > BATCH / simd::BLOCK + 1
);

/// Bytes a batch keeps clear of the window end. A token that completes in a
/// batch of `len` bytes starts at most at `len - 2`, so its name starts at
/// most at `len`, and stage 2's two-word name load ends 16 bytes past that.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const BATCH_SLACK: usize = 16;

/// Stage-1 output of the wide fill, reused across batches (grown on first
/// use, so a tokenizer that never runs the wide fill allocates nothing).
/// Offsets are relative to the batch's first byte.
///
/// `starts` holds every token start in ascending order, then one sentinel
/// entry equal to the batch length; `ends` holds every exclusive token end.
/// The two interleave by construction — exactly one end in each
/// `(starts[k], starts[k + 1]]` — so `ends[k]` closes the token that
/// `starts[k]` opens, and the number of ends is the number of tokens that
/// complete inside the batch.
#[derive(Debug)]
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code)
)]
pub(crate) struct Tapes {
    starts: Vec<u16>,
    ends: Vec<u16>,
    /// The `bad` mask of each block of the batch: one bit per byte that
    /// bars a name from the tape path (see [`simd::BlockMasks`]). Twice the
    /// blocks of a batch, so stage 2 reads two words at an index masked
    /// into range with no bounds check.
    complex: [u64; COMPLEX_WORDS],
    /// The batch the tapes describe while it still has tokens to hand out,
    /// so that a fill resuming inside it (after a directive went to the
    /// general path, or after a full `fill`) does not classify it again.
    batch: Option<TapeBatch>,
}

/// Where a stage-1 batch sits in the window buffer, and its counts.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    allow(dead_code)
)]
struct TapeBatch {
    /// The window's `offset_base` at classification. It changes exactly
    /// when the buffer is compacted, which moves the batch's bytes.
    offset_base: usize,
    /// Buffer index of the batch's first byte.
    at: usize,
    /// Bytes classified.
    len: usize,
    /// Token starts on the tape (not counting the sentinel).
    starts: usize,
    /// Tokens that complete in the batch: the number of ends.
    tokens: usize,
    /// Stage 1's verdict that a name may hold a `bad` byte.
    dirty: bool,
    /// A token of the batch failed its checks: the rest of the batch goes
    /// token by token.
    failed: bool,
    /// Tape index of the first token not yet handed out.
    next: usize,
}

/// Length of [`Tapes::complex`]: a power of two past the batch's blocks
/// plus the word after the last one.
const COMPLEX_WORDS: usize = 128;

impl Default for Tapes {
    fn default() -> Self {
        Tapes {
            starts: Vec::new(),
            ends: Vec::new(),
            complex: [0; COMPLEX_WORDS],
            batch: None,
        }
    }
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
impl Tapes {
    /// Grows the tapes for a batch of `len` bytes. The flatten writes up to
    /// 16 slots past the last real entry, so every tape keeps 64 of slack.
    fn reserve(&mut self, len: usize) {
        if self.starts.len() < len + 64 {
            self.starts.resize(len + 64, 0);
            self.ends.resize(len + 64, 0);
        }
    }
}

/// Appends the offsets of the set bits of `bits` (plus `base`) to `tape`
/// at `idx` and returns the new length: the simdjson flatten, eight
/// unconditional writes per group of eight bits and a popcount advance, so
/// the loop does not branch per bit. Slots written past the new length
/// hold garbage that the next flatten overwrites.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn flatten(tape: &mut [u16], idx: usize, base: u16, mut bits: u64) -> usize {
    let count = bits.count_ones() as usize;
    for slot in &mut tape[idx..idx + 8] {
        *slot = base + bits.trailing_zeros() as u16;
        bits &= bits.wrapping_sub(1);
    }
    if count > 8 {
        for slot in &mut tape[idx + 8..idx + 16] {
            *slot = base + bits.trailing_zeros() as u16;
            bits &= bits.wrapping_sub(1);
        }
        let mut i = idx + 16;
        while bits != 0 {
            tape[i] = base + bits.trailing_zeros() as u16;
            bits &= bits.wrapping_sub(1);
            i += 1;
        }
    }
    idx + count
}

/// Classifies the block at `at`; a block running past the end of `data`
/// (only the last one of a window) is classified from a copy padded with
/// spaces.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn classify_block<C: simd::BlockClassifier>(cls: C, data: &[u8], at: usize) -> simd::BlockMasks {
    use simd::BLOCK;
    if at + BLOCK <= data.len() {
        return cls.classify(data, at);
    }
    let mut pad = [b' '; BLOCK];
    let tail = &data[at..];
    pad[..tail.len()].copy_from_slice(tail);
    cls.classify(&pad, 0)
}

/// Stage 1: classifies `batch[..len]` block by block and flattens its token
/// boundaries into `tapes`, returning the number of starts and of ends.
///
/// A token starts at every `<` and at every other non-whitespace byte that
/// follows whitespace or `>`; it ends after a `>`, or at whitespace or `<`
/// that follows a byte other than whitespace and `>`. Per block that is
/// `lt | nonws & (prev_ws | prev_gt)` and
/// `prev_gt | (ws | lt) & prev_nonws & !prev_gt`, where each `prev_*` mask
/// is its class shifted up one bit with the previous block's top bit
/// carried in. The batch opens as if after whitespace: it always begins at
/// a token boundary.
///
/// The third result says whether any name in the batch may hold a `bad`
/// byte: one that is not whitespace and does not directly follow `<` (a
/// byte right after `<` is [`tape_token`]'s to judge). When none does,
/// stage 2 skips the per-token range test on [`Tapes::complex`].
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn stage1<C: simd::BlockClassifier>(
    cls: C,
    batch: &[u8],
    len: usize,
    tapes: &mut Tapes,
) -> (usize, usize, bool) {
    use simd::BLOCK;
    tapes.reserve(len);
    let Tapes {
        starts,
        ends,
        complex,
        ..
    } = tapes;
    let (mut ns, mut ne) = (0, 0);
    let (mut carry_ws, mut carry_gt, mut carry_nonws, mut carry_lt) = (1u64, 0u64, 0u64, 0u64);
    let mut dirty = 0u64;
    for (blk, cx) in complex[..len.div_ceil(BLOCK)].iter_mut().enumerate() {
        let at = blk * BLOCK;
        let m = classify_block(cls, batch, at);
        let valid = if len - at >= BLOCK {
            !0
        } else {
            !(!0u64 << (len - at))
        };
        let nonws = !m.ws;
        let prev_ws = (m.ws << 1) | carry_ws;
        let prev_gt = (m.gt << 1) | carry_gt;
        let prev_nonws = (nonws << 1) | carry_nonws;
        let prev_lt = (m.lt << 1) | carry_lt;
        carry_ws = m.ws >> 63;
        carry_gt = m.gt >> 63;
        carry_nonws = nonws >> 63;
        carry_lt = m.lt >> 63;
        let start = (m.lt | (nonws & (prev_ws | prev_gt))) & valid;
        let end = (prev_gt | ((m.ws | m.lt) & prev_nonws & !prev_gt)) & valid;
        *cx = m.bad;
        dirty |= m.bad & nonws & !prev_lt & valid;
        ns = flatten(starts, ns, at as u16, start);
        ne = flatten(ends, ne, at as u16, end);
    }
    starts[ns] = len as u16;
    (ns, ne, dirty != 0)
}

/// [`BYTE_CLASS`] bit: ASCII whitespace or `<`, the bytes a text token
/// ends at.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const TEXT_END: u8 = 1;
/// [`BYTE_CLASS`] bit: a byte that bars a tag from the tapes when it
/// directly follows `<`: `!` and `?` (a directive) and every `bad` byte
/// but `/` (below 0x21, `"`, `'`, non-ASCII).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const BAD_TAG_LEAD: u8 = 2;

/// The byte classes stage 2 tests, one table load per test.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const BYTE_CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b'\t'..=b'\r' | b' ' => TEXT_END | BAD_TAG_LEAD,
            b'<' => TEXT_END,
            0..=0x20 | b'!' | b'?' | b'"' | b'\'' | 0x80.. => BAD_TAG_LEAD,
            _ => 0,
        };
        b += 1;
    }
    class
};

/// Masks keeping the first `len` bytes of a two-word little-endian name
/// load, indexed by `len` (0..=16; entry 17 stands for every longer name
/// and keeps nothing). Same key as `LexerCore`'s byte-loop packer.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
const NAME_MASKS: [(u64, u64); 18] = {
    let mut masks = [(0u64, 0u64); 18];
    let mut len = 1;
    while len <= 16 {
        masks[len] = if len <= 8 {
            (!0u64 >> (64 - 8 * len), 0)
        } else {
            (!0u64, !0u64 >> (128 - 8 * len))
        };
        len += 1;
    }
    masks
};

/// Stage 2 for one tape token `batch[s..e]`, whose successor starts at
/// `next`: the event the token stands for, and whether it may be emitted
/// as is. The kind comes from the first two bytes, the name is packed from
/// two word loads and the length-indexed mask, and the memo probe never
/// consults the policy. Every check — `s < e <= next`; a tag ends in `>`
/// and is no directive; text ends at ASCII whitespace or `<`; the name is
/// 1..=16 bytes with no `bad` byte; the probe hit — lands in one flag, so
/// the caller's loop has no branch that depends on the bytes. A passing
/// token is exactly the token [`step_token`] would lex from any position
/// in the ASCII whitespace before `s`: a simple tag or a plain text run.
/// `CLEAN` skips the range test on `complex` for a batch that stage 1
/// found free of `bad` name bytes.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn tape_token<N: ResolveName, const CLEAN: bool>(
    core: &LexerCore<N>,
    batch: &[u8],
    complex: &[u64; COMPLEX_WORDS],
    s: usize,
    e: usize,
    next: usize,
) -> (TaggedSymbol, bool) {
    let c1 = batch[s + 1];
    let tag = batch[s] == b'<';
    let close = tag & (c1 == b'/');
    let from = s + usize::from(tag) + usize::from(close);
    // Every end lies past the batch's first start, so `e >= 1`.
    let len = (e - usize::from(tag)).wrapping_sub(from).min(17);
    let tag_ok = (batch[e - 1] == b'>') & (BYTE_CLASS[usize::from(c1)] & BAD_TAG_LEAD == 0);
    let text_ok = BYTE_CLASS[usize::from(batch[e])] & TEXT_END != 0;
    let (m0, m1) = NAME_MASKS[len];
    let w0 = load_word(batch, from) & m0;
    let w1 = load_word(batch, from + 8) & m1;
    let cx = if CLEAN {
        0
    } else {
        let word = from / 64;
        let pair = u128::from(complex[word % COMPLEX_WORDS])
            | (u128::from(complex[(word + 1) % COMPLEX_WORDS]) << 64);
        (pair >> (from % 64)) as u64 & !(!0u64 << len)
    };
    let (hit, sym) = core.probe(w0, w1, len);
    // Tags and text alternate with no pattern a predictor could learn, so
    // the kind picks its check and its event by select, never by branch.
    let ok = (s < e)
        & (e <= next)
        & select_unpredictable(tag, tag_ok, text_ok)
        & (len.wrapping_sub(1) < 16)
        & (cx == 0)
        & hit;
    let event = select_unpredictable(
        tag,
        select_unpredictable(close, TaggedSymbol::Return(sym), TaggedSymbol::Call(sym)),
        TaggedSymbol::Internal(sym),
    );
    (event, ok)
}

/// The branch-free pass of stage 2 over tape tokens `k0..k0 + out.len()`:
/// writes the event of token `k0 + i` into `out[i]` and returns how many
/// leading tokens passed their checks. Within a group of 16 tokens nothing
/// branches on the bytes; the pass stops after the first group holding a
/// failure, so the work thrown away stays below one group.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn stage2<N: ResolveName, const CLEAN: bool>(
    core: &LexerCore<N>,
    batch: &[u8],
    tapes: &Tapes,
    k0: usize,
    out: &mut [TaggedSymbol],
) -> usize {
    let t = out.len();
    let starts = &tapes.starts[k0..=k0 + t];
    let ends = &tapes.ends[k0..k0 + t];
    let mut passed = t;
    let mut k = 0;
    while k < t && passed == t {
        let end = t.min(k + 16);
        let tokens = starts[k..=end].windows(2).zip(&ends[k..end]);
        for (i, (slot, (s, &e))) in out[k..end].iter_mut().zip(tokens).enumerate() {
            let (event, ok) = tape_token::<N, CLEAN>(
                core,
                batch,
                &tapes.complex,
                s[0] as usize,
                e as usize,
                s[1] as usize,
            );
            *slot = event;
            passed = passed.min(if ok { t } else { k + i });
        }
        k = end;
    }
    passed
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
            tapes: Tapes::default(),
            stats: ScanStats {
                bytes: 0,
                events: 0,
                scalar_tokens: 0,
                backend: scan_backend(),
            },
        }
    }

    /// The run's scanner counters so far: bytes consumed, events lexed,
    /// how many of those the scalar paths lexed, and the backend of the
    /// latest window fill. The counters are plain fields bumped once per
    /// `fill` call or per scalar fallback, never per event.
    pub fn stats(&self) -> ScanStats {
        ScanStats {
            bytes: self.window.abs_offset() as u64,
            ..self.stats
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
        let before = out.len();
        let lexed = self.lex_events(out, max);
        self.stats.events += (out.len() - before) as u64;
        lexed
    }

    /// The lexing loop of [`Self::fill`]: window sweeps, with the general
    /// path for whatever a window cannot decide.
    fn lex_events(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<(), SaxError> {
        loop {
            while let Some(t) = self.core.queued.pop_front() {
                out.push(t);
                self.stats.scalar_tokens += 1;
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
                Some(t) => {
                    out.push(t);
                    self.stats.scalar_tokens += 1;
                }
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
    /// (or, on the [`scan_backend`]-selected wide backend, from 64-byte
    /// block masks flattened into token tapes) and classified byte-level
    /// ([`LexerCore::tag_event_bytes`](crate::sax::LexerCore),
    /// `resolve_bytes`), so the common path touches each input byte once in
    /// a word or vector and never re-walks a token as chars.
    fn fill_window(&mut self, out: &mut Vec<TaggedSymbol>, max: usize) -> Result<bool, SaxError> {
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = simd::Avx2::active() {
            self.stats.backend = ScanBackend::Avx2;
            return self.fill_window_blocks(kernel, out, max);
        }
        #[cfg(target_arch = "aarch64")]
        if let Some(kernel) = simd::Neon::active() {
            self.stats.backend = ScanBackend::Neon;
            return self.fill_window_blocks(kernel, out, max);
        }
        self.stats.backend = ScanBackend::Swar;
        let before = out.len();
        let full = self.fill_window_swar(out, max);
        self.stats.scalar_tokens += (out.len() - before) as u64;
        full
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

    /// The wide backend of [`Self::fill_window`], in two stages per batch
    /// of up to [`BATCH`] window bytes. Stage 1 ([`stage1`]) turns the
    /// block masks into token-start and token-end tapes. Stage 2
    /// ([`stage2`]) walks the tapes with no dependency between tokens: each
    /// event is written by index into `out`, sized in advance, and every
    /// check lands in one flag per token. The passing prefix of the pass is
    /// kept, and the rest of the batch goes token by token: a token that
    /// passes is pushed, one that fails goes to the scalar [`step_token`],
    /// and the tape cursor then skips past the position it reached — so a
    /// decorated document pays per complex token, not per batch. A batch
    /// survives a return to the caller (a full `out`, or a directive handed
    /// to the general path) and is resumed, not classified again. The
    /// window tail and tokens longer than a batch go to [`step_token`] as
    /// well.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    fn fill_window_blocks<C: simd::BlockClassifier>(
        &mut self,
        cls: C,
        out: &mut Vec<TaggedSymbol>,
        max: usize,
    ) -> Result<bool, SaxError> {
        let base = self.window.abs_offset();
        let (start, offset_base) = (self.window.start, self.window.offset_base);
        let buf: &[u8] = &self.window.buf[..self.window.end];
        let data = &buf[start..];
        let n = data.len();
        let mut pos = 0usize;
        let mut budget = max.saturating_sub(out.len());
        let mut live = self.tapes.batch.take();
        let full = 'batches: loop {
            if budget == 0 {
                break true;
            }
            // Resume the live batch if it covers `pos`. Its tapes agree
            // with the lexer at any token boundary on an ASCII byte (see
            // below), so the cursor just skips to the next start.
            let resumable = |b: &TapeBatch| {
                b.offset_base == offset_base
                    && (b.at..b.at + b.len).contains(&(start + pos))
                    && data[pos] < 0x80
            };
            let mut b = match live.filter(resumable) {
                Some(b) => b,
                None => {
                    let len = n.saturating_sub(BATCH_SLACK + pos).min(BATCH);
                    let (starts, tokens, dirty) = if len > 0 {
                        stage1(cls, &data[pos..], len, &mut self.tapes)
                    } else {
                        (0, 0, false)
                    };
                    if tokens == 0 && starts == 0 && len > 0 {
                        pos += len; // whitespace only
                        continue;
                    }
                    TapeBatch {
                        offset_base,
                        at: start + pos,
                        len,
                        starts,
                        tokens,
                        dirty,
                        failed: false,
                        next: 0,
                    }
                }
            };
            live = None;
            if b.tokens == 0 {
                // The window tail, or a token longer than a batch.
                let before = out.len();
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
                self.stats.scalar_tokens += (out.len() - before) as u64;
                continue;
            }
            let batch = &buf[b.at..];
            let tapes = &self.tapes;
            let (st, en) = (&tapes.starts, &tapes.ends);
            // The tape cursor: the first start at or after `pos`.
            let cursor = |mut k: usize, pos: usize| {
                while k < b.starts && (st[k] as usize) < start + pos - b.at {
                    k += 1;
                }
                k
            };
            let mut k = cursor(b.next, pos);
            while k < b.tokens {
                if budget == 0 {
                    live = Some(TapeBatch { next: k, ..b });
                    break 'batches true;
                }
                if !b.failed {
                    // The branch-free pass over the rest of the batch.
                    let t = (b.tokens - k).min(budget);
                    let len0 = out.len();
                    out.resize(len0 + t, TaggedSymbol::Internal(Symbol(0)));
                    let passed = if b.dirty {
                        stage2::<N, false>(&self.core, batch, tapes, k, &mut out[len0..])
                    } else {
                        stage2::<N, true>(&self.core, batch, tapes, k, &mut out[len0..])
                    };
                    out.truncate(len0 + passed);
                    budget -= passed;
                    k += passed;
                    if passed > 0 {
                        pos = b.at + en[k - 1] as usize - start;
                    }
                    if passed == t {
                        continue;
                    }
                    b.failed = true;
                } else {
                    let (event, ok) = tape_token::<N, false>(
                        &self.core,
                        batch,
                        &tapes.complex,
                        st[k] as usize,
                        en[k] as usize,
                        st[k + 1] as usize,
                    );
                    if ok {
                        out.push(event);
                        budget -= 1;
                        pos = b.at + en[k] as usize - start;
                        k += 1;
                        continue;
                    }
                }
                // Token `k` failed: the scalar step lexes whatever starts
                // at `pos`, which may span several tape tokens.
                let before = out.len();
                match step_token(&mut self.core, data, base, pos, out, &mut budget) {
                    StepOutcome::Emitted(next) => pos = next,
                    StepOutcome::Window(consumed) => {
                        pos = consumed;
                        live = Some(TapeBatch { next: k, ..b });
                        break 'batches false;
                    }
                    StepOutcome::Fail(e, at) => {
                        self.window.consume(at);
                        return Err(e);
                    }
                }
                self.stats.scalar_tokens += (out.len() - before) as u64;
                // A token the lexer ended is followed by `>`'s successor or
                // by a delimiter. On an ASCII byte the tapes agree: the
                // next start is the next token. Text that ended at Unicode
                // whitespace ran on through it in the masks, so the batch
                // is classified again from here.
                if data.get(pos).is_some_and(|&b| b >= 0x80) {
                    continue 'batches;
                }
                k = cursor(k, pos);
            }
        };
        self.tapes.batch = live;
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
