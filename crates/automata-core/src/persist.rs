//! The [`Persist`] capability: versioned, endian-explicit byte formats for
//! compiled artifacts.
//!
//! A compiled artifact (`CompiledNwa`, `CompiledSummary`, `CompiledTaggedDfa`,
//! `CompiledStepwiseTA`) is plain old data — dense `u32` tables plus a few
//! scalars — so shipping one to another process is a copy, not a rebuild.
//! [`Persist::save`] lays an artifact out as a self-describing byte buffer
//! and [`Persist::load`] reconstructs it, turning the engines into
//! build-once/ship-to-a-fleet deployables: compile (and warm up) offline,
//! write the bytes next to the query, and every worker cold-starts by
//! loading tables instead of re-running the construction.
//!
//! ## The byte format
//!
//! Every saved artifact is one fixed 32-byte header followed by a payload.
//! All integers are little-endian, regardless of host byte order:
//!
//! | offset | size | field                                                  |
//! |--------|------|--------------------------------------------------------|
//! | 0      | 4    | magic `b"NWSA"`                                        |
//! | 4      | 2    | format version (`u16`, currently [`FORMAT_VERSION`])   |
//! | 6      | 2    | artifact kind (`u16`, one of [`kind`])                 |
//! | 8      | 8    | alphabet fingerprint (`u64`, [`fingerprint_alphabet`]) |
//! | 16     | 8    | payload length in bytes (`u64`)                        |
//! | 24     | 8    | payload checksum (`u64`, [`checksum_bytes`])           |
//! | 32     | —    | payload (artifact-specific, see each model crate)      |
//!
//! Payloads are built from [`Writer`] and decoded with [`Reader`]: sequences
//! of `u32`/`u64` scalars, length-prefixed `u32` arrays and length-prefixed
//! boolean arrays, laid out consecutively. Numeric arrays are stored as
//! consecutive little-endian words at fixed offsets, so the format is
//! zero-copy-capable; under `#![forbid(unsafe_code)]` the loader
//! materializes owned `Vec`s via `from_le_bytes` (a true `mmap` view is a
//! ROADMAP follow-up).
//!
//! ## Failure model
//!
//! Corrupt or truncated bytes yield a typed [`PersistError`], never a panic:
//! the header is validated field by field (magic, version, kind, length,
//! checksum), the declared alphabet fingerprint must match the alphabet the
//! payload describes, and every decoded table entry is range-checked before
//! it can ever index a table. The checksum detects corruption, not forgery —
//! the codec is for trusted storage, and its guarantee against arbitrary
//! bytes is "typed error or semantically-validated artifact", enforced by
//! the corrupt-byte fuzzing in `tests/persist.rs`.

use std::fmt;

/// The four magic bytes opening every saved artifact.
pub const MAGIC: [u8; 4] = *b"NWSA";

/// The current (and only) byte-format version.
pub const FORMAT_VERSION: u16 = 1;

/// Length of the fixed header preceding every payload.
pub const HEADER_LEN: usize = 32;

/// Artifact kind codes stored in the header, one per compiled engine.
pub mod kind {
    /// `nwa::CompiledNwa` — fused premultiplied deterministic table.
    pub const COMPILED_NWA: u16 = 1;
    /// `nwa::CompiledSummary<Nnwa>` — memoized summary subset engine.
    pub const COMPILED_SUMMARY_NNWA: u16 = 2;
    /// `nwa::CompiledSummary<JoinlessNwa>` — mode-split summary engine.
    pub const COMPILED_SUMMARY_JOINLESS: u16 = 3;
    /// `word_automata::CompiledTaggedDfa` — flat tagged-alphabet table.
    pub const COMPILED_TAGGED_DFA: u16 = 4;
    /// `tree_automata::CompiledStepwiseTA` — flat stepwise tree-event table.
    pub const COMPILED_STEPWISE_TA: u16 = 5;
    /// `automata_core::Snapshot` — suspended run state (not an automaton).
    pub const SNAPSHOT: u16 = 6;
    /// `nwa::QuerySet` — compiled multi-query artifact (product table with
    /// accept masks, or lockstep member engines).
    pub const QUERY_SET: u16 = 7;
}

/// Why a byte buffer could not be decoded into an artifact (or a snapshot
/// could not be resumed). Every variant is typed and `Copy`; decoding never
/// panics on bad input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ends before the declared content does.
    Truncated {
        /// Bytes needed to finish decoding the current field (or the whole
        /// buffer, for header-level truncation).
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The buffer does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The header declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
        /// The version this build reads ([`FORMAT_VERSION`]).
        supported: u16,
    },
    /// The header declares a different artifact kind than the caller asked
    /// to load (e.g. DFA bytes handed to the NWA loader).
    WrongKind {
        /// The kind the caller expected.
        expected: u16,
        /// The kind found in the header.
        found: u16,
    },
    /// The alphabet fingerprint in the header does not match the alphabet
    /// the artifact was (or is being) used against.
    AlphabetMismatch {
        /// The fingerprint of the expected alphabet.
        expected: u64,
        /// The fingerprint found.
        found: u64,
    },
    /// The payload checksum does not match — the bytes were corrupted.
    ChecksumMismatch {
        /// The checksum declared in the header.
        expected: u64,
        /// The checksum of the payload as received.
        found: u64,
    },
    /// The bytes decode but describe an impossible artifact (inconsistent
    /// table lengths, out-of-range transition targets, trailing bytes, …) —
    /// or a snapshot does not fit the artifact it is being resumed on.
    Malformed {
        /// What was wrong, as a static description.
        context: &'static str,
    },
    /// A snapshot was taken from a different artifact than the one asked to
    /// resume it (the artifact fingerprints disagree).
    FingerprintMismatch {
        /// The resuming artifact's fingerprint.
        expected: u64,
        /// The fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated { expected, got } => {
                write!(f, "truncated artifact: needed {expected} bytes, got {got}")
            }
            PersistError::BadMagic { found } => {
                write!(f, "not a saved artifact: bad magic {found:?}")
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported artifact format version {found} (this build reads {supported})"
                )
            }
            PersistError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong artifact kind: expected code {expected}, found {found}"
                )
            }
            PersistError::AlphabetMismatch { expected, found } => {
                write!(
                    f,
                    "alphabet fingerprint mismatch: expected {expected:#018x}, found {found:#018x}"
                )
            }
            PersistError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "payload checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}"
                )
            }
            PersistError::Malformed { context } => {
                write!(f, "malformed artifact: {context}")
            }
            PersistError::FingerprintMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot belongs to a different artifact: resuming artifact is {expected:#018x}, snapshot records {found:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of `u64` words — the hash behind checksums and
/// fingerprints. Hashing word-wise rather than byte-wise keeps the
/// load-path checksum pass ~8× cheaper, which matters because loading must
/// beat compiling by a wide margin to be worth a deployment pipeline.
pub fn fnv1a_words<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut hash = FNV_OFFSET;
    for word in words {
        hash ^= word;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The payload checksum: FNV-1a over the bytes taken as little-endian
/// 64-bit words (final partial word zero-padded), seeded with the length so
/// buffers differing only in trailing zeros hash apart.
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET ^ (bytes.len() as u64).wrapping_mul(FNV_PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(last);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fingerprint of an alphabet for header validation.
///
/// A compiled artifact depends on its alphabet only through the alphabet's
/// *size* — symbols enter the tables as dense indices `0..σ`, never by name —
/// so the fingerprint hashes exactly that. Loading against an alphabet of a
/// different size is what would index past the tables; renaming symbols
/// in-place is invisible to the artifact by construction.
pub fn fingerprint_alphabet(len: usize) -> u64 {
    fnv1a_words([0x616c_7068_6162_6574, len as u64])
}

/// The content fingerprint of an artifact whose identity *is* its payload:
/// the kind code mixed with the payload checksum.
///
/// This is the one-pass idiom every `Persist` impl uses: at save/compile
/// time the checksum falls out of serializing the payload, and at load time
/// [`Reader::open`] has already hashed the payload to verify it — exposed as
/// [`Reader::payload_checksum`] — so deriving the fingerprint from it costs
/// nothing. No second walk over the tables, and save/load fingerprints agree
/// by construction because both hash the same payload bytes.
pub fn fingerprint_payload(kind: u16, payload_checksum: u64) -> u64 {
    fnv1a_words([u64::from(kind), payload_checksum])
}

/// Checks a header's alphabet fingerprint against an alphabet size, as
/// every loader does once it has decoded σ from its payload.
pub fn expect_alphabet(found: u64, alphabet_len: usize) -> Result<(), PersistError> {
    let expected = fingerprint_alphabet(alphabet_len);
    if found == expected {
        Ok(())
    } else {
        Err(PersistError::AlphabetMismatch { expected, found })
    }
}

/// Builds an artifact payload field by field, then seals it with the
/// header. All integers are written little-endian.
#[derive(Debug, Default)]
pub struct Writer {
    payload: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The payload bytes written so far (used for fingerprinting).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Appends one `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.payload.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `u32` array (length as `u64`, then the
    /// words back to back).
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        self.payload.reserve(vs.len() * 4);
        for &v in vs {
            self.payload.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a length-prefixed boolean array (length as `u64`, then one
    /// `0`/`1` byte per flag).
    pub fn put_bools(&mut self, vs: &[bool]) {
        self.put_u64(vs.len() as u64);
        self.payload.extend(vs.iter().map(|&b| u8::from(b)));
    }

    /// Appends a length-prefixed opaque byte blob (length as `u64`, then the
    /// bytes verbatim). The framing lets composite artifacts nest complete
    /// member images — header, checksum and all — so the member loader
    /// revalidates them on decode.
    pub fn put_bytes(&mut self, vs: &[u8]) {
        self.put_u64(vs.len() as u64);
        self.payload.extend_from_slice(vs);
    }

    /// Prepends the header (magic, version, `kind`, alphabet fingerprint,
    /// payload length, payload checksum) and returns the finished buffer.
    pub fn seal(self, kind: u16, alphabet_fingerprint: u64) -> Vec<u8> {
        let payload = self.payload;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&alphabet_fingerprint.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum_bytes(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }
}

/// Decodes an artifact payload field by field after validating the header.
/// Every getter returns a typed [`PersistError`] instead of panicking on
/// short or inconsistent input.
#[derive(Debug)]
pub struct Reader<'a> {
    payload: &'a [u8],
    pos: usize,
    /// The verified payload checksum — computed once in [`Reader::open`],
    /// kept so loaders can derive content fingerprints without a second
    /// pass over the payload (see [`fingerprint_payload`]).
    checksum: u64,
}

impl<'a> Reader<'a> {
    /// Validates the fixed header of `bytes` — magic, format version,
    /// artifact `kind`, exact payload length, payload checksum — and returns
    /// the declared alphabet fingerprint plus a reader positioned at the
    /// start of the payload. The caller checks the fingerprint against the
    /// alphabet size its payload describes (see [`expect_alphabet`]).
    pub fn open(bytes: &'a [u8], kind: u16) -> Result<(u64, Reader<'a>), PersistError> {
        if bytes.len() < HEADER_LEN {
            return Err(PersistError::Truncated {
                expected: HEADER_LEN,
                got: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 header bytes");
        if magic != MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 header bytes"));
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let found_kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2 header bytes"));
        if found_kind != kind {
            return Err(PersistError::WrongKind {
                expected: kind,
                found: found_kind,
            });
        }
        let alphabet_fingerprint =
            u64::from_le_bytes(bytes[8..16].try_into().expect("8 header bytes"));
        let payload_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 header bytes"));
        let checksum = u64::from_le_bytes(bytes[24..32].try_into().expect("8 header bytes"));
        let payload = &bytes[HEADER_LEN..];
        if (payload.len() as u64) < payload_len {
            return Err(PersistError::Truncated {
                expected: HEADER_LEN.saturating_add(payload_len as usize),
                got: bytes.len(),
            });
        }
        if (payload.len() as u64) > payload_len {
            return Err(PersistError::Malformed {
                context: "trailing bytes after the declared payload",
            });
        }
        let found = checksum_bytes(payload);
        if found != checksum {
            return Err(PersistError::ChecksumMismatch {
                expected: checksum,
                found,
            });
        }
        Ok((
            alphabet_fingerprint,
            Reader {
                payload,
                pos: 0,
                checksum,
            },
        ))
    }

    /// The payload checksum verified by [`Reader::open`] — the single
    /// integrity walk's result, reusable for content fingerprints.
    pub fn payload_checksum(&self) -> u64 {
        self.checksum
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let remaining = self.payload.len() - self.pos;
        if remaining < n {
            return Err(PersistError::Truncated {
                expected: n,
                got: remaining,
            });
        }
        let out = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte field"),
        ))
    }

    /// Reads one `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte field"),
        ))
    }

    /// Reads a length-prefixed `u32` array. The declared length is bounded
    /// by the remaining payload before anything is allocated, so a hostile
    /// length prefix cannot force an oversized allocation.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, PersistError> {
        let len = self.get_count(4)?;
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads `rows` rows of `N` `u32`s each, bounds-checked once, as an
    /// iterator borrowing the payload: no allocation, and the iterator can
    /// be cloned for a second pass.
    pub fn get_u32_rows<const N: usize>(
        &mut self,
        rows: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u32; N]> + Clone + 'a, PersistError> {
        let len = rows.checked_mul(4 * N).ok_or(PersistError::Malformed {
            context: "array length overflows",
        })?;
        Ok(self.take(len)?.chunks_exact(4 * N).map(|row| {
            std::array::from_fn(|k| {
                u32::from_le_bytes(row[4 * k..4 * k + 4].try_into().expect("4-byte field"))
            })
        }))
    }

    /// Reads a length-prefixed boolean array; any byte other than `0`/`1`
    /// is malformed.
    pub fn get_bool_vec(&mut self) -> Result<Vec<bool>, PersistError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        bytes
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(PersistError::Malformed {
                    context: "boolean byte out of range",
                }),
            })
            .collect()
    }

    /// Reads a length-prefixed opaque byte blob written by
    /// [`Writer::put_bytes`]. The declared length is bounded by the
    /// remaining payload before anything is allocated.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, PersistError> {
        let len = self.get_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads the `u64` row count of a table whose rows, `row_bytes` each,
    /// follow in the payload. The count is bounded by the remaining payload
    /// before it is returned, so a hostile count cannot size an allocation
    /// (`Vec`, `HashMap::with_capacity`) past the bytes that could fill it:
    /// a count whose rows overrun the payload is
    /// [`PersistError::Truncated`], one whose byte size overflows is
    /// [`PersistError::Malformed`].
    pub fn get_count(&mut self, row_bytes: usize) -> Result<usize, PersistError> {
        let len = self.get_len()?;
        let need = len.checked_mul(row_bytes).ok_or(PersistError::Malformed {
            context: "array length overflows",
        })?;
        let remaining = self.payload.len() - self.pos;
        if need > remaining {
            return Err(PersistError::Truncated {
                expected: need,
                got: remaining,
            });
        }
        Ok(len)
    }

    fn get_len(&mut self) -> Result<usize, PersistError> {
        let len = self.get_u64()?;
        usize::try_from(len).map_err(|_| PersistError::Malformed {
            context: "array length overflows",
        })
    }

    /// Asserts the payload has been consumed exactly; leftover bytes mean
    /// the buffer does not describe the artifact the header claims.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.pos == self.payload.len() {
            Ok(())
        } else {
            Err(PersistError::Malformed {
                context: "unconsumed bytes at the end of the payload",
            })
        }
    }
}

/// Decodes a [`Snapshot`](crate::Snapshot) step counter: `u64` on the wire,
/// `usize` in lane state.
pub fn decode_steps(steps: u64) -> Result<usize, PersistError> {
    usize::try_from(steps).map_err(|_| PersistError::Malformed {
        context: "snapshot step count overflows",
    })
}

/// A compiled artifact that can round-trip through a versioned byte format.
///
/// Implementations guarantee:
///
/// 1. **round-trip** — `Self::load(&a.save())` succeeds and the result
///    equals `a` structurally (`PartialEq`) and behaviorally;
/// 2. **no panics** — `load` on arbitrary bytes returns a typed
///    [`PersistError`] rather than panicking, and a successfully loaded
///    artifact can never index out of its own tables (every decoded entry
///    is range-checked);
/// 3. **identity** — [`fingerprint`](Persist::fingerprint) is a stable
///    content hash: equal artifacts have equal fingerprints, and a
///    [`Snapshot`](crate::Snapshot) stamped by one artifact resumes only on
///    artifacts with the same fingerprint.
///
/// The free-function spellings are
/// [`query::save`](crate::query::save) / [`query::load`](crate::query::load).
pub trait Persist: Sized {
    /// The artifact kind code written into the header (one of [`kind`]).
    const KIND: u16;

    /// Serializes the artifact into the versioned byte format.
    fn save(&self) -> Vec<u8>;

    /// Decodes an artifact from bytes, validating the header, checksum and
    /// every table entry. Never panics on bad input.
    fn load(bytes: &[u8]) -> Result<Self, PersistError>;

    /// A stable content hash identifying this artifact — what snapshots are
    /// stamped with and resumption validates.
    fn fingerprint(&self) -> u64;

    /// The fingerprint of the alphabet the artifact was compiled against
    /// ([`fingerprint_alphabet`] of its σ).
    fn alphabet_fingerprint(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_faults_are_typed() {
        let mut w = Writer::new();
        w.put_u32(7);
        let bytes = w.seal(kind::COMPILED_NWA, fingerprint_alphabet(2));

        // Reading back the right kind succeeds.
        let (fp, mut r) = Reader::open(&bytes, kind::COMPILED_NWA).unwrap();
        assert_eq!(fp, fingerprint_alphabet(2));
        assert_eq!(r.get_u32().unwrap(), 7);
        r.finish().unwrap();

        // Truncation at every length is typed.
        for cut in 0..bytes.len() {
            let Err(err) = Reader::open(&bytes[..cut], kind::COMPILED_NWA) else {
                panic!("truncated buffer must not open");
            };
            assert!(matches!(
                err,
                PersistError::Truncated { .. } | PersistError::Malformed { .. }
            ));
        }

        // Kind and magic mismatches are typed.
        assert!(matches!(
            Reader::open(&bytes, kind::COMPILED_TAGGED_DFA),
            Err(PersistError::WrongKind { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Reader::open(&bad, kind::COMPILED_NWA),
            Err(PersistError::BadMagic { .. })
        ));

        // A payload flip is caught by the checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            Reader::open(&flipped, kind::COMPILED_NWA),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn arrays_round_trip_and_reject_garbage() {
        let mut w = Writer::new();
        w.put_u32_slice(&[1, 2, 3]);
        w.put_bools(&[true, false]);
        w.put_u64(u64::MAX);
        let bytes = w.seal(kind::SNAPSHOT, 0);
        let (_, mut r) = Reader::open(&bytes, kind::SNAPSHOT).unwrap();
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_bool_vec().unwrap(), vec![true, false]);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        r.finish().unwrap();

        // A boolean byte outside {0, 1} is malformed, not a panic.
        let mut w = Writer::new();
        w.put_u64(1);
        w.payload.push(2);
        let bytes = w.seal(kind::SNAPSHOT, 0);
        let (_, mut r) = Reader::open(&bytes, kind::SNAPSHOT).unwrap();
        assert!(matches!(
            r.get_bool_vec(),
            Err(PersistError::Malformed { .. })
        ));

        // A hostile length prefix is a typed truncation, not an allocation.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.seal(kind::SNAPSHOT, 0);
        let (_, mut r) = Reader::open(&bytes, kind::SNAPSHOT).unwrap();
        assert!(r.get_u32_vec().is_err());
    }

    #[test]
    fn byte_blobs_round_trip_and_bound_their_length() {
        let mut w = Writer::new();
        w.put_bytes(b"inner artifact image");
        w.put_bytes(b"");
        w.put_u32(9);
        let bytes = w.seal(kind::QUERY_SET, 0);
        let (_, mut r) = Reader::open(&bytes, kind::QUERY_SET).unwrap();
        assert_eq!(r.get_bytes().unwrap(), b"inner artifact image");
        assert_eq!(r.get_bytes().unwrap(), Vec::<u8>::new());
        assert_eq!(r.get_u32().unwrap(), 9);
        r.finish().unwrap();

        // A hostile blob length is a typed truncation, not an allocation.
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.seal(kind::QUERY_SET, 0);
        let (_, mut r) = Reader::open(&bytes, kind::QUERY_SET).unwrap();
        assert!(matches!(r.get_bytes(), Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn checksum_separates_padding_from_content() {
        assert_ne!(checksum_bytes(&[0, 0, 0]), checksum_bytes(&[0, 0, 0, 0]));
        assert_ne!(checksum_bytes(b"abc"), checksum_bytes(b"abd"));
        assert_eq!(checksum_bytes(b"abc"), checksum_bytes(b"abc"));
    }
}
