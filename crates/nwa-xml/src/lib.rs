//! # nwa-xml
//!
//! The document-processing application layer of the reproduction of
//! "Marrying Words and Trees" (PODS 2007). The paper's motivating example is
//! SAX processing of XML: the document is already a linear stream of
//! open-tags, text and close-tags, i.e. a tagged word, and can therefore be
//! interpreted as a nested word *without any preprocessing* (§1).
//!
//! The crate provides
//!
//! * one SAX-style tokenizer from a lightweight XML-ish syntax to nested
//!   words ([`sax::ByteTokenizer`] over any `io::Read`, with
//!   [`sax::FrozenByteTokenizer`] its spelling against a read-only alphabet
//!   pinned by a compiled automaton), running on the bulk structural
//!   scanner of [`scan`] (chunked reads, per-chunk UTF-8 validation,
//!   whole-run classification); the text conveniences ([`sax::tokenize`],
//!   [`sax::parse_document`]) run the same lexer over `text.as_bytes()`,
//! * a synthetic document generator with controllable size and depth
//!   ([`generate`]),
//! * document queries (patterns in document order, tag containment, depth
//!   bounds) compiled to deterministic nested word automata and evaluated in
//!   a streaming fashion with memory proportional to the document depth
//!   ([`queries`]), including the bytes-in → verdict-out pipeline
//!   ([`queries::run_streaming_reader`]), which buffers scanned events into
//!   slices and feeds the compiled engines' bulk entry points, and its
//!   multi-query counterpart ([`queries::run_multi_streaming_reader`]): one
//!   tokenization pass deciding a whole compiled query set,
//! * a query-combinator layer ([`expr`]): zoo primitives composed with
//!   `and`/`or`/`not` and lowered to one deterministic NWA through the
//!   `automata-core` boolean constructions.

// Without `simd` the crate is unsafe-free, enforced at `forbid` strength.
// The feature's vector kernels need `core::arch` intrinsics, so that build
// steps down to `deny` and the scanner's kernel module carries the one
// scoped `allow(unsafe_code)` (bounds asserted, ISA presence proven by
// construction — see `scan`'s `simd` module).
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod expr;
pub mod generate;
pub mod queries;
pub mod sax;
pub mod scan;
