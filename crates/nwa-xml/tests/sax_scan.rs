//! Differential property suite for the bulk structural scanner.
//!
//! The contract under test: [`ByteTokenizer`] (the chunk-windowed bulk
//! scanner in `nwa_xml::scan`) is token-for-token, error-for-error and
//! alphabet-for-alphabet identical to the char-at-a-time reference lexer
//! in `oracle/` over the same bytes — under adversarial read sizes
//! (1..=7-byte chunks so every multi-byte UTF-8 scalar gets split across a
//! `read` seam), across the internal scan-window seam, for CDATA / comment
//! / PI / DOCTYPE edge cases, and for inputs truncated at every byte
//! offset. The reference shares no code with the library: it decodes
//! UTF-8, lexes and classifies tags on its own, and reaches the library
//! only through the public `ResolveName` policy.
//!
//! Every oracle property runs twice in-process: once with the portable SWAR
//! backend forced, and once on the runtime-detected wide backend (AVX2 on
//! `x86_64`, NEON on `aarch64`) when the host has one. A further property
//! pins the two sweeps against each other directly: SWAR and the wide
//! kernel must be token-for-token identical on documents shifted across
//! the kernels' 32/64-byte block seams and the 64 KiB scan window seam.
//! The scan backend is process-global, so every test that depends on it
//! holds one lock ([`backend_lock`]) while it switches and runs.

mod oracle;

use std::io;
use std::sync::{Mutex, MutexGuard, PoisonError};

use nested_words::rng::Prng;
use nested_words::{Alphabet, NestedWordError, TaggedSymbol};
use nwa_xml::sax::{ByteTokenizer, FrozenByteTokenizer, SaxError};
use nwa_xml::scan::{auto_scan_backend, force_scan_backend, scan_backend, ScanBackend};
use oracle::{EventLexer, Utf8Chars};

// --------------------------------------------------------------------------
// Harness
// --------------------------------------------------------------------------

/// Guards the process-global scan backend. The test harness runs tests on
/// parallel threads, so without it one test's `force_scan_backend` could
/// land in the middle of another test's "SWAR" run.
static BACKEND: Mutex<()> = Mutex::new(());

/// Takes the backend lock; a test that panicked while holding it leaves
/// nothing to repair, since every holder forces the backend it needs.
fn backend_lock() -> MutexGuard<'static, ()> {
    BACKEND.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The wide backend runtime detection picks on this host, or `None` when
/// there is none (a CPU without AVX2, or a target without a wide kernel).
/// Leaves the backend on auto-detection; callers hold [`backend_lock`].
fn detected_wide() -> Option<ScanBackend> {
    auto_scan_backend();
    Some(scan_backend()).filter(|&b| b != ScanBackend::Swar)
}

/// Runs `property` under the forced SWAR backend, then under the detected
/// wide backend when the host has one, holding [`backend_lock`] throughout.
/// The backend in use is printed first, so a failure names it.
fn under_each_backend(property: impl Fn()) {
    let _guard = backend_lock();
    let wide = detected_wide();
    for backend in std::iter::once(ScanBackend::Swar).chain(wide) {
        assert!(force_scan_backend(backend), "{backend:?} unavailable");
        eprintln!("scan backend: {backend:?}");
        property();
    }
    if wide.is_none() {
        eprintln!("no wide scan backend on this host: ran under SWAR only");
    }
    auto_scan_backend();
}

/// A reader that hands out at most `chunk` bytes per `read` call, forcing
/// every buffer-refill seam the bulk scanner has.
struct SplitReader<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl<'a> SplitReader<'a> {
    fn new(data: &'a [u8], chunk: usize) -> Self {
        SplitReader {
            data,
            pos: 0,
            chunk: chunk.max(1),
        }
    }
}

impl io::Read for SplitReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Events up to the first error, the error (as its `Debug` rendering,
/// since `SaxError` carries non-`PartialEq` payloads), and the names the
/// run interned, in intern order. Errors must match *exactly* — variant,
/// offset, and message.
type Outcome = (Vec<TaggedSymbol>, Option<String>, Vec<String>);

fn names(ab: &Alphabet) -> Vec<String> {
    ab.symbols()
        .map(|s| ab.name(s).expect("own symbol").to_owned())
        .collect()
}

fn drain<I: Iterator<Item = Result<TaggedSymbol, SaxError>>>(
    it: I,
) -> (Vec<TaggedSymbol>, Option<String>) {
    let mut events = Vec::new();
    for item in it {
        match item {
            Ok(t) => events.push(t),
            Err(e) => return (events, Some(format!("{e:?}"))),
        }
    }
    (events, None)
}

/// Reference outcome: the char-at-a-time `EventLexer` fed by the
/// incremental `Utf8Chars` decoder, over an identically-chunked reader so
/// byte offsets in errors line up with the subject's.
fn reference(data: &[u8], chunk: usize) -> Outcome {
    let mut ab = Alphabet::new();
    let (events, err) = drain(EventLexer::new(
        Utf8Chars::new(SplitReader::new(data, chunk)),
        &mut ab,
    ));
    (events, err, names(&ab))
}

/// Subject outcome via the `Iterator` entry point.
fn bulk_iter(data: &[u8], chunk: usize) -> Outcome {
    let mut ab = Alphabet::new();
    let (events, err) = drain(ByteTokenizer::new(SplitReader::new(data, chunk), &mut ab));
    (events, err, names(&ab))
}

/// Subject outcome via the slice-producing `fill` entry point, pulling in
/// deliberately awkward batch sizes so batching never hides a seam bug.
fn bulk_fill(data: &[u8], chunk: usize, batch: usize) -> Outcome {
    let mut ab = Alphabet::new();
    let mut tok = ByteTokenizer::new(SplitReader::new(data, chunk), &mut ab);
    let mut events = Vec::new();
    let err = loop {
        let before = events.len();
        match tok.fill(&mut events, before + batch.max(1)) {
            Ok(()) if events.len() == before => break None,
            Ok(()) => {}
            Err(e) => break Some(format!("{e:?}")),
        }
    };
    (events, err, names(&ab))
}

/// Asserts the bulk scanner matches the char-at-a-time reference on `data`
/// — events, error and alphabet — for every adversarial chunk size,
/// through both entry points.
fn assert_equivalent(data: &[u8], label: &str) {
    let expected = reference(data, data.len().max(1));
    for chunk in [1, 2, 3, 4, 5, 6, 7, data.len().max(1)] {
        // The reference decoder is also incremental; feeding it the same
        // chunking checks that neither side's seam handling shifts offsets.
        let ref_chunked = reference(data, chunk);
        assert_eq!(
            ref_chunked, expected,
            "{label}: reference unstable at chunk={chunk}"
        );
        let got = bulk_iter(data, chunk);
        assert_eq!(
            got, expected,
            "{label}: iterator path diverged at chunk={chunk}"
        );
        for batch in [1, 3, 1024] {
            let got = bulk_fill(data, chunk, batch);
            assert_eq!(
                got, expected,
                "{label}: fill path diverged at chunk={chunk} batch={batch}"
            );
        }
    }
}

// --------------------------------------------------------------------------
// Random document generator
// --------------------------------------------------------------------------

const NAMES: &[&str] = &[
    "a",
    "bb",
    "item",
    "ns-long.element_name",
    "x1",
    "é",
    "日本語",
    "𝄞note",
];

const WORDS: &[&str] = &[
    "w",
    "word",
    "héllo",
    "汉字文本",
    "𝄞𝄢",
    "mixed-é-ascii",
    "1234567890abcdef",
];

/// Whitespace separators, including multi-byte Unicode whitespace (NBSP,
/// em-space, ideographic space) that the ≥0x80 slow path must classify.
const WS: &[&str] = &[
    " ", "\n", "\t", "\r\n", "\u{a0}", "\u{2003}", "\u{3000}", "  \n ",
];

fn pick<'a>(rng: &mut Prng, set: &[&'a str]) -> &'a str {
    set[rng.below(set.len())]
}

fn push_text(rng: &mut Prng, out: &mut String) {
    let words = 1 + rng.below(4);
    for _ in 0..words {
        out.push_str(pick(rng, WS));
        out.push_str(pick(rng, WORDS));
    }
    out.push_str(pick(rng, WS));
}

fn push_attrs(rng: &mut Prng, out: &mut String) {
    for i in 0..rng.below(3) {
        // Attribute values deliberately contain `>`, `<`, `/` and the
        // opposite quote — the characters that force the scanner off its
        // simple-tag fast path and into quote-aware classification.
        let val = pick(rng, &["v", "a>b", "x<y", "end/", "it's", "q\"q", "né"]);
        if val.contains('"') {
            out.push_str(&format!(" k{i}='{val}'"));
        } else if rng.bool(0.5) {
            out.push_str(&format!(" k{i}=\"{val}\""));
        } else if !val.contains('\'') {
            out.push_str(&format!(" k{i}='{val}'"));
        } else {
            out.push_str(&format!(" k{i}=\"{val}\""));
        }
    }
}

fn push_directive(rng: &mut Prng, out: &mut String) {
    match rng.below(4) {
        0 => out.push_str(pick(
            rng,
            &[
                "<!-- plain -->",
                "<!---->",
                "<!-- a - b -- c --->",
                "<!-- <not><a>tag</a> '\" -->",
            ],
        )),
        1 => out.push_str(pick(
            rng,
            &["<?pi?>", "<?php echo '>' ?>", "<?x ]]> \"q\" ?>"],
        )),
        2 => {
            // CDATA content is character data: tags, `>`, near-miss `]]`
            // runs and Unicode whitespace inside must lex as text tokens.
            out.push_str(pick(
                rng,
                &[
                    "<![CDATA[raw <b>txt</b> & more]]>",
                    "<![CDATA[]]>",
                    "<![CDATA[ ]] ]>]]]>",
                    "<![CDATA[é\u{a0}𝄞 two\u{3000}tokens]]>",
                ],
            ));
        }
        _ => out.push_str(pick(
            rng,
            &[
                "<!DOCTYPE d>",
                "<!DOCTYPE doc [ <!ENTITY gt \">\"> <!ELEMENT a (b)> ]>",
                "<!DOCTYPE d SYSTEM 'f>.dtd'>",
            ],
        )),
    }
}

fn push_element(rng: &mut Prng, out: &mut String, depth: usize) {
    let name = pick(rng, NAMES);
    if depth > 0 && rng.bool(0.15) {
        out.push('<');
        out.push_str(name);
        push_attrs(rng, out);
        out.push_str(if rng.bool(0.5) { "/>" } else { " />" });
        return;
    }
    out.push('<');
    out.push_str(name);
    push_attrs(rng, out);
    if rng.bool(0.2) {
        out.push(' ');
    }
    out.push('>');
    if depth < 4 {
        let kids = if depth == 0 {
            8 + rng.below(8)
        } else {
            rng.below(4)
        };
        for _ in 0..kids {
            match rng.below(5) {
                0 | 1 => push_text(rng, out),
                2 => push_element(rng, out, depth + 1),
                3 => push_directive(rng, out),
                // The lexer does not check tag matching — a stray close
                // tag is a legal Return event for it.
                _ => out.push_str(pick(rng, &["</stray>", "</日本語>", "</ spaced>"])),
            }
        }
    }
    out.push_str("</");
    out.push_str(name);
    if rng.bool(0.1) {
        out.push_str(" \t");
    }
    out.push('>');
}

fn generate(seed: u64) -> String {
    let mut rng = Prng::new(seed);
    let mut out = String::new();
    if rng.bool(0.3) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    if rng.bool(0.3) {
        push_directive(&mut rng, &mut out);
    }
    push_element(&mut rng, &mut out, 0);
    if rng.bool(0.2) {
        push_text(&mut rng, &mut out);
    }
    out
}

// --------------------------------------------------------------------------
// Properties
// --------------------------------------------------------------------------

#[test]
fn random_documents_match_char_lexer() {
    under_each_backend(|| {
        let mut total_events = 0usize;
        for seed in 0..48 {
            let doc = generate(seed);
            total_events += reference(doc.as_bytes(), doc.len().max(1)).0.len();
            assert_equivalent(doc.as_bytes(), &format!("seed {seed}"));
        }
        // Guard against the generator degenerating into trivial documents.
        assert!(
            total_events > 1_000,
            "generator too weak: {total_events} events"
        );
    });
}

#[test]
fn edge_documents_match_char_lexer() {
    under_each_backend(|| {
        let cases: &[&[u8]] = &[
            b"",
            b" \t\n ",
            "\u{a0}\u{2003}".as_bytes(),
            b"word",
            b"<a></a>",
            b"<a/>",
            b"< a ></ a >",
            b"<a b=\"c\">t</a>",
            // lexical errors: empty names, unterminated constructs
            b"<>",
            b"</>",
            b"< >",
            b"<a><",
            b"<a>text",
            b"<a",
            b"</a",
            b"<a b=\"unclosed>",
            b"<!-- never closed",
            b"<!-- -- >still open",
            b"<![CDATA[no end]]",
            b"<?pi no end?",
            b"<!DOCTYPE d [ <!ENTITY e \">\"> ",
            b"<!DOCTYPE d [ unclosed subset >",
            // quote/bracket interplay
            b"<a x='>'>i</a>",
            b"<a x=\"'\" y='\"'>.</a>",
            b"<a x='a/>'></a>",
            // self-closing variants
            b"<a / >",
            b"<a  />",
            // directives adjacent to everything
            b"<!--c--><a><?p?><![CDATA[x]]></a><!--t-->",
            b"<![CDATA[]]]><a/>",
            b"<![CDATA[]] >]]>",
            // control characters inside text are token characters
            b"<a>\x01\x02</a>",
            // non-ASCII everywhere: names, text, attribute values, whitespace
            "<é \u{a0}>\u{a0}𝄞\u{3000}汉</é>".as_bytes(),
            "<𝄞note>x</𝄞note>".as_bytes(),
            // invalid UTF-8: lone continuation, overlong, bad leading byte,
            // truncated scalar mid-stream and at EOF — typed errors with the
            // exact byte offset must agree with the incremental decoder.
            b"<a>\x80</a>",
            b"<a>\xc0\xaf</a>",
            b"<a>\xff</a>",
            b"<a>\xe2\x82</a>",
            b"<a>\xe2\x82",
            b"<a>\xf0\x9d\x84",
            b"ok \xf0\x9d\x84\x9e bad \xed\xa0\x80 tail",
            b"<t\xc3>",
            b"<t a='\xf4\x90\x80\x80'>",
        ];
        for (i, case) in cases.iter().enumerate() {
            assert_equivalent(case, &format!("edge case {i}"));
        }
    });
}

#[test]
fn truncation_at_every_byte_offset() {
    under_each_backend(|| {
        let doc = "<?xml v?><!DOCTYPE d [<!E \">\">]><a k=\"q>'\">é\u{a0}𝄞 w</a>\
                   <!--c--><b><![CDATA[x ]] y]]></b><c/>";
        let bytes = doc.as_bytes();
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            let expected = reference(prefix, prefix.len().max(1));
            for chunk in [3, prefix.len().max(1)] {
                let got = bulk_iter(prefix, chunk);
                assert_eq!(got, expected, "truncation at {cut}, chunk={chunk}");
            }
        }
    });
}

/// A multi-byte scalar straddling the bulk scanner's *internal* window
/// seam (`SCAN_CHUNK`), not just a `read` seam: the carried-over partial
/// sequence must complete — or fail — exactly like the incremental decoder.
#[test]
fn multibyte_scalar_across_scan_window_seam() {
    under_each_backend(|| {
        for shift in 0..8usize {
            let mut doc = String::from("<pad>");
            let fill = nwa_xml::scan::SCAN_CHUNK - doc.len() - shift;
            doc.push_str(&"a".repeat(fill));
            doc.push_str(" \u{1d11e}\u{a0}é tail</pad>");
            assert_eq!(
                bulk_iter(doc.as_bytes(), doc.len()),
                reference(doc.as_bytes(), doc.len()),
                "window seam shift {shift}"
            );
        }
        // Same straddle, but the document ends mid-scalar: truncated-UTF-8
        // error at the same offset the incremental decoder reports.
        let mut doc = Vec::from(&b"<pad>"[..]);
        doc.resize(nwa_xml::scan::SCAN_CHUNK - 2, b'a');
        doc.extend_from_slice(&[0xf0, 0x9d, 0x84]);
        assert_eq!(bulk_iter(&doc, doc.len()), reference(&doc, doc.len()));
    });
}

/// The frozen (read-only alphabet) front end yields the identical stream
/// once the alphabet is pre-populated, and a typed `UnknownSymbol` against
/// an alphabet that lacks a name.
#[test]
fn frozen_tokenizer_matches_mutable() {
    under_each_backend(|| {
        for seed in 0..16 {
            let doc = generate(seed);
            let mut ab = Alphabet::new();
            let expected = drain(ByteTokenizer::new(doc.as_bytes(), &mut ab));
            for chunk in [1, 4, doc.len().max(1)] {
                let got = drain(FrozenByteTokenizer::new(
                    SplitReader::new(doc.as_bytes(), chunk),
                    &ab,
                ));
                assert_eq!(got, expected, "frozen diverged: seed {seed}, chunk={chunk}");
            }
        }

        let ab = Alphabet::from_names(["doc"]);
        let err = drain(FrozenByteTokenizer::new(
            &b"<doc><intruder/></doc>"[..],
            &ab,
        ));
        assert_eq!(err.0.len(), 1, "call on <doc> precedes the failure");
        let msg = err.1.expect("unknown name must fail");
        let expected_err = format!(
            "{:?}",
            SaxError::Syntax(NestedWordError::UnknownSymbol {
                name: "intruder".into()
            })
        );
        assert_eq!(msg, expected_err);
    });
}

// --------------------------------------------------------------------------
// Wide (SIMD) backend vs SWAR
// --------------------------------------------------------------------------

/// Iteration budget scaled by `NWA_PROP_ITERS`, mirroring the workspace
/// property suites: the weekly deep CI job sets it to 10 to sweep ten
/// times as many seeds through the same property.
fn prop_iters(base: usize) -> usize {
    std::env::var("NWA_PROP_ITERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&m| m > 0)
        .map_or(base, |m| base * m)
}

/// Tokenizes `doc` under both the forced SWAR backend and the forced wide
/// backend, through both entry points, and asserts the outcomes (events
/// *and* errors) are identical. Callers hold [`backend_lock`].
fn assert_backends_agree(doc: &[u8], wide: ScanBackend, label: &str) {
    assert!(force_scan_backend(ScanBackend::Swar));
    let swar_iter = bulk_iter(doc, doc.len().max(1));
    let swar_fill = bulk_fill(doc, 7, 3);
    assert!(force_scan_backend(wide), "wide backend vanished mid-test");
    let wide_iter = bulk_iter(doc, doc.len().max(1));
    let wide_fill = bulk_fill(doc, 7, 3);
    assert_eq!(wide_iter, swar_iter, "{label}: iterator path diverged");
    assert_eq!(wide_fill, swar_fill, "{label}: fill path diverged");
}

/// The wide backend must be token-for-token and
/// error-for-error identical to the SWAR sweeps on the same bytes. The
/// adversarial inputs are Prng documents whose token boundaries straddle
/// the kernels' seams: leading whitespace of every length in `0..64`
/// slides each document across the 64-byte classification blocks (and the
/// 32-byte halves the AVX2 kernel loads and the 16-byte NEON lanes), and a
/// text pad pushes a document across the 64 KiB scan-window seam at
/// byte-granular shifts. The test holds [`backend_lock`] while it flips
/// the process-global backend.
#[test]
fn simd_matches_swar_token_for_token() {
    use nwa_xml::scan::SCAN_CHUNK;

    let _guard = backend_lock();
    let Some(wide) = detected_wide() else {
        // No wide backend on this host (e.g. an x86 machine without AVX2,
        // or a target without a wide kernel): nothing to differentiate
        // against. The suite still ran SWAR through every property above.
        eprintln!("skipping: no wide scan backend on this host");
        return;
    };

    // Block seams: every alignment in 0..64 of every document.
    for seed in 0..prop_iters(6) as u64 {
        let doc = generate(5000 + seed);
        for shift in 0..64usize {
            let padded = format!("{}{}", " ".repeat(shift), doc);
            assert_backends_agree(
                padded.as_bytes(),
                wide,
                &format!("seed {seed} shift {shift}"),
            );
        }
    }

    // Window seam: the document body begins just before the 64 KiB scan
    // window boundary, so its tokens cross the seam at shifting offsets
    // (the pad is a single long text token plus alignment whitespace).
    for seed in 0..prop_iters(2) as u64 {
        let doc = generate(9000 + seed);
        for shift in 0..8usize {
            let mut padded = String::from("<pad>");
            padded.push_str(&"a".repeat(SCAN_CHUNK - padded.len() - 40 - shift));
            padded.push(' ');
            padded.push_str(&doc);
            padded.push_str("</pad>");
            assert_backends_agree(
                padded.as_bytes(),
                wide,
                &format!("window seed {seed} shift {shift}"),
            );
        }
    }
    auto_scan_backend();
}

// --------------------------------------------------------------------------
// Seams of the wide fill's two stages
// --------------------------------------------------------------------------

/// Bytes per stage-1 batch of the wide fill (64 blocks of 64 bytes).
const BATCH: usize = 4096;

/// Plain tokens around copies of `case`, so that it sits where the wide
/// fill lexes off the tapes (a batch stops short of the last bytes of the
/// window, which always go to the scalar step) and meets the name memo
/// warm: stage 2 only emits a name the memo already holds, so a wrong tape
/// token shows only once its name was resolved before. The last copy comes
/// more than a batch later, where a fresh batch's branch-free pass reaches
/// it before any failure sends the batch token by token.
fn embedded(case: &[u8]) -> Vec<u8> {
    let filler: &[u8] = b"<doc> w0 <t1>w1 w2</t1> <t2>w3</t2> w4 ";
    let mut doc = filler.to_vec();
    for _ in 0..2 {
        doc.extend_from_slice(case);
        doc.push(b' ');
    }
    while doc.len() < BATCH + 200 {
        doc.extend_from_slice(filler);
    }
    doc.extend_from_slice(case);
    doc.extend_from_slice(b" w5 <t3>w6</t3> w7 w8 <t4>w9</t4> w10 w11 w12 </doc>");
    doc
}

/// Every offset of a block and of a batch edge: a short run of tokens is
/// slid across the first 64-byte block boundary and across the end of the
/// first 4 KiB stage-1 batch, one byte at a time. The batch-edge documents
/// carry a tail long enough that the first batch is a whole one.
#[test]
fn tokens_straddle_every_block_and_batch_offset() {
    let run = b"<abc>defg</abc> hij<k>lm</k>";
    let tail = " w <t>x</t>".repeat(40);
    under_each_backend(|| {
        for shift in 0..64usize {
            let mut doc = Vec::from(&b"<r>"[..]);
            doc.resize(3 + shift, b' ');
            doc.extend_from_slice(run);
            doc.extend_from_slice(tail.as_bytes());
            doc.extend_from_slice(b"</r>");
            assert_equivalent(&doc, &format!("block shift {shift}"));
        }
        for shift in 0..64usize {
            let mut doc = Vec::from(&b"<r>"[..]);
            doc.resize(BATCH - 32 + shift, b' ');
            doc.extend_from_slice(run);
            doc.extend_from_slice(tail.as_bytes());
            doc.extend_from_slice(b"</r>");
            let expected = reference(&doc, doc.len());
            for batch in [3, 1024] {
                assert_eq!(
                    bulk_fill(&doc, doc.len(), batch),
                    expected,
                    "batch edge shift {shift}, fill batch {batch}"
                );
            }
            assert_eq!(
                bulk_iter(&doc, doc.len()),
                expected,
                "batch edge shift {shift}"
            );
        }
        // A whole batch of whitespace, then tokens.
        let mut doc = Vec::from(&b"<r>"[..]);
        doc.resize(BATCH + 500, b' ');
        doc.extend_from_slice(run);
        doc.extend_from_slice(tail.as_bytes());
        doc.extend_from_slice(b"</r>");
        assert_equivalent(&doc, "whitespace-only batch");
    });
}

/// The documents where the masks' token boundaries and the lexer's part
/// ways — text holding `>`, a tag holding `<`, empty names, attributes —
/// plus text straight after `>`, names of 16 and 17 bytes, and control
/// characters and NBSP inside text: each alone and embedded deep enough to
/// reach the tapes.
#[test]
fn tape_edge_documents_match_char_lexer() {
    let cases: &[&[u8]] = &[
        b"a>b",
        b"<a<b>",
        b"<>",
        b"</>",
        b"<a b>",
        b"<a>text</a>",
        b"<a>>x</a>",
        b"a> b",
        b"<abcdefghijklmnop>abcdefghijklmnop</abcdefghijklmnop>",
        b"<abcdefghijklmnopq>abcdefghijklmnopq</abcdefghijklmnopq>",
        b"<a>ab\x01cd\x7f e\x1f</a>",
        b"<a\x01b>x</a\x01b>",
        "<a>ab\u{a0}cd \u{a0}ef\u{a0} gh</a>".as_bytes(),
        "<a>x\u{a0}<b>y</b></a>".as_bytes(),
        b"<a/>",
        b"<a />",
        b"<!-- c --><a>x</a>",
        b"<?pi x?>y",
        b"<a x='1'>t</a>",
        b"<a \"q\">",
        b"</a b>",
        // The name first as text, so the memo holds it when the tricky
        // form arrives: each check of stage 2 is what stops these.
        b"a> a>b",
        b"a <ab c>",
        b"a <ab<c>",
        b"a/ <a/>",
        b"!x <!x> y",
        b"?x <?x?> y",
        b"\"a <\"a> b\" c>",
        b"x\"y <x\"y> z\" w>",
        b"b <a>b<",
    ];
    under_each_backend(|| {
        for (i, case) in cases.iter().enumerate() {
            assert_equivalent(case, &format!("case {i} alone"));
            assert_equivalent(&embedded(case), &format!("case {i} embedded"));
        }
    });
}

/// `fill` budgets of every size from 1 to past a batch's token count stop
/// mid-batch and resume where they stopped.
#[test]
fn fill_budgets_stop_mid_batch() {
    let doc = generate_plain(3_000, 21);
    under_each_backend(|| {
        let expected = reference(doc.as_bytes(), doc.len());
        for batch in (1..=64).chain([100, 999, 1000, 1500, 4096]) {
            assert_eq!(
                bulk_fill(doc.as_bytes(), doc.len(), batch),
                expected,
                "fill batch {batch}"
            );
        }
    });
}

/// A plain generated document: `<tN>` / `</tN>` tags and `wN` words.
fn generate_plain(events: usize, seed: u64) -> String {
    let (ab, doc) = nwa_xml::generate::generate_document(
        nwa_xml::generate::DocumentConfig {
            events,
            max_depth: 16,
            ..Default::default()
        },
        seed,
    );
    nwa_xml::sax::to_xml(&doc, &ab)
}

/// A name missing from a frozen alphabet in the middle of a batch: the
/// events before it come out in order and the error is the same as on the
/// SWAR sweeps, through both entry points.
#[test]
fn unknown_name_mid_batch_keeps_order_and_error() {
    let (ab, word) = nwa_xml::generate::generate_document(
        nwa_xml::generate::DocumentConfig {
            events: 2_000,
            max_depth: 16,
            ..Default::default()
        },
        5,
    );
    let plain = nwa_xml::sax::to_xml(&word, &ab);
    let cut = plain.len() / 2;
    let cut = cut + plain[cut..].find('<').expect("a tag after the middle");
    let doc = format!("{} intruder {}", &plain[..cut], &plain[cut..]);
    let frozen = |chunk: usize, batch: Option<usize>| {
        let mut tok = FrozenByteTokenizer::new(SplitReader::new(doc.as_bytes(), chunk), &ab);
        match batch {
            None => drain(tok),
            Some(batch) => {
                let mut events = Vec::new();
                let err = loop {
                    let before = events.len();
                    match tok.fill(&mut events, before + batch) {
                        Ok(()) if events.len() == before => break None,
                        Ok(()) => {}
                        Err(e) => break Some(format!("{e:?}")),
                    }
                };
                (events, err)
            }
        }
    };
    let expected_err = format!(
        "{:?}",
        SaxError::Syntax(NestedWordError::UnknownSymbol {
            name: "intruder".into()
        })
    );
    let before: Vec<TaggedSymbol> = FrozenByteTokenizer::new(&plain.as_bytes()[..cut], &ab)
        .collect::<Result<_, _>>()
        .expect("the prefix is known");
    under_each_backend(|| {
        for (chunk, batch) in [
            (doc.len(), None),
            (7, None),
            (doc.len(), Some(3)),
            (doc.len(), Some(4096)),
        ] {
            let (events, err) = frozen(chunk, batch);
            assert_eq!(
                err.as_deref(),
                Some(expected_err.as_str()),
                "chunk {chunk} batch {batch:?}"
            );
            assert_eq!(events, before, "chunk {chunk} batch {batch:?}");
        }
    });
}

// --------------------------------------------------------------------------
// Scanner counters
// --------------------------------------------------------------------------

/// Runs `doc` through a frozen tokenizer in `EVENT_SLICE` fills and returns
/// its counters, checking them against the events actually produced.
fn counted(doc: &[u8], ab: &Alphabet) -> nwa_xml::scan::ScanStats {
    let mut tok = FrozenByteTokenizer::new(doc, ab);
    let mut buf = Vec::new();
    let mut events = 0u64;
    loop {
        buf.clear();
        tok.fill(&mut buf, nwa_xml::queries::EVENT_SLICE)
            .expect("generated XML tokenizes");
        if buf.is_empty() {
            break;
        }
        events += buf.len() as u64;
    }
    let stats = tok.stats();
    assert_eq!(stats.events, events, "events counter");
    assert_eq!(stats.bytes, doc.len() as u64, "bytes counter");
    stats
}

/// `ByteTokenizer::stats` against ground truth: every event is a scalar
/// one on forced SWAR; the wide backend lexes a plain document off the
/// tapes but for a few tokens per window; on a decorated one, every
/// attributed tag and the token after every comment take a scalar path.
#[test]
fn scan_counters_match_ground_truth() {
    use nwa_xml::scan::SCAN_CHUNK;

    let (ab, word) = nwa_xml::generate::generate_document(
        nwa_xml::generate::DocumentConfig {
            events: 100_000,
            max_depth: 32,
            ..Default::default()
        },
        7,
    );
    let plain = nwa_xml::sax::to_xml(&word, &ab);
    // Decorated: attributes on every fifth open tag, and a comment before
    // every 50th text token (so a plain text token follows each one).
    let mut decorated = String::new();
    let (mut attributed, mut comments) = (0u64, 0u64);
    for (i, t) in word.to_tagged().into_iter().enumerate() {
        let name = ab.name(t.symbol()).expect("own symbol");
        match t {
            TaggedSymbol::Call(_) if i % 5 == 0 => {
                attributed += 1;
                decorated.push_str(&format!("<{name} id=\"n{i}\" lang='en'>"));
            }
            TaggedSymbol::Call(_) => decorated.push_str(&format!("<{name}>")),
            TaggedSymbol::Return(_) => decorated.push_str(&format!("</{name}>")),
            TaggedSymbol::Internal(_) => {
                if i % 50 == 0 {
                    comments += 1;
                    decorated.push_str("<!-- no events here -->");
                }
                decorated.push(' ');
                decorated.push_str(name);
            }
        }
    }
    let events = word.len() as u64;

    let _guard = backend_lock();
    assert!(force_scan_backend(ScanBackend::Swar));
    for doc in [&plain, &decorated] {
        let stats = counted(doc.as_bytes(), &ab);
        assert_eq!(stats.backend, ScanBackend::Swar);
        assert_eq!(stats.events, events);
        assert_eq!(
            stats.scalar_tokens, stats.events,
            "SWAR lexes every token scalar"
        );
    }
    if let Some(wide) = detected_wide() {
        assert!(force_scan_backend(wide));
        let stats = counted(plain.as_bytes(), &ab);
        assert_eq!(stats.backend, wide);
        let windows = plain.len().div_ceil(SCAN_CHUNK) as u64;
        assert!(
            stats.scalar_tokens <= 16 * windows,
            "plain document: {} scalar tokens over {windows} windows",
            stats.scalar_tokens
        );
        let stats = counted(decorated.as_bytes(), &ab);
        assert!(
            stats.scalar_tokens >= attributed + comments,
            "decorated document: {} scalar tokens for {attributed} attributed tags and {comments} comments",
            stats.scalar_tokens
        );
        assert!(
            stats.scalar_tokens < stats.events / 2,
            "the tapes still lex most tokens"
        );
    }
    auto_scan_backend();
}
