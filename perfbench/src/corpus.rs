//! Seeded inputs: the benchmark's own generator and serializer, so that a
//! corpus depends only on the seed and on this file, never on the library
//! code under test.
//!
//! Every document is well matched. Each one has a *shape*: a palette (the
//! run of element tags it uses) and a depth cap, and its random walk drifts
//! upwards, so a long document reaches its cap. Shapes vary between
//! documents, which gives every query both accepted and rejected documents.
//! A document's shape depends on its index alone, so every seed's corpus
//! has the same mix of shapes and the seed varies only the events: runs on
//! different seeds then measure comparable work.

use nested_words_suite::prelude::{Alphabet, Symbol, TaggedSymbol};

/// Element tags `t0 … t7`; they come first in the alphabet.
pub const TAGS: usize = 8;
/// Text tokens `w0 … w15`, after the tags.
pub const WORDS: usize = 16;
/// The deepest any generated document nests: the corpus depth bound.
pub const DEPTH_BOUND: usize = 32;
/// The depth caps documents cycle through.
const DEPTH_CAPS: [usize; 4] = [6, 12, 20, DEPTH_BOUND];

/// The benchmark alphabet: tags, then text tokens.
pub fn alphabet() -> Alphabet {
    let tags = (0..TAGS).map(|i| format!("t{i}"));
    let words = (0..WORDS).map(|i| format!("w{i}"));
    Alphabet::from_names(tags.chain(words))
}

/// The symbol of tag `t{i}`.
pub fn tag(i: usize) -> Symbol {
    assert!(i < TAGS, "tag index out of range");
    Symbol(i as u16)
}

/// SplitMix64: small, fast, and fixed here so corpora never change with a
/// library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`, mixed with a per-stream `salt` so the
    /// stream corpus and the service documents of one seed are independent.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated document as its tagged event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenDoc {
    /// The events, calls and returns matched.
    pub events: Vec<TaggedSymbol>,
    /// The deepest nesting the document reaches.
    pub depth: usize,
}

/// The shape of document `i`: its depth cap and its palette, a run of 3 to
/// 8 consecutive tags (cyclically). Shapes come from their own generator,
/// seeded by `i` alone; document 0 always takes [`DEPTH_BOUND`].
pub fn shape(i: usize) -> (usize, Vec<usize>) {
    let mut rng = Rng::new(i as u64, 0x5EED_5AA9E);
    let cap = DEPTH_CAPS[rng.below(DEPTH_CAPS.len())];
    let size = 3 + rng.below(TAGS - 2);
    let first = rng.below(TAGS);
    let cap = if i == 0 { DEPTH_BOUND } else { cap };
    (cap, (0..size).map(|j| (first + j) % TAGS).collect())
}

/// Generates document `index` of a corpus, about `events` events of
/// [`shape`]`(index)`, from `rng`.
pub fn generate(rng: &mut Rng, events: usize, index: usize) -> GenDoc {
    let (cap, palette) = shape(index);
    let mut out = Vec::with_capacity(events + cap);
    let mut stack: Vec<Symbol> = Vec::with_capacity(cap);
    let mut depth = 0;
    for i in 0..events {
        let remaining = events - i;
        if stack.len() >= remaining {
            break;
        }
        let roll = rng.unit();
        if roll < 0.3 && stack.len() < cap && remaining > stack.len() + 1 {
            let t = tag(palette[rng.below(palette.len())]);
            stack.push(t);
            depth = depth.max(stack.len());
            out.push(TaggedSymbol::Call(t));
        } else if roll < 0.5 && !stack.is_empty() {
            let t = stack.pop().expect("non-empty stack");
            out.push(TaggedSymbol::Return(t));
        } else {
            let w = Symbol((TAGS + rng.below(WORDS)) as u16);
            out.push(TaggedSymbol::Internal(w));
        }
    }
    while let Some(t) = stack.pop() {
        out.push(TaggedSymbol::Return(t));
    }
    GenDoc { events: out, depth }
}

/// Serializes events in the plain syntax: `<t>` / `</t>` tags and
/// space-separated text tokens, with no other markup.
pub fn to_xml(events: &[TaggedSymbol], alphabet: &Alphabet) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 4);
    for &e in events {
        push_event(&mut out, e, alphabet, b"");
    }
    out
}

/// Serializes events like [`to_xml`], decorated with markup that produces
/// no events: an XML prolog, a comment about every 64 events, and
/// attributes on about one element in four. It drives the scanner's scalar
/// fallback without changing the event stream.
pub fn to_decorated_xml(events: &[TaggedSymbol], alphabet: &Alphabet, rng: &mut Rng) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * 6);
    out.extend_from_slice(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    for &e in events {
        if rng.below(64) == 0 {
            out.extend_from_slice(b"<!-- generated: no events here -->");
        }
        let attrs = if matches!(e, TaggedSymbol::Call(_)) && rng.below(4) == 0 {
            format!(" id=\"n{}\" lang='en'", rng.below(10_000))
        } else {
            String::new()
        };
        push_event(&mut out, e, alphabet, attrs.as_bytes());
    }
    out
}

/// Appends one event; a start tag gets `attrs` after its name.
fn push_event(out: &mut Vec<u8>, e: TaggedSymbol, alphabet: &Alphabet, attrs: &[u8]) {
    let name = alphabet
        .name(e.symbol())
        .expect("generated symbols are in the alphabet")
        .as_bytes();
    match e {
        TaggedSymbol::Call(_) => {
            out.push(b'<');
            out.extend_from_slice(name);
            out.extend_from_slice(attrs);
            out.push(b'>');
        }
        TaggedSymbol::Return(_) => {
            out.extend_from_slice(b"</");
            out.extend_from_slice(name);
            out.push(b'>');
        }
        TaggedSymbol::Internal(_) => {
            if out.last().is_some_and(|&b| b != b'>' && b != b'\n') {
                out.push(b' ');
            }
            out.extend_from_slice(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_words_suite::nwa_xml::sax::FrozenByteTokenizer;
    use nested_words_suite::prelude::NestedWord;

    fn corpus(seed: u64) -> Vec<Vec<u8>> {
        let ab = alphabet();
        let mut rng = Rng::new(seed, 1);
        (0..8)
            .map(|i| to_xml(&generate(&mut rng, 5_000, i).events, &ab))
            .collect()
    }

    fn tokens(xml: &[u8], ab: &Alphabet) -> Vec<TaggedSymbol> {
        FrozenByteTokenizer::new(xml, ab)
            .collect::<Result<_, _>>()
            .expect("generated XML tokenizes")
    }

    #[test]
    fn corpus_is_byte_identical_for_a_seed() {
        assert_eq!(corpus(7), corpus(7));
        assert_ne!(corpus(7), corpus(8));
    }

    #[test]
    fn documents_are_well_matched_and_reach_their_caps() {
        let mut rng = Rng::new(3, 1);
        for i in 0..16 {
            let doc = generate(&mut rng, 20_000, i);
            let word = NestedWord::from_tagged(&doc.events);
            assert!(word.is_well_matched());
            assert_eq!(word.depth(), doc.depth);
            assert_eq!(doc.depth, shape(i).0);
        }
        assert_eq!(shape(0).0, DEPTH_BOUND);
    }

    #[test]
    fn plain_xml_tokenizes_back_to_the_events() {
        let ab = alphabet();
        let mut rng = Rng::new(11, 1);
        let doc = generate(&mut rng, 3_000, 0);
        assert_eq!(tokens(&to_xml(&doc.events, &ab), &ab), doc.events);
    }

    #[test]
    fn decoration_leaves_tokens_and_verdicts_unchanged() {
        use nested_words_suite::nwa_xml::queries::{run_streaming_reader, within_nwa};
        use nested_words_suite::query;
        let ab = alphabet();
        let q = query::compile(&within_nwa(tag(1), tag(6), ab.len()));
        let mut rng = Rng::new(5, 2);
        let mut verdicts = [0usize; 2];
        for i in 0..40 {
            let doc = generate(&mut rng, 2_000, i);
            let plain = to_xml(&doc.events, &ab);
            let decorated = to_decorated_xml(&doc.events, &ab, &mut rng);
            assert!(decorated.len() > plain.len());
            assert!(decorated.windows(4).any(|w| w == b"<!--"));
            assert_eq!(tokens(&decorated, &ab), doc.events);
            let a = run_streaming_reader(&q, plain.as_slice(), &ab).unwrap();
            let b = run_streaming_reader(&q, decorated.as_slice(), &ab).unwrap();
            assert_eq!(a, b);
            verdicts[usize::from(a.accepted)] += 1;
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }
}
