//! The reference lexer of the differential suite: a char-at-a-time SAX
//! lexer over an incremental UTF-8 decoder, written for obviousness rather
//! than speed.
//!
//! It shares no code with the library's bulk scanner. It decodes its own
//! UTF-8, lexes one `char` at a time, classifies tag bodies and CDATA
//! sections itself, and reaches the library only through the public
//! [`ResolveName`] policy and the public [`SaxError`] type. Every lexical
//! rule the scanner implements with word and vector sweeps is spelled here
//! as a plain loop, so agreement between the two is evidence rather than a
//! consequence of shared code.

use std::collections::VecDeque;
use std::io;

use nested_words::{NestedWordError, TaggedSymbol};
use nwa_xml::sax::{ResolveName, SaxError};

/// A lexical error at byte offset `offset`.
fn parse_error(offset: usize, message: &str) -> SaxError {
    SaxError::Syntax(NestedWordError::Parse {
        offset,
        message: message.into(),
    })
}

// --------------------------------------------------------------------------
// Incremental UTF-8 decoding over io::Read
// --------------------------------------------------------------------------

/// An iterator of `Result<char, SaxError>` decoding UTF-8 from any
/// [`io::Read`] one byte at a time.
///
/// A multi-byte sequence split across `read` calls is reassembled
/// transparently. Validation follows the WHATWG table: overlong encodings,
/// surrogates and scalars above `U+10FFFF` are [`SaxError::InvalidUtf8`];
/// EOF inside a sequence is [`SaxError::TruncatedUtf8`]. After any error
/// the iterator is fused.
pub struct Utf8Chars<R: io::Read> {
    reader: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Absolute byte offset of the next unread byte.
    offset: usize,
    failed: bool,
}

impl<R: io::Read> Utf8Chars<R> {
    pub fn new(reader: R) -> Self {
        Utf8Chars {
            reader,
            buf: vec![0; 8 * 1024],
            start: 0,
            end: 0,
            offset: 0,
            failed: false,
        }
    }

    /// Pulls one byte, refilling the buffer as needed. `Ok(None)` is EOF.
    fn next_byte(&mut self) -> Result<Option<u8>, SaxError> {
        while self.start == self.end {
            match self.reader.read(&mut self.buf) {
                Ok(0) => return Ok(None),
                Ok(n) => {
                    self.start = 0;
                    self.end = n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(SaxError::Io(e)),
            }
        }
        let b = self.buf[self.start];
        self.start += 1;
        self.offset += 1;
        Ok(Some(b))
    }

    fn decode_next(&mut self) -> Result<Option<char>, SaxError> {
        let start = self.offset;
        let Some(b0) = self.next_byte()? else {
            return Ok(None);
        };
        if b0 < 0x80 {
            return Ok(Some(b0 as char));
        }
        // (sequence length, allowed range of the second byte).
        let (len, min_b1, max_b1) = match b0 {
            0xC2..=0xDF => (2, 0x80, 0xBF),
            0xE0 => (3, 0xA0, 0xBF),
            0xE1..=0xEC | 0xEE..=0xEF => (3, 0x80, 0xBF),
            0xED => (3, 0x80, 0x9F),
            0xF0 => (4, 0x90, 0xBF),
            0xF1..=0xF3 => (4, 0x80, 0xBF),
            0xF4 => (4, 0x80, 0x8F),
            _ => return Err(SaxError::InvalidUtf8 { offset: start }),
        };
        let mut cp = u32::from(b0) & (0x7F >> len);
        for i in 1..len {
            let Some(b) = self.next_byte()? else {
                return Err(SaxError::TruncatedUtf8 { offset: start });
            };
            let (lo, hi) = if i == 1 {
                (min_b1, max_b1)
            } else {
                (0x80, 0xBF)
            };
            if b < lo || b > hi {
                return Err(SaxError::InvalidUtf8 { offset: start });
            }
            cp = (cp << 6) | (u32::from(b) & 0x3F);
        }
        char::from_u32(cp)
            .map(Some)
            .ok_or(SaxError::InvalidUtf8 { offset: start })
    }
}

impl<R: io::Read> Iterator for Utf8Chars<R> {
    type Item = Result<char, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.decode_next() {
            Ok(Some(c)) => Some(Ok(c)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

// --------------------------------------------------------------------------
// The char-at-a-time lexer
// --------------------------------------------------------------------------

/// A peekable, offset-tracking adapter over a fallible char source.
struct Source<S> {
    iter: S,
    peeked: Option<char>,
    /// Byte offset of the next unread character (for error reporting).
    offset: usize,
}

impl<S: Iterator<Item = Result<char, SaxError>>> Source<S> {
    /// Peeks the next character. A source error is consumed and returned
    /// (the lexer fuses after any error, so nothing is lost).
    fn peek(&mut self) -> Result<Option<char>, SaxError> {
        if self.peeked.is_none() {
            self.peeked = self.iter.next().transpose()?;
        }
        Ok(self.peeked)
    }

    /// Consumes the next character, advancing the byte offset.
    fn bump(&mut self) -> Result<Option<char>, SaxError> {
        let c = match self.peeked.take() {
            Some(c) => Some(c),
            None => self.iter.next().transpose()?,
        };
        if let Some(c) = c {
            self.offset += c.len_utf8();
        }
        Ok(c)
    }
}

/// The reference SAX lexer: an iterator over `Result<TaggedSymbol,
/// SaxError>` reading one `char` per step from a fallible char source and
/// resolving names through the policy `N`. Errors are yielded once, after
/// which the iterator is fused.
pub struct EventLexer<S, N> {
    source: Source<S>,
    names: N,
    /// Events lexed ahead: the return of a self-closing tag, or the text
    /// tokens of a CDATA section.
    queued: VecDeque<TaggedSymbol>,
    failed: bool,
}

impl<S: Iterator<Item = Result<char, SaxError>>, N: ResolveName> EventLexer<S, N> {
    pub fn new(source: S, names: N) -> Self {
        EventLexer {
            source: Source {
                iter: source,
                peeked: None,
                offset: 0,
            },
            names,
            queued: VecDeque::new(),
            failed: false,
        }
    }

    /// Classifies one tag body (the characters between `<` and `>`). A
    /// leading `/` makes a close tag; otherwise a `/` ending the
    /// right-trimmed body makes the tag self-closing, which queues its
    /// return. Either way the name is the first whitespace-separated word
    /// of what remains, and a body without one is `empty tag name`.
    fn classify_tag(&mut self, body: &str, tag_start: usize) -> Result<TaggedSymbol, SaxError> {
        let (inner, close, self_closing) = if let Some(rest) = body.strip_prefix('/') {
            (rest, true, false)
        } else if let Some(rest) = body.trim_end().strip_suffix('/') {
            (rest, false, true)
        } else {
            (body, false, false)
        };
        let Some(name) = inner.split_whitespace().next() else {
            return Err(parse_error(tag_start, "empty tag name"));
        };
        let sym = self.names.resolve(name)?;
        if close {
            return Ok(TaggedSymbol::Return(sym));
        }
        if self_closing {
            self.queued.push_back(TaggedSymbol::Return(sym));
        }
        Ok(TaggedSymbol::Call(sym))
    }

    /// Skips or lexes one directive, with the cursor just past `<` and on
    /// `!` or `?`. Comments run to `-->`, processing instructions to `?>`,
    /// CDATA sections to `]]>`, and other declarations to the first `>`
    /// outside a `[ … ]` internal subset. A `<!-` without a second dash
    /// falls through to the bracket scan, and a `<![` that does not spell
    /// `CDATA[` leaves its `[` as one open bracket level.
    fn lex_directive(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let unterminated = || parse_error(tag_start, "unterminated directive");
        let lead = self.source.bump()?.expect("caller peeked '!' or '?'");
        if lead == '!' && self.source.peek()? == Some('-') {
            self.source.bump()?;
            if self.source.peek()? == Some('-') {
                self.source.bump()?;
                let mut dashes = 0usize;
                loop {
                    match self.source.bump()?.ok_or_else(unterminated)? {
                        '-' => dashes += 1,
                        '>' if dashes >= 2 => return Ok(()),
                        _ => dashes = 0,
                    }
                }
            }
        }
        if lead == '?' {
            let mut prev_question = false;
            loop {
                match self.source.bump()?.ok_or_else(unterminated)? {
                    '>' if prev_question => return Ok(()),
                    c => prev_question = c == '?',
                }
            }
        }
        let mut depth = 0usize;
        if lead == '!' && self.source.peek()? == Some('[') {
            self.source.bump()?;
            let mut matched = 0usize;
            for expected in "CDATA[".chars() {
                if self.source.peek()? != Some(expected) {
                    break;
                }
                self.source.bump()?;
                matched += 1;
            }
            if matched == "CDATA[".len() {
                return self.lex_cdata(tag_start);
            }
            depth = 1;
        }
        loop {
            match self.source.bump()?.ok_or_else(unterminated)? {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                '>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
    }

    /// Lexes a CDATA section, with the cursor just past `<![CDATA[`: reads
    /// to the `]]>` terminator, then resolves every whitespace-separated
    /// word of the content before queueing any, so a resolution failure
    /// leaves nothing of the section emitted.
    fn lex_cdata(&mut self, tag_start: usize) -> Result<(), SaxError> {
        let mut content = String::new();
        while !content.ends_with("]]>") {
            let c = self
                .source
                .bump()?
                .ok_or_else(|| parse_error(tag_start, "unterminated CDATA section"))?;
            content.push(c);
        }
        content.truncate(content.len() - 3);
        let events = content
            .split_whitespace()
            .map(|word| self.names.resolve(word).map(TaggedSymbol::Internal))
            .collect::<Result<Vec<_>, _>>()?;
        self.queued.extend(events);
        Ok(())
    }

    /// Lexes one `<…>` construct, with the cursor on `<`. Returns `None`
    /// for skipped directives. A `>` inside a quoted attribute value does
    /// not end the tag.
    fn lex_tag(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        let tag_start = self.source.offset;
        self.source.bump()?;
        if matches!(self.source.peek()?, Some('!' | '?')) {
            self.lex_directive(tag_start)?;
            return Ok(None);
        }
        let mut body = String::new();
        let mut quote: Option<char> = None;
        loop {
            let c = self
                .source
                .bump()?
                .ok_or_else(|| parse_error(tag_start, "unterminated tag"))?;
            match quote {
                Some(q) if c == q => quote = None,
                Some(_) => {}
                None if c == '>' => break,
                None if c == '"' || c == '\'' => quote = Some(c),
                None => {}
            }
            body.push(c);
        }
        self.classify_tag(&body, tag_start).map(Some)
    }

    /// Lexes one text token, with the cursor on its first character: it
    /// runs to the next `<`, whitespace character, or EOF.
    fn lex_text(&mut self) -> Result<TaggedSymbol, SaxError> {
        let mut word = String::new();
        while let Some(c) = self.source.peek()? {
            if c == '<' || c.is_whitespace() {
                break;
            }
            word.push(c);
            self.source.bump()?;
        }
        Ok(TaggedSymbol::Internal(self.names.resolve(&word)?))
    }

    fn next_event(&mut self) -> Result<Option<TaggedSymbol>, SaxError> {
        loop {
            if let Some(t) = self.queued.pop_front() {
                return Ok(Some(t));
            }
            match self.source.peek()? {
                None => return Ok(None),
                Some('<') => {
                    if let Some(t) = self.lex_tag()? {
                        return Ok(Some(t));
                    }
                }
                Some(c) if c.is_whitespace() => {
                    self.source.bump()?;
                }
                Some(_) => return self.lex_text().map(Some),
            }
        }
    }
}

impl<S: Iterator<Item = Result<char, SaxError>>, N: ResolveName> Iterator for EventLexer<S, N> {
    type Item = Result<TaggedSymbol, SaxError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.next_event().transpose();
        self.failed = matches!(item, Some(Err(_)));
        item
    }
}

#[test]
fn utf8_chars_decodes_exactly_like_str_chars() {
    // Every scalar-value category, split at every granularity.
    let text = "A£ह𐍈\u{10FFFF}\u{D7FF}\u{E000}ß\u{7F}\u{80}";
    let expect: Vec<char> = text.chars().collect();
    for chunk in 1..=5 {
        let got: Vec<char> = Utf8Chars::new(crate::SplitReader::new(text.as_bytes(), chunk))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got, expect, "chunk {chunk}");
    }
}
