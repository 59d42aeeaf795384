//! Spans recorded around the calls into each layer, kept in memory and
//! written out when the run ends.
//!
//! A span has a name whose prefix up to the first `.` is its layer (`read`,
//! `scan`, `engine`, `multi`, `service`, `persist`, or `op` for the root
//! span of one operation), the operation it belongs to, the span that caused
//! it, and its start and end in nanoseconds since the tracer was made. A
//! span's *self time* is its duration minus the part of it that its
//! children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `scan.fill`.
    pub name: &'static str,
    /// The operation (document or request) the span belongs to.
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An append-only span log. Spans entered with [`Tracer::enter`] nest on a
/// stack, so a span recorded inside them (such as a read inside a scan)
/// gets the innermost one as its parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// An empty log with room for `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch of `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Nanoseconds since the epoch, now.
    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Records a finished span and returns its index. Without an explicit
    /// parent, the innermost entered span is the parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = parent.or_else(|| self.stack.last().copied());
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        id
    }

    /// Opens a span now, under `parent` or else the innermost entered span,
    /// and makes it the innermost.
    pub fn enter(&mut self, name: &'static str, op: u32, parent: Option<u32>) -> u32 {
        let now = self.now();
        let id = self.record(name, op, parent, now, now);
        self.stack.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`, now.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "spans exit in nesting order");
        self.spans[id as usize].end = self.now();
    }

    /// Sets the end of a span recorded open (start = end) by [`record`].
    ///
    /// [`record`]: Tracer::record
    pub fn close(&mut self, id: u32, end: u64) {
        self.spans[id as usize].end = end;
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as tab-separated values, one span a line.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (which do not overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let overlap = s
                .end
                .min(parent.end)
                .saturating_sub(s.start.max(parent.start));
            covered[p as usize] += overlap;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

/// Durations, in microseconds, of the spans named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e3)
        .collect()
}

/// An [`io::Read`] that records a `read.call` span around every call into
/// the reader it wraps: the window-fill floor under the scanner.
#[derive(Debug)]
pub struct TimingReader<'t, R> {
    inner: R,
    tracer: &'t RefCell<Tracer>,
    op: u32,
}

impl<'t, R: Read> TimingReader<'t, R> {
    /// Wraps `inner`, logging to `tracer` under operation `op`.
    pub fn new(inner: R, tracer: &'t RefCell<Tracer>, op: u32) -> Self {
        TimingReader { inner, tracer, op }
    }
}

impl<R: Read> Read for TimingReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.read(buf);
        let end = Instant::now();
        let mut tracer = self.tracer.borrow_mut();
        let (start, end) = (tracer.ns(start), tracer.ns(end));
        tracer.record("read.call", self.op, None, start, end);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op.doc", None, 0, 100),
            span("scan.fill", Some(0), 10, 50),
            span("read.call", Some(1), 12, 20),
            span("read.call", Some(1), 30, 35),
            span("engine.step_slice", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 27, 8, 5, 40]);
        let layers = self_by_layer(&spans);
        assert_eq!(layers["op"], 20);
        assert_eq!(layers["scan"], 27);
        assert_eq!(layers["read"], 13);
        assert_eq!(layers["engine"], 40);
        assert_eq!(
            layers.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn children_count_only_inside_the_parent() {
        // A child recorded with an explicit start before its parent opened
        // (a request scheduled before it was sent) covers only the overlap.
        let spans = [
            span("op.req", None, 50, 150),
            span("service.wait", Some(0), 20, 80),
        ];
        assert_eq!(self_times(&spans), vec![70, 60]);
    }

    #[test]
    fn reads_nest_under_the_entered_span() {
        let tracer = RefCell::new(Tracer::new(8));
        let root = tracer.borrow_mut().enter("op.doc", 3, None);
        let scan = tracer.borrow_mut().enter("scan.fill", 3, None);
        let mut reader = TimingReader::new(&b"abc"[..], &tracer, 3);
        let mut buf = [0u8; 8];
        assert_eq!(reader.read(&mut buf).unwrap(), 3);
        tracer.borrow_mut().exit(scan);
        tracer.borrow_mut().exit(root);
        let tracer = tracer.into_inner();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(scan));
        assert!(spans.iter().all(|s| s.op == 3 && s.start <= s.end));
        let mut tsv = Vec::new();
        tracer.write_tsv(&mut tsv).unwrap();
        assert_eq!(tsv.iter().filter(|&&b| b == b'\n').count(), 4);
    }
}
