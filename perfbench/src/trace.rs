//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`layer.what`), start and end (seconds since the
//! tracer was made), the span it ran inside, and a request id shared by the
//! spans of one request. Spans stay in memory and are written out as JSON
//! lines when the run ends. With tracing off nothing is recorded, but
//! [`Tracer::time`] still returns the call's duration, which is what the
//! end-to-end metrics are made of.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start, in seconds since the tracer's origin.
    pub start: f64,
    /// End, in seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or stage) id.
    pub request: u64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. Single-threaded: the benchmark makes every traced call
/// from its own thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn enter(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id` (and any child left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(open) = self.open.pop() {
            self.spans[open].end = now;
            if open == index {
                break;
            }
        }
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// seconds. The duration is measured whether or not tracing is on.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, request);
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        self.exit(id);
        (out, seconds)
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover.
    pub fn self_times(&self) -> Vec<f64> {
        self_times(&self.spans)
    }

    /// Sum of self time per layer.
    pub fn layer_self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.layer()).or_insert(0.0) += own;
        }
        out
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Total seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{},\"self\":{own}}}",
                span.name, span.start, span.end, span.request
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: duration minus the union of its children's
/// intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.seconds() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("bench.root", 0.0, 10.0, None),
            span("sim.a", 1.0, 3.0, Some(0)),
            // Overlaps the first child: only [3, 5] is new coverage.
            span("sim.b", 2.0, 5.0, Some(0)),
            span("core.c", 7.0, 8.0, Some(0)),
            // A grandchild is covered by its parent, not by the root.
            span("store.d", 7.25, 7.75, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![5.0, 2.0, 3.0, 0.5, 0.5]);
    }

    #[test]
    fn self_times_of_nested_spans_partition_the_root() {
        let spans = [
            span("bench.root", 0.0, 10.0, None),
            span("sim.a", 1.0, 3.0, Some(0)),
            span("core.c", 4.0, 9.0, Some(0)),
            span("store.d", 5.0, 6.5, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 2.0, 3.5, 1.5]);
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = [
            span("bench.root", 0.0, 4.0, None),
            span("sim.a", 3.0, 6.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn tracer_nests_and_records_only_when_on() {
        let mut off = Tracer::new(false);
        let id = off.enter("bench.root", 0);
        let (value, seconds) = off.time("sim.a", 1, || 42);
        off.exit(id);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.enter("bench.root", 0);
        on.time("sim.a", 1, || ());
        on.time("core.b", 2, || ());
        on.exit(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].request, 2);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let layers = on.layer_self_seconds();
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            ["bench", "core", "sim"]
        );
    }
}
