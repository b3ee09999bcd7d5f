//! In-memory spans around the benchmark's calls into each layer, written
//! out as JSON lines when the run ends. A disabled trace records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Sentinel returned by [`Trace::begin`] when tracing is off.
const OFF: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    trace_id: u64,
}

/// A span recorder: `begin`/`end` nest on one thread; spans measured on
/// other threads are added whole with [`Trace::record`].
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    /// Set while a traced run times an untraced comparison pass.
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per span name: how many, their total duration, and their self time
/// (duration minus the part covered by child spans), in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is a traced run (pausing does not change it).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// While paused, `begin`, `end` and `record` record nothing.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Opens a span under the innermost open span; returns its handle.
    pub fn begin(&mut self, name: &'static str, trace_id: u64) -> usize {
        if !self.enabled || self.paused {
            return OFF;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            trace_id,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Adds a span measured elsewhere (another thread, or after the fact)
    /// as a child of `parent`, a handle from `begin` or `record`; returns
    /// its handle.
    pub fn record(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled || self.paused {
            return OFF;
        }
        let parent = parent.filter(|&p| p != OFF);
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            trace_id,
        });
        self.spans.len() - 1
    }

    /// Totals and self times per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = (s.end - s.start).as_secs_f64();
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += d;
            e.self_s += d - child_s[i];
        }
        out
    }

    /// Writes one JSON object per span: name, start and end (µs since the
    /// run began), parent span index, and trace id.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"trace\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.trace_id
            )?;
        }
        out.flush()
    }
}
