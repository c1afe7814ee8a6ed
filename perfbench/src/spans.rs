//! Spans recorded around calls into the layers, kept in memory and
//! written out when the run ends.
//!
//! The write chain nests in time: a version's span encloses the calls it
//! makes. The read chain nests by cause: a request is replayed one layer
//! further down right after its parent call returns, so a child does not
//! lie inside its parent's interval. Either way a span's self time is its
//! duration minus the summed durations of its children.

use crate::alloc::{self, AllocCount};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// An index into the recorder's spans.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made on the recording thread while the span was open.
    pub alloc: AllocCount,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: i128,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.dur_ns as f64 / 1e3, self.count as f64)
    }

    pub fn mean_allocs(&self) -> f64 {
        crate::stats::ratio(self.allocs as f64, self.count as f64)
    }

    pub fn mean_alloc_bytes(&self) -> f64 {
        crate::stats::ratio(self.alloc_bytes as f64, self.count as f64)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open_alloc: Vec<AllocCount>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open_alloc: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len();
        // Grow the buffers before reading the counters, so the span does
        // not count its own bookkeeping.
        self.spans.push(Span {
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            alloc: AllocCount::default(),
        });
        self.open_alloc.reserve(1);
        let at_open = alloc::count();
        self.open_alloc.push(at_open);
        self.spans[id].start_ns = self.now_ns();
        id
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let now = alloc::count();
        let at_open = self.open_alloc[id];
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.alloc = AllocCount {
            allocs: now.allocs - at_open.allocs,
            bytes: now.bytes - at_open.bytes,
        };
    }

    /// Records a span timed elsewhere.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.open_alloc.push(AllocCount::default());
        self.spans.len() - 1
    }

    /// Records `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<i128> {
        let mut out: Vec<i128> = self.spans.iter().map(|s| s.dur_ns() as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns() as i128;
            }
        }
        out
    }

    /// Totals per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Totals> {
        let self_ns = self.self_ns();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.dur_ns += s.dur_ns();
            t.self_ns += own;
            t.allocs += s.alloc.allocs;
            t.alloc_bytes += s.alloc.bytes;
        }
        out
    }

    /// One JSON object per line: id, parent, name, start, end, allocs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.name, s.start_ns, s.end_ns, s.alloc.allocs, s.alloc.bytes
            );
        }
        out
    }
}
