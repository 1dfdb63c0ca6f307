//! Spans around the public calls the benchmark makes into each layer.
//!
//! The benchmark code is identical with tracing on and off: every layer call
//! goes through [`Tracer::scope`] (or a [`Tracer::begin`]/[`Tracer::end`]
//! pair), which only records when the tracer was built enabled. A span
//! keeps its name, start, end, parent span, the run's query id where one
//! applies, and the heap allocation calls made while it was open. Spans
//! stay in memory until the run ends and are then written out as TSV.

use std::io::Write;
use std::time::Instant;

/// Spans reserved up front in a traced run, so the recorder's own vector
/// never grows (and allocates) inside a measured span. The largest
/// workload records well under half of this.
const SPAN_CAPACITY: usize = 1 << 18;

/// One recorded span. Times are nanoseconds since the tracer was built.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub qid: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A handle to an open span; `None` when tracing is off.
pub type SpanId = Option<u32>;

/// The span recorder (see the module docs).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over a run's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
    pub allocs: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: if on {
                Vec::with_capacity(SPAN_CAPACITY)
            } else {
                Vec::new()
            },
            open: Vec::with_capacity(if on { 64 } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, a child of the innermost open span.
    #[inline]
    pub fn begin(&mut self, name: &'static str, qid: Option<u64>) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            qid,
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: simkit::stats::alloc_stats().calls,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `id` (a no-op for the untraced `None`).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        let calls = simkit::stats::alloc_stats().calls;
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.allocs = calls - span.allocs;
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn scope<R>(&mut self, name: &'static str, qid: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, qid);
        let r = f();
        self.end(id);
        r
    }

    /// Open-span depth, so a caller that caught a panic can drop the
    /// spans the unwound code never closed.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = self.open.last().copied();
            self.end(id);
        }
    }

    /// Totals of every span called `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut t = SpanTotals::default();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            if s.name == name {
                t.count += 1;
                t.total_ns += s.dur_ns();
                t.self_ns += s.dur_ns().saturating_sub(*child);
                t.allocs += s.allocs;
            }
        }
        t
    }

    /// Writes every span as one TSV row: id, parent, name, qid, start,
    /// end (ns since the tracer was built) and allocation calls.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tqid\tstart_ns\tend_ns\tallocs")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent.map(u64::from)),
                s.name,
                opt(s.qid),
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        out.flush()
    }
}
