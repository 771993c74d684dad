//! The benchmark's own spans: recorded in memory around calls into each
//! layer's public functions, written out as Chrome trace JSON at the end
//! of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::json::write_str;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `cfront:lex` or `serve:request`.
    pub name: String,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (program) the work belongs to.
    pub unit: String,
    /// Trace id shared by the client and daemon spans of one request
    /// (`0` for in-process work).
    pub trace: u64,
}

/// An in-memory span recorder. A disabled recorder still runs the
/// timed closures but records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (shared by every thread
    /// of one run, so their spans line up).
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The clock origin, for recorders on other threads.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name` for `unit`.
    pub fn span<T>(&mut self, name: &str, unit: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: 0,
            parent: self.open.last().copied(),
            unit: unit.to_string(),
            trace: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    /// Records an already-measured span (the daemon's, rebased onto this
    /// recorder's clock).
    pub fn record(&mut self, s: Span) {
        if self.enabled {
            self.spans.push(s);
        }
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Tags the innermost open span with a trace id.
    pub fn tag_current(&mut self, trace: u64) {
        if let Some(&i) = self.open.last() {
            self.spans[i].trace = trace;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (from another thread), keeping
    /// their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Total duration per span name, in microseconds.
pub fn totals(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += s.end_us.saturating_sub(s.start_us);
    }
    out
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let own = s.end_us.saturating_sub(s.start_us);
        let covered = covered_us(kids, s.start_us, s.end_us);
        *out.entry(s.name.clone()).or_default() += own.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Chrome trace-event JSON (`X` events); `args` carry the workload, unit,
/// trace id and parent index. Threads of one run share the pid.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"name\":");
        write_str(&mut out, &s.name);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"id\":{i},\"parent\":{},\"workload\":",
            s.start_us,
            s.end_us.saturating_sub(s.start_us),
            s.parent.map_or(-1, |p| p as i64),
        );
        write_str(&mut out, workload);
        out.push_str(",\"unit\":");
        write_str(&mut out, &s.unit);
        let _ = write!(out, ",\"trace\":\"{:016x}\"}}}}", s.trace);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            unit: "u".into(),
            trace: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 35, 45, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["unit"], 100 - 40);
        assert_eq!(st["a"], 30);
        assert_eq!(st["b"], 10);
        assert_eq!(st["c"], 10);
        assert_eq!(totals(&spans)["b"], 20);
    }

    #[test]
    fn merge_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.span("x", "u", |_| ());
        let mut b = Tracer::new(epoch, true);
        b.span("outer", "u", |t| t.span("inner", "u", |_| ()));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(chrome_json(a.spans(), "units").contains("\"parent\":1"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", "u", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
