//! Wall-clock spans recorded around every call the benchmark makes into a
//! layer of the system.
//!
//! A span carries its name (`<layer>.<call>`), start, end, the span that
//! caused it and the run it belongs to. Spans stay in memory: each worker
//! thread fills its own [`Tracer`], whose spans travel back with the run's
//! result, and the whole set is written out once, at the end, as Chrome
//! trace-event JSON. A disabled tracer reads no clock and records nothing.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// The layers spans are attributed to, named after the crates they enter.
pub const LAYERS: [&str; 11] = [
    "sysgen",
    "model",
    "analysis",
    "admission",
    "rtss",
    "compile",
    "exec",
    "trace",
    "metrics",
    "harness",
    "observe",
];

// Ids and thread numbers only need to be unique; they publish no other data.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// `<layer>.<call>`, e.g. `rtss.simulate`.
    pub name: &'static str,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root span.
    pub parent: u64,
    /// Run the span belongs to (1-based case index), 0 outside any run.
    pub run: u64,
    /// Recording thread.
    pub thread: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// The layer: the span name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a worker thread needs to open spans under a parent on another
/// thread: the shared epoch and the parent's id.
#[derive(Debug, Clone, Copy)]
pub struct TraceContext {
    epoch: Option<Instant>,
    parent: u64,
}

impl TraceContext {
    /// A tracer for one run, nested under the context's span.
    pub fn tracer(&self, run: u64) -> Tracer {
        Tracer {
            epoch: self.epoch,
            parent: self.parent,
            run,
            spans: Vec::new(),
        }
    }
}

/// A per-thread span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    parent: u64,
    run: u64,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Tracer {
        Tracer {
            epoch: None,
            parent: 0,
            run: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer; spans are timed from `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            ..Tracer::off()
        }
    }

    /// The context worker threads open their spans under.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            epoch: self.epoch,
            parent: self.parent,
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = std::mem::replace(&mut self.parent, id);
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end_ns = epoch.elapsed().as_nanos() as u64;
        self.parent = parent;
        self.spans.push(SpanRec {
            name,
            id,
            parent,
            run: self.run,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        });
        out
    }

    /// Adds spans recorded by another tracer (a worker's).
    pub fn absorb(&mut self, spans: Vec<SpanRec>) {
        self.spans.extend(spans);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&mut self) -> Vec<SpanRec> {
        std::mem::take(&mut self.spans)
    }
}

/// Total duration, in ns, of the spans named `name`.
pub fn total_ns(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_ns)
        .sum()
}

/// Durations, in ns, of the spans named `name`.
pub fn durations_ns(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time per layer, in ns: each span's duration minus the part of its
/// interval that its child spans cover (children on other threads count
/// once, however many overlap).
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_layer: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        *by_layer.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    by_layer
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Renders spans as Chrome trace-event JSON: one `ph:"X"` event per span in
/// start order, `ts`/`dur` in microseconds, the layer as category and the
/// span id, parent and run as extra numeric fields.
pub fn chrome_trace_json(spans: &[SpanRec]) -> String {
    let mut ordered: Vec<&SpanRec> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::with_capacity(160 * ordered.len() + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in ordered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"id\":{},\"parent\":{},\"run\":{}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread,
            s.id,
            s.parent,
            s.run
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            id,
            parent,
            run: 0,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            rec("harness.fanout", 1, 0, 0, 100),
            // Two overlapping children on different threads cover [10, 70).
            rec("rtss.simulate", 2, 1, 10, 50),
            rec("exec.execute", 3, 1, 30, 70),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["harness"], 40);
        assert_eq!(by_layer["rtss"], 40);
        assert_eq!(by_layer["exec"], 40);
        assert_eq!(by_layer["observe"], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("rtss.simulate", |t| t.span("trace.render", |_| 7));
        assert_eq!(v, 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::on(Instant::now());
        t.span("harness.run", |t| t.span("rtss.simulate", |_| ()));
        let spans = t.take();
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
