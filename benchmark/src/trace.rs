//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around every call into a layer (and the
//! pipeline observer opens one per stage); spans stay in memory until the
//! run ends and are then written out as Chrome `trace_event` JSON. A span's
//! self time is its duration minus the part of that interval its direct
//! children cover.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records properly nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Shared by every span of one run, so runs can be told apart once
    /// several traces are loaded side by side.
    pub trace_id: String,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(trace_id: impl Into<String>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            trace_id: trace_id.into(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) -> usize {
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = self.now_ns();
        idx
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside a span named `name`; also returns the span's seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.begin(name);
        let out = f();
        let idx = self.end();
        (out, self.spans[idx].seconds())
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Self time of span `idx` in seconds.
    pub fn self_seconds(&self, idx: usize) -> f64 {
        self_ns(&self.spans, idx) as f64 / 1e9
    }

    /// The spans as a Chrome `trace_event` document (complete `X` events,
    /// microsecond timestamps), loadable in `chrome://tracing` / Perfetto.
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                let parent = match s.parent {
                    Some(p) => Json::Num(p as f64),
                    None => Json::Null,
                };
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("cat", Json::str("benchmark")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("trace_id", Json::str(&self.trace_id)),
                            ("span", Json::Num(idx as f64)),
                            ("parent", parent),
                            ("self_us", Json::Num(self_ns(&self.spans, idx) as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Duration of `spans[idx]` minus the union of its direct children's
/// intervals, clipped to the span: grandchildren are already inside a child
/// and are not subtracted twice; overlapping children count once.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let span = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut frontier = span.start_ns;
    for (start, end) in children {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn adjacent_children_are_both_subtracted() {
        let spans = vec![
            span("run", 0, 100, None),
            span("read", 10, 30, Some(0)),
            span("assemble", 30, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 60);
        assert_eq!(self_ns(&spans, 1), 20);
    }

    #[test]
    fn nested_grandchildren_are_not_subtracted_twice() {
        let spans = vec![
            span("run", 0, 100, None),
            span("assemble", 10, 90, Some(0)),
            span("label", 20, 60, Some(1)),
            span("superstep", 25, 35, Some(2)),
        ];
        assert_eq!(self_ns(&spans, 0), 20);
        assert_eq!(self_ns(&spans, 1), 80 - 40);
        assert_eq!(self_ns(&spans, 2), 40 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = vec![
            span("run", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("late", 100, 150, Some(0)),
        ];
        // Covered: [20, 80) and [100, 110).
        assert_eq!(self_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_spans_by_call_order() {
        let mut t = Tracer::new("w#1");
        t.begin("run");
        t.span("read", || ());
        t.begin("assemble");
        t.span("construct", || ());
        t.end();
        t.end();
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.self_seconds(0) <= t.spans[0].seconds());
        let trace = t.to_chrome_trace();
        match trace.get("traceEvents") {
            Some(Json::Arr(events)) => assert_eq!(events.len(), 4),
            other => panic!("traceEvents must be an array, got {other:?}"),
        }
    }
}
