//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span is `(name, start, end, parent, request)`. Spans are only kept in
//! traced runs, and there only for every other request (see
//! [`Tracer::traces`]), so the traced run can compare traced against
//! untraced latencies under identical load. Stage spans inside a query are
//! built from the durations the query engine returns in its `QueryStats`;
//! their positions inside the parent are nominal (back to back from the
//! parent's start), their lengths are measured.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ndss::json::{Json, ObjectBuilder};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle to an open span (`None` when the span is not recorded).
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Whether request `request` is traced: every other request in a
    /// traced run, none in an untraced one.
    pub fn traces(&self, request: u64) -> bool {
        self.on && request.is_multiple_of(2)
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&self, name: &'static str, request: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, request, parent, now, now)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(id) = id {
            let end = self.ns(Instant::now());
            self.spans.lock().expect("tracer lock poisoned")[id].end_ns = end;
        }
    }

    /// Lays `stages` out back to back from `start` as children of `parent`.
    pub fn stages(
        &self,
        parent: SpanId,
        request: u64,
        start: Instant,
        stages: &[(&'static str, Duration)],
    ) {
        if parent.is_none() {
            return;
        }
        let mut at = start;
        for &(name, d) in stages {
            self.record(name, request, parent, at, at + d);
            at += d;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let line = ObjectBuilder::new()
                .field("id", Json::UInt(id as u64))
                .field("name", Json::Str(s.name.into()))
                .field("start_ns", Json::UInt(s.start_ns))
                .field("end_ns", Json::UInt(s.end_ns))
                .field(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                )
                .field("request", Json::UInt(s.request))
                .build();
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
    }
    out
}

/// The share of the named root spans' time that no child span explains.
pub fn unattributed_ratio(spans: &[Span], roots: &[&str]) -> f64 {
    let mut own = 0u64;
    let mut total = 0u64;
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        if roots.contains(&s.name) {
            own += ns;
            total += s.end_ns - s.start_ns;
        }
    }
    crate::stats::ratio(own as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
            span("a.inner", 10, 20, Some(1)),
        ];
        // Children cover [10, 60) and [90, 100): 60 of 100 ns.
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["query"] - 40e-9).abs() < 1e-15);
        assert!((unattributed_ratio(&spans, &["query"]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn untraced_requests_record_nothing() {
        let tracer = Tracer::new(true);
        assert!(tracer.traces(0) && !tracer.traces(1));
        let id = tracer.open("query", 0, None);
        tracer.close(id);
        assert_eq!(id, Some(0));
        assert_eq!(tracer.spans().len(), 1);
        let off = Tracer::new(false);
        assert!(!off.traces(0));
        assert_eq!(off.open("query", 0, None), None);
        assert!(off.spans().is_empty());
    }
}
