//! In-memory span recorder for the traced run, written out at exit as
//! Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! name, start, end, the span that caused it, and the query id shared by
//! every span of one query. Counter samples read between calls become
//! counter tracks. Nothing is recorded when tracing is off.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off or for roots.
pub type SpanId = usize;
pub const NONE: SpanId = usize::MAX;
/// Spans on this track may overlap (concurrent queries); they are written
/// as async events grouped by query id instead of a thread row.
pub const ASYNC: u32 = u32::MAX;

struct Span {
    name: String,
    track: u32,
    query: u64,
    parent: SpanId,
    start: Instant,
    end: Instant,
}

struct Sample {
    name: &'static str,
    at: Instant,
    values: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    samples: Vec<Sample>,
    tracks: Vec<(u32, &'static str)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            samples: Vec::new(),
            tracks: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Name a track (a row in the trace viewer).
    pub fn track(&mut self, track: u32, name: &'static str) {
        if self.enabled {
            self.tracks.push((track, name));
        }
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        track: u32,
        query: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            name: name.into(),
            track,
            query,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        track: u32,
        query: u64,
        parent: SpanId,
        start: Instant,
    ) -> SpanId {
        self.span(name, track, query, parent, start, start)
    }

    pub fn end(&mut self, id: SpanId, end: Instant) {
        if let Some(s) = self.spans.get_mut(id) {
            s.end = end;
        }
    }

    /// Record counter values read at `at`.
    pub fn sample(&mut self, name: &'static str, at: Instant, values: Vec<(&'static str, f64)>) {
        if self.enabled {
            self.samples.push(Sample { name, at, values });
        }
    }

    fn micros(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// The trace as Chrome trace-event JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        for &(track, name) in &self.tracks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for (i, s) in self.spans.iter().enumerate() {
            sep(&mut out);
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            if s.track == ASYNC {
                let args = format!("{{\"span\":{i},\"parent\":{parent},\"query\":{}}}", s.query);
                let _ = write!(
                    out,
                    "{{\"ph\":\"b\",\"pid\":1,\"cat\":\"query\",\"id\":{q},\"name\":\"{n}\",\"ts\":{:.3},\"args\":{args}}},\
                     {{\"ph\":\"e\",\"pid\":1,\"cat\":\"query\",\"id\":{q},\"name\":\"{n}\",\"ts\":{:.3}}}",
                    self.micros(s.start),
                    self.micros(s.end).max(self.micros(s.start)),
                    q = s.query,
                    n = s.name,
                );
                continue;
            }
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"query\":{}}}}}",
                s.track,
                s.name,
                self.micros(s.start),
                (self.micros(s.end) - self.micros(s.start)).max(0.0),
                s.query,
            );
        }
        for c in &self.samples {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":1,\"name\":\"{}\",\"ts\":{:.3},\"args\":{{",
                c.name,
                self.micros(c.at)
            );
            for (k, (key, v)) in c.values.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(out, "\"{key}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", 0, 0, NONE, now, now), NONE);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn spans_keep_parent_and_query() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let q = t.begin("query", 1, 7, NONE, now);
        let c = t.span("pipeline.run", 1, 7, q, now, now);
        t.end(q, Instant::now());
        let json = t.to_json();
        assert!(json.contains("\"name\":\"pipeline.run\""));
        assert!(json.contains(&format!("\"span\":{c},\"parent\":{q},\"query\":7")));
        assert!(json.starts_with("{\"displayTimeUnit\""));
    }
}
