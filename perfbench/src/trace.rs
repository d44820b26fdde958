//! The benchmark's own span recorder.
//!
//! Spans are recorded around public calls of the program, never inside
//! it. Each span keeps its name, start, end, parent span and request id
//! in memory; the run writes them out once at the end. Layer times are
//! *self* times: a span's duration minus the durations of its children,
//! so a `kernel` span's self time is the recorder's own bookkeeping.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use vegen_engine::json::Json;

/// One recorded span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: u64,
    /// The measured pass this span belongs to (its root's index).
    pub pass: u32,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds since the origin of `at`.
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Start attributing new spans to measured pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        let t = self.now();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: t, end: t, parent, req, pass: self.pass });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end = self.now();
        self.spans[i].end - self.spans[i].start
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Record an already-finished span (for spans that overlap, such as
    /// concurrently outstanding requests), nested in the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        let parent = self.open.last().copied();
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span { name, start, end, parent, req, pass: self.pass });
    }

    /// Self time of every span, indexed like the span list.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Per pass, the summed self time of each span name.
    pub fn self_time_by_pass(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.pass).or_default().entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Write every span to `path` as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::int(p as u64))),
                    ("req", Json::int(s.req)),
                    ("pass", Json::int(u64::from(s.pass))),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("outer", 0);
        t.span("inner", 0, || std::thread::sleep(std::time::Duration::from_millis(20)));
        t.exit();
        let by = &t.self_time_by_pass()[&0];
        assert!(by["inner"] >= 0.019);
        assert!(by["outer"] < by["inner"]);
    }
}
