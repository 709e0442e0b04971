//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and their export as a Chrome trace.
//!
//! A span's name is `layer.what` (`gpu.sim`, `json.decode`, …); names
//! without a dot (`pass`, `job`, `reference`) are the benchmark's own
//! glue and belong to no layer. A span's self time is its duration
//! minus the part covered by its direct children.

use std::collections::BTreeMap;
use std::time::Instant;

use dynapar_gpu::perfetto;
use dynapar_gpu::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, or a glue name without a dot.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job the span belongs to (0 for pass-level spans).
    pub job: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `job`. Spans opened
    /// inside `f` (through the tracer it is handed) become children.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in ms, summed by span name, over the spans nested
    /// (at any depth) inside span `root`, `root` included.
    pub fn self_ms_under(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let inside = |mut i: usize| loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        self_ms(&self.spans, inside)
    }

    /// Writes the spans as a Trace Event Format document: one track per
    /// job (track 0 holds pass-level spans), times in µs.
    pub fn chrome_trace(&self, process: &str) -> Json {
        let mut events = vec![perfetto::meta(1, None, "process_name", process)];
        let mut jobs: Vec<u64> = self.spans.iter().map(|s| s.job).collect();
        jobs.sort_unstable();
        jobs.dedup();
        for job in jobs {
            let track = if job == 0 {
                "pass".to_string()
            } else {
                format!("job {job}")
            };
            events.push(perfetto::meta(1, Some(job), "thread_name", &track));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![("span", Json::U64(i as u64)), ("job", Json::U64(s.job))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::U64(p as u64)));
            }
            events.push(perfetto::complete(
                1,
                s.job,
                s.name,
                s.start_ns / 1000,
                (s.dur_ns() / 1000).max(1),
                Json::obj(args),
            ));
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Self time in ms, summed by name, over the spans `keep` selects.
fn self_ms(spans: &[Span], keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if keep(i) {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
    }
    out
}

/// Sum of the self times that belong to a layer (names with a dot).
pub fn layer_total_ms(self_ms: &BTreeMap<&'static str, f64>) -> f64 {
    self_ms
        .iter()
        .filter(|(name, _)| name.contains('.'))
        .map(|(_, ms)| ms)
        .sum()
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
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("pass", 0, 10_000_000, None),
            span("gpu.sim", 1_000_000, 7_000_000, Some(0)),
            span("artifact.encode", 2_000_000, 3_000_000, Some(1)),
            span("json.decode", 8_000_000, 9_000_000, Some(0)),
        ];
        let got = self_ms(&spans, |_| true);
        assert_eq!(got["pass"], 3.0);
        assert_eq!(got["gpu.sim"], 5.0);
        assert_eq!(got["artifact.encode"], 1.0);
        assert_eq!(got["json.decode"], 1.0);
        assert_eq!(layer_total_ms(&got), 7.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false);
        let v = t.span("gpu.sim", 1, |t| t.span("json.decode", 1, |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_subtrees_follow_the_call_tree() {
        let mut t = Tracer::new(true);
        t.span("reference", 0, |t| t.span("gpu.sim", 1, |_| ()));
        t.span("pass", 0, |t| {
            t.span("job", 2, |t| t.span("json.decode", 2, |_| ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        let under_pass = t.self_ms_under(2);
        assert!(under_pass.contains_key("json.decode"));
        assert!(!under_pass.contains_key("gpu.sim"));
    }

    #[test]
    fn chrome_trace_has_named_tracks_and_complete_spans() {
        let mut t = Tracer::new(true);
        t.span("pass", 0, |t| t.span("gpu.sim", 3, |_| ()));
        let doc = t.chrome_trace("perfbench");
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let complete = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(complete, 2);
        // process name + two tracks
        assert_eq!(events.len(), 5);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }
}
