//! In-memory span recording for the traced run.
//!
//! Every span wraps one call from the benchmark into a layer's public
//! function. Spans are kept in memory while the run measures and written
//! out once, at exit, as Chrome trace-event JSON (Perfetto and
//! `chrome://tracing` open it). A span's *self time* is its duration minus
//! the part of it that its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.parallelize`.
    pub name: &'static str,
    /// Query (or batch) the span belongs to; spans of one query share it.
    pub query: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans from a single thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, query: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, query, start_ns, end_ns: start_ns, parent });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (indexed like [`Self::spans`]): its duration
    /// minus the union of its children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                // Children start in order (they are recorded sequentially),
                // so one sweep merges overlapping intervals.
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &k in kids {
                    let (s, e) = (self.spans[k].start_ns.max(reach), self.spans[k].end_ns);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let all = self.self_times_ns();
        self.spans
            .iter()
            .zip(all)
            .filter(|(span, _)| span.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, times in
    /// microseconds). The category is the layer: the name up to its first dot.
    pub fn to_chrome_json(&self) -> String {
        let self_times = self.self_times_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let category = span.name.split('.').next().unwrap_or(span.name);
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\
                 \"query\":{},\"self_us\":{:.3}}}}}{}",
                span.name,
                category,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                i,
                parent,
                span.query,
                self_ns as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}
