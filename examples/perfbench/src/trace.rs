//! Bench-side span recorder: spans are taken from the benchmark's own
//! files, around the calls into each layer (`setup` → `generate` →
//! `simulate` → `collect` → `audit` → `span_build`); spans inside the
//! crates are a later change. Spans stay in memory and are written out
//! when the benchmark ends.

use std::fmt::Write;
use std::time::Instant;

/// One recorded span, in host nanoseconds since the recorder started.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
}

/// In-memory span store for one workload. Spans nest by open/close order.
pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (must be the innermost open one); returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.open(name);
        let out = f();
        (out, self.close(id))
    }

    /// A span's self time: its duration minus the part its children cover.
    fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Total self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum::<u64>() as f64
            / 1e6
    }

    /// Forget every span recorded so far (only the last repetition's
    /// spans are reported and written).
    pub fn clear(&mut self) {
        assert!(self.stack.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// The span list as a JSON document.
    pub fn to_json(&self) -> String {
        let mut j = format!("{{\"workload\": \"{}\", \"spans\": [\n", self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                j,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"workload\": \"{}\"}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
                self.workload,
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        j.push_str("]}\n");
        j
    }
}
