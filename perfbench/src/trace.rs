//! The benchmark's own spans: name, start, end and parent, recorded around
//! calls into each crate's public functions and kept in memory.
//!
//! A span's name is `<layer>.<operation>`, where the layer is the crate the
//! call enters (`compiler.lower`, `aarch64.run`, ...). A layer's self time
//! is the time its spans cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or, after a caught panic, force-closed) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Records spans and exact counts.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// The number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes every span opened above `depth`: used after a caught panic
    /// unwound through them.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now();
        while self.open.len() > depth {
            if let Some(id) = self.open.pop() {
                self.spans[id].end_ns = now;
            }
        }
    }

    /// Adds `n` to an exact count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// An exact count (0 if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Seconds spent in each layer's own code: each span's duration minus
    /// its children's, summed by layer.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.secs();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child) {
            *by_layer.entry(span.layer()).or_insert(0.0) += (span.secs() - children).max(0.0);
        }
        by_layer
    }

    /// The spans as tab-separated lines: index, parent, name, start, end.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("experiments.x", |t| {
            t.span("compiler.lower", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let self_times = t.self_times();
        let total = t.total("experiments.x");
        assert!((self_times["experiments"] + self_times["compiler"] - total).abs() < 1e-9);
        assert!(self_times["compiler"] >= 0.005);
        assert!(self_times["experiments"] >= 0.005);
    }

    #[test]
    fn spans_left_open_by_a_panic_are_closed() {
        let mut t = Tracer::new();
        let depth = t.depth();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("chaos.trial", |_| panic!("boom"));
        }));
        assert!(caught.is_err());
        t.close_to(depth);
        assert_eq!(t.depth(), 0);
        assert!(t.spans()[0].end_ns >= t.spans()[0].start_ns);
    }
}
