//! In-memory span recording for the traced run, written out once the run ends.
//!
//! A span is a named wall-clock interval around one call the benchmark makes into the program,
//! with the span that was open when it began as its parent and the unit of work (step, request
//! or planned trace) it belongs to. Nothing is written while the run measures.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `network.forward`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit of work (step, request or planned trace) the span belongs to, if any.
    pub unit: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans in memory; spans nest by the order they are opened and closed.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), enabled: true }
    }
}

impl Tracer {
    /// A tracer that records nothing: the same driving code then runs untraced.
    pub fn off() -> Tracer {
        Tracer { enabled: false, ..Tracer::default() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before it closes.
    pub fn begin(&mut self, name: &'static str, unit: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, unit });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, unit: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.begin(name, unit);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// Total self time and count per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, usize)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
        for (span, kids) in self.spans.iter().zip(&children) {
            let t = crate::stats::self_time(span.start, span.end, kids);
            match out.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(entry) => {
                    entry.1 += t;
                    entry.2 += 1;
                }
                None => out.push((span.name, t, 1)),
            }
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"unit\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.unit),
            );
        }
        out
    }
}

/// Profile-counter movement over one call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// ε values the GRNGs emitted.
    pub eps: u64,
    /// Tiered GEMM calls.
    pub gemm_calls: u64,
    /// Tiered GEMM multiply-accumulates.
    pub gemm_macs: u64,
    /// Scratch arena high-water mark, in `f32` slots.
    pub scratch_high_water: u64,
}

/// Runs `f` and reports how this thread's profile counters moved.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counters) {
    let eps0 = bnn_lfsr::profile::epsilon_values();
    let calls0: u64 = bnn_tensor::profile::gemm_calls().iter().sum();
    let macs0: u64 = bnn_tensor::profile::gemm_macs().iter().sum();
    bnn_tensor::profile::reset_scratch_high_water();
    let out = f();
    let counters = Counters {
        eps: bnn_lfsr::profile::epsilon_values() - eps0,
        gemm_calls: bnn_tensor::profile::gemm_calls().iter().sum::<u64>() - calls0,
        gemm_macs: bnn_tensor::profile::gemm_macs().iter().sum::<u64>() - macs0,
        scratch_high_water: bnn_tensor::profile::scratch_high_water(),
    };
    (out, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.begin("step", Some(0));
        t.time("network.forward", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("network.backward", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(root));
        let children = spans[1].duration() + spans[2].duration();
        let by_name = t.self_times();
        assert_eq!(by_name[0].1, spans[0].duration() - children, "root minus its children");
        assert_eq!(by_name[1].1, spans[1].duration(), "leaf self time is its duration");
        assert_eq!(
            by_name.iter().map(|e| e.0).collect::<Vec<_>>(),
            ["step", "network.forward", "network.backward"]
        );
        assert!(t.to_jsonl().lines().count() == 3);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.time("x", None, || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::default();
        let a = t.begin("a", None);
        let _b = t.begin("b", None);
        t.end(a);
    }
}
