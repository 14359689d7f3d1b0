//! Outside-in span tracing, recorded from the benchmark's own files.
//!
//! A traced run wraps every call the harness makes into a layer's public
//! functions in a span: name, start, end, the span that caused it, and
//! the operation it belongs to. Spans stay in memory and are written out
//! once, when the run ends. A disabled tracer records nothing and costs
//! one branch per call, so the untraced (end-to-end) run executes the
//! same code path as the traced one.

use crate::clock;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `store.open_lazy`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the span's end.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation (0 = outside any
    /// operation: set-up, probes).
    pub op: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Root span name of a workload's primary operations.
pub const PRIMARY: &str = "op";
/// Root span name of a workload's secondary operations.
pub const SECONDARY: &str = "second_op";

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// The operation this thread is currently executing.
    static OP: Cell<u64> = const { Cell::new(0) };
}

/// The span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            origin: clock::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing (end-to-end runs).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::enabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn since_origin(&self) -> u64 {
        u64::try_from(clock::now().duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested under whatever span
    /// this thread has open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let start_ns = self.since_origin();
        let id = {
            let mut spans = self.spans.lock().expect("a span holder panicked");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: OP.with(Cell::get),
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(id));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end_ns = self.since_origin();
        self.spans.lock().expect("a span holder panicked")[id].end_ns = end_ns;
        out
    }

    /// Runs `f` as operation `op` (non-zero) under a root span called
    /// `root` — [`PRIMARY`] or [`SECONDARY`] — whose descendants all
    /// carry the same identifier.
    pub fn op<T>(&self, root: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let previous = OP.with(|c| c.replace(op));
        let out = self.span(root, f);
        OP.with(|c| c.set(previous));
        out
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span holder panicked").clone()
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// Total seconds inside spans whose name starts with `prefix` and
    /// that belong to a [`PRIMARY`] operation, counting only outermost
    /// matches (a matching span nested in another matching span is not
    /// counted twice).
    pub fn primary_seconds_under(&self, prefix: &str) -> f64 {
        let spans = self.spans();
        // (Some ancestor matches the prefix, the root span is PRIMARY.)
        let ancestry = |s: &Span| {
            let (mut nested, mut root) = (false, s);
            while let Some(p) = root.parent {
                root = &spans[p];
                nested |= root.name.starts_with(prefix);
            }
            (nested, root.name == PRIMARY)
        };
        spans
            .iter()
            .filter(|s| s.name.starts_with(prefix) && ancestry(s) == (false, true))
            .map(|s| s.nanos() as f64 / 1e9)
            .sum()
    }

    /// Self time (ms) per span name: each span's duration minus the part
    /// its direct children cover, summed by name and sorted by name.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for (s, covered) in spans.iter().zip(child_ns) {
            *by_name.entry(s.name).or_default() += s.nanos().saturating_sub(covered) as f64 / 1e6;
        }
        by_name.into_iter().collect()
    }

    /// Writes every span as one JSON document:
    /// `{"spans":[{"id":0,"name":"op","start_ns":1,"end_ns":2,"parent":null,"op":1},…]}`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[");
        for (id, s) in self.spans().iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Span names are `&'static str` identifiers from this crate:
            // no character needs escaping.
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert_eq!(t.op(PRIMARY, 1, || t.span("store.open", || 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_the_op_id() {
        let t = Tracer::enabled();
        t.span("setup.x", || ());
        t.op(PRIMARY, 5, || {
            t.span("store.a", || t.span("store.b", || ()));
            t.span("pql.parse", || ());
        });
        t.op(SECONDARY, 6, || t.span("store.c", || ()));
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "setup.x",
                "op",
                "store.a",
                "store.b",
                "pql.parse",
                "second_op",
                "store.c"
            ]
        );
        assert_eq!(spans[0].op, 0);
        assert!(spans[1..5].iter().all(|s| s.op == 5));
        assert!(spans[5..].iter().all(|s| s.op == 6));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(1));
        // store.b is nested in store.a and store.c is not in a primary
        // operation: only store.a counts under the prefix.
        let store = t.primary_seconds_under("store.");
        let a = (spans[2].end_ns - spans[2].start_ns) as f64 / 1e9;
        assert!((store - a).abs() < 1e-12);
        // Self times partition the root's duration.
        let total: f64 = t
            .self_ms_by_name()
            .iter()
            .filter(|(n, _)| !["setup.x", "second_op", "store.c"].contains(n))
            .map(|(_, ms)| ms)
            .sum();
        let root = (spans[1].end_ns - spans[1].start_ns) as f64 / 1e6;
        assert!((total - root).abs() < 1e-9);
    }
}
