//! Per-query tracing: a thread-local span collector.
//!
//! Instrumented code records events through [`crate::count`] and
//! [`crate::stage`], which bump a registry instrument and — only while the
//! calling thread is inside [`record`] — the trace entry of the same
//! catalogue name, so a trace is spelled in the vocabulary of
//! `polygamy_obs::names`. [`span`] remains for the one trace-only span,
//! `parse`; disabled, it never even reads the clock. A frontend that wants
//! a trace (CLI `query --trace`, the REPL's `explain` prefix) wraps the
//! execution in [`record`] and receives a [`Trace`], **separate from the
//! result value**, so the traced and untraced result bytes are identical
//! by construction (the determinism matrix pins this).
//!
//! The collector is thread-local on purpose: the flat executor plans,
//! resolves the cache, and assembles on the *coordinating* thread, so
//! stage spans and planner counts land in the caller's collector without
//! any cross-thread machinery on the hot path. Worker-side events still
//! count globally through the [`crate::Registry`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use polygamy_json::write_str;

#[derive(Default)]
struct Collector {
    spans: Vec<TraceSpan>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// One timed span: a name and its monotonic-clock wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// The span name: a `core.stage.*` (or other `*_ns`) catalogue name,
    /// or `parse`.
    pub name: String,
    /// Elapsed wall time in nanoseconds.
    pub nanos: u64,
}

/// Everything one [`record`] call collected: spans in completion order
/// plus named event counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Completed spans, in completion order.
    pub spans: Vec<TraceSpan>,
    /// Event counts, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Trace {
    /// The named count (zero when the event never fired).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The total nanoseconds of every span with this name.
    pub fn span_nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .sum()
    }

    /// A single-line JSON rendering:
    ///
    /// ```text
    /// {"spans":[{"name":"core.stage.expand_ns","ns":1234},…],"counters":{"core.tasks_expanded":8,…}}
    /// ```
    ///
    /// Span timings vary run to run, so this string is diagnostic
    /// output, never part of the canonical result bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_str(&mut out, &s.name);
            let _ = write!(out, ",\"ns\":{}}}", s.nanos);
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("}}");
        out
    }
}

/// True while the calling thread is inside [`record`].
pub fn enabled() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Runs `f` with a collector installed on this thread and returns its
/// result together with the collected [`Trace`]. Nests: an inner
/// `record` shadows the outer collector for its extent, then restores
/// it.
pub fn record<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let prev = COLLECTOR.with(|c| c.borrow_mut().replace(Collector::default()));
    let out = f();
    let collector = COLLECTOR
        .with(|c| std::mem::replace(&mut *c.borrow_mut(), prev))
        .expect("collector installed above");
    (
        out,
        Trace {
            spans: collector.spans,
            counters: collector
                .counters
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        },
    )
}

/// A live span; records its wall time into the thread's collector when
/// dropped. Inert (no clock read) when no collector is installed.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Starts a trace-only span — one the registry does not time (a timed
/// stage is [`crate::stage`]). Keep the guard alive for the region being
/// timed:
///
/// ```
/// # fn parse_everything() {}
/// let _span = polygamy_obs::trace::span("parse");
/// parse_everything();
/// // timed region ends when `_span` drops
/// ```
#[must_use = "a span measures until the guard drops; binding it to `_` ends it immediately"]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            push_span(self.name, crate::nanos_since(t0));
        }
    }
}

/// Appends a completed span to the thread's collector; a no-op when no
/// collector is installed.
pub(crate) fn push_span(name: &'static str, nanos: u64) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            col.spans.push(TraceSpan {
                name: name.to_string(),
                nanos,
            });
        }
    });
}

/// Adds `n` to the named event count in the thread's collector; a no-op
/// when no collector is installed. Crate-private: events enter a trace
/// through [`crate::count`], under a catalogue name.
pub(crate) fn add(name: &'static str, n: u64) {
    COLLECTOR.with(|c| {
        if let Some(col) = c.borrow_mut().as_mut() {
            *col.counters.entry(name).or_insert(0) += n;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_collect_nothing() {
        assert!(!enabled());
        {
            let _s = span("ghost");
            add("ghost", 1);
        }
        let (_, t) = record(|| {});
        assert!(t.spans.is_empty());
        assert!(t.counters.is_empty());
    }

    #[test]
    fn record_collects_spans_and_counts() {
        let (value, t) = record(|| {
            {
                let _s = span("outer");
                let _inner = span("inner");
                add("events", 2);
            }
            add("events", 1);
            7
        });
        assert_eq!(value, 7);
        // Completion order: inner drops before outer.
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
        assert_eq!(t.counter("events"), 3);
        assert_eq!(t.counter("absent"), 0);
        // The outer span encloses the inner one, so it cannot be shorter.
        assert!(t.span_nanos("outer") >= t.spans[0].nanos);
    }

    #[test]
    fn nested_record_shadows_and_restores() {
        let (_, outer) = record(|| {
            add("outer-only", 1);
            let (_, inner) = record(|| add("inner-only", 5));
            assert_eq!(inner.counter("inner-only"), 5);
            assert_eq!(inner.counter("outer-only"), 0);
            add("outer-only", 1);
        });
        assert_eq!(outer.counter("outer-only"), 2);
        assert_eq!(outer.counter("inner-only"), 0);
    }

    #[test]
    fn trace_json_shape() {
        let t = Trace {
            spans: vec![TraceSpan {
                name: "core.stage.expand_ns".into(),
                nanos: 42,
            }],
            counters: vec![("core.tasks_expanded".into(), 8)],
        };
        assert_eq!(
            t.to_json(),
            r#"{"spans":[{"name":"core.stage.expand_ns","ns":42}],"counters":{"core.tasks_expanded":8}}"#
        );
        assert_eq!(Trace::default().to_json(), r#"{"spans":[],"counters":{}}"#);
    }
}
