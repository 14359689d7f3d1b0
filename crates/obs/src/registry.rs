//! The process-wide instrument registry and its serializable snapshot.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use polygamy_json::{self as json, write_str, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// A name → instrument map. Instruments are created on first request and
/// live for the registry's lifetime. A lookup of a registered name takes
/// the lock and allocates nothing, so instrumented code names its
/// instrument at every event ([`crate::count`], [`crate::stage`]) instead
/// of caching handles.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The instrument under `name` in `map`, created by `make` on first use:
/// a hit is one lookup by `&str`, and only a miss allocates the key.
fn lookup<T>(map: &mut BTreeMap<String, Arc<T>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    if let Some(hit) = map.get(name) {
        return Arc::clone(hit);
    }
    Arc::clone(
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(make())),
    )
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every layer reports into — the thing the
/// daemon's `M` frame, `--metrics-jsonl` and `polygamy-store inspect`
/// snapshot.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The maps, recovered even from a poisoned lock: every update under
    /// it is one map insert or one atomic add, so no panic can leave the
    /// maps half-updated — and the `Drop` of a [`crate::Stage`] or a
    /// connection guard, which counts through here, must not panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lookup(&mut self.lock().counters, name, Counter::new)
    }

    /// Adds `n` to the counter under `name` without handing out a handle:
    /// the registry half of [`crate::count`].
    pub(crate) fn add(&self, name: &str, n: u64) {
        let mut inner = self.lock();
        match inner.counters.get(name) {
            Some(counter) => counter.add(n),
            None => inner.counters.entry(name.to_owned()).or_default().add(n),
        }
    }

    /// The gauge registered under `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        lookup(&mut self.lock().gauges, name, Gauge::new)
    }

    /// The histogram registered under `name`, created over `bounds` on
    /// first use. Every caller must pass the same pinned bounds for a
    /// given name (debug-asserted): mixed bounds would make the merged
    /// distribution meaningless.
    pub fn histogram(&self, name: &str, bounds: &'static [u64]) -> Arc<Histogram> {
        let h = lookup(&mut self.lock().histograms, name, || Histogram::new(bounds));
        debug_assert_eq!(
            h.bounds(),
            bounds,
            "histogram `{name}` registered with conflicting bounds"
        );
        h
    }

    /// A point-in-time copy of every registered instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`] — the payload of the daemon's
/// `M` frame, of `--metrics-jsonl` lines, and of the benchmark
/// snapshot's observability section.
///
/// The JSON rendering is **deterministic** (names sort lexicographically
/// — `BTreeMap` order), so two snapshots of identical state are
/// byte-identical, and [`MetricsSnapshot::parse_json`] inverts
/// [`MetricsSnapshot::to_json`] exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram bins by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter's value, zero when it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge's level, zero when it was never registered.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// True when every counter in `self` is ≥ its value in `earlier` —
    /// the monotonicity check clients run across repeated `M` frames.
    pub fn is_monotonic_since(&self, earlier: &MetricsSnapshot) -> bool {
        earlier
            .counters
            .iter()
            .all(|(name, &v)| self.counter(name) >= v)
    }

    /// The canonical single-line JSON rendering:
    ///
    /// ```text
    /// {"counters":{…},"gauges":{…},"histograms":{"name":{"bounds":[…],"counts":[…],"sum":N}}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, name);
            out.push_str(":{\"bounds\":[");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"sum\":{}}}", h.sum);
        }
        out.push_str("}}");
        out
    }

    /// Parses the JSON produced by [`MetricsSnapshot::to_json`]. All
    /// three sections are required; unknown extra keys are rejected, so
    /// a malformed or foreign payload fails loudly, and every count must
    /// be an integer token in range — a float or a boolean is an error.
    pub fn parse_json(src: &str) -> Result<Self, json::Error> {
        let root = json::parse(src)?;
        let known = ["counters", "gauges", "histograms"];
        for (k, _) in root.as_object()? {
            if !known.contains(&k.as_str()) {
                let message = format!("unknown snapshot section `{k}`");
                return Err(json::Error::Invalid(message));
            }
        }
        let in_context = |what: &str, name: &str| {
            let what = format!("{what} `{name}`");
            move |e: json::Error| json::Error::Invalid(format!("{what}: {e}"))
        };
        let mut snapshot = MetricsSnapshot::default();
        for (name, v) in root.get("counters")?.as_object()? {
            let value = v.as_int().map_err(in_context("counter", name))?;
            snapshot.counters.insert(name.clone(), value);
        }
        for (name, v) in root.get("gauges")?.as_object()? {
            let value = v.as_int().map_err(in_context("gauge", name))?;
            snapshot.gauges.insert(name.clone(), value);
        }
        for (name, h) in root.get("histograms")?.as_object()? {
            let read = || -> Result<HistogramSnapshot, json::Error> {
                let ints = |key| -> Result<Vec<u64>, json::Error> {
                    h.get(key)?.as_array()?.iter().map(Value::as_int).collect()
                };
                let (bounds, counts) = (ints("bounds")?, ints("counts")?);
                if counts.len() != bounds.len() + 1 {
                    return Err(json::Error::Invalid(format!(
                        "{} counts for {} bounds",
                        counts.len(),
                        bounds.len()
                    )));
                }
                let sum = h.get("sum")?.as_int()?;
                Ok(HistogramSnapshot {
                    bounds,
                    counts,
                    sum,
                })
            };
            let histogram = read().map_err(in_context("histogram", name))?;
            snapshot.histograms.insert(name.clone(), histogram);
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BATCH_SIZE_BUCKETS;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").get(), 5);
        r.gauge("g").add(4);
        assert_eq!(r.gauge("g").get(), 4);
        r.histogram("h", BATCH_SIZE_BUCKETS).record(3);
        assert_eq!(r.histogram("h", BATCH_SIZE_BUCKETS).snapshot().count(), 1);
    }

    #[test]
    fn snapshot_json_round_trips_byte_exactly() {
        let r = Registry::new();
        r.counter("store.bytes_fetched").add(512);
        r.counter("core.queries").inc();
        r.gauge("serve.inflight").set(-3);
        let h = r.histogram("serve.batch_size", BATCH_SIZE_BUCKETS);
        h.record(1);
        h.record(7);
        h.record(9999); // overflow
        let snap = r.snapshot();
        let json = snap.to_json();
        let parsed = MetricsSnapshot::parse_json(&json).expect("parses");
        assert_eq!(parsed, snap);
        // Determinism: rendering the parse re-produces the same bytes.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn snapshot_json_shape_is_pinned() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        r.gauge("g").set(-1);
        r.histogram("h", &[1, 2]).record(2);
        assert_eq!(
            r.snapshot().to_json(),
            r#"{"counters":{"a":1,"b":2},"gauges":{"g":-1},"histograms":{"h":{"bounds":[1,2],"counts":[0,1,0],"sum":2}}}"#
        );
    }

    #[test]
    fn parse_rejects_malformed_snapshots() {
        assert!(MetricsSnapshot::parse_json("{}").is_err());
        assert!(MetricsSnapshot::parse_json("[]").is_err());
        assert!(MetricsSnapshot::parse_json(
            r#"{"counters":{},"gauges":{},"histograms":{},"extra":{}}"#
        )
        .is_err());
        assert!(MetricsSnapshot::parse_json(
            r#"{"counters":{"c":-1},"gauges":{},"histograms":{}}"#
        )
        .is_err());
        assert!(MetricsSnapshot::parse_json(
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[0],"sum":0}}}"#
        )
        .is_err());
        assert!(
            MetricsSnapshot::parse_json(r#"{"counters":{},"gauges":{},"histograms":{}}"#).is_ok()
        );
    }

    /// Every count is an integer token: a float — even an integral one —
    /// or a boolean where a count is due is an error, in every section.
    #[test]
    fn parse_rejects_non_integer_counts() {
        for bad in [
            r#"{"counters":{"c":1.5},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":2.0},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":true},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":null},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{"c":18446744073709551616},"gauges":{},"histograms":{}}"#,
            r#"{"counters":{},"gauges":{"g":-1e0},"histograms":{}}"#,
            r#"{"counters":{},"gauges":{"g":false},"histograms":{}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1.0],"counts":[0,0],"sum":0}}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[0,true],"sum":0}}}"#,
            r#"{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[0,0],"sum":0.5}}}"#,
        ] {
            assert!(MetricsSnapshot::parse_json(bad).is_err(), "{bad}");
        }
        let good = r#"{"counters":{"c":18446744073709551615},"gauges":{"g":-9223372036854775808},"histograms":{}}"#;
        let parsed = MetricsSnapshot::parse_json(good).unwrap();
        assert_eq!(
            (parsed.counter("c"), parsed.gauge("g")),
            (u64::MAX, i64::MIN)
        );
    }

    #[test]
    fn monotonicity_check() {
        let mut earlier = MetricsSnapshot::default();
        earlier.counters.insert("a".into(), 2);
        let mut later = earlier.clone();
        later.counters.insert("a".into(), 5);
        later.counters.insert("b".into(), 1);
        assert!(later.is_monotonic_since(&earlier));
        assert!(!earlier.is_monotonic_since(&later));
    }

    #[test]
    fn global_registry_is_one_per_process() {
        global().counter("test.global_registry_probe").add(7);
        assert!(global().snapshot().counter("test.global_registry_probe") >= 7);
    }
}
