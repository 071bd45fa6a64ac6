//! Zero-dependency observability for the `s2s` workspace.
//!
//! A 16-month measurement campaign only survives in production when the
//! operators can see inside it. This crate is the seam that makes that
//! possible without perturbing the measurements themselves:
//!
//! * [`Registry`] — a lock-cheap metrics registry: [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket latency [`Histogram`]s, all plain
//!   atomics behind a shared `Arc`, so hot loops pay one relaxed
//!   `fetch_add` per update and readers never block writers,
//! * [`timed`] — lightweight span timing accumulating count / total / max
//!   per label ([`SpanStats`]),
//! * a bounded in-memory event log ([`Registry::event`]) for *rare*
//!   events — worker panics, retry exhaustion, checkpoint writes, LRU
//!   evictions — capped so a misbehaving caller cannot leak memory,
//! * [`Snapshot`] — a point-in-time copy with a schema-stable JSON
//!   rendering (keys sorted, layout fixed) and a human summary table.
//!
//! Instrumentation is compiled in but **effectively free when disabled**:
//! every global helper guards on one relaxed [`AtomicBool`] load and
//! no-ops unless a registry has been [`install`]ed. Nothing in this crate
//! feeds back into simulation state, so enabling metrics can never change
//! a dataset — the byte-identity suites run with metrics on to prove it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Atomically adds `v` to an f64 stored as bits in an [`AtomicU64`].
fn add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Default bucket upper bounds (milliseconds) for latency histograms.
pub const DEFAULT_LATENCY_BOUNDS_MS: &[f64] =
    &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0];

/// A fixed-bucket histogram of non-negative values (latencies, sizes).
///
/// Buckets are cumulative-compatible: `buckets[i]` counts observations
/// `<= bounds[i]`; one overflow bucket catches the rest. `sum` and `max`
/// ride atomic f64 bit patterns — for non-negative IEEE floats the bit
/// order matches the numeric order, so `max` is a plain `fetch_max`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    /// Records one non-negative observation (negative values clamp to 0).
    pub fn observe(&self, v: f64) {
        let v = if v.is_nan() { return } else { v.max(0.0) };
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&self.sum_bits, v);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket counts as `(upper_bound, count)`; the final entry is the
    /// overflow bucket with an infinite bound.
    pub fn bucket_counts(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }
}

/// Accumulated timing for one span label: count, total, and max.
#[derive(Debug, Default)]
pub struct SpanStats {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStats {
    /// A fresh zeroed accumulator.
    pub fn new() -> SpanStats {
        SpanStats::default()
    }

    /// Folds one span duration in.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of spans recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total time across all spans.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed))
    }

    /// Longest single span.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }
}

/// One entry in the bounded event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotone sequence number (survives eviction, so gaps reveal drops).
    pub seq: u64,
    /// What kind of event this is, e.g. `"campaign.worker_panic"`.
    pub label: String,
    /// Free-form detail.
    pub detail: String,
}

/// How many events the log retains before dropping the oldest.
const EVENT_LOG_CAP: usize = 256;

/// The metrics registry: named counters, gauges, histograms, span
/// accumulators, and a bounded event log.
///
/// All accessors are get-or-create and hand back `Arc`s, so callers cache
/// the handle once and update a plain atomic afterwards. Existing atomics
/// can be *shared into* the registry (e.g. [`Registry::register_counter`])
/// so subsystems keep their own fields and snapshots still see them live.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: RwLock<BTreeMap<String, Arc<SpanStats>>>,
    events: Mutex<std::collections::VecDeque<EventRecord>>,
    event_seq: AtomicU64,
}

/// Get-or-create in one of the registry's maps (read-lock fast path).
fn get_or_insert<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    mk: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(v) = map.read().expect("obs registry poisoned").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("obs registry poisoned");
    Arc::clone(w.entry(name.to_string()).or_insert_with(|| Arc::new(mk())))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::new)
    }

    /// Shares an existing counter into the registry under `name`, so
    /// snapshots see the owner's live value. Returns the counter that is
    /// registered after the call (an earlier registration wins).
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) -> Arc<Counter> {
        let mut w = self.counters.write().expect("obs registry poisoned");
        Arc::clone(w.entry(name.to_string()).or_insert(counter))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (later calls keep the original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(bounds))
    }

    /// The span accumulator named `name`, created on first use.
    pub fn span(&self, name: &str) -> Arc<SpanStats> {
        get_or_insert(&self.spans, name, SpanStats::new)
    }

    /// Appends an event, evicting the oldest entry past the cap. The
    /// sequence number keeps counting across evictions, so a gap between
    /// the first retained `seq` and 0 shows how much history was dropped.
    pub fn event(&self, label: &str, detail: String) {
        let seq = self.event_seq.fetch_add(1, Ordering::Relaxed);
        let mut log = self.events.lock().expect("obs event log poisoned");
        if log.len() >= EVENT_LOG_CAP {
            log.pop_front();
        }
        log.push_back(EventRecord { seq, label: to_owned_label(label), detail });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        self.events.lock().expect("obs event log poisoned").iter().cloned().collect()
    }

    /// A point-in-time copy of everything in the registry.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: v.count(),
                        sum: v.sum(),
                        max: v.max(),
                        buckets: v.bucket_counts(),
                    },
                )
            })
            .collect();
        let spans = self
            .spans
            .read()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    SpanSnapshot { count: v.count(), total: v.total(), max: v.max() },
                )
            })
            .collect();
        Snapshot { counters, gauges, histograms, spans, events: self.events() }
    }
}

fn to_owned_label(label: &str) -> String {
    label.to_string()
}

/// A frozen copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// `(upper_bound, count)` per bucket; the last bound is infinite.
    pub buckets: Vec<(f64, u64)>,
}

/// A frozen copy of a [`SpanStats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Number of spans.
    pub count: u64,
    /// Total time.
    pub total: Duration,
    /// Longest span.
    pub max: Duration,
}

/// A point-in-time copy of a [`Registry`], renderable as schema-stable
/// JSON or a human summary table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span accumulators by name.
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Retained events, oldest first.
    pub events: Vec<EventRecord>,
}

/// Escapes a string for a JSON string literal (no surrounding quotes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an f64 for JSON (finite decimal; infinities become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Renders the snapshot as JSON with a stable schema: object keys are
    /// the sorted metric names, layout is fixed, floats print with six
    /// decimals, histogram bucket bounds print with the overflow bound as
    /// `null`. Diffing two dumps diffs only the values.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            s.push_str(if first { "\n" } else { ",\n" });
            s.push_str(&format!("    \"{}\": {}", json_escape(k), v));
            first = false;
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            s.push_str(if first { "\n" } else { ",\n" });
            s.push_str(&format!("    \"{}\": {}", json_escape(k), v));
            first = false;
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            s.push_str(if first { "\n" } else { ",\n" });
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(le, n)| format!("[{}, {}]", json_f64(*le), n))
                .collect();
            s.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}",
                json_escape(k),
                h.count,
                json_f64(h.sum),
                json_f64(h.max),
                buckets.join(", ")
            ));
            first = false;
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"spans\": {");
        first = true;
        for (k, sp) in &self.spans {
            s.push_str(if first { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"total_ms\": {}, \"max_ms\": {}}}",
                json_escape(k),
                sp.count,
                json_f64(sp.total.as_secs_f64() * 1e3),
                json_f64(sp.max.as_secs_f64() * 1e3)
            ));
            first = false;
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"events\": [");
        first = true;
        for e in &self.events {
            s.push_str(if first { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"seq\": {}, \"label\": \"{}\", \"detail\": \"{}\"}}",
                e.seq,
                json_escape(&e.label),
                json_escape(&e.detail)
            ));
            first = false;
        }
        s.push_str(if first { "]\n}\n" } else { "\n  ]\n}\n" });
        s
    }

    /// Renders the counters, gauges and spans — not histograms or events —
    /// as one compact JSON object on a single line, keys sorted:
    /// `{"counters":{..},"gauges":{..},"spans":{"name":{"count":n,
    /// "total_ms":x,"max_ms":y},..}}`, floats with six decimals. What a live
    /// service answers to a `metrics` query.
    pub fn to_json_line(&self) -> String {
        let object = |fields: Vec<String>| format!("{{{}}}", fields.join(","));
        let values = |map: &BTreeMap<String, u64>| {
            object(map.iter().map(|(k, v)| format!("\"{}\":{v}", json_escape(k))).collect())
        };
        let spans = object(
            self.spans
                .iter()
                .map(|(k, sp)| {
                    format!(
                        "\"{}\":{{\"count\":{},\"total_ms\":{},\"max_ms\":{}}}",
                        json_escape(k),
                        sp.count,
                        json_f64(sp.total.as_secs_f64() * 1e3),
                        json_f64(sp.max.as_secs_f64() * 1e3)
                    )
                })
                .collect(),
        );
        format!(
            "{{\"counters\":{},\"gauges\":{},\"spans\":{spans}}}",
            values(&self.counters),
            values(&self.gauges)
        )
    }

    /// A terse human-readable table of everything non-empty.
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            for (k, v) in &self.counters {
                s.push_str(&format!("  {k:<40} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                s.push_str(&format!("  {k:<40} {v}\n"));
            }
        }
        if !self.spans.is_empty() {
            s.push_str("spans (count / total / max):\n");
            for (k, sp) in &self.spans {
                s.push_str(&format!(
                    "  {k:<40} {} / {:?} / {:?}\n",
                    sp.count, sp.total, sp.max
                ));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("histograms (count / mean / max):\n");
            for (k, h) in &self.histograms {
                let mean = if h.count > 0 { h.sum / h.count as f64 } else { 0.0 };
                s.push_str(&format!(
                    "  {k:<40} {} / {mean:.3} / {:.3}\n",
                    h.count, h.max
                ));
            }
        }
        if !self.events.is_empty() {
            // The full retained log is in `events` / the JSON dump; the
            // human summary shows only the tail so a chatty label (cache
            // evictions, say) can't drown the table.
            const SHOWN: usize = 10;
            s.push_str("events");
            if self.events.len() > SHOWN {
                s.push_str(&format!(
                    " (last {SHOWN} of {} retained)", self.events.len()
                ));
            }
            s.push_str(":\n");
            let skip = self.events.len().saturating_sub(SHOWN);
            for e in &self.events[skip..] {
                s.push_str(&format!("  [{}] {}: {}\n", e.seq, e.label, e.detail));
            }
        }
        if s.is_empty() {
            s.push_str("(no metrics recorded)\n");
        }
        s
    }
}

// ---------------------------------------------------------------------------
// Global registry slot
// ---------------------------------------------------------------------------

/// Fast-path guard: one relaxed load decides whether any instrumentation
/// does work at all.
static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// Whether a registry is installed. Instrumented hot paths check this
/// first; when false they cost a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `registry` as the process-wide default. Instrumented code all
/// over the workspace starts recording into it immediately.
pub fn install(registry: Arc<Registry>) {
    *GLOBAL.write().expect("obs global slot poisoned") = Some(registry);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Removes the installed registry; instrumentation returns to no-ops.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    *GLOBAL.write().expect("obs global slot poisoned") = None;
}

/// The installed registry, if any.
pub fn installed() -> Option<Arc<Registry>> {
    if !enabled() {
        return None;
    }
    GLOBAL.read().expect("obs global slot poisoned").clone()
}

/// Times `f` into the global span accumulator for `label`; just runs `f`
/// when no registry is installed.
#[inline]
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let Some(reg) = installed() else { return f() };
    let t = Instant::now();
    let out = f();
    reg.span(label).record(t.elapsed());
    out
}

/// Bumps the global counter `name` by one (no-op when disabled).
#[inline]
pub fn inc(name: &str) {
    if let Some(reg) = installed() {
        reg.counter(name).inc();
    }
}

/// Bumps the global counter `name` by `n` (no-op when disabled).
#[inline]
pub fn add(name: &str, n: u64) {
    if let Some(reg) = installed() {
        reg.counter(name).add(n);
    }
}

/// Logs an event to the global registry. `detail` is lazy so the disabled
/// path never formats anything.
#[inline]
pub fn event(label: &str, detail: impl FnOnce() -> String) {
    if let Some(reg) = installed() {
        reg.event(label, detail());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b").get(), 5, "same name, same counter");
        let g = r.gauge("g");
        g.set(9);
        g.set(3);
        assert_eq!(r.gauge("g").get(), 3);
    }

    #[test]
    fn registered_counter_is_shared_live() {
        let r = Registry::new();
        let mine = Arc::new(Counter::new());
        r.register_counter("shared", Arc::clone(&mine));
        mine.add(7);
        assert_eq!(r.snapshot().counters["shared"], 7);
        // A second registration under the same name does not displace it.
        let other = Arc::new(Counter::new());
        let kept = r.register_counter("shared", other);
        kept.inc();
        assert_eq!(mine.get(), 8);
    }

    #[test]
    fn histogram_bucketing_is_exact() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.0, 0.5, 1.0, 1.5, 10.0, 99.9, 100.0, 100.1, 1e9] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        h.observe(-3.0); // clamps to 0
        let counts: Vec<u64> = h.bucket_counts().iter().map(|&(_, n)| n).collect();
        // <=1: {0, 0.5, 1.0, 0(clamped)}; <=10: {1.5, 10.0}; <=100: {99.9,
        // 100.0}; overflow: {100.1, 1e9}.
        assert_eq!(counts, vec![4, 2, 2, 2]);
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 1e9);
        let bounds: Vec<f64> = h.bucket_counts().iter().map(|&(b, _)| b).collect();
        assert_eq!(bounds, vec![1.0, 10.0, 100.0, f64::INFINITY]);
        assert!((h.sum() - (0.5 + 1.0 + 1.5 + 10.0 + 99.9 + 100.0 + 100.1 + 1e9)).abs() < 1e-6);
    }

    #[test]
    fn registry_is_consistent_under_concurrent_writers() {
        let r = Arc::new(Registry::new());
        let threads = 8;
        let per_thread = 5_000u64;
        thread::scope(|scope| {
            for ti in 0..threads {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    // Everyone hammers one shared counter, plus a private
                    // one, plus the histogram and a span — through the
                    // get-or-create path every iteration.
                    for i in 0..per_thread {
                        r.counter("shared").inc();
                        r.counter(&format!("private.{ti}")).inc();
                        r.histogram("h", &[10.0, 100.0]).observe((i % 200) as f64);
                        r.span("s").record(Duration::from_nanos(i));
                        if i % 1000 == 0 {
                            r.event("tick", format!("t{ti} i{i}"));
                        }
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters["shared"], threads as u64 * per_thread);
        for ti in 0..threads {
            assert_eq!(snap.counters[&format!("private.{ti}")], per_thread);
        }
        let h = &snap.histograms["h"];
        assert_eq!(h.count, threads as u64 * per_thread);
        assert_eq!(h.buckets.iter().map(|&(_, n)| n).sum::<u64>(), h.count);
        assert_eq!(snap.spans["s"].count, threads as u64 * per_thread);
        assert!(snap.events.len() <= EVENT_LOG_CAP);
    }

    #[test]
    fn event_log_is_bounded_and_keeps_newest() {
        let r = Registry::new();
        for i in 0..(EVENT_LOG_CAP + 10) {
            r.event("e", format!("{i}"));
        }
        let events = r.events();
        assert_eq!(events.len(), EVENT_LOG_CAP);
        assert_eq!(events.first().unwrap().seq, 10, "oldest entries evicted");
        assert_eq!(events.last().unwrap().seq, (EVENT_LOG_CAP + 10 - 1) as u64);
    }

    #[test]
    fn snapshot_json_is_schema_stable() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").inc();
        r.gauge("g").set(5);
        r.histogram("lat", &[1.0, 2.0]).observe(1.5);
        r.span("work").record(Duration::from_millis(3));
        r.event("evt", "hello \"world\"\n".to_string());
        let json = r.snapshot().to_json();
        // Keys sorted, fixed layout.
        assert!(json.find("\"a\": 1").unwrap() < json.find("\"b\": 2").unwrap());
        for key in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\"", "\"events\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\\\"world\\\"\\n"), "escaping: {json}");
        // Two snapshots of the same registry render identically.
        assert_eq!(json, r.snapshot().to_json());
        // An empty registry still renders every section.
        let empty = Registry::new().snapshot().to_json();
        for key in ["\"counters\"", "\"events\""] {
            assert!(empty.contains(key));
        }
    }

    #[test]
    fn json_line_is_one_sorted_line() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a\"q").inc();
        r.gauge("g").set(5);
        r.histogram("lat", &[1.0]).observe(0.5);
        r.span("work").record(Duration::from_micros(1500));
        r.event("evt", "not rendered".to_string());
        assert_eq!(
            r.snapshot().to_json_line(),
            "{\"counters\":{\"a\\\"q\":1,\"b\":2},\"gauges\":{\"g\":5},\
             \"spans\":{\"work\":{\"count\":1,\"total_ms\":1.500000,\"max_ms\":1.500000}}}"
        );
        assert_eq!(
            Registry::new().snapshot().to_json_line(),
            "{\"counters\":{},\"gauges\":{},\"spans\":{}}"
        );
    }

    #[test]
    fn global_install_gates_helpers() {
        // Serialize with other global-state tests via a dedicated lock.
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap();
        uninstall();
        assert!(!enabled());
        inc("nope");
        assert_eq!(timed("t", || 42), 42);
        event("nope", || unreachable!("detail must not be built when disabled"));

        let reg = Arc::new(Registry::new());
        install(Arc::clone(&reg));
        assert!(enabled());
        inc("yes");
        add("yes", 2);
        let out = timed("t", || 7);
        assert_eq!(out, 7);
        event("e", || "d".to_string());
        uninstall();
        inc("yes"); // after uninstall: dropped
        let snap = reg.snapshot();
        assert_eq!(snap.counters["yes"], 3);
        assert_eq!(snap.spans["t"].count, 1);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn summary_table_mentions_everything() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(1);
        r.histogram("h", &[1.0]).observe(0.5);
        r.span("s").record(Duration::from_micros(10));
        r.event("e", "detail".into());
        let t = r.snapshot().summary_table();
        for needle in ["c", "g", "h", "s", "e: detail"] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
        assert_eq!(Registry::new().snapshot().summary_table(), "(no metrics recorded)\n");
    }
}
