//! Process-global metrics registry: monotonic counters, gauges, and
//! fixed-window rolling histograms with a deterministic Prometheus
//! text exposition.
//!
//! Where the span/event recorder ([`crate::enable`] … [`crate::drain`])
//! captures a *bounded run* and drains it destructively, this registry serves a
//! *long-running process*: a daemon calls [`metrics_enable`] once at
//! startup and scrapes [`render_prometheus`] for as long as it lives.
//! The two subsystems share the design that made the recorder cheap —
//! every entry point is guarded by a single relaxed atomic load, so an
//! un-enabled process pays a few nanoseconds and takes no lock.
//!
//! Three metric kinds are supported, each keyed by `(name, label set)`:
//!
//! - **counters** ([`counter_add`]): monotonically increasing `u64`
//!   totals (requests, dedup hits, resume counts);
//! - **gauges** ([`gauge_set`]): last-write-wins `f64` levels (queue
//!   depth, in-flight connections, cache sizes);
//! - **rolling histograms** ([`observe_rolling`]): a ring of
//!   [`HistogramStats`] log-bucket windows, [`WINDOW_SECONDS`] seconds
//!   each, [`ROLLING_WINDOWS`] deep — quantiles answer "p95 over the
//!   last ~5 minutes", not "since boot", so a latency regression shows
//!   up within a scrape interval instead of being averaged away.
//!
//! The exposition is deterministic: metric names render in sorted
//! order within each type section, label sets render in sorted order
//! within a metric, label keys are sorted within a set, and the body
//! carries no timestamps — two scrapes of the same logical state are
//! byte-identical. Label cardinality is capped per metric at
//! [`MAX_LABEL_SETS`]; past the cap, new label sets collapse onto an
//! overflow series whose values are [`OVERFLOW_LABEL_VALUE`], so a
//! misbehaving client cannot grow the registry without bound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::HistogramStats;

/// Length of one rolling-histogram window, in seconds.
pub const WINDOW_SECONDS: u64 = 10;

/// Number of windows a rolling histogram keeps (~5 minutes of tail).
pub const ROLLING_WINDOWS: usize = 30;

/// Maximum distinct label sets per metric before overflow collapsing.
pub const MAX_LABEL_SETS: usize = 64;

/// Label value used for series collapsed by the cardinality cap.
pub const OVERFLOW_LABEL_VALUE: &str = "_other";

/// Fast-path gate: when false, every entry point returns immediately.
static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global registry; `None` until first enabled.
static REGISTRY: Mutex<Option<MetricsRegistry>> = Mutex::new(None);

/// A sorted `(key, value)` label list; the `BTreeMap` series key.
type LabelSet = Vec<(String, String)>;

/// One metric's series map, shared across kinds.
type Series<T> = BTreeMap<LabelSet, T>;

/// A ring of log-bucket histogram windows indexed by wall-window
/// number. Recording into window `w` claims slot `w % ROLLING_WINDOWS`,
/// evicting whatever older window lived there; reading merges every
/// slot still within the last [`ROLLING_WINDOWS`] windows of "now".
#[derive(Debug, Clone)]
struct RollingHist {
    slots: Vec<Option<(u64, HistogramStats)>>,
}

impl RollingHist {
    fn new() -> Self {
        Self {
            slots: vec![None; ROLLING_WINDOWS],
        }
    }

    /// Records one sample into window `window`.
    fn record(&mut self, window: u64, value: f64) {
        #[allow(clippy::cast_possible_truncation)]
        let idx = (window % ROLLING_WINDOWS as u64) as usize;
        match &mut self.slots[idx] {
            Some((w, hist)) if *w == window => hist.record(value),
            slot => {
                let mut hist = HistogramStats::default();
                hist.record(value);
                *slot = Some((window, hist));
            }
        }
    }

    /// Merges every window still live at `now_window` into one
    /// histogram. Slots older than the ring depth are skipped, so a
    /// long-idle metric decays to an empty distribution.
    fn merged(&self, now_window: u64) -> HistogramStats {
        let oldest = now_window.saturating_sub(ROLLING_WINDOWS as u64 - 1);
        let mut out = HistogramStats::default();
        for (w, hist) in self.slots.iter().flatten() {
            if *w >= oldest && *w <= now_window {
                out.merge(hist);
            }
        }
        out
    }
}

/// Registry state behind the mutex.
struct MetricsRegistry {
    /// Process epoch; window indices count from here.
    epoch: Instant,
    counters: BTreeMap<String, Series<u64>>,
    gauges: BTreeMap<String, Series<f64>>,
    summaries: BTreeMap<String, Series<RollingHist>>,
}

impl MetricsRegistry {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            summaries: BTreeMap::new(),
        }
    }

    /// Current rolling-window index.
    fn window_now(&self) -> u64 {
        self.epoch.elapsed().as_secs() / WINDOW_SECONDS
    }
}

/// Locks the registry, tolerating poisoning (a panicking instrumented
/// thread must not take telemetry down with it).
fn lock_registry() -> MutexGuard<'static, Option<MetricsRegistry>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Enables metrics recording. Idempotent: re-enabling keeps existing
/// series (a daemon may call this from multiple entry points).
pub fn metrics_enable() {
    let mut guard = lock_registry();
    if guard.is_none() {
        *guard = Some(MetricsRegistry::new());
    }
    METRICS_ENABLED.store(true, Ordering::Relaxed);
}

/// Disables recording and discards all series. Primarily for tests;
/// a daemon normally keeps metrics on for its whole life.
pub fn metrics_disable() {
    METRICS_ENABLED.store(false, Ordering::Relaxed);
    *lock_registry() = None;
}

/// Whether metrics recording is currently enabled.
#[must_use]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Builds the canonical sorted label set from caller-order pairs.
fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

/// Admission under the cardinality cap: an existing series key passes
/// through; a new key past [`MAX_LABEL_SETS`] collapses every label
/// value to [`OVERFLOW_LABEL_VALUE`] (keys are preserved so the
/// overflow series stays queryable per label dimension).
fn admit_key<T>(series: &Series<T>, key: LabelSet) -> LabelSet {
    if series.contains_key(&key) || series.len() < MAX_LABEL_SETS {
        return key;
    }
    key.into_iter()
        .map(|(k, _)| (k, OVERFLOW_LABEL_VALUE.to_string()))
        .collect()
}

/// Adds `delta` to the counter `name` for the given labels.
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    if !METRICS_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = lock_registry();
    let Some(registry) = guard.as_mut() else {
        return;
    };
    let series = registry.counters.entry(name.to_string()).or_default();
    let key = admit_key(series, label_set(labels));
    *series.entry(key).or_insert(0) += delta;
}

/// Sets the gauge `name` for the given labels to `value`.
pub fn gauge_set(name: &str, labels: &[(&str, &str)], value: f64) {
    if !METRICS_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = lock_registry();
    let Some(registry) = guard.as_mut() else {
        return;
    };
    let series = registry.gauges.entry(name.to_string()).or_default();
    let key = admit_key(series, label_set(labels));
    series.insert(key, value);
}

/// Records `value` into the rolling histogram `name` for the given
/// labels, in the current 10-second window.
pub fn observe_rolling(name: &str, labels: &[(&str, &str)], value: f64) {
    if !METRICS_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut guard = lock_registry();
    let Some(registry) = guard.as_mut() else {
        return;
    };
    let window = registry.window_now();
    let series = registry.summaries.entry(name.to_string()).or_default();
    let key = admit_key(series, label_set(labels));
    series
        .entry(key)
        .or_insert_with(RollingHist::new)
        .record(window, value);
}

/// Returns the merged rolling histogram for `(name, labels)` over the
/// live windows, or `None` when the series does not exist (or metrics
/// are disabled). Lets in-process callers (the service dashboard, the
/// stats endpoint) read quantiles without parsing the exposition.
#[must_use]
pub fn rolling_snapshot(name: &str, labels: &[(&str, &str)]) -> Option<HistogramStats> {
    if !METRICS_ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let guard = lock_registry();
    let registry = guard.as_ref()?;
    let now = registry.window_now();
    let series = registry.summaries.get(name)?;
    series.get(&label_set(labels)).map(|h| h.merged(now))
}

/// Escapes a label value for the exposition (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders a label set (optionally with an extra trailing pair) as
/// `{k="v",…}`, or an empty string for the empty set.
fn render_labels(labels: &LabelSet, extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    out.push('}');
    out
}

/// Formats a sample value: integral values print without a fractional
/// part so counter-like lines stay stable across platforms.
fn fmt_value(value: f64) -> String {
    #[allow(clippy::cast_possible_truncation)]
    if value.is_finite() && value == value.trunc() && value.abs() < 9.0e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Renders the whole registry in Prometheus text-exposition format.
///
/// Sections appear in a fixed order (counters, gauges, summaries);
/// names sort within a section and label sets within a metric, and no
/// timestamp appears anywhere — the body is byte-deterministic for a
/// given logical state. Rolling histograms render as `summary`
/// metrics with `quantile="0.5" | "0.95" | "0.99"` lines plus
/// `_sum`/`_count` over the live windows. Returns an empty string
/// when metrics were never enabled.
#[must_use]
pub fn render_prometheus() -> String {
    let guard = lock_registry();
    let Some(registry) = guard.as_ref() else {
        return String::new();
    };
    let now = registry.window_now();
    let mut out = String::new();
    for (name, series) in &registry.counters {
        out.push_str(&format!("# TYPE {name} counter\n"));
        for (labels, value) in series {
            let rendered = render_labels(labels, None);
            out.push_str(&format!("{name}{rendered} {value}\n"));
        }
    }
    for (name, series) in &registry.gauges {
        out.push_str(&format!("# TYPE {name} gauge\n"));
        for (labels, value) in series {
            let rendered = render_labels(labels, None);
            out.push_str(&format!("{name}{rendered} {}\n", fmt_value(*value)));
        }
    }
    for (name, series) in &registry.summaries {
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (labels, hist) in series {
            let merged = hist.merged(now);
            for (q_label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
                let rendered = render_labels(labels, Some(("quantile", q_label)));
                out.push_str(&format!(
                    "{name}{rendered} {}\n",
                    fmt_value(merged.quantile(q))
                ));
            }
            let rendered = render_labels(labels, None);
            out.push_str(&format!("{name}_sum{rendered} {}\n", fmt_value(merged.sum)));
            out.push_str(&format!("{name}_count{rendered} {}\n", merged.count));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that touch the process-global registry.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        metrics_disable();
        metrics_enable();
        guard
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _serial = serial();
        metrics_disable();
        counter_add("m.requests", &[], 3);
        gauge_set("m.depth", &[], 1.0);
        observe_rolling("m.latency", &[], 0.5);
        assert!(!metrics_enabled());
        assert_eq!(render_prometheus(), "");
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let _serial = serial();
        counter_add("m.requests", &[("tenant", "a")], 1);
        counter_add("m.requests", &[("tenant", "a")], 2);
        counter_add("m.requests", &[("tenant", "b")], 5);
        let body = render_prometheus();
        assert!(body.contains("# TYPE m.requests counter\n"));
        assert!(body.contains("m.requests{tenant=\"a\"} 3\n"));
        assert!(body.contains("m.requests{tenant=\"b\"} 5\n"));
    }

    #[test]
    fn label_keys_sort_regardless_of_caller_order() {
        let _serial = serial();
        counter_add("m.split", &[("status", "200"), ("endpoint", "/x")], 1);
        counter_add("m.split", &[("endpoint", "/x"), ("status", "200")], 1);
        let body = render_prometheus();
        assert!(
            body.contains("m.split{endpoint=\"/x\",status=\"200\"} 2\n"),
            "body:\n{body}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let _serial = serial();
        gauge_set("m.weird", &[("path", "a\"b\\c\nd")], 1.0);
        let body = render_prometheus();
        assert!(
            body.contains("m.weird{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "body:\n{body}"
        );
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let _serial = serial();
        gauge_set("m.depth", &[], 4.0);
        gauge_set("m.depth", &[], 2.5);
        let body = render_prometheus();
        assert!(body.contains("# TYPE m.depth gauge\n"));
        assert!(body.contains("m.depth 2.5\n"));
    }

    #[test]
    fn rolling_histogram_renders_summary_lines() {
        let _serial = serial();
        for i in 1..=100 {
            observe_rolling("m.latency", &[("tenant", "a")], f64::from(i));
        }
        let body = render_prometheus();
        assert!(body.contains("# TYPE m.latency summary\n"));
        assert!(body.contains("m.latency{tenant=\"a\",quantile=\"0.5\"} "));
        assert!(body.contains("m.latency{tenant=\"a\",quantile=\"0.95\"} "));
        assert!(body.contains("m.latency{tenant=\"a\",quantile=\"0.99\"} "));
        assert!(body.contains("m.latency_count{tenant=\"a\"} 100\n"));
        let snap = rolling_snapshot("m.latency", &[("tenant", "a")]).unwrap();
        assert_eq!(snap.count, 100);
        assert!(snap.p95() >= 90.0 && snap.p95() <= 100.0);
    }

    #[test]
    fn render_is_byte_deterministic() {
        let _serial = serial();
        counter_add("m.requests", &[("tenant", "b")], 1);
        counter_add("m.requests", &[("tenant", "a")], 1);
        gauge_set("m.depth", &[], 3.0);
        observe_rolling("m.latency", &[], 0.25);
        let first = render_prometheus();
        let second = render_prometheus();
        assert_eq!(first, second);
        // Counters render before gauges before summaries.
        let counters_at = first.find("# TYPE m.requests counter").unwrap();
        let gauges_at = first.find("# TYPE m.depth gauge").unwrap();
        let summaries_at = first.find("# TYPE m.latency summary").unwrap();
        assert!(counters_at < gauges_at && gauges_at < summaries_at);
        // Label sets render sorted.
        let a_at = first.find("m.requests{tenant=\"a\"}").unwrap();
        let b_at = first.find("m.requests{tenant=\"b\"}").unwrap();
        assert!(a_at < b_at);
    }

    #[test]
    fn cardinality_cap_collapses_new_series() {
        let _serial = serial();
        for i in 0..(MAX_LABEL_SETS + 10) {
            counter_add("m.flood", &[("tenant", &format!("t{i:04}"))], 1);
        }
        let body = render_prometheus();
        let distinct = body.lines().filter(|l| l.starts_with("m.flood{")).count();
        assert_eq!(distinct, MAX_LABEL_SETS + 1);
        assert!(body.contains(&format!(
            "m.flood{{tenant=\"{OVERFLOW_LABEL_VALUE}\"}} 10\n"
        )));
        // Existing series keep counting after the cap is hit.
        counter_add("m.flood", &[("tenant", "t0000")], 1);
        assert!(render_prometheus().contains("m.flood{tenant=\"t0000\"} 2\n"));
    }

    #[test]
    fn rolling_windows_expire() {
        // Exercise the ring directly with synthetic window indices so
        // the test does not sleep through real 10-second windows.
        let mut ring = RollingHist::new();
        ring.record(0, 1.0);
        ring.record(1, 2.0);
        assert_eq!(ring.merged(1).count, 2);
        // Window 0 falls out of scope once "now" passes the ring depth.
        let later = ROLLING_WINDOWS as u64;
        assert_eq!(ring.merged(later).count, 1);
        // A wrapped slot evicts the stale window it replaces.
        ring.record(later, 3.0);
        let merged = ring.merged(later);
        assert_eq!(merged.count, 2);
        assert_eq!(merged.max, 3.0);
        // Far future: everything expired.
        assert_eq!(ring.merged(later + ROLLING_WINDOWS as u64 + 1).count, 0);
    }
}
