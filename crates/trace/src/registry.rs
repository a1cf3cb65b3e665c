//! Named counters, gauges, epoch-windowed rate meters and fixed-bucket
//! histograms with stable snapshots and a Prometheus-style text
//! exposition.
//!
//! Everything here is deterministic by construction: `BTreeMap`-backed
//! storage means snapshots and [`MetricsSnapshot::prometheus_text`] are
//! byte-identical for identical update sequences, regardless of
//! insertion order. Only *virtual-clock* quantities belong in the
//! registry — wall-clock durations would break the byte-equality the
//! determinism smokes assert.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::POISONED;

/// Default histogram bucket upper bounds, tuned for the quantities the
/// service observes (virtual milliseconds, millijoules): spans five
/// decades. Values above the last bound land in the overflow bucket.
pub const DEFAULT_BOUNDS: &[f64] = &[
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0,
    5_000.0, 10_000.0,
];

/// How many closed windows an epoch-windowed rate meter retains; the
/// per-epoch rate is the mean over these.
pub const METER_WINDOWS: usize = 16;

/// A standalone fixed-bucket histogram: O(1) per observation, O(buckets)
/// per snapshot, with exact `min`/`max` tracking so single samples and
/// distribution extremes survive bucket quantization.
///
/// This is the same accumulator [`MetricsRegistry`] uses internally,
/// exported so other crates (e.g. `egka-service`'s latency metrics and
/// per-shard health stats) can share one quantile implementation.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(DEFAULT_BOUNDS)
    }
}

impl Histogram {
    /// An empty histogram over the given bucket upper bounds (ascending);
    /// values above the last bound land in an implicit overflow bucket.
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Folds `other` into `self`. Both histograms must share bucket
    /// bounds (they do when both were built from the same constant).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Freezes the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            sum: self.sum,
            count: self.count,
            min: self.min,
            max: self.max,
        }
    }
}

/// Builds a labeled metric key: `name{k="v",…}`. Label *values* are
/// escaped (`\\`, `\"`, newline); the name and label keys are emitted
/// as-is and sanitized only at exposition time.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

#[derive(Clone, Debug, Default)]
struct Meter {
    total: f64,
    current: f64,
    windows: Vec<f64>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    meters: BTreeMap<String, Meter>,
    histograms: BTreeMap<String, Histogram>,
    help: BTreeMap<String, String>,
}

/// A registry of named counters, gauges, epoch-windowed rate meters and
/// fixed-bucket histograms.
///
/// `BTreeMap`-backed so snapshots iterate in name order — the snapshot is
/// *stable*: same updates, same snapshot, regardless of insertion order.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect(POISONED);
        inner.gauges.insert(name.to_string(), value);
    }

    /// Adds `delta` to rate meter `name`'s *current* window (and its
    /// lifetime total). Windows are closed by [`roll_window`], typically
    /// once per service epoch.
    ///
    /// [`roll_window`]: MetricsRegistry::roll_window
    pub fn meter(&self, name: &str, delta: f64) {
        let mut inner = self.inner.lock().expect(POISONED);
        let m = inner.meters.entry(name.to_string()).or_default();
        m.current += delta;
        m.total += delta;
    }

    /// Closes the current window of **every** meter: each window value is
    /// pushed into a ring of the last [`METER_WINDOWS`] windows and the
    /// current accumulator resets. Call once per epoch tick.
    pub fn roll_window(&self) {
        let mut inner = self.inner.lock().expect(POISONED);
        for m in inner.meters.values_mut() {
            m.windows.push(m.current);
            m.current = 0.0;
            if m.windows.len() > METER_WINDOWS {
                m.windows.remove(0);
            }
        }
    }

    /// Registers help text for metric `name` (the *base* name, without
    /// labels), used by the Prometheus exposition's `# HELP` line.
    pub fn describe(&self, name: &str, help: &str) {
        let mut inner = self.inner.lock().expect(POISONED);
        inner.help.insert(name.to_string(), help.to_string());
    }

    /// Records `value` into histogram `name` with [`DEFAULT_BOUNDS`].
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, DEFAULT_BOUNDS, value);
    }

    /// Records `value` into histogram `name`; `bounds` are used only on
    /// first touch (a histogram's buckets are fixed for its lifetime).
    pub fn observe_with(&self, name: &str, bounds: &[f64], value: f64) {
        let mut inner = self.inner.lock().expect(POISONED);
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// A stable, name-ordered snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect(POISONED);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            meters: inner
                .meters
                .iter()
                .map(|(k, m)| {
                    (
                        k.clone(),
                        MeterSnapshot {
                            total: m.total,
                            current: m.current,
                            windows: m.windows.clone(),
                        },
                    )
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            help: inner
                .help
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Shorthand: renders the Prometheus exposition of a fresh snapshot.
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }
}

impl core::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = self.inner.lock().expect(POISONED);
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("meters", &inner.meters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// One histogram's frozen state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds; the implicit final bucket is `+inf`.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` long (last is overflow).
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// A bucket-interpolated quantile estimate (0.0..=1.0); `None` when
    /// the histogram is empty.
    ///
    /// The rank follows the nearest-rank convention
    /// (`round((count-1)·q) + 1`), then interpolates linearly inside the
    /// containing bucket; the tracked `min`/`max` clamp the result, so a
    /// single observation — and any quantile landing in the overflow
    /// bucket — reports an exact observed value rather than a bucket
    /// edge.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64 + 1;
        // The extreme ranks are tracked exactly — no bucket estimate
        // needed (this also makes every quantile of a single observation
        // exact).
        if rank <= 1 {
            return Some(self.min);
        }
        if rank >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            if seen + c >= rank && *c > 0 {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
                let pos = (rank - seen) as f64 / *c as f64;
                let v = lower + (upper - lower) * pos;
                return Some(v.clamp(self.min, self.max));
            }
            seen += c;
        }
        None
    }
}

/// One rate meter's frozen state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeterSnapshot {
    /// Lifetime total of everything metered.
    pub total: f64,
    /// The still-open window's accumulator.
    pub current: f64,
    /// The last [`METER_WINDOWS`] closed windows, oldest first.
    pub windows: Vec<f64>,
}

impl MeterSnapshot {
    /// Mean per closed window (≈ per epoch); `0.0` before the first
    /// [`MetricsRegistry::roll_window`].
    pub fn rate_per_epoch(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            self.windows.iter().sum::<f64>() / self.windows.len() as f64
        }
    }
}

/// Name-ordered registry snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Rate meters, sorted by name.
    pub meters: Vec<(String, MeterSnapshot)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Registered help texts, sorted by base metric name.
    pub help: Vec<(String, String)>,
}

/// Splits a registry key into its base name and (already-rendered)
/// label body: `"e{suite=\"x\"}"` → `("e", "suite=\"x\"")`.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => (&key[..i], key[i + 1..].trim_end_matches('}')),
        None => (key, ""),
    }
}

/// Maps a metric family name onto the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (anything else becomes `_`).
fn sanitize(family: &str) -> String {
    let mut out = String::with_capacity(family.len());
    for (i, ch) in family.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        out.push(if ok { ch } else { '_' });
    }
    out
}

/// Prometheus renders floats via Go's shortest-roundtrip formatting;
/// Rust's `{}` for `f64` has the same property and is deterministic.
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `# HELP`/`# TYPE` pair per family, samples in stable name
    /// order, labels preserved, histogram buckets cumulative with a
    /// final `le="+Inf"`. Byte-identical across identical snapshots.
    ///
    /// Meters render as two families: `<name>_total` (counter) and
    /// `<name>_rate` (gauge: mean per closed window ≈ per epoch).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let help_for = |base: &str| -> String {
            self.help
                .iter()
                .find(|(k, _)| k == base)
                .map(|(_, h)| h.clone())
                .unwrap_or_else(|| format!("egka metric {base}"))
        };
        // family → (base name for help lookup, samples as (labels, text)).
        type Family<'a> = BTreeMap<String, (String, Vec<(String, String)>)>;
        let emit = |out: &mut String, kind: &str, fams: &Family| {
            for (fam, (base, samples)) in fams {
                out.push_str(&format!("# HELP {fam} {}\n", help_for(base)));
                out.push_str(&format!("# TYPE {fam} {kind}\n"));
                for (labels, value) in samples {
                    if labels.is_empty() {
                        out.push_str(&format!("{fam} {value}\n"));
                    } else {
                        out.push_str(&format!("{fam}{{{labels}}} {value}\n"));
                    }
                }
            }
        };
        let group = |entries: &[(String, String)]| -> Family {
            let mut fams: Family = BTreeMap::new();
            for (key, value) in entries {
                let (base, labels) = split_key(key);
                fams.entry(sanitize(base))
                    .or_insert_with(|| (base.to_string(), Vec::new()))
                    .1
                    .push((labels.to_string(), value.clone()));
            }
            fams
        };

        let counters: Vec<(String, String)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), format!("{v}")))
            .collect();
        emit(&mut out, "counter", &group(&counters));

        let gauges: Vec<(String, String)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), fmt_f64(*v)))
            .collect();
        emit(&mut out, "gauge", &group(&gauges));

        let meter_key = |k: &str, suffix: &str| -> String {
            let (base, labels) = split_key(k);
            if labels.is_empty() {
                format!("{base}{suffix}")
            } else {
                format!("{base}{suffix}{{{labels}}}")
            }
        };
        let totals: Vec<(String, String)> = self
            .meters
            .iter()
            .map(|(k, m)| (meter_key(k, "_total"), fmt_f64(m.total)))
            .collect();
        emit(&mut out, "counter", &group(&totals));
        let rates: Vec<(String, String)> = self
            .meters
            .iter()
            .map(|(k, m)| (meter_key(k, "_rate"), fmt_f64(m.rate_per_epoch())))
            .collect();
        emit(&mut out, "gauge", &group(&rates));

        // Histograms need bucket/sum/count triples, so they bypass the
        // scalar grouping helper. Family name → (unsanitized base, series
        // of (label-set, snapshot)).
        type HistFamilies<'a> = BTreeMap<String, (String, Vec<(String, &'a HistogramSnapshot)>)>;
        let mut hist_fams: HistFamilies<'_> = BTreeMap::new();
        for (key, h) in &self.histograms {
            let (base, labels) = split_key(key);
            hist_fams
                .entry(sanitize(base))
                .or_insert_with(|| (base.to_string(), Vec::new()))
                .1
                .push((labels.to_string(), h));
        }
        for (fam, (base, series)) in &hist_fams {
            out.push_str(&format!("# HELP {fam} {}\n", help_for(base)));
            out.push_str(&format!("# TYPE {fam} histogram\n"));
            for (labels, h) in series {
                let with_le = |le: &str| {
                    if labels.is_empty() {
                        format!("le=\"{le}\"")
                    } else {
                        format!("{labels},le=\"{le}\"")
                    }
                };
                let mut cum = 0u64;
                for (i, c) in h.counts.iter().enumerate() {
                    cum += c;
                    let le = if i < h.bounds.len() {
                        fmt_f64(h.bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    out.push_str(&format!("{fam}_bucket{{{}}} {cum}\n", with_le(&le)));
                }
                let suffix = if labels.is_empty() {
                    String::new()
                } else {
                    format!("{{{labels}}}")
                };
                out.push_str(&format!("{fam}_sum{suffix} {}\n", fmt_f64(h.sum)));
                out.push_str(&format!("{fam}_count{suffix} {}\n", h.count));
            }
        }
        out
    }

    /// Renders the snapshot as a fixed-width text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counter                                  value\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<40} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauge                                    value\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<40} {v}\n"));
            }
        }
        if !self.meters.is_empty() {
            out.push_str("meter                                    total    rate/epoch\n");
            for (name, m) in &self.meters {
                out.push_str(&format!(
                    "{name:<40} {:<8} {:.2}\n",
                    m.total,
                    m.rate_per_epoch()
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histogram                                count        sum    ~p50    ~p95    ~p99\n");
            for (name, h) in &self.histograms {
                let q = |p: f64| {
                    h.quantile(p)
                        .map(|v| format!("{v:>7.2}"))
                        .unwrap_or_else(|| "      -".to_string())
                };
                out.push_str(&format!(
                    "{name:<40} {count:>5} {sum:>10.2} {p50} {p95} {p99}\n",
                    count = h.count,
                    sum = h.sum,
                    p50 = q(0.50),
                    p95 = q(0.95),
                    p99 = q(0.99),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_order() {
        let reg = MetricsRegistry::new();
        reg.add("zeta", 2);
        reg.add("alpha", 1);
        reg.add("zeta", 3);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("alpha".to_string(), 1), ("zeta".to_string(), 5)]
        );
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let reg = MetricsRegistry::new();
        for v in [0.2, 0.3, 4.0, 9.0, 20_000.0] {
            reg.observe("lat", v);
        }
        let snap = reg.snapshot();
        let (name, h) = &snap.histograms[0];
        assert_eq!(name, "lat");
        assert_eq!(h.count, 5);
        assert_eq!(h.counts.iter().sum::<u64>(), 5);
        // Overflow bucket holds the 20k observation.
        assert_eq!(*h.counts.last().unwrap(), 1);
        assert!(h.quantile(0.5).unwrap() <= 5.0);
        assert!(h.quantile(0.0).is_some());
        // min/max clamp the interpolation: the extremes are exact.
        assert_eq!(h.quantile(0.0), Some(0.2));
        assert_eq!(h.quantile(1.0), Some(20_000.0));
        let empty = HistogramSnapshot {
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::default();
        h.observe(7.25);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(7.25));
        }
    }

    #[test]
    fn uniform_data_interpolates_exactly() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), Some(51.0));
        assert_eq!(s.quantile(0.95), Some(95.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
    }

    #[test]
    fn histogram_merge_matches_combined_observation() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for v in [0.3, 2.0, 40.0] {
            a.observe(v);
            both.observe(v);
        }
        for v in [7.0, 9_999.0] {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("depth", 3.0);
        reg.set_gauge("depth", 1.5);
        assert_eq!(reg.snapshot().gauges, vec![("depth".to_string(), 1.5)]);
    }

    #[test]
    fn meters_window_and_rate() {
        let reg = MetricsRegistry::new();
        reg.meter("events", 10.0);
        reg.roll_window();
        reg.meter("events", 30.0);
        reg.roll_window();
        reg.meter("events", 5.0); // still open
        let snap = reg.snapshot();
        let (_, m) = &snap.meters[0];
        assert_eq!(m.total, 45.0);
        assert_eq!(m.current, 5.0);
        assert_eq!(m.windows, vec![10.0, 30.0]);
        assert_eq!(m.rate_per_epoch(), 20.0);
        // The ring retains only the newest METER_WINDOWS windows.
        for _ in 0..(2 * METER_WINDOWS) {
            reg.roll_window();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.meters[0].1.windows.len(), METER_WINDOWS);
    }

    #[test]
    fn labeled_builds_and_escapes() {
        assert_eq!(labeled("x", &[]), "x");
        assert_eq!(
            labeled("energy", &[("suite", "gdh2-c"), ("shard", "0")]),
            "energy{suite=\"gdh2-c\",shard=\"0\"}"
        );
        assert_eq!(labeled("x", &[("k", "a\"b\\c")]), "x{k=\"a\\\"b\\\\c\"}");
    }

    #[test]
    fn snapshot_is_stable_across_insertion_order() {
        let a = MetricsRegistry::new();
        a.add("x", 1);
        a.add("y", 2);
        a.set_gauge("g", 4.0);
        let b = MetricsRegistry::new();
        b.set_gauge("g", 4.0);
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.prometheus_text(), b.prometheus_text());
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = MetricsRegistry::new();
        reg.describe("rekeys", "rekeys executed");
        reg.add("rekeys", 7);
        reg.add(&labeled("suite_groups", &[("suite", "bd-dsa")]), 3);
        reg.set_gauge(&labeled("shard_groups", &[("shard", "0")]), 12.0);
        reg.meter("events", 4.0);
        reg.roll_window();
        reg.observe_with("lat", &[1.0, 10.0], 2.0);
        let text = reg.prometheus_text();
        assert!(text.contains("# HELP rekeys rekeys executed\n"));
        assert!(text.contains("# TYPE rekeys counter\nrekeys 7\n"));
        assert!(text.contains("suite_groups{suite=\"bd-dsa\"} 3\n"));
        assert!(text.contains("# TYPE shard_groups gauge\n"));
        assert!(text.contains("shard_groups{shard=\"0\"} 12\n"));
        assert!(text.contains("# TYPE events_total counter\nevents_total 4\n"));
        assert!(text.contains("# TYPE events_rate gauge\nevents_rate 4\n"));
        assert!(text.contains("# TYPE lat histogram\n"));
        assert!(text.contains("lat_bucket{le=\"1\"} 0\n"));
        assert!(text.contains("lat_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_sum 2\n"));
        assert!(text.contains("lat_count 1\n"));
        // Legacy slash-separated names are sanitized into the charset.
        reg.observe("per/sec", 1.0);
        assert!(reg.prometheus_text().contains("per_sec_count 1\n"));
        // Stable bytes across repeated renders.
        assert_eq!(reg.prometheus_text(), reg.prometheus_text());
    }
}
