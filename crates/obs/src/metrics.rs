//! A thread-safe metrics registry: monotonic counters, gauges and log-scale
//! histograms with p50/p95/p99/max summaries.
//!
//! Metrics are created lazily on first use and keyed by dotted names
//! (`pointer.propagations`, `funnel.raw`, ...). Storage is `BTreeMap` so
//! every export — JSON or human-readable — lists metrics in a stable order.

use std::{collections::BTreeMap, fmt::Write as _, sync::Mutex};

use crate::json::Json;

/// Version of the [`MetricsSnapshot::to_json_export`] shape. v1 was the
/// bare `{counters, gauges, histograms}` object (no version field); v2
/// added the top-level `schema_version` and `env` keys. Bumps are additive
/// only — consumers of the v1 shape keep working against every later
/// version.
pub const METRICS_SCHEMA_VERSION: i64 = 2;

/// The machine/profile fingerprint stamped into exports (`os/arch/ncpu/
/// profile`, e.g. `linux/x86_64/cpus=8/release`). Shared by the metrics
/// export and the perf observatory's `BENCH_*.json` reports so lifecycle
/// dashboards can join runs across machines.
pub fn env_fingerprint() -> String {
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{}/{}/cpus={}/{}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        ncpu,
        profile
    )
}

/// Log-linear histogram: 64 octaves × 4 sub-buckets covers the full `u64`
/// range, plus exact buckets for 0..4. A bucket in octave `2^k` is
/// `2^(k-2)` wide and starts at or above `2^k`, so its floor understates
/// any sample in it by less than a fifth of the sample (< 20 %).
const SUB_BUCKETS: u64 = 4;
const BUCKETS: usize = 64 * SUB_BUCKETS as usize;

/// A recording histogram over non-negative integer samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize; // exact small-value buckets, including zero
    }
    let octave = 63 - v.leading_zeros() as u64;
    let sub = (v >> (octave - 2)) & (SUB_BUCKETS - 1);
    (octave * SUB_BUCKETS + sub) as usize
}

/// The lower bound of a bucket (its representative value in summaries).
fn bucket_floor(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let octave = i / SUB_BUCKETS;
    let sub = i % SUB_BUCKETS;
    (1u64 << octave) | (sub << (octave - 2))
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The quantile `q` in `[0, 1]`, estimated from bucket floors and
    /// clamped into the exact observed `[min, max]` range. The error bound:
    /// the result is never above the nearest-rank sample it stands for and
    /// is more than 80 % of it (exact below 4).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Point-in-time summary of the distribution.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// An exported histogram summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The thread-safe metrics registry.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to the counter `name` (created at zero on first use).
    pub fn add(&self, name: &str, delta: u64) {
        let mut g = self.inner.lock().unwrap();
        *ensure(&mut g.counters, name) += delta;
    }

    /// Increments the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut g = self.inner.lock().unwrap();
        *ensure(&mut g.gauges, name) = v;
    }

    /// Records `v` into the histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        let mut g = self.inner.lock().unwrap();
        ensure(&mut g.histograms, name).record(v);
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    /// Summary of a histogram (all-zero when never touched).
    pub fn histogram(&self, name: &str) -> HistogramSummary {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .get(name)
            .map(|h| h.summary())
            .unwrap_or_default()
    }

    /// A consistent snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

fn ensure<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("just inserted")
}

/// A point-in-time export of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → summary, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// The snapshot as a JSON document:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::Float(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(h.count as i64)),
                        ("sum".into(), Json::Int(h.sum as i64)),
                        ("min".into(), Json::Int(h.min as i64)),
                        ("max".into(), Json::Int(h.max as i64)),
                        ("p50".into(), Json::Int(h.p50 as i64)),
                        ("p95".into(), Json::Int(h.p95 as i64)),
                        ("p99".into(), Json::Int(h.p99 as i64)),
                        ("mean".into(), Json::Float(h.mean())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
        ])
    }

    /// The versioned export shape behind `vcheck --metrics-json`: the
    /// [`to_json`](MetricsSnapshot::to_json) object with a top-level
    /// `schema_version` and the environment fingerprint prepended. Strictly
    /// additive over the unversioned shape — old consumers keep reading
    /// `counters`/`gauges`/`histograms` untouched.
    pub fn to_json_export(&self) -> Json {
        let mut fields = vec![
            ("schema_version".into(), Json::Int(METRICS_SCHEMA_VERSION)),
            ("env".into(), Json::Str(env_fingerprint())),
        ];
        if let Json::Obj(inner) = self.to_json() {
            fields.extend(inner);
        }
        Json::Obj(fields)
    }

    /// A human-readable multi-line summary (the `vcheck --stats` output).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<42} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<42} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<42} n={} mean={:.1} p50={} p95={} p99={} max={}",
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_lazy() {
        let r = Registry::new();
        assert_eq!(r.counter("a"), 0);
        r.inc("a");
        r.add("a", 4);
        assert_eq!(r.counter("a"), 5);
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        assert_eq!(r.gauge("g"), None);
        r.set_gauge("g", 1.5);
        r.set_gauge("g", -2.0);
        assert_eq!(r.gauge("g"), Some(-2.0));
    }

    #[test]
    fn histogram_summary_tracks_exact_extremes() {
        let r = Registry::new();
        for v in [3u64, 5, 9, 1000, 12] {
            r.observe("h", v);
        }
        let s = r.histogram("h");
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 3 + 5 + 9 + 1000 + 12);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 1000);
        assert!(s.p50 >= 3 && s.p50 <= 12, "p50 = {}", s.p50);
        assert!(s.p95 <= 1000 && s.p95 >= 12, "p95 = {}", s.p95);
    }

    #[test]
    fn quantiles_are_log_scale_accurate() {
        let r = Registry::new();
        for v in 1..=1000u64 {
            r.observe("h", v);
        }
        let s = r.histogram("h");
        // A log-linear bucket at 500 spans ~12.5% of an octave.
        let p50 = s.p50 as f64;
        assert!((400.0..=600.0).contains(&p50), "p50 = {p50}");
        let p95 = s.p95 as f64;
        assert!((800.0..=1000.0).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1 << 20, u64::MAX] {
            let b = bucket_index(v);
            assert!(b >= last, "index regressed at {v}");
            assert!(bucket_floor(b) <= v.max(1), "floor above value at {v}");
            last = b;
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let r = Registry::new();
        assert_eq!(r.histogram("nope"), HistogramSummary::default());
    }

    #[test]
    fn snapshot_exports_and_orders() {
        let r = Registry::new();
        r.inc("z.second");
        r.inc("a.first");
        r.set_gauge("g", 2.0);
        r.observe("h", 7);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counter("z.second"), 1);
        let json = snap.to_json().to_string();
        let back = crate::json::parse(&json).unwrap();
        assert_eq!(
            back.get("counters")
                .and_then(|c| c.get("a.first"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            back.get("histograms")
                .and_then(|h| h.get("h"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert!(snap.render_text().contains("a.first"));
    }

    #[test]
    fn versioned_export_is_additive_over_the_plain_shape() {
        let r = Registry::new();
        r.inc("a.first");
        r.observe("h", 7);
        let snap = r.snapshot();
        let export = crate::json::parse(&snap.to_json_export().to_string()).unwrap();
        assert_eq!(
            export.get("schema_version").and_then(Json::as_i64),
            Some(METRICS_SCHEMA_VERSION)
        );
        assert_eq!(
            export.get("env").and_then(Json::as_str),
            Some(env_fingerprint().as_str())
        );
        // Every key of the unversioned shape survives unchanged, so a v1
        // consumer parses the v2 export without noticing.
        let plain = crate::json::parse(&snap.to_json().to_string()).unwrap();
        for key in ["counters", "gauges", "histograms"] {
            assert_eq!(export.get(key), plain.get(key), "{key} must not drift");
        }
    }

    #[test]
    fn env_fingerprint_has_the_bench_report_shape() {
        let env = env_fingerprint();
        let parts: Vec<&str> = env.split('/').collect();
        assert_eq!(parts.len(), 4, "os/arch/cpus=N/profile: {env}");
        assert!(parts[2].starts_with("cpus="));
        assert!(parts[3] == "debug" || parts[3] == "release");
    }

    #[test]
    fn single_sample_quantiles_collapse_to_the_sample() {
        let mut h = Histogram::default();
        h.record(777);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (777, 777));
        // Every quantile of a one-point distribution is that point: the
        // bucket floor (768) must be clamped up into [min, max].
        assert_eq!(s.p50, 777);
        assert_eq!(s.p95, 777);
        assert_eq!(h.quantile(0.0), 777);
        assert_eq!(h.quantile(1.0), 777);
    }

    #[test]
    fn a_bucket_floor_understates_its_samples_by_less_than_a_fifth() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for s in [v, v + 1, v * 2 - 1, v + v / 3] {
                let floor = bucket_floor(bucket_index(s));
                assert!(floor <= s, "{s}");
                assert!((s - floor) * 5 < s.max(1), "{s} -> {floor}");
            }
            v = v * 3 + 1;
        }
    }

    #[test]
    fn samples_on_log_linear_bucket_boundaries_map_to_their_own_bucket() {
        // Exact boundaries: sub-bucket floors of a few octaves plus the
        // small-value exact buckets. A boundary value must land in the
        // bucket whose floor it is — never the one below.
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            8,
            10,
            12,
            14,
            16,
            1 << 10,
            (1 << 10) + (1 << 8),
        ] {
            let b = bucket_index(v);
            if v < SUB_BUCKETS {
                assert_eq!(bucket_floor(b), v, "exact bucket for small {v}");
            } else {
                assert!(
                    bucket_floor(b) <= v && v < bucket_floor(b + 1),
                    "{v} not in [{}, {})",
                    bucket_floor(b),
                    bucket_floor(b + 1)
                );
            }
        }
        // A boundary sample's quantile is exact (floor == sample == min == max).
        let mut h = Histogram::default();
        h.record(16);
        assert_eq!(h.quantile(0.5), 16);
    }

    #[test]
    fn u64_max_is_recorded_without_overflow() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.min, u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(s.sum, u64::MAX);
        assert_eq!(s.p50, u64::MAX);
        assert_eq!(s.p95, u64::MAX);
        assert_eq!(s.p99, u64::MAX);
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_interpolate_across_mixed_magnitudes() {
        // 45 fast samples (~1ms), 4 slow (~100ms), 1 outlier (~10s): the
        // shape of a warm serve daemon with occasional cold rebuilds. The
        // log-linear buckets must keep p50 in the fast band, p95 in the
        // slow band, and p99 at the outlier's octave.
        let mut h = Histogram::default();
        for i in 0..45u64 {
            h.record(1_000 + i); // ~1ms in µs
        }
        for i in 0..4u64 {
            h.record(100_000 + i * 500); // ~100ms
        }
        h.record(10_000_000); // 10s
        let s = h.summary();
        assert_eq!(s.count, 50);
        assert!(
            (1_000..2_000).contains(&s.p50),
            "p50 must sit in the fast band: {}",
            s.p50
        );
        assert!(
            (64_000..128_000).contains(&s.p95),
            "p95 must sit in the slow band's octave: {}",
            s.p95
        );
        assert!(
            s.p99 >= 1_000_000,
            "p99 must reach the outlier's octave: {}",
            s.p99
        );
        // q=1.0 lands in the outlier's bucket; the estimate is its floor
        // (clamped to the observed range), never above the true max.
        assert!((8_388_608..=10_000_000).contains(&h.quantile(1.0)));
        assert_eq!(s.max, 10_000_000, "max is exact, not bucketed");
        // Ordering is invariant regardless of bucket estimation error.
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn empty_histogram_summary_has_no_nan_or_garbage() {
        let s = Histogram::default().summary();
        assert_eq!(s, HistogramSummary::default());
        assert_eq!(s.mean(), 0.0);
        assert!(!s.mean().is_nan());
        // The exporters must render count=0 rows as zeros, not NaN.
        let r = Registry::new();
        {
            // Force an empty histogram entry into the registry without
            // recording a sample: snapshot a cloned-empty default.
            let mut g = r.inner.lock().unwrap();
            g.histograms.insert("empty".into(), Histogram::default());
        }
        let snap = r.snapshot();
        let json = snap.to_json().to_string();
        assert!(!json.contains("NaN"), "json must not contain NaN: {json}");
        let text = snap.render_text();
        assert!(
            text.contains("n=0 mean=0.0 p50=0 p95=0 p99=0 max=0"),
            "{text}"
        );
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = std::sync::Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.inc("shared");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("shared"), 4000);
    }
}
