//! Metrics: named counters, gauges, and log-linear (HDR-style) histograms
//! with optional per-node labels.
//!
//! The registry is sharded by key hash; snapshots are plain values with
//! order-independent `merge` (counters and histogram buckets add, gauges
//! add — a gauge in a snapshot is a level contribution, so per-node levels
//! sum to the cluster level) and `diff` (counters and histograms subtract,
//! yielding the activity between two snapshots).
//!
//! Histograms use HdrHistogram-style log-linear buckets: each power-of-two
//! range (octave) is split into [`SUB_BUCKETS`] equal-width sub-buckets, so
//! any recorded value — and any percentile extracted from the buckets — is
//! resolved to within `1/SUB_BUCKETS` (6.25%) relative error. That is what
//! makes [`HistogramSnapshot::percentile`] (p50/p90/p99/p999) meaningful
//! for tail-latency reporting, where the old pure-log₂ buckets could be off
//! by 2×.

use parking_lot::Mutex;
use serde::{Content, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

const SHARDS: usize = 8;

/// Linear sub-buckets per power-of-two octave. 16 bounds the relative
/// quantization error of any observation (and any percentile) at 6.25%.
pub const SUB_BUCKETS: usize = 16;

/// Octaves covered: bucket 0 is `[0, 1)`, then octave `e` spans
/// `[2^e, 2^(e+1))` for `e` in `0..OCTAVES`. 60 octaves reach ~1.15e18 —
/// nanosecond values up to ~36 years — before clamping to the last bucket.
pub const OCTAVES: usize = 60;

/// Total bucket count of the log-linear layout.
pub const HISTOGRAM_BUCKETS: usize = 1 + OCTAVES * SUB_BUCKETS;

/// A metric key: name plus optional node label.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub node: Option<usize>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// The log-linear bucket a value falls into: 0 for `[0, 1)`, then octave
/// `e = floor(log2(v))` split into [`SUB_BUCKETS`] linear sub-buckets.
/// Negative and NaN observations clamp to bucket 0; values at or beyond
/// `2^OCTAVES` clamp to the last bucket.
pub fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value < 1.0 {
        return 0;
    }
    let exp = value.log2().floor() as i64;
    if exp >= OCTAVES as i64 {
        return HISTOGRAM_BUCKETS - 1;
    }
    let exp = exp.max(0) as usize;
    // Position within the octave, in [1, 2); sub-bucket widths of 1/16 are
    // binary-exact so octave lower edges land in sub-bucket 0 exactly.
    let frac = value / 2f64.powi(exp as i32);
    let sub = (((frac - 1.0) * SUB_BUCKETS as f64) as usize).min(SUB_BUCKETS - 1);
    1 + exp * SUB_BUCKETS + sub
}

/// Inclusive-exclusive bounds `[lo, hi)` of bucket `i`.
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    assert!(i < HISTOGRAM_BUCKETS);
    if i == 0 {
        return (0.0, 1.0);
    }
    let octave = (i - 1) / SUB_BUCKETS;
    let sub = (i - 1) % SUB_BUCKETS;
    let base = 2f64.powi(octave as i32);
    let width = base / SUB_BUCKETS as f64;
    (base + sub as f64 * width, base + (sub + 1) as f64 * width)
}

/// Live, shared metrics store.
pub struct MetricsRegistry {
    shards: Vec<Mutex<HashMap<MetricKey, Metric>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &MetricKey) -> &Mutex<HashMap<MetricKey, Metric>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn with_metric(
        &self,
        name: &str,
        node: Option<usize>,
        f: impl FnOnce(&mut Metric),
        init: fn() -> Metric,
    ) {
        if !crate::Verbosity::current().recording() {
            return;
        }
        let key = MetricKey {
            name: name.to_string(),
            node,
        };
        let mut shard = self.shard(&key).lock();
        f(shard.entry(key).or_insert_with(init))
    }

    /// Add `delta` to a monotone counter.
    pub fn counter(&self, name: &str, node: Option<usize>, delta: u64) {
        self.with_metric(
            name,
            node,
            |m| {
                if let Metric::Counter(c) = m {
                    *c += delta;
                }
            },
            || Metric::Counter(0),
        );
    }

    /// Set a gauge to its current level.
    pub fn gauge(&self, name: &str, node: Option<usize>, value: f64) {
        self.with_metric(
            name,
            node,
            |m| {
                if let Metric::Gauge(g) = m {
                    *g = value;
                }
            },
            || Metric::Gauge(0.0),
        );
    }

    /// Record one observation into a log-bucketed histogram.
    pub fn observe(&self, name: &str, node: Option<usize>, value: f64) {
        self.with_metric(
            name,
            node,
            |m| {
                if let Metric::Histogram(h) = m {
                    h.observe(value);
                }
            },
            || Metric::Histogram(Histogram::new()),
        );
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries = BTreeMap::new();
        for shard in &self.shards {
            for (key, metric) in shard.lock().iter() {
                entries.insert(key.clone(), MetricValue::from(metric));
            }
        }
        MetricsSnapshot { entries }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A frozen histogram within a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Count per log-linear bucket (see [`bucket_bounds`]).
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) extracted from the log-linear buckets.
    ///
    /// Definition: the value of the sample at 1-based rank
    /// `max(1, ceil(q·count))` in sorted order. The returned estimate is the
    /// midpoint of the bucket holding that sample, clamped to the exact
    /// observed `[min, max]`, so it always lies within one bucket width
    /// (≤ 6.25% relative error) of the true sorted-sample quantile.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                let (lo, hi) = bucket_bounds(i);
                return ((lo + hi) / 2.0).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    pub fn p999(&self) -> f64 {
        self.percentile(0.999)
    }
}

/// One frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
}

impl From<&Metric> for MetricValue {
    fn from(m: &Metric) -> Self {
        match m {
            Metric::Counter(c) => MetricValue::Counter(*c),
            Metric::Gauge(g) => MetricValue::Gauge(*g),
            Metric::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                buckets: h.buckets.clone(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
            }),
        }
    }
}

/// A point-in-time copy of the registry, supporting order-independent
/// merge, diff, and per-name aggregation across nodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue)> {
        self.entries.iter()
    }

    pub fn get(&self, name: &str, node: Option<usize>) -> Option<&MetricValue> {
        self.entries.get(&MetricKey {
            name: name.to_string(),
            node,
        })
    }

    /// Insert or overwrite one entry (used by tests and by code that builds
    /// synthetic snapshots).
    pub fn insert(&mut self, name: &str, node: Option<usize>, value: MetricValue) {
        self.entries.insert(
            MetricKey {
                name: name.to_string(),
                node,
            },
            value,
        );
    }

    /// Sum of a counter across all node labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Per-node values of a counter, for skew inspection.
    pub fn counter_by_node(&self, name: &str) -> BTreeMap<Option<usize>, u64> {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(k, v)| match v {
                MetricValue::Counter(c) => Some((k.node, *c)),
                _ => None,
            })
            .collect()
    }

    /// Histograms for `name` merged across all node labels.
    pub fn histogram_total(&self, name: &str) -> Option<HistogramSnapshot> {
        let mut out: Option<HistogramSnapshot> = None;
        for (_, v) in self.entries.iter().filter(|(k, _)| k.name == name) {
            if let MetricValue::Histogram(h) = v {
                out = Some(match out {
                    None => h.clone(),
                    Some(acc) => merge_histograms(&acc, h),
                });
            }
        }
        out
    }

    /// All distinct metric names.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.entries.keys().map(|k| k.name.as_str()).collect();
        names.dedup();
        names
    }

    /// Combine two snapshots. Commutative and associative: counters and
    /// histogram buckets add, gauges add (per-node level contributions sum
    /// to a cluster level). Mismatched kinds keep the left operand.
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut entries = self.entries.clone();
        for (key, value) in &other.entries {
            match entries.get_mut(key) {
                None => {
                    entries.insert(key.clone(), value.clone());
                }
                Some(existing) => match (existing, value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                        *a = merge_histograms(a, b);
                    }
                    _ => {}
                },
            }
        }
        MetricsSnapshot { entries }
    }

    /// The activity between `prev` and `self`: counters and histograms
    /// subtract (entries absent from `prev` pass through); gauges keep
    /// their current level. Entries that did not move between the two
    /// snapshots are dropped — a per-query delta names only what the query
    /// touched, and the skip keeps the capture cheap on the hot query path.
    /// `prev.merge(&diff)` still reconstructs `self` for counter/histogram
    /// entries: a dropped entry merges as "unchanged from `prev`".
    pub fn diff(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let mut entries = BTreeMap::new();
        for (key, value) in &self.entries {
            let diffed = match (value, prev.entries.get(key)) {
                (MetricValue::Counter(c), Some(MetricValue::Counter(p))) => {
                    if c == p {
                        continue;
                    }
                    MetricValue::Counter(c.saturating_sub(*p))
                }
                (MetricValue::Histogram(h), Some(MetricValue::Histogram(p))) => {
                    // Buckets only ever increment, so equal counts mean an
                    // untouched histogram — no need to compare 961 buckets.
                    if h.count == p.count {
                        continue;
                    }
                    MetricValue::Histogram(diff_histograms(h, p))
                }
                (MetricValue::Gauge(g), Some(MetricValue::Gauge(p))) if g == p => continue,
                (v, _) => v.clone(),
            };
            entries.insert(key.clone(), diffed);
        }
        MetricsSnapshot { entries }
    }

    /// The subset of entries labelled with `node` (plus, when
    /// `include_global`, the entries carrying no node label — initiator-side
    /// work that cannot be attributed to a specific node). Used by the data
    /// collector to slice one statement delta into per-node ring samples.
    pub fn restrict_to_node(&self, node: usize, include_global: bool) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .filter(|(key, _)| match key.node {
                Some(n) => n == node,
                None => include_global,
            })
            .map(|(key, value)| (key.clone(), value.clone()))
            .collect();
        MetricsSnapshot { entries }
    }
}

fn merge_histograms(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: a
            .buckets
            .iter()
            .zip(&b.buckets)
            .map(|(x, y)| x + y)
            .collect(),
        count: a.count + b.count,
        sum: a.sum + b.sum,
        min: a.min.min(b.min),
        max: a.max.max(b.max),
    }
}

fn diff_histograms(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: cur
            .buckets
            .iter()
            .zip(&prev.buckets)
            .map(|(c, p)| c.saturating_sub(*p))
            .collect(),
        count: cur.count.saturating_sub(prev.count),
        sum: cur.sum - prev.sum,
        // Min/max cannot be un-merged; keep the current window's view.
        min: cur.min,
        max: cur.max,
    }
}

impl Serialize for HistogramSnapshot {
    fn serialize(&self) -> Content {
        // Sparse buckets: only non-zero, as [bucket_lo, count] pairs.
        let buckets: Vec<Content> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| Content::Seq(vec![Content::F64(bucket_bounds(i).0), Content::U64(*c)]))
            .collect();
        Content::Map(vec![
            ("count".into(), Content::U64(self.count)),
            ("sum".into(), Content::F64(self.sum)),
            (
                "min".into(),
                if self.count == 0 {
                    Content::Null
                } else {
                    Content::F64(self.min)
                },
            ),
            (
                "max".into(),
                if self.count == 0 {
                    Content::Null
                } else {
                    Content::F64(self.max)
                },
            ),
            ("buckets".into(), Content::Seq(buckets)),
        ])
    }
}

impl Serialize for MetricValue {
    fn serialize(&self) -> Content {
        match self {
            MetricValue::Counter(c) => Content::Map(vec![
                ("type".into(), Content::Str("counter".into())),
                ("value".into(), Content::U64(*c)),
            ]),
            MetricValue::Gauge(g) => Content::Map(vec![
                ("type".into(), Content::Str("gauge".into())),
                ("value".into(), Content::F64(*g)),
            ]),
            MetricValue::Histogram(h) => Content::Map(vec![
                ("type".into(), Content::Str("histogram".into())),
                ("value".into(), h.serialize()),
            ]),
        }
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize(&self) -> Content {
        // Grouped by metric name: { name: { "node:2": {...}, "global": {...} } }
        let mut groups: Vec<(String, Vec<(String, Content)>)> = Vec::new();
        for (key, value) in &self.entries {
            let label = match key.node {
                Some(n) => format!("node:{n}"),
                None => "global".to_string(),
            };
            match groups.iter_mut().find(|(name, _)| *name == key.name) {
                Some((_, members)) => members.push((label, value.serialize())),
                None => groups.push((key.name.clone(), vec![(label, value.serialize())])),
            }
        }
        Content::Map(
            groups
                .into_iter()
                .map(|(name, members)| (name, Content::Map(members)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_log_linear() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.99), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::MAX), HISTOGRAM_BUCKETS - 1);
        // Octave [1,2) splits into SUB_BUCKETS linear slots of width 1/16.
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.0 + 1.0 / 16.0), 2);
        assert_eq!(bucket_index(2.0 - 1e-9), SUB_BUCKETS);
        // Each new power of two opens the next octave.
        assert_eq!(bucket_index(2.0), 1 + SUB_BUCKETS);
        assert_eq!(bucket_index(4.0), 1 + 2 * SUB_BUCKETS);
        assert_eq!(bucket_index(1024.0), 1 + 10 * SUB_BUCKETS);
        // Bounds agree with the index function at every edge.
        for i in 0..(1 + 12 * SUB_BUCKETS) {
            let (lo, hi) = bucket_bounds(i);
            if i > 0 {
                assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            }
            assert_eq!(
                bucket_index(hi - hi / 1e9),
                i,
                "just under upper edge of {i}"
            );
            assert_eq!(bucket_index(hi), i + 1, "upper edge opens bucket {}", i + 1);
        }
        // Relative bucket width is bounded: hi/lo <= 1 + 1/SUB_BUCKETS.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert!(hi / lo <= 1.0 + 1.0 / SUB_BUCKETS as f64 + 1e-12);
        }
    }

    #[test]
    fn counters_accumulate_per_node() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        r.counter("rows", Some(0), 10);
        r.counter("rows", Some(1), 20);
        r.counter("rows", Some(0), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("rows"), 35);
        assert_eq!(snap.counter_by_node("rows")[&Some(0)], 15);
        assert_eq!(snap.counter_by_node("rows")[&Some(1)], 20);
    }

    #[test]
    fn gauges_keep_last_level() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        r.gauge("depth", None, 3.0);
        r.gauge("depth", None, 1.0);
        assert_eq!(
            r.snapshot().get("depth", None),
            Some(&MetricValue::Gauge(1.0))
        );
    }

    #[test]
    fn histograms_track_distribution() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        for v in [0.5, 1.5, 3.0, 3.5, 100.0] {
            r.observe("lat", Some(2), v);
        }
        let h = r.snapshot().histogram_total("lat").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 108.5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.buckets[bucket_index(0.5)], 1);
        assert_eq!(h.buckets[bucket_index(1.5)], 1);
        assert_eq!(h.buckets[bucket_index(3.0)], 1);
        assert_eq!(h.buckets[bucket_index(3.5)], 1);
        assert_eq!(h.buckets[bucket_index(100.0)], 1);
        // 3.0 and 3.5 land in distinct sub-buckets of the [2,4) octave now.
        assert_ne!(bucket_index(3.0), bucket_index(3.5));
    }

    #[test]
    fn percentiles_from_buckets_are_tight() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        // 100 samples: 1..=98 plus two large outliers.
        for v in 1..=98 {
            r.observe("lat", None, v as f64);
        }
        r.observe("lat", None, 900.0);
        r.observe("lat", None, 1000.0);
        let h = r.snapshot().histogram_total("lat").unwrap();
        assert_eq!(h.count, 100);
        // p50 is the 50th sorted sample (50.0); estimate must be within
        // one bucket width of its containing bucket.
        let (lo, hi) = bucket_bounds(bucket_index(50.0));
        assert!(h.p50() >= lo && h.p50() <= hi, "p50 = {}", h.p50());
        let (lo, hi) = bucket_bounds(bucket_index(900.0));
        assert!(h.p99() >= lo && h.p99() <= hi, "p99 = {}", h.p99());
        // p999 rank is 100 → the max sample; clamped to observed max.
        assert_eq!(h.p999(), 1000.0);
        assert_eq!(h.percentile(0.0), h.percentile(1.0 / 100.0));
        // Empty histogram reports 0.
        assert_eq!(HistogramSnapshot::default().p50(), 0.0);
    }

    #[test]
    fn diff_isolates_a_window() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        r.counter("c", None, 7);
        r.observe("h", None, 2.0);
        let before = r.snapshot();
        r.counter("c", None, 3);
        r.observe("h", None, 4.0);
        let diff = r.snapshot().diff(&before);
        assert_eq!(diff.counter_total("c"), 3);
        let h = diff.histogram_total("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.buckets[bucket_index(4.0)], 1);
        // Round-trip: prev + diff == current for counters/histograms.
        let rebuilt = before.merge(&diff);
        assert_eq!(rebuilt.counter_total("c"), r.snapshot().counter_total("c"));
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricsSnapshot::default();
        a.insert("c", Some(0), MetricValue::Counter(1));
        let mut b = MetricsSnapshot::default();
        b.insert("c", Some(0), MetricValue::Counter(2));
        b.insert("g", None, MetricValue::Gauge(5.0));
        let mut c = MetricsSnapshot::default();
        c.insert("g", None, MetricValue::Gauge(3.0));
        let abc = a.merge(&b).merge(&c);
        let cba = c.merge(&b).merge(&a);
        assert_eq!(abc, cba);
        assert_eq!(abc.counter_total("c"), 3);
        assert_eq!(abc.get("g", None), Some(&MetricValue::Gauge(8.0)));
    }

    #[test]
    fn diff_keeps_gauge_current_level() {
        // Gauges are levels, not rates: diffing two snapshots must report
        // the *current* level (last write wins), never a subtraction.
        let mut prev = MetricsSnapshot::default();
        prev.insert("pool.size", None, MetricValue::Gauge(8.0));
        let mut cur = MetricsSnapshot::default();
        cur.insert("pool.size", None, MetricValue::Gauge(3.0));
        let d = cur.diff(&prev);
        assert_eq!(d.get("pool.size", None), Some(&MetricValue::Gauge(3.0)));
        // A gauge that disappeared from the current snapshot is simply
        // absent from the diff — no phantom negative level.
        let empty = MetricsSnapshot::default();
        assert_eq!(empty.diff(&prev).get("pool.size", None), None);
    }

    fn one_obs_histogram(value: f64) -> MetricValue {
        let mut h = Histogram::new();
        h.observe(value);
        MetricValue::from(&Metric::Histogram(h))
    }

    #[test]
    fn one_sided_histograms_pass_through_merge_and_diff() {
        let mut left = MetricsSnapshot::default();
        left.insert("lat", Some(0), one_obs_histogram(4.0));
        let right = MetricsSnapshot::default();
        // Merge with an empty right side keeps the histogram intact, in
        // either argument order.
        for merged in [left.merge(&right), right.merge(&left)] {
            let h = merged.histogram_total("lat").unwrap();
            assert_eq!((h.count, h.sum), (1, 4.0));
        }
        // Diff against a prev that never saw the histogram passes it
        // through whole; diff of a prev-only histogram yields nothing.
        let d = left.diff(&right);
        assert_eq!(d.histogram_total("lat").unwrap().count, 1);
        assert!(right.diff(&left).histogram_total("lat").is_none());
    }

    #[test]
    fn node_labelled_and_unlabelled_keys_stay_distinct() {
        let mut a = MetricsSnapshot::default();
        a.insert("rows", None, MetricValue::Counter(5));
        a.insert("rows", Some(1), MetricValue::Counter(7));
        let mut b = MetricsSnapshot::default();
        b.insert("rows", None, MetricValue::Counter(10));
        let m = a.merge(&b);
        // Same name, different label: merge must not conflate them…
        assert_eq!(m.get("rows", None), Some(&MetricValue::Counter(15)));
        assert_eq!(m.get("rows", Some(1)), Some(&MetricValue::Counter(7)));
        // …while the per-name aggregate sums across both labels.
        assert_eq!(m.counter_total("rows"), 22);
        // Diff likewise subtracts per-key: the unlabelled entry diffs,
        // the node-labelled one (absent from prev) passes through.
        let d = m.diff(&b);
        assert_eq!(d.get("rows", None), Some(&MetricValue::Counter(5)));
        assert_eq!(d.get("rows", Some(1)), Some(&MetricValue::Counter(7)));
    }

    #[test]
    fn snapshots_serialize_to_json() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        r.counter("vft.bytes", Some(0), 1024);
        r.observe("exec.rows", None, 10.0);
        let json = serde_json::to_value(&r.snapshot()).unwrap();
        assert_eq!(
            json.get("vft.bytes")
                .and_then(|v| v.get("node:0"))
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_u64()),
            Some(1024)
        );
        assert!(json.get("exec.rows").is_some());
    }

    #[test]
    fn restrict_to_node_slices_per_node_with_optional_globals() {
        let mut s = MetricsSnapshot::default();
        s.insert("rows", Some(0), MetricValue::Counter(10));
        s.insert("rows", Some(1), MetricValue::Counter(20));
        s.insert("stmt.count", None, MetricValue::Counter(1));
        let n0 = s.restrict_to_node(0, true);
        assert_eq!(n0.counter_total("rows"), 10);
        assert_eq!(n0.counter_total("stmt.count"), 1);
        let n1 = s.restrict_to_node(1, false);
        assert_eq!(n1.counter_total("rows"), 20);
        assert_eq!(n1.get("stmt.count", None), None);
        // A node that never recorded anything slices to an empty snapshot.
        assert!(s.restrict_to_node(7, false).entries.is_empty());
    }

    #[test]
    fn cross_node_histogram_merge_with_disjoint_buckets() {
        let _lock = crate::tests::verbosity_lock();
        // Node 0 and node 1 observe latencies in completely disjoint
        // octaves; the cluster-wide percentile must be computable from the
        // merged buckets exactly as if one registry had seen all samples.
        let split = MetricsRegistry::new();
        for v in [1.0, 1.5, 3.0] {
            split.observe("lat", Some(0), v);
        }
        for v in [1000.0, 2000.0, 4000.0] {
            split.observe("lat", Some(1), v);
        }
        let combined = MetricsRegistry::new();
        for v in [1.0, 1.5, 3.0, 1000.0, 2000.0, 4000.0] {
            combined.observe("lat", Some(9), v);
        }
        let merged = split.snapshot().histogram_total("lat").unwrap();
        let expect = combined.snapshot().histogram_total("lat").unwrap();
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, expect.sum);
        assert_eq!(merged.min, 1.0);
        assert_eq!(merged.max, 4000.0);
        assert_eq!(merged.buckets, expect.buckets);
        for q in [0.25, 0.5, 0.9, 0.99] {
            assert_eq!(
                merged.percentile(q),
                expect.percentile(q),
                "quantile {q} diverges between merged and combined"
            );
        }
        // The high quantiles come entirely from node 1's disjoint range.
        assert!(merged.p90() >= 1000.0, "p90 = {}", merged.p90());
    }

    #[test]
    fn cross_node_histogram_merge_with_empty_sides() {
        let _lock = crate::tests::verbosity_lock();
        // MetricsSnapshot::merge where one side's node never observed the
        // histogram: the populated side must pass through unchanged, and an
        // empty-against-empty merge must stay percentile-safe (all zeros).
        let a = MetricsRegistry::new();
        a.observe("lat", Some(0), 8.0);
        a.observe("lat", Some(0), 16.0);
        let empty = MetricsSnapshot::default();
        for merged in [a.snapshot().merge(&empty), empty.merge(&a.snapshot())] {
            let h = merged.histogram_total("lat").unwrap();
            assert_eq!(h.count, 2);
            assert_eq!(h.min, 8.0);
            assert_eq!(h.max, 16.0);
            assert!(h.p50() >= 8.0 && h.p50() <= 16.0);
        }
        // Merging two explicit zero-count histograms keeps count 0 and the
        // percentile estimator degenerate-safe.
        let mut l = MetricsSnapshot::default();
        l.insert(
            "lat",
            Some(0),
            MetricValue::Histogram(HistogramSnapshot::default()),
        );
        let mut r = MetricsSnapshot::default();
        r.insert(
            "lat",
            Some(1),
            MetricValue::Histogram(HistogramSnapshot::default()),
        );
        let h = l.merge(&r).histogram_total("lat").unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
        // And merging an empty histogram into a populated one under the
        // *same* key leaves the distribution intact.
        let mut same = MetricsSnapshot::default();
        same.insert(
            "lat",
            Some(0),
            MetricValue::Histogram(HistogramSnapshot::default()),
        );
        let h = a.snapshot().merge(&same).histogram_total("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 16.0);
    }
}
