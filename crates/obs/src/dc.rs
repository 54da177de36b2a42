//! The Data Collector: retention-bounded time series of engine activity.
//!
//! Vertica's monitoring tables are fed by the Data Collector — a set of
//! in-memory rings that continuously sample what the engine does, so system
//! tables can answer "over time" questions, not just point-in-time ones.
//! This module is that layer for the reproduction: a [`DataCollector`]
//! holds one bounded ring of [`NodeSample`]s per cluster node plus one ring
//! of [`QuerySummary`] rollups, and is **ticked at deterministic points** —
//! statement boundaries in `run_tracked`, VFT transfer completions, and
//! train-while-loading completions — rather than on a wall-clock timer, so
//! a workload replayed under the simulated clock produces the identical
//! sample sequence.
//!
//! Each tick carries:
//!
//! * the [`MetricsSnapshot`] *delta* of the window the tick closes (the
//!   same per-statement diff `PROFILE` attributes), sliced per node;
//! * cost-ledger readings per node ([`TickUsage`]: cpu core-ns, disk and
//!   network bytes, block-cache occupancy);
//! * a query rollup with rolling latency percentiles extracted from the
//!   cumulative `query.wall_us` histogram.
//!
//! Rings are bounded by a runtime-configurable capacity; evictions are
//! counted on the collector and on the `obs.dc.evicted` metric (which, by
//! construction, lands in the *next* tick's delta — the counter moves while
//! the current tick is being recorded).

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default samples retained per ring (per node, and for the query-summary
/// ring). Override with [`DataCollector::set_capacity`].
pub const DC_DEFAULT_CAPACITY: usize = 256;

/// Cost-ledger readings for one node at one tick.
#[derive(Debug, Clone, Default)]
pub struct TickUsage {
    pub node: usize,
    /// The node's simulated duration within the tick's phase, seconds.
    pub sim_secs: f64,
    /// CPU work recorded on the node, core-nanoseconds.
    pub cpu_core_ns: f64,
    /// Bytes read from disk (cold + page-cached).
    pub disk_read_bytes: u64,
    /// Bytes written to disk.
    pub disk_write_bytes: u64,
    /// Bytes received over the NIC.
    pub net_in_bytes: u64,
    /// Bytes sent over the NIC.
    pub net_out_bytes: u64,
    /// Decoded-block-cache occupancy on the node at tick time, bytes.
    pub cache_bytes: u64,
}

/// Everything one tick records; built by the caller at the deterministic
/// tick point (statement boundary, transfer completion, train completion).
#[derive(Debug, Clone, Default)]
pub struct TickContext {
    /// Query id of the unit that closed the window (0 if unattributed).
    pub query_id: u64,
    /// What drove the tick: `statement`, `vft`, or `train`.
    pub trigger: &'static str,
    /// Statement label / SQL text / transfer description.
    pub label: String,
    /// `complete` or `error: …`.
    pub status: String,
    pub rows: u64,
    pub bytes: u64,
    /// Simulated duration of the unit, seconds.
    pub sim_secs: f64,
    /// Wall-clock duration of the unit, nanoseconds.
    pub wall_ns: u64,
    /// Metric activity of the window this tick closes (snapshot diff).
    pub delta: MetricsSnapshot,
    /// The *cumulative* `query.wall_us` histogram at tick time; the rollup
    /// extracts rolling p50/p90/p99 from it.
    pub latency: Option<HistogramSnapshot>,
    /// Per-node cost-ledger readings for the window.
    pub usage: Vec<TickUsage>,
}

/// One entry in a per-node time-series ring.
#[derive(Debug, Clone)]
pub struct NodeSample {
    /// The deterministic tick index (1-based, process-monotone).
    pub tick: u64,
    pub query_id: u64,
    pub trigger: &'static str,
    /// Metric deltas attributed to this node (node 0 also carries the
    /// globally-labelled entries — initiator-side work has no node label).
    pub delta: MetricsSnapshot,
    pub usage: TickUsage,
}

/// One entry in the per-tick query-rollup ring.
#[derive(Debug, Clone)]
pub struct QuerySummary {
    pub tick: u64,
    pub query_id: u64,
    pub trigger: &'static str,
    pub label: String,
    pub status: String,
    pub rows: u64,
    pub bytes: u64,
    pub sim_secs: f64,
    pub wall_ns: u64,
    /// Rolling latency percentiles (µs) of the cumulative `query.wall_us`
    /// histogram as of this tick; 0 before the first observation.
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

struct DcInner {
    /// One ring per node; grown on demand as ticks report higher node ids.
    rings: Vec<VecDeque<NodeSample>>,
    summaries: VecDeque<QuerySummary>,
}

/// The process-global data-collector state (held by [`crate::Obs`]).
pub struct DataCollector {
    capacity: AtomicUsize,
    ticks: AtomicU64,
    evicted: AtomicU64,
    inner: Mutex<DcInner>,
}

impl DataCollector {
    pub fn new() -> Self {
        DataCollector {
            capacity: AtomicUsize::new(DC_DEFAULT_CAPACITY),
            ticks: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            inner: Mutex::new(DcInner {
                rings: Vec::new(),
                summaries: VecDeque::new(),
            }),
        }
    }

    /// Whether a tick recorded now would be sampled: the collector follows
    /// the recording verbosity (`VDR_OBS=off` switches it off).
    pub fn sampling(&self) -> bool {
        crate::Verbosity::current().recording()
    }

    /// Retention bound per ring.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Change the retention bound; over-capacity rings are trimmed (and the
    /// trim counted) immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut evicted = 0u64;
        {
            let mut inner = self.inner.lock();
            for ring in &mut inner.rings {
                while ring.len() > capacity {
                    ring.pop_front();
                    evicted += 1;
                }
            }
            while inner.summaries.len() > capacity {
                inner.summaries.pop_front();
                evicted += 1;
            }
        }
        self.count_evictions(evicted);
    }

    /// Ticks recorded since process start (sampled or not — the index only
    /// advances on sampled ticks so tick numbers stay dense).
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Samples evicted from any ring since process start.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Record one tick. A no-op unless [`Self::sampling`]. Returns the tick
    /// index assigned (0 when skipped).
    pub fn tick(&self, ctx: TickContext) -> u64 {
        if !self.sampling() {
            return 0;
        }
        let tick = self.ticks.fetch_add(1, Ordering::SeqCst) + 1;
        let capacity = self.capacity();
        let (p50, p90, p99) = match &ctx.latency {
            Some(h) if h.count > 0 => (h.p50(), h.p90(), h.p99()),
            _ => (0.0, 0.0, 0.0),
        };
        let mut evicted = 0u64;
        {
            let mut inner = self.inner.lock();
            for usage in &ctx.usage {
                let node = usage.node;
                if inner.rings.len() <= node {
                    inner.rings.resize_with(node + 1, VecDeque::new);
                }
                let ring = &mut inner.rings[node];
                ring.push_back(NodeSample {
                    tick,
                    query_id: ctx.query_id,
                    trigger: ctx.trigger,
                    delta: ctx.delta.restrict_to_node(node, node == 0),
                    usage: usage.clone(),
                });
                while ring.len() > capacity {
                    ring.pop_front();
                    evicted += 1;
                }
            }
            inner.summaries.push_back(QuerySummary {
                tick,
                query_id: ctx.query_id,
                trigger: ctx.trigger,
                label: ctx.label,
                status: ctx.status,
                rows: ctx.rows,
                bytes: ctx.bytes,
                sim_secs: ctx.sim_secs,
                wall_ns: ctx.wall_ns,
                p50_us: p50,
                p90_us: p90,
                p99_us: p99,
            });
            while inner.summaries.len() > capacity {
                inner.summaries.pop_front();
                evicted += 1;
            }
        }
        self.count_evictions(evicted);
        tick
    }

    fn count_evictions(&self, n: u64) {
        if n > 0 {
            self.evicted.fetch_add(n, Ordering::Relaxed);
            // Registry shards are a different lock than the ring mutex, and
            // the count lands in the *next* tick's delta window.
            crate::counter("obs.dc.evicted", n);
        }
    }

    /// Number of rings (== highest node id sampled + 1).
    pub fn num_nodes(&self) -> usize {
        self.inner.lock().rings.len()
    }

    /// Retained samples of one node's ring, oldest first.
    pub fn samples_on(&self, node: usize) -> Vec<NodeSample> {
        self.inner
            .lock()
            .rings
            .get(node)
            .map(|r| r.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Retained samples of every ring: `(node, samples oldest-first)`.
    pub fn samples(&self) -> Vec<(usize, Vec<NodeSample>)> {
        self.inner
            .lock()
            .rings
            .iter()
            .enumerate()
            .map(|(n, r)| (n, r.iter().cloned().collect()))
            .collect()
    }

    /// Retained query rollups, oldest first.
    pub fn summaries(&self) -> Vec<QuerySummary> {
        self.inner.lock().summaries.iter().cloned().collect()
    }

    /// Drop all retained samples (tick and eviction counts keep advancing).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.rings.clear();
        inner.summaries.clear();
    }
}

impl Default for DataCollector {
    fn default() -> Self {
        DataCollector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    fn ctx(query_id: u64, nodes: usize) -> TickContext {
        let mut delta = MetricsSnapshot::default();
        delta.insert("exec.scan.rows", Some(0), MetricValue::Counter(10));
        delta.insert("exec.scan.rows", Some(1), MetricValue::Counter(20));
        delta.insert("exec.select.count", None, MetricValue::Counter(1));
        TickContext {
            query_id,
            trigger: "statement",
            label: format!("SELECT {query_id}"),
            status: "complete".into(),
            rows: 1,
            bytes: 8,
            sim_secs: 0.001,
            wall_ns: 5_000,
            delta,
            latency: None,
            usage: (0..nodes)
                .map(|node| TickUsage {
                    node,
                    cpu_core_ns: 100.0 * (node + 1) as f64,
                    ..Default::default()
                })
                .collect(),
        }
    }

    #[test]
    fn ticks_sample_per_node_rings_with_sliced_deltas() {
        let _lock = crate::tests::verbosity_lock();
        let _v = crate::verbosity_guard(crate::Verbosity::Summary);
        let dc = DataCollector::new();
        let t1 = dc.tick(ctx(7, 2));
        let t2 = dc.tick(ctx(8, 2));
        assert!(t2 == t1 + 1, "tick indices are dense");
        assert_eq!(dc.num_nodes(), 2);
        let n0 = dc.samples_on(0);
        let n1 = dc.samples_on(1);
        assert_eq!(n0.len(), 2);
        assert_eq!(n1.len(), 2);
        assert_eq!(n0[0].query_id, 7);
        assert_eq!(n0[1].query_id, 8);
        // Node slices: each ring sees only its own labelled entries; the
        // globally-labelled entry rides on node 0.
        assert_eq!(n0[0].delta.counter_total("exec.scan.rows"), 10);
        assert_eq!(n1[0].delta.counter_total("exec.scan.rows"), 20);
        assert_eq!(n0[0].delta.counter_total("exec.select.count"), 1);
        assert_eq!(n1[0].delta.counter_total("exec.select.count"), 0);
        assert_eq!(n1[0].usage.cpu_core_ns, 200.0);
        let sums = dc.summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[1].label, "SELECT 8");
    }

    #[test]
    fn rings_evict_under_wraparound_and_count() {
        let _lock = crate::tests::verbosity_lock();
        let _v = crate::verbosity_guard(crate::Verbosity::Summary);
        let before = crate::global().metrics().snapshot();
        let dc = DataCollector::new();
        dc.set_capacity(4);
        for i in 1..=10 {
            dc.tick(ctx(i, 2));
        }
        // Each of the 2 node rings wrapped 6 times, the summary ring 6
        // times: 18 evictions in total.
        assert_eq!(dc.evicted(), 18);
        let diff = crate::global().metrics().snapshot().diff(&before);
        assert_eq!(diff.counter_total("obs.dc.evicted"), 18);
        for node in 0..2 {
            let samples = dc.samples_on(node);
            assert_eq!(samples.len(), 4);
            // Oldest evicted first: ticks 7..=10 survive, in order.
            let ticks: Vec<u64> = samples.iter().map(|s| s.tick).collect();
            assert_eq!(ticks, vec![7, 8, 9, 10]);
            assert!(samples.windows(2).all(|w| w[0].tick < w[1].tick));
        }
        assert_eq!(dc.summaries().len(), 4);
        assert_eq!(dc.summaries()[0].query_id, 7);
    }

    #[test]
    fn shrinking_capacity_trims_immediately() {
        let _lock = crate::tests::verbosity_lock();
        let _v = crate::verbosity_guard(crate::Verbosity::Summary);
        let dc = DataCollector::new();
        for i in 1..=6 {
            dc.tick(ctx(i, 1));
        }
        assert_eq!(dc.samples_on(0).len(), 6);
        dc.set_capacity(2);
        // Node ring trimmed 6→2, summary ring 6→2: 8 evictions.
        assert_eq!(dc.evicted(), 8);
        assert_eq!(dc.samples_on(0).len(), 2);
        assert_eq!(dc.samples_on(0)[0].tick, 5);
    }

    #[test]
    fn off_verbosity_ticks_are_skipped() {
        let _lock = crate::tests::verbosity_lock();
        let dc = DataCollector::new();
        {
            let _v = crate::verbosity_guard(crate::Verbosity::Off);
            assert!(!dc.sampling());
            assert_eq!(dc.tick(ctx(1, 1)), 0, "off verbosity skips");
            assert_eq!(dc.ticks(), 0);
            assert!(dc.samples_on(0).is_empty());
        }
        let _v = crate::verbosity_guard(crate::Verbosity::Summary);
        assert!(dc.tick(ctx(2, 1)) > 0);
    }

    #[test]
    fn rollups_extract_rolling_percentiles() {
        let _lock = crate::tests::verbosity_lock();
        let _v = crate::verbosity_guard(crate::Verbosity::Summary);
        let dc = DataCollector::new();
        let reg = crate::MetricsRegistry::new();
        for v in [100.0, 200.0, 400.0, 800.0] {
            reg.observe("query.wall_us", None, v);
        }
        let mut c = ctx(1, 1);
        c.latency = reg.snapshot().histogram_total("query.wall_us");
        dc.tick(c);
        let s = &dc.summaries()[0];
        assert!(s.p50_us >= 100.0 && s.p50_us <= 400.0, "p50 = {}", s.p50_us);
        assert!(s.p99_us >= 750.0 && s.p99_us <= 800.0, "p99 = {}", s.p99_us);
    }
}
