//! Prometheus text-format rendering of the metrics registry and the data
//! collector, so the process can be scraped (or its state dumped to a file
//! for CI) without going through SQL.
//!
//! The output follows the Prometheus exposition format, version 0.0.4:
//! `# TYPE` comments, one sample per line, `{node="…"}` labels for
//! node-attributed series, and counters suffixed `_total`. Histograms are
//! rendered as summaries (pre-computed quantiles) rather than cumulative
//! `_bucket` series — our log-linear buckets have 961 slots, and the
//! quantiles are what dashboards actually plot.

use crate::dc::DataCollector;
use crate::metrics::{MetricValue, MetricsSnapshot};
use std::fmt::Write as _;

/// `vdr.scan.cache.hit` → `vdr_scan_cache_hit`; every rendered series is
/// prefixed `vdr_` so a scrape of a mixed process stays namespaced.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("vdr_");
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_alphanumeric() || (i > 0 && ch == '_') {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

fn label(node: Option<usize>) -> String {
    match node {
        Some(n) => format!("{{node=\"{n}\"}}"),
        None => String::new(),
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Render a metrics snapshot plus data-collector state as Prometheus text.
pub fn render_prometheus(snap: &MetricsSnapshot, dc: &DataCollector) -> String {
    let mut out = String::new();
    // The snapshot is keyed by (name, node) in order, so one pass groups a
    // name's series; emit the TYPE header on the first series of each name.
    let mut last_name: Option<(&str, &'static str)> = None;
    for (key, value) in snap.iter() {
        let base = sanitize(&key.name);
        let (kind, full) = match value {
            MetricValue::Counter(_) => ("counter", format!("{base}_total")),
            MetricValue::Gauge(_) => ("gauge", base.clone()),
            MetricValue::Histogram(_) => ("summary", base.clone()),
        };
        if last_name != Some((key.name.as_str(), kind)) {
            let _ = writeln!(out, "# TYPE {full} {kind}");
            last_name = Some((key.name.as_str(), kind));
        }
        match value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "{full}{} {c}", label(key.node));
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "{full}{} {}", label(key.node), finite(*g));
            }
            MetricValue::Histogram(h) => {
                for (q, v) in [(0.5, h.p50()), (0.9, h.p90()), (0.99, h.p99())] {
                    let q_label = match key.node {
                        Some(n) => format!("{{node=\"{n}\",quantile=\"{q}\"}}"),
                        None => format!("{{quantile=\"{q}\"}}"),
                    };
                    let _ = writeln!(out, "{full}{q_label} {}", finite(v));
                }
                let _ = writeln!(out, "{full}_sum{} {}", label(key.node), finite(h.sum));
                let _ = writeln!(out, "{full}_count{} {}", label(key.node), h.count);
            }
        }
    }
    // Data-collector state: tick/eviction totals and per-node ring depths.
    let _ = writeln!(out, "# TYPE vdr_dc_ticks_total counter");
    let _ = writeln!(out, "vdr_dc_ticks_total {}", dc.ticks());
    let _ = writeln!(out, "# TYPE vdr_dc_evicted_total counter");
    let _ = writeln!(out, "vdr_dc_evicted_total {}", dc.evicted());
    let _ = writeln!(out, "# TYPE vdr_dc_capacity gauge");
    let _ = writeln!(out, "vdr_dc_capacity {}", dc.capacity());
    let _ = writeln!(out, "# TYPE vdr_dc_samples gauge");
    for (node, samples) in dc.samples() {
        let _ = writeln!(out, "vdr_dc_samples{{node=\"{node}\"}} {}", samples.len());
    }
    let _ = writeln!(out, "# TYPE vdr_dc_query_summaries gauge");
    let _ = writeln!(out, "vdr_dc_query_summaries {}", dc.summaries().len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        r.counter("scan.cache.hit", Some(0), 5);
        r.counter("scan.cache.hit", Some(1), 7);
        r.gauge("pool.lanes", None, 4.0);
        for v in [100.0, 200.0, 400.0] {
            r.observe("query.wall_us", None, v);
        }
        let dc = DataCollector::new();
        let text = render_prometheus(&r.snapshot(), &dc);
        assert!(text.contains("# TYPE vdr_scan_cache_hit_total counter"));
        assert!(text.contains("vdr_scan_cache_hit_total{node=\"0\"} 5"));
        assert!(text.contains("vdr_scan_cache_hit_total{node=\"1\"} 7"));
        assert!(text.contains("# TYPE vdr_pool_lanes gauge"));
        assert!(text.contains("vdr_pool_lanes 4"));
        assert!(text.contains("# TYPE vdr_query_wall_us summary"));
        assert!(text.contains("vdr_query_wall_us{quantile=\"0.5\"}"));
        assert!(text.contains("vdr_query_wall_us_sum 700"));
        assert!(text.contains("vdr_query_wall_us_count 3"));
        assert!(text.contains("vdr_dc_ticks_total 0"));
        assert!(text.contains("vdr_dc_capacity"));
        // One TYPE line per (name, kind), even with two node series.
        assert_eq!(
            text.matches("# TYPE vdr_scan_cache_hit_total counter")
                .count(),
            1
        );
    }

    #[test]
    fn every_line_is_comment_or_sample() {
        let _lock = crate::tests::verbosity_lock();
        let r = MetricsRegistry::new();
        r.counter("a.b-c", Some(3), 1);
        r.observe("lat", Some(2), 9.0);
        let dc = DataCollector::new();
        for line in render_prometheus(&r.snapshot(), &dc).lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            // <name>[{labels}] <value>
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name: {name}"
            );
            assert!(name.starts_with("vdr_"));
        }
    }
}
