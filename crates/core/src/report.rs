//! `EXPLAIN ANALYZE`-style reports: the cost ledger's phase breakdown joined
//! with the recorded span tree.
//!
//! The phase table is the authoritative simulated-time accounting (phases are
//! serial, so their durations sum to the pipeline total); the span tree shows
//! *structure* — which operators and workers ran inside each phase, on which
//! node, with what per-span annotations.

use serde::{Content, Serialize};
use vdr_cluster::{PhaseReport, SimDuration};
use vdr_obs::{HistogramSnapshot, SpanRecord, Table, Verbosity};

/// A joined view over one workload's phases and spans.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Completed ledger phases, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Closed spans scoped to this workload, ordered by open sequence.
    pub spans: Vec<SpanRecord>,
    /// Total simulated time of the workload (the ledger total).
    pub total: SimDuration,
    /// Latency histograms touched by the workload (name → snapshot),
    /// rendered as a percentile table. Empty unless attached with
    /// [`TraceReport::with_histograms`].
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// `1234567` → `"1.2 MB"`.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1000.0 && unit < UNITS.len() - 1 {
        v /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{:.1} {}", v, UNITS[unit])
    }
}

fn fmt_secs(secs: f64) -> String {
    if secs >= 100.0 {
        format!("{secs:.1}")
    } else {
        format!("{secs:.3}")
    }
}

fn fmt_wall(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 1.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{:.0}µs", ns as f64 / 1e3)
    }
}

impl TraceReport {
    pub fn new(phases: Vec<PhaseReport>, spans: Vec<SpanRecord>, total: SimDuration) -> Self {
        TraceReport {
            phases,
            spans,
            total,
            histograms: Vec::new(),
        }
    }

    /// Attach latency histograms (shown as a percentile table).
    pub fn with_histograms(mut self, histograms: Vec<(String, HistogramSnapshot)>) -> Self {
        self.histograms = histograms;
        self
    }

    /// One row per attached histogram: count, mean, p50/p90/p99/p999, max.
    /// `None` when no histograms were attached.
    pub fn percentile_table(&self) -> Option<Table> {
        if self.histograms.is_empty() {
            return None;
        }
        let mut t = Table::new("Latency percentiles").header([
            "metric", "count", "mean", "p50", "p90", "p99", "p999", "max",
        ]);
        for (name, h) in &self.histograms {
            t.row([
                name.clone(),
                h.count.to_string(),
                format!("{:.2}", h.mean()),
                format!("{:.2}", h.p50()),
                format!("{:.2}", h.p90()),
                format!("{:.2}", h.p99()),
                format!("{:.2}", h.p999()),
                format!("{:.2}", h.max),
            ]);
        }
        Some(t)
    }

    /// Sum of the phase durations; equals [`Self::total`] up to float
    /// rounding because phases are serial.
    pub fn phase_sim_total(&self) -> SimDuration {
        self.phases.iter().map(|p| p.duration()).sum()
    }

    /// The phase breakdown as a table (one row per phase plus a total row).
    pub fn phase_table(&self) -> Table {
        let mut t = Table::new("Simulated phase breakdown").header([
            "phase",
            "sim (s)",
            "% of total",
            "net moved",
            "disk read",
            "cpu (core-s)",
        ]);
        let total = self.total.as_secs();
        for p in &self.phases {
            let pct = if total > 0.0 {
                format!("{:.1}%", 100.0 * p.duration_secs / total)
            } else {
                "-".to_string()
            };
            t.row([
                p.name.clone(),
                fmt_secs(p.duration_secs),
                pct,
                human_bytes(p.total_bytes_moved),
                human_bytes(p.total_disk_read),
                format!("{:.2}", p.total_cpu_core_ns / 1e9),
            ]);
        }
        t.row([
            "TOTAL".to_string(),
            fmt_secs(total),
            if total > 0.0 { "100.0%" } else { "-" }.to_string(),
            human_bytes(self.phases.iter().map(|p| p.total_bytes_moved).sum()),
            human_bytes(self.phases.iter().map(|p| p.total_disk_read).sum()),
            format!(
                "{:.2}",
                self.phases.iter().map(|p| p.total_cpu_core_ns).sum::<f64>() / 1e9
            ),
        ]);
        t
    }

    /// The nested span tree as indented text, one span per line:
    /// `name [node] sim= wall= key=value...`, children indented under their
    /// parent in open order.
    pub fn span_tree(&self) -> String {
        let mut out = String::new();
        let known: std::collections::HashSet<u64> = self.spans.iter().map(|s| s.id).collect();
        // Roots: parent 0, or parent outside this report's window.
        let roots: Vec<&SpanRecord> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0 || !known.contains(&s.parent))
            .collect();
        for root in roots {
            self.render_span(root, 0, &mut out);
        }
        out
    }

    fn render_span(&self, span: &SpanRecord, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(if depth == 0 { "● " } else { "└ " });
        out.push_str(&span.name);
        if let Some(node) = span.node {
            out.push_str(&format!(" [node {node}]"));
        }
        if span.sim_secs > 0.0 {
            out.push_str(&format!(" sim={}s", fmt_secs(span.sim_secs)));
        }
        out.push_str(&format!(" wall={}", fmt_wall(span.wall_ns)));
        for (k, v) in &span.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for child in self.spans.iter().filter(|s| s.parent == span.id) {
            self.render_span(child, depth + 1, out);
        }
    }

    /// Full text report at the given verbosity: phase table at `Summary`,
    /// plus the span tree at `Trace`.
    pub fn render_with(&self, verbosity: Verbosity) -> String {
        let mut out = self.phase_table().to_text();
        if let Some(pcts) = self.percentile_table() {
            out.push('\n');
            out.push_str(&pcts.to_text());
        }
        if verbosity == Verbosity::Trace && !self.spans.is_empty() {
            out.push('\n');
            out.push_str("Span tree (wall = real elapsed, sim = modeled):\n");
            out.push_str(&self.span_tree());
        }
        out
    }

    /// Full text report at the `VDR_OBS` verbosity.
    pub fn render(&self) -> String {
        self.render_with(Verbosity::current())
    }

    /// Machine-readable form: phases, spans, and totals.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::from(self.serialize())
    }
}

impl Serialize for TraceReport {
    fn serialize(&self) -> Content {
        let percentiles: Vec<(String, Content)> = self
            .histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    Content::Map(vec![
                        ("count".into(), Content::U64(h.count)),
                        ("mean".into(), Content::F64(h.mean())),
                        ("p50".into(), Content::F64(h.p50())),
                        ("p90".into(), Content::F64(h.p90())),
                        ("p99".into(), Content::F64(h.p99())),
                        ("p999".into(), Content::F64(h.p999())),
                        ("max".into(), Content::F64(h.max)),
                    ]),
                )
            })
            .collect();
        Content::Map(vec![
            ("total_sim_secs".into(), Content::F64(self.total.as_secs())),
            ("phases".into(), self.phases.serialize()),
            ("spans".into(), self.spans.serialize()),
            ("percentiles".into(), Content::Map(percentiles)),
        ])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn phase(name: &str, secs: f64) -> PhaseReport {
        PhaseReport::synthetic(name, SimDuration::from_secs(secs))
    }

    fn span(id: u64, parent: u64, name: &str, seq: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            node: None,
            query_id: 0,
            fields: Vec::new(),
            start_seq: seq,
            start_ns: seq * 1_000,
            tid: 1,
            wall_ns: 1_500_000,
            sim_secs: 0.0,
        }
    }

    fn sample() -> TraceReport {
        let mut worker = span(3, 2, "vft.lane", 2);
        worker.node = Some(1);
        worker.fields.push(("rows".into(), "4096".into()));
        TraceReport::new(
            vec![phase("load", 1.0), phase("transfer", 3.0)],
            vec![
                span(1, 0, "session", 0),
                span(2, 1, "vft.export", 1),
                worker,
            ],
            SimDuration::from_secs(4.0),
        )
    }

    #[test]
    fn phase_sims_sum_to_total() {
        let r = sample();
        assert!((r.phase_sim_total().as_secs() - r.total.as_secs()).abs() < 1e-9);
    }

    #[test]
    fn phase_table_has_percentages_and_total_row() {
        let text = sample().phase_table().to_text();
        assert!(text.contains("load"));
        assert!(text.contains("25.0%"));
        assert!(text.contains("75.0%"));
        assert!(text.contains("TOTAL"));
        assert!(text.contains("100.0%"));
    }

    #[test]
    fn span_tree_nests_and_annotates() {
        let tree = sample().span_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("● session"));
        assert!(lines[1].starts_with("  └ vft.export"));
        assert!(lines[2].starts_with("    └ vft.lane [node 1]"));
        assert!(lines[2].contains("rows=4096"));
    }

    #[test]
    fn orphan_spans_render_as_roots() {
        // A span whose parent closed outside the session watermark still shows.
        let r = TraceReport::new(vec![], vec![span(9, 7, "late", 5)], SimDuration::ZERO);
        assert!(r.span_tree().starts_with("● late"));
    }

    #[test]
    fn verbosity_gates_the_tree() {
        let r = sample();
        assert!(!r.render_with(Verbosity::Summary).contains("Span tree"));
        assert!(r.render_with(Verbosity::Trace).contains("Span tree"));
    }

    #[test]
    fn percentile_table_renders_attached_histograms() {
        let mut h = HistogramSnapshot::default();
        for v in [1.0, 2.0, 3.0, 100.0] {
            h.buckets[vdr_obs::metrics::bucket_index(v)] += 1;
            h.count += 1;
            h.sum += v;
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        let r = sample().with_histograms(vec![("exec.scan.ms".into(), h)]);
        let text = r.render_with(Verbosity::Summary);
        assert!(text.contains("Latency percentiles"));
        assert!(text.contains("exec.scan.ms"));
        assert!(text.contains("p999"));
        let json = r.to_json();
        let pct = json.get("percentiles").and_then(|p| p.get("exec.scan.ms"));
        assert_eq!(
            pct.and_then(|p| p.get("count")).and_then(|c| c.as_u64()),
            Some(4)
        );
        assert!(
            pct.and_then(|p| p.get("p99"))
                .and_then(|c| c.as_f64())
                .unwrap()
                > 3.0
        );
        // Without histograms the section is absent.
        assert!(!sample()
            .render_with(Verbosity::Summary)
            .contains("Latency percentiles"));
    }

    #[test]
    fn json_has_phases_and_spans() {
        let v = sample().to_json();
        assert_eq!(v.get("total_sim_secs").and_then(|x| x.as_f64()), Some(4.0));
        assert_eq!(
            v.get("phases").and_then(|p| p.as_array()).map(|a| a.len()),
            Some(2)
        );
        let spans = v.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(
            spans[1].get("name").and_then(|n| n.as_str()),
            Some("vft.export")
        );
    }

    #[test]
    fn human_bytes_scales() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1_500), "1.5 KB");
        assert_eq!(human_bytes(2_300_000_000), "2.3 GB");
    }
}
