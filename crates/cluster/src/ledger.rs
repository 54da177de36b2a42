//! The cost ledger: records operation counts per phase and converts them into
//! simulated durations using a [`HardwareProfile`].
//!
//! Engines bracket work into *phases*. Within a phase, each node's recorded
//! usage (disk bytes, network bytes, CPU core-nanoseconds, fixed overheads)
//! is combined into a per-node time; the phase's duration is the maximum over
//! nodes (the cluster waits for its slowest node). Phases on one ledger are
//! serial with respect to each other; their durations sum.
//!
//! Two combination rules exist within a node:
//! * [`PhaseKind::Sequential`] — stages run back to back: `t = fixed + t_disk
//!   + t_net + t_cpu`.
//! * [`PhaseKind::Pipelined`] — stages overlap (e.g. VFT's read → serialize →
//!   stream pipeline): `t = fixed + max(t_disk, t_net, t_cpu)`.

use crate::node::NodeId;
use crate::profile::HardwareProfile;
use crate::time::SimDuration;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a phase's per-node resource times combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    Sequential,
    Pipelined,
}

/// Resource usage recorded against a single node within one phase.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct NodeUsage {
    /// Bytes read from cold disk.
    pub disk_read_bytes: u64,
    /// Bytes re-read through the OS page cache.
    pub disk_cached_read_bytes: u64,
    /// Bytes written to disk.
    pub disk_write_bytes: u64,
    /// Bytes received over the NIC.
    pub net_in_bytes: u64,
    /// Bytes sent over the NIC.
    pub net_out_bytes: u64,
    /// CPU work, in core-nanoseconds (i.e. time it would take one core).
    pub cpu_core_ns: f64,
    /// Serial fixed overhead (handshakes, startup costs), in seconds.
    pub fixed_secs: f64,
    /// CPU lanes active on this node during the phase (0 ⇒ profile default
    /// of all physical cores).
    pub lanes: usize,
}

impl NodeUsage {
    fn merge(&mut self, other: &NodeUsage) {
        self.disk_read_bytes += other.disk_read_bytes;
        self.disk_cached_read_bytes += other.disk_cached_read_bytes;
        self.disk_write_bytes += other.disk_write_bytes;
        self.net_in_bytes += other.net_in_bytes;
        self.net_out_bytes += other.net_out_bytes;
        self.cpu_core_ns += other.cpu_core_ns;
        self.fixed_secs += other.fixed_secs;
        self.lanes = self.lanes.max(other.lanes);
    }

    /// Per-node duration under `kind` with the given profile.
    fn duration(&self, profile: &HardwareProfile, kind: PhaseKind) -> SimDuration {
        let t_disk = SimDuration::from_secs(
            self.disk_read_bytes as f64 / profile.disk_read_bps
                + self.disk_cached_read_bytes as f64 / profile.disk_cached_read_bps
                + self.disk_write_bytes as f64 / profile.disk_write_bps,
        );
        // NICs are full duplex: in and out overlap.
        let t_net = SimDuration::from_secs(
            (self.net_in_bytes.max(self.net_out_bytes)) as f64 / profile.net_bps,
        );
        let lanes = if self.lanes == 0 {
            profile.physical_cores
        } else {
            self.lanes
        };
        let t_cpu = SimDuration::from_nanos(self.cpu_core_ns) / profile.parallel_speedup(lanes);
        let fixed = SimDuration::from_secs(self.fixed_secs);
        match kind {
            PhaseKind::Sequential => fixed + t_disk + t_net + t_cpu,
            PhaseKind::Pipelined => fixed + t_disk.max(t_net).max(t_cpu),
        }
    }
}

/// Live recorder for one phase; thread-safe so concurrent node tasks can
/// charge into it.
pub struct PhaseRecorder {
    name: String,
    kind: PhaseKind,
    usage: Mutex<Vec<NodeUsage>>,
    /// The query this phase belongs to; 0 (the default) means unattributed.
    query_id: AtomicU64,
}

impl PhaseRecorder {
    pub fn new(name: impl Into<String>, kind: PhaseKind, num_nodes: usize) -> Self {
        PhaseRecorder {
            name: name.into(),
            kind,
            usage: Mutex::new(vec![NodeUsage::default(); num_nodes]),
            query_id: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn kind(&self) -> PhaseKind {
        self.kind
    }

    /// Attribute this phase to a query (see `vdr-obs`'s query ids). The
    /// ledger crate doesn't allocate ids itself — the executor does — so
    /// this is a plain setter.
    pub fn set_query_id(&self, query_id: u64) {
        self.query_id.store(query_id, Ordering::Relaxed);
    }

    pub fn query_id(&self) -> u64 {
        self.query_id.load(Ordering::Relaxed)
    }

    /// Record `bytes` read from cold disk on `node`.
    pub fn disk_read(&self, node: NodeId, bytes: u64) {
        self.usage.lock()[node.0].disk_read_bytes += bytes;
    }

    /// Record `bytes` re-read through the page cache on `node`.
    pub fn disk_cached_read(&self, node: NodeId, bytes: u64) {
        self.usage.lock()[node.0].disk_cached_read_bytes += bytes;
    }

    /// Record `bytes` written to disk on `node`.
    pub fn disk_write(&self, node: NodeId, bytes: u64) {
        self.usage.lock()[node.0].disk_write_bytes += bytes;
    }

    /// Record a transfer of `bytes` from `src` to `dst`. Loopback transfers
    /// (same node) don't touch the NIC — the paper notes co-located
    /// deployments minimize network overhead (Section 6).
    pub fn net(&self, src: NodeId, dst: NodeId, bytes: u64) {
        if src == dst {
            return;
        }
        let mut usage = self.usage.lock();
        usage[src.0].net_out_bytes += bytes;
        usage[dst.0].net_in_bytes += bytes;
    }

    /// Record raw CPU work in core-nanoseconds on `node`.
    pub fn cpu_ns(&self, node: NodeId, core_ns: f64) {
        self.usage.lock()[node.0].cpu_core_ns += core_ns;
    }

    /// Record `units` of work at `ns_per_unit` on `node`.
    pub fn cpu_work(&self, node: NodeId, units: f64, ns_per_unit: f64) {
        self.cpu_ns(node, units * ns_per_unit);
    }

    /// Record a serial fixed overhead on `node`.
    pub fn fixed(&self, node: NodeId, d: SimDuration) {
        self.usage.lock()[node.0].fixed_secs += d.as_secs();
    }

    /// Declare how many CPU lanes `node` uses in this phase.
    pub fn set_lanes(&self, node: NodeId, lanes: usize) {
        let mut usage = self.usage.lock();
        usage[node.0].lanes = usage[node.0].lanes.max(lanes);
    }

    /// Simulated duration of the phase: max over nodes.
    pub fn duration(&self, profile: &HardwareProfile) -> SimDuration {
        self.usage
            .lock()
            .iter()
            .map(|u| u.duration(profile, self.kind))
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Freeze into a report.
    pub fn finish(self, profile: &HardwareProfile) -> PhaseReport {
        let duration = self.duration(profile);
        let kind = self.kind;
        let usage = self.usage.into_inner();
        let mut totals = NodeUsage::default();
        for u in &usage {
            totals.merge(u);
        }
        let nodes = usage
            .iter()
            .enumerate()
            .map(|(node, u)| NodePhase {
                node,
                duration_secs: u.duration(profile, kind).as_secs(),
                usage: u.clone(),
            })
            .collect();
        PhaseReport {
            name: self.name,
            query_id: self.query_id.load(Ordering::Relaxed),
            duration_secs: duration.as_secs(),
            total_bytes_moved: totals.net_in_bytes,
            total_disk_read: totals.disk_read_bytes + totals.disk_cached_read_bytes,
            total_cpu_core_ns: totals.cpu_core_ns,
            nodes,
        }
    }
}

/// One node's share of a completed phase: its simulated duration (the
/// phase's overall duration is the max of these) and the raw usage it
/// recorded. This is the row shape `v_monitor.execution_engine_profiles`
/// serves.
#[derive(Debug, Clone, serde::Serialize)]
pub struct NodePhase {
    pub node: usize,
    pub duration_secs: f64,
    pub usage: NodeUsage,
}

/// A completed phase: its name, duration, and aggregate counts (for harness
/// output and for tests that cross-check analytic formulas against counts
/// recorded during real execution), plus the per-node breakdown and the
/// query the phase was executed for (0 when unattributed).
#[derive(Debug, Clone, serde::Serialize)]
pub struct PhaseReport {
    pub name: String,
    pub query_id: u64,
    pub duration_secs: f64,
    pub total_bytes_moved: u64,
    pub total_disk_read: u64,
    pub total_cpu_core_ns: f64,
    pub nodes: Vec<NodePhase>,
}

impl PhaseReport {
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.duration_secs)
    }

    /// A synthetic report for durations computed outside the per-node model
    /// (e.g. admission-control queuing waves).
    pub fn synthetic(name: impl Into<String>, duration: SimDuration) -> Self {
        PhaseReport {
            name: name.into(),
            query_id: 0,
            duration_secs: duration.as_secs(),
            total_bytes_moved: 0,
            total_disk_read: 0,
            total_cpu_core_ns: 0.0,
            nodes: Vec::new(),
        }
    }
}

/// An append-only sequence of completed phases. Phases are serial: the
/// ledger's total is the sum of phase durations.
#[derive(Default)]
pub struct Ledger {
    phases: Mutex<Vec<PhaseReport>>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Run `f` inside a fresh phase recorder and commit the result.
    /// Returns `f`'s output and the phase's simulated duration.
    pub fn record<R>(
        &self,
        name: &str,
        kind: PhaseKind,
        num_nodes: usize,
        profile: &HardwareProfile,
        f: impl FnOnce(&PhaseRecorder) -> R,
    ) -> (R, SimDuration) {
        let rec = PhaseRecorder::new(name, kind, num_nodes);
        let out = f(&rec);
        let report = rec.finish(profile);
        let d = report.duration();
        self.phases.lock().push(report);
        (out, d)
    }

    /// Commit an externally computed phase.
    pub fn push(&self, report: PhaseReport) {
        self.phases.lock().push(report);
    }

    /// Total simulated time across all committed phases.
    pub fn total(&self) -> SimDuration {
        self.phases.lock().iter().map(|p| p.duration()).sum()
    }

    /// Snapshot of committed phases.
    pub fn reports(&self) -> Vec<PhaseReport> {
        self.phases.lock().clone()
    }

    /// Drop all recorded phases (reuse one ledger across bench repetitions).
    pub fn reset(&self) {
        self.phases.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> HardwareProfile {
        HardwareProfile::paper_testbed()
    }

    #[test]
    fn sequential_phase_sums_resources() {
        let p = profile();
        let rec = PhaseRecorder::new("t", PhaseKind::Sequential, 2);
        // Node 0: 500 MB disk (1 s) + 1.15 GB net out (1 s) + 12 core-s of
        // CPU on 12 lanes (≈1.31 s with contention).
        rec.disk_read(NodeId(0), 500_000_000);
        rec.net(NodeId(0), NodeId(1), 1_150_000_000);
        rec.cpu_ns(NodeId(0), 12e9);
        rec.set_lanes(NodeId(0), 12);
        let d = rec.duration(&p);
        let expect = 1.0 + 1.0 + 12.0 / p.parallel_speedup(12);
        assert!((d.as_secs() - expect).abs() < 1e-6, "{d}");
    }

    #[test]
    fn pipelined_phase_takes_max_resource() {
        let p = profile();
        let rec = PhaseRecorder::new("t", PhaseKind::Pipelined, 2);
        rec.disk_read(NodeId(0), 1_000_000_000); // 2 s — slowest stage
        rec.net(NodeId(0), NodeId(1), 575_000_000); // 0.5 s
        rec.cpu_ns(NodeId(0), 1e9);
        rec.set_lanes(NodeId(0), 1); // 1 s
        let d = rec.duration(&p);
        assert!((d.as_secs() - 2.0).abs() < 1e-6, "{d}");
    }

    #[test]
    fn phase_duration_is_max_over_nodes() {
        let p = profile();
        let rec = PhaseRecorder::new("t", PhaseKind::Sequential, 3);
        rec.disk_read(NodeId(0), 500_000_000); // 1 s
        rec.disk_read(NodeId(1), 1_500_000_000); // 3 s — straggler
        rec.disk_read(NodeId(2), 250_000_000); // 0.5 s
        assert!((rec.duration(&p).as_secs() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn loopback_transfer_is_free() {
        let p = profile();
        let rec = PhaseRecorder::new("t", PhaseKind::Sequential, 2);
        rec.net(NodeId(1), NodeId(1), u64::MAX / 2);
        assert_eq!(rec.duration(&p), SimDuration::ZERO);
    }

    #[test]
    fn nic_is_full_duplex() {
        let p = profile();
        let rec = PhaseRecorder::new("t", PhaseKind::Sequential, 2);
        // Node 0 sends 1.15 GB and receives 1.15 GB: full duplex ⇒ 1 s, not 2.
        rec.net(NodeId(0), NodeId(1), 1_150_000_000);
        rec.net(NodeId(1), NodeId(0), 1_150_000_000);
        assert!((rec.duration(&p).as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ledger_sums_serial_phases() {
        let p = profile();
        let ledger = Ledger::new();
        let (_, d1) = ledger.record("a", PhaseKind::Sequential, 1, &p, |rec| {
            rec.disk_read(NodeId(0), 500_000_000);
        });
        let (_, d2) = ledger.record("b", PhaseKind::Sequential, 1, &p, |rec| {
            rec.disk_read(NodeId(0), 1_000_000_000);
        });
        assert!((d1.as_secs() - 1.0).abs() < 1e-6);
        assert!((d2.as_secs() - 2.0).abs() < 1e-6);
        assert!((ledger.total().as_secs() - 3.0).abs() < 1e-6);
        let reports = ledger.reports();
        assert_eq!(reports.len(), 2);
        assert_eq!((reports[0].name.as_str(), reports[0].duration()), ("a", d1));
        ledger.reset();
        assert_eq!(ledger.total(), SimDuration::ZERO);
    }

    #[test]
    fn default_lanes_are_all_physical_cores() {
        let p = profile();
        let rec = PhaseRecorder::new("t", PhaseKind::Sequential, 1);
        rec.cpu_ns(NodeId(0), 12e9);
        // No set_lanes call: expect full parallelism, not single-core.
        let d = rec.duration(&p);
        assert!(d.as_secs() < 2.0, "{d}");
    }

    #[test]
    fn concurrent_charging_is_safe_and_complete() {
        let p = profile();
        let rec = std::sync::Arc::new(PhaseRecorder::new("t", PhaseKind::Sequential, 4));
        std::thread::scope(|s| {
            for t in 0..8 {
                let rec = rec.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        rec.disk_read(NodeId(t % 4), 1000);
                    }
                });
            }
        });
        let rec = std::sync::Arc::into_inner(rec).unwrap();
        let report = rec.finish(&p);
        assert_eq!(report.total_disk_read, 8 * 1000 * 1000);
    }

    #[test]
    fn finish_breaks_out_per_node_rows_and_query_id() {
        let p = profile();
        let rec = PhaseRecorder::new("scan", PhaseKind::Sequential, 3);
        rec.set_query_id(42);
        rec.disk_read(NodeId(0), 500_000_000); // 1 s
        rec.disk_read(NodeId(1), 1_500_000_000); // 3 s — straggler
        let report = rec.finish(&p);
        assert_eq!(report.query_id, 42);
        assert_eq!(report.nodes.len(), 3, "every node gets a row");
        assert!((report.nodes[0].duration_secs - 1.0).abs() < 1e-6);
        assert!((report.nodes[1].duration_secs - 3.0).abs() < 1e-6);
        assert_eq!(report.nodes[2].duration_secs, 0.0);
        assert_eq!(report.nodes[1].usage.disk_read_bytes, 1_500_000_000);
        // The phase duration is the max over the per-node rows.
        let max = report
            .nodes
            .iter()
            .map(|n| n.duration_secs)
            .fold(0.0f64, f64::max);
        assert_eq!(report.duration_secs, max);
    }

    #[test]
    fn synthetic_report() {
        let ledger = Ledger::new();
        ledger.push(PhaseReport::synthetic(
            "queue",
            SimDuration::from_secs(42.0),
        ));
        assert_eq!(ledger.total().as_secs(), 42.0);
    }
}
