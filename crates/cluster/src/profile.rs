//! Hardware and engine cost profiles.
//!
//! Every constant below is derived from numbers the paper reports (Section 7)
//! for its testbed: 24 × HP SL390 servers, 24 hyper-threaded 2.67 GHz cores
//! (12 physical), 196 GB RAM, 120 GB SSD, 10 Gbps full-bisection network,
//! Vertica 7.1, Distributed R 1.0.0, Spark 1.1.0 on HDFS (3-way replication).
//!
//! The derivations are shown inline. Where the paper's own figures imply
//! different effective kernel rates at different scales (its single-node
//! R-comparison experiments in Figs 17–18 imply ~13× slower effective
//! per-element rates than its distributed experiments in Figs 19–21 — see
//! EXPERIMENTS.md §"calibration notes"), we keep *two documented regimes*
//! ([`KernelRegime::RBound`] and [`KernelRegime::Native`]) and each experiment
//! harness selects the regime matching the paper's setup. Within any one
//! figure, shape (scaling curves, ratios, crossovers) emerges from the model;
//! no figure output is hard-coded.

use crate::time::SimDuration;

/// Which effective kernel-rate regime a computation runs in.
///
/// * `RBound` — the kernel is driven through R bindings with R-level
///   per-element overhead (the paper's single-node comparisons, Figs 17–18).
/// * `Native` — the kernel runs at compiled-code rates (the paper's
///   distributed experiments, Figs 19–21).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelRegime {
    RBound,
    Native,
}

/// Raw machine characteristics of one cluster node.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HardwareProfile {
    /// Sequential SSD read bandwidth, bytes/second. 2011-era SATA SSD ≈ 500 MB/s.
    pub disk_read_bps: f64,
    /// Sequential SSD write bandwidth, bytes/second.
    pub disk_write_bps: f64,
    /// Effective re-read bandwidth when a scan was recently performed and the
    /// OS page cache holds part of the table (used by the repeated full scans
    /// that concurrent ODBC range queries force). Between SSD and DRAM speed.
    pub disk_cached_read_bps: f64,
    /// Per-NIC bandwidth, bytes/second. 10 Gbps ≈ 1.25 GB/s raw; ~1.15 GB/s
    /// effective after framing.
    pub net_bps: f64,
    /// One-way network latency per connection establishment / round trip.
    pub net_latency: SimDuration,
    /// Logical (hyper-threaded) cores per node.
    pub cores: usize,
    /// Physical cores per node. Compute-bound kernels plateau here — the
    /// paper observes K-means flat-lining beyond 12 cores (Fig 17).
    pub physical_cores: usize,
    /// Per-extra-lane contention coefficient for the parallel speedup model
    /// `speedup(l) = l / (1 + c·(l-1))`. Calibrated so 12 lanes give the ~9×
    /// speedup the paper reports for both K-means and regression:
    /// `12 / (1 + 0.028·11) = 9.17`.
    pub contention: f64,
    /// Aggregate memory per node, bytes (196 GB). Used by the distributed
    /// runtime's memory manager: "Distributed R currently handles only data
    /// that fits in the aggregate memory of the cluster" (Section 2).
    pub mem_bytes: u64,
    /// Engine-specific per-operation costs.
    pub costs: EngineCosts,
}

/// Per-engine CPU cost constants, nanoseconds per unit of work.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EngineCosts {
    // ---------------------------------------------------------------- ODBC
    /// Client-side cost to parse one text-encoded value into an R object.
    ///
    /// Fig 1: one R instance over one ODBC connection loads a 50 GB /
    /// ~1 G-row (≈6.5 values/row) table in ≈55 min = 3300 s, single-threaded:
    /// 3300 s / 6.5e9 values ≈ 507 ns. → 500 ns.
    pub odbc_client_parse_ns_per_value: f64,
    /// Server-side cost to decompress, convert and text-encode one value.
    /// Same path as VFT export plus text formatting. → 1100 ns.
    pub odbc_server_encode_ns_per_value: f64,
    /// Text encoding expands binary data on the wire by about this factor
    /// (a double like `-1234.567890123` is ~15–20 chars vs 8 bytes).
    pub odbc_text_expansion: f64,
    /// Connection establishment (TCP + auth handshake).
    pub odbc_connect_ms: f64,
    /// Maximum SQL queries the database admits concurrently; the rest queue.
    /// "Multiple simultaneous SQL queries can overwhelm the database"
    /// (Section 1.1). Vertica-style default resource pools plan around the
    /// core count.
    pub db_max_concurrent_queries: usize,
    /// Fraction of the table an `ORDER BY … OFFSET k LIMIT n` range query must
    /// scan on average, over all of C concurrent range queries: query i reads
    /// rows `[0, offset_i + n)`, so the mean fraction is `(C+1)/2C ≈ 0.5`.
    /// Used by the *real* loader's mechanics.
    pub odbc_range_scan_fraction: f64,
    /// Aggregate concurrency penalty of a C-connection ODBC burst at paper
    /// scale: total DB time = cold-scan time × (1 + β·ln C). The raw
    /// rescan-everything model overshoots at large C because the page cache
    /// absorbs most re-reads and OFFSET positioning touches only the sort
    /// key; a logarithmic fit hits both of the paper's operating points:
    /// 120 connections / 150 GB / 5 nodes ≈ 40 min (Figs 1, 12) and 288
    /// connections / 400 GB / 12 nodes ≈ 1 h (Fig 13). → 8.0.
    pub odbc_concurrency_penalty_beta: f64,

    // ----------------------------------------------------------------- VFT
    /// Database-side cost per value for the `ExportToDistributedR` path:
    /// read from columnar storage, decompress, convert to the standard
    /// format, binary-serialize (Section 7.3.2 lists exactly these steps).
    ///
    /// Figs 12–14: the paper's transfer tables are ~50 B/row (50 GB ≈ 1 G
    /// rows ⇒ 6 values/row). 400 GB over 12 nodes loads in just under
    /// 10 min with the DB part dominating at high R parallelism: per node
    /// 4.0e9 values over ~9.2 effective lanes in ≈450 s ⇒ ≈1030 ns. The
    /// 5-node 150 GB runs of Fig 12 imply a somewhat lower constant
    /// (<6 min ⇒ ≈800 ns); we calibrate between, which keeps both figures
    /// within ~15% and preserves the ~6× VFT-vs-ODBC ratio. → 1050 ns.
    pub vft_export_ns_per_value: f64,
    /// R-side cost per value to assemble received binary batches into R
    /// objects. Fig 14: with 2 R instances/server the R part is roughly half
    /// the total (~300 s for 33.3 GB/node): 300 s × 2 / 4.33e9 ≈ 139 ns.
    /// → 140 ns.
    pub vft_convert_ns_per_value: f64,
    /// Export lanes per node chosen by `PARTITION BEST` (resource-aware;
    /// the planner uses the physical core count).
    pub vft_export_lanes: usize,

    // ------------------------------------------------------ other loaders
    /// Spark loading CSV-ish data from HDFS into RDDs (deserialize + JVM
    /// object creation). Fig 21: 180 GB (24e9 values) on 4 nodes in ~11 min:
    /// 6.0e9 values/node over ~9.2 effective lanes in 660 s ⇒ ≈ 1010 ns.
    pub spark_load_ns_per_value: f64,
    /// Distributed R parsing files straight from local ext4. Fig 21: same
    /// data in ~5 min: 6.0e9 values/node over ~9.2 effective lanes in 300 s
    /// ⇒ ≈ 460 ns.
    pub dr_disk_parse_ns_per_value: f64,

    // ---------------------------------------------------------- db engine
    /// Generic per-value cost of a vectorized in-database scan: decode the
    /// container block, evaluate predicates, materialize projections. Small
    /// relative to export conversion (no format change, no copy out).
    pub db_scan_ns_per_value: f64,

    // ------------------------------------------------------------ kernels
    /// Stock R K-means: ns per (row × center × feature) unit.
    /// Fig 17: 1M×100, K=1000 ⇒ 1e11 units/iter in ~35 min = 2100 s,
    /// single-threaded ⇒ 21 ns.
    pub r_kmeans_ns_per_unit: f64,
    /// Distributed R K-means through R bindings (same figure): <4 min at 12
    /// cores ⇒ 233 s × 9.17 effective lanes / 1e11 ≈ 21.4 ns/core-unit,
    /// giving the paper's 9× speedup over stock R at 12 cores.
    pub dr_kmeans_rbound_ns_per_unit: f64,
    /// Distributed R / Spark K-means native kernel rate, used by the
    /// distributed experiments. Fig 20 at 1 node: 60M×100, K=1000 ⇒ 6e12
    /// units in ~17 min = 1020 s over 9.17 effective lanes ⇒ ≈1.6 ns; with
    /// Spark ~25% slower (Fig 20: "Distributed R faster about 20%").
    pub dr_kmeans_native_ns_per_unit: f64,
    pub spark_kmeans_native_ns_per_unit: f64,

    /// Stock R linear regression via matrix decomposition (QR): ns per
    /// (row × p²) unit, single pass. Fig 18: 100M×7 (p = 6 features +
    /// intercept ⇒ 4.9e9 units) takes >25 min ⇒ ≈ 330 ns including R's
    /// extra copies. → 330 ns.
    pub r_lm_qr_ns_per_unit: f64,
    /// Distributed R GLM via Newton–Raphson through R bindings: ns per
    /// (row × p²) unit *per iteration*. Fig 18: <10 min at 1 core over
    /// ~2.5 iterations ⇒ 550 s / (4.9e9 × 2.5) ≈ 45 ns. → 45 ns.
    pub dr_glm_rbound_ns_per_unit: f64,
    /// Native Newton–Raphson rate. Fig 19: 30M rows × 101² ≈ 3.06e11 units
    /// per node-iteration in <2 min over 9.17 lanes ⇒ ≈ 3.3 ns. → 3.3 ns.
    pub dr_glm_native_ns_per_unit: f64,

    // ------------------------------------------------- in-db prediction
    /// Fixed per-query startup of an in-database prediction: plan, spawn UDF
    /// instances, fetch + deserialize the model from DFS on each node.
    /// Calibrated from the small end of Figs 15–16 (10M rows finish in <20 s
    /// / <10 s while the linear trend through the large sizes passes near
    /// the origin plus a constant). → 6 s.
    pub indb_predict_startup_s: f64,
    /// Per-row overhead of the prediction UDF (row extraction, calling into
    /// the R prediction function, emitting the result). Fig 16 (GLM, trivial
    /// math): 1e9 rows in 206 s on 5 nodes × ~9.2 effective lanes ⇒
    /// ≈ 9.2 µs/row. → 9 200 ns.
    pub indb_predict_row_overhead_ns: f64,
    /// Extra per (row × center × feature) unit for K-means distance in the
    /// UDF. Fig 15 vs Fig 16: (318−206) s × 5 nodes × 9.17 lanes / (1e9 ×
    /// K·d = 60 units, modelled with K=10, d=6) ⇒ ≈ 88 ns. → 88 ns.
    pub indb_kmeans_unit_ns: f64,
    /// Per (row × coefficient) cost for GLM prediction in the UDF (dwarfed
    /// by the row overhead, but it keeps wide models honest).
    pub indb_glm_unit_ns: f64,
    /// Deserializing a model blob into its in-memory form (Section 5:
    /// "retrieve the models from DFS, deserialize and load them in R").
    /// R's unserialize runs at roughly 100 MB/s ⇒ 10 ns per byte. With the
    /// node-local model cache this is charged once per node per model
    /// version, not per UDx instance.
    pub model_deserialize_ns_per_byte: f64,
}

impl HardwareProfile {
    /// The profile of the paper's testbed (Section 7, "Setup").
    pub fn paper_testbed() -> Self {
        HardwareProfile {
            disk_read_bps: 500e6,
            disk_write_bps: 350e6,
            disk_cached_read_bps: 750e6,
            net_bps: 1.15e9,
            net_latency: SimDuration::from_micros(200.0),
            cores: 24,
            physical_cores: 12,
            contention: 0.028,
            mem_bytes: 196 * (1 << 30),
            costs: EngineCosts::paper_calibrated(),
        }
    }

    /// Effective parallel speedup of `lanes` workers on one node.
    ///
    /// Lanes beyond the physical core count contribute nothing (the paper's
    /// Fig 17 plateau); below it, a mild contention model applies:
    /// `speedup(l) = l / (1 + contention·(l−1))`.
    pub fn parallel_speedup(&self, lanes: usize) -> f64 {
        let l = lanes.clamp(1, self.physical_cores) as f64;
        l / (1.0 + self.contention * (l - 1.0))
    }
}

impl EngineCosts {
    pub fn paper_calibrated() -> Self {
        EngineCosts {
            odbc_client_parse_ns_per_value: 500.0,
            odbc_server_encode_ns_per_value: 1100.0,
            odbc_text_expansion: 2.2,
            odbc_connect_ms: 35.0,
            db_max_concurrent_queries: 24,
            odbc_range_scan_fraction: 0.5,
            odbc_concurrency_penalty_beta: 8.0,

            vft_export_ns_per_value: 1050.0,
            vft_convert_ns_per_value: 140.0,
            vft_export_lanes: 12,

            spark_load_ns_per_value: 1000.0,
            dr_disk_parse_ns_per_value: 460.0,

            db_scan_ns_per_value: 60.0,

            r_kmeans_ns_per_unit: 21.0,
            dr_kmeans_rbound_ns_per_unit: 21.5,
            dr_kmeans_native_ns_per_unit: 1.6,
            spark_kmeans_native_ns_per_unit: 2.0,

            r_lm_qr_ns_per_unit: 330.0,
            dr_glm_rbound_ns_per_unit: 45.0,
            dr_glm_native_ns_per_unit: 3.3,

            indb_predict_startup_s: 6.0,
            indb_predict_row_overhead_ns: 9_200.0,
            indb_kmeans_unit_ns: 88.0,
            indb_glm_unit_ns: 40.0,
            model_deserialize_ns_per_byte: 10.0,
        }
    }

    /// K-means kernel rate for an engine/regime pair.
    pub fn kmeans_ns_per_unit(&self, regime: KernelRegime) -> f64 {
        match regime {
            KernelRegime::RBound => self.dr_kmeans_rbound_ns_per_unit,
            KernelRegime::Native => self.dr_kmeans_native_ns_per_unit,
        }
    }

    /// GLM Newton–Raphson kernel rate for a regime.
    pub fn glm_ns_per_unit(&self, regime: KernelRegime) -> f64 {
        match regime {
            KernelRegime::RBound => self.dr_glm_rbound_ns_per_unit,
            KernelRegime::Native => self.dr_glm_native_ns_per_unit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> HardwareProfile {
        HardwareProfile::paper_testbed()
    }

    #[test]
    fn speedup_at_12_cores_is_about_9x() {
        // The paper reports 9× over stock R with 12 cores for both K-means
        // and regression.
        let s = p().parallel_speedup(12);
        assert!((8.8..9.5).contains(&s), "speedup(12) = {s}");
    }

    #[test]
    fn speedup_plateaus_past_physical_cores() {
        let hp = p();
        assert_eq!(hp.parallel_speedup(12), hp.parallel_speedup(24));
        assert_eq!(hp.parallel_speedup(12), hp.parallel_speedup(16));
    }

    #[test]
    fn speedup_is_monotone_up_to_physical_cores() {
        let hp = p();
        let mut last = 0.0;
        for lanes in 1..=hp.physical_cores {
            let s = hp.parallel_speedup(lanes);
            assert!(s > last, "speedup must increase: {s} after {last}");
            assert!(s <= lanes as f64, "speedup cannot exceed lane count");
            last = s;
        }
    }

    #[test]
    fn single_lane_has_no_contention_penalty() {
        assert_eq!(p().parallel_speedup(1), 1.0);
        assert_eq!(p().parallel_speedup(0), 1.0); // clamped
    }

    #[test]
    fn fig1_calibration_single_odbc_50gb_takes_about_an_hour() {
        // Cross-check the headline derivation: 6.5e9 values parsed
        // single-threaded at the client should land near 55 minutes.
        let hp = p();
        let t = SimDuration::from_nanos(6.5e9 * hp.costs.odbc_client_parse_ns_per_value);
        assert!(
            (50.0..62.0).contains(&t.as_minutes()),
            "single-ODBC 50GB parse ≈ {} min",
            t.as_minutes()
        );
    }

    #[test]
    fn kernel_regime_selection() {
        let c = EngineCosts::paper_calibrated();
        assert!(
            c.kmeans_ns_per_unit(KernelRegime::RBound) > c.kmeans_ns_per_unit(KernelRegime::Native)
        );
        assert!(c.glm_ns_per_unit(KernelRegime::RBound) > c.glm_ns_per_unit(KernelRegime::Native));
    }
}
