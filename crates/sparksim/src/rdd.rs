//! An RDD-style in-memory partitioned matrix, loaded data-locally from the
//! HDFS simulator.

use crate::hdfs::HdfsSim;
use std::sync::Arc;
use vdr_cluster::{Ledger, NodeId, PhaseKind, PhaseRecorder, SimCluster, SimDuration};

/// The driver: loads files into partitioned in-memory matrices.
pub struct SparkContext {
    cluster: SimCluster,
    hdfs: Arc<HdfsSim>,
    /// Executor threads per node (Spark cores).
    executor_lanes: usize,
}

/// One in-memory partition: rows held by one executor, column by column
/// (the layout the shared k-means kernel reads).
pub struct SparkPartition {
    pub node: NodeId,
    pub rows: usize,
    /// One vector of `rows` values per column.
    pub columns: Vec<Vec<f64>>,
}

impl SparkPartition {
    /// The columns as slices.
    pub fn column_slices(&self) -> Vec<&[f64]> {
        self.columns.iter().map(Vec::as_slice).collect()
    }
}

/// A partitioned dense matrix (the RDD the K-means job iterates over).
pub struct SparkMatrix {
    pub cols: usize,
    pub partitions: Vec<SparkPartition>,
}

impl SparkContext {
    pub fn new(cluster: SimCluster, hdfs: Arc<HdfsSim>, executor_lanes: usize) -> Self {
        SparkContext {
            cluster,
            hdfs,
            executor_lanes,
        }
    }

    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    pub fn executor_lanes(&self) -> usize {
        self.executor_lanes
    }

    /// Load `name` into memory: each node reads and parses the blocks whose
    /// primary replica it holds (HDFS data locality — "Spark … reads the
    /// data directly from the local HDFS node"). Charges one pipelined
    /// "spark load" phase to `ledger` and returns the load's simulated time.
    pub fn load_matrix(&self, name: &str, ledger: &Ledger) -> Option<(SparkMatrix, SimDuration)> {
        let cols = self.hdfs.cols_of(name)?;
        let blocks = self.hdfs.blocks_of(name);
        let rec = PhaseRecorder::new("spark load", PhaseKind::Pipelined, self.cluster.num_nodes());
        let deser_cost = self.cluster.profile().costs.spark_load_ns_per_value;

        let partitions: Vec<SparkPartition> = self
            .cluster
            .scatter(|node| {
                let my_blocks: Vec<_> = blocks.iter().filter(|b| b.primary == node.id()).collect();
                rec.set_lanes(node.id(), self.executor_lanes);
                let mut columns = vec![Vec::new(); cols];
                let mut rows = 0usize;
                for b in my_blocks {
                    let Some(bytes) = self.hdfs.read_block(name, b, node.id(), &rec) else {
                        continue;
                    };
                    let text = std::str::from_utf8(&bytes).expect("hdfs blocks are utf8 csv");
                    for line in text.lines() {
                        for (col, field) in columns.iter_mut().zip(line.split(',')) {
                            col.push(field.parse::<f64>().unwrap_or(f64::NAN));
                        }
                        rows += 1;
                    }
                    rec.cpu_work(node.id(), (b.rows * cols) as f64, deser_cost);
                }
                SparkPartition {
                    node: node.id(),
                    rows,
                    columns,
                }
            })
            .expect("a spark load task panicked")
            .into_iter()
            .filter(|p| p.rows > 0)
            .collect();

        let report = rec.finish(self.cluster.profile());
        let load_time = report.duration();
        ledger.push(report);
        Some((SparkMatrix { cols, partitions }, load_time))
    }
}

impl SparkMatrix {
    pub fn num_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.rows).sum()
    }

    /// Map-reduce over partitions: `map` runs on one thread per partition;
    /// results are folded on the driver.
    #[allow(
        clippy::disallowed_methods,
        reason = "Spark's executors, not node work"
    )]
    pub fn map_partitions<R: Send>(&self, map: impl Fn(&SparkPartition) -> R + Sync) -> Vec<R> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .partitions
                .iter()
                .map(|part| {
                    let map = &map;
                    scope.spawn(move || map(part))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_data_local_and_complete() {
        let cluster = SimCluster::for_tests(3);
        let hdfs = Arc::new(HdfsSim::new(cluster.clone(), 3));
        let data: Vec<f64> = (0..300).map(|i| i as f64 * 0.5).collect();
        hdfs.put_matrix("m", &data, 2, 25); // 150 rows → 6 blocks
        let sc = SparkContext::new(cluster.clone(), hdfs, 4);
        let ledger = Ledger::new();
        let (m, load_time) = sc.load_matrix("m", &ledger).unwrap();
        assert_eq!(m.num_rows(), 150);
        assert_eq!(m.cols, 2);
        assert!(load_time.as_secs() > 0.0);
        // Every partition's data parses back to what was written.
        let sums = m.map_partitions(|p| p.columns.iter().flatten().sum::<f64>());
        let total: f64 = sums.iter().sum();
        assert_eq!(total, data.iter().sum::<f64>());
        // Data locality: reads on each node came off its own disk — the
        // phase moved no bytes over the network.
        let report = &ledger.reports()[0];
        assert_eq!(report.total_bytes_moved, 0, "HDFS load must be node-local");
        assert!(sc.executor_lanes() == 4);
    }

    #[test]
    fn missing_file_is_none() {
        let cluster = SimCluster::for_tests(2);
        let hdfs = Arc::new(HdfsSim::new(cluster.clone(), 2));
        let sc = SparkContext::new(cluster, hdfs, 2);
        assert!(sc.load_matrix("nope", &Ledger::new()).is_none());
    }
}
