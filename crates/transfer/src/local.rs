//! Loading from node-local files — the `DR-disk` configuration of
//! Figure 21: "we also measure the case when data resides as files in the
//! local ext4 filesystem of each node, and Distributed R loads data directly
//! from these files".

use crate::exec;
use crate::odbc::{parse_rows, render_rows};
use crate::report::TransferReport;
use bytes::Bytes;
use vdr_cluster::{Ledger, PhaseKind, PhaseRecorder, SimDuration};
use vdr_columnar::{Batch, Schema};
use vdr_distr::{DArray, DistributedR};
use vdr_verticadb::{DbError, Result};

/// Loader for per-node local text files.
pub struct LocalLoader;

impl LocalLoader {
    /// Stage `batches[w]` as a text file on worker `w`'s local disk (setup,
    /// not part of the measured load).
    pub fn stage(dr: &DistributedR, name: &str, batches: &[Batch]) -> Result<()> {
        if batches.len() != dr.num_workers() {
            return Err(DbError::Plan(format!(
                "{} batches for {} workers",
                batches.len(),
                dr.num_workers()
            )));
        }
        for (w, batch) in batches.iter().enumerate() {
            let node = dr.cluster().node(dr.worker_node(w));
            node.disk()
                .write(format!("local/{name}.txt"), Bytes::from(render_rows(batch)));
        }
        Ok(())
    }

    /// Load the staged files into a darray, one partition per worker:
    /// local read + parse, no database and no network.
    pub fn load(
        dr: &DistributedR,
        name: &str,
        schema: &Schema,
        ledger: &Ledger,
    ) -> Result<(DArray, TransferReport)> {
        let profile = dr.cluster().profile().clone();
        let parse_cost = profile.costs.dr_disk_parse_ns_per_value;
        let rec = PhaseRecorder::new(
            "dr-disk load",
            PhaseKind::Pipelined,
            dr.cluster().num_nodes(),
        );
        let array = dr.darray(dr.num_workers()).map_err(exec)?;
        let mut total_rows = 0u64;
        let mut total_values = 0u64;
        let results: Vec<(usize, Result<Batch>)> = {
            let rec = &rec;
            dr.run_on_workers(&(0..dr.num_workers()).collect::<Vec<_>>(), move |w| {
                let node = dr.cluster().node(dr.worker_node(w));
                let path = format!("local/{name}.txt");
                let raw = match node.disk().read(&path) {
                    Ok(r) => r,
                    Err(e) => return Err(DbError::from(e)),
                };
                rec.disk_read(node.id(), raw.len() as u64);
                let text = std::str::from_utf8(&raw)
                    .map_err(|_| DbError::Exec("local file not utf8".into()))?;
                let batch = parse_rows(schema, text)?;
                rec.set_lanes(node.id(), dr.workers()[w].instances);
                rec.cpu_work(node.id(), batch.num_values() as f64, parse_cost);
                Ok(batch)
            })
            .map_err(exec)?
        };
        for (w, r) in results {
            let batch = r?;
            total_rows += batch.num_rows() as u64;
            total_values += batch.num_values();
            let cols = crate::f64_columns(&batch);
            array
                .fill_columns_on(w, w, batch.num_rows(), cols)
                .map_err(exec)?;
        }
        let report = rec.finish(dr.cluster().profile());
        let out = TransferReport {
            rows: total_rows,
            values: total_values,
            bytes: total_values * 8,
            db_time: SimDuration::ZERO,
            client_time: report.duration(),
            queue_time: SimDuration::ZERO,
        };
        ledger.push(report);
        Ok((array, out))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;
    use vdr_columnar::{Column, DataType};

    #[test]
    fn stage_and_load_roundtrip() {
        let cluster = SimCluster::for_tests(2);
        let dr = DistributedR::on_all_nodes(cluster, 2).unwrap();
        let schema = Schema::of(&[("x", DataType::Float64), ("y", DataType::Float64)]);
        let mk = |vals: Vec<f64>| {
            Batch::new(
                schema.clone(),
                vec![
                    Column::from_f64(vals.clone()),
                    Column::from_f64(vals.iter().map(|v| v * 10.0).collect()),
                ],
            )
            .unwrap()
        };
        LocalLoader::stage(&dr, "d", &[mk(vec![1.0, 2.0]), mk(vec![3.0])]).unwrap();
        let ledger = Ledger::new();
        let (arr, report) = LocalLoader::load(&dr, "d", &schema, &ledger).unwrap();
        assert_eq!(report.rows, 3);
        assert_eq!(arr.dim(), (3, 2));
        assert_eq!(arr.partition_sizes(), vec![(2, 2), (1, 2)]);
        let (_, _, data) = arr.gather().unwrap();
        assert_eq!(data, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        assert!(report.client_time.as_secs() > 0.0);
        assert!(report.db_time.is_zero());
    }

    #[test]
    fn wrong_partition_count_and_missing_file() {
        let cluster = SimCluster::for_tests(2);
        let dr = DistributedR::on_all_nodes(cluster, 1).unwrap();
        let schema = Schema::of(&[("x", DataType::Float64)]);
        assert!(LocalLoader::stage(&dr, "d", &[]).is_err());
        let ledger = Ledger::new();
        assert!(LocalLoader::load(&dr, "missing", &schema, &ledger).is_err());
    }
}
