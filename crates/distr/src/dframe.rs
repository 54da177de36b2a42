//! Distributed data frames: partitions hold typed columnar batches.

use crate::error::{DistrError, Result};
use crate::runtime::DistributedR;
use std::sync::Arc;
use vdr_columnar::Batch;

/// A distributed data frame (`dframe(npartitions=)`, Table 1). Row
/// partitioned; every filled partition must share a schema.
pub struct DFrame {
    rt: DistributedR,
    id: u64,
    npartitions: usize,
}

impl DFrame {
    pub(crate) fn new(rt: DistributedR, id: u64, npartitions: usize) -> Self {
        DFrame {
            rt,
            id,
            npartitions,
        }
    }

    pub fn npartitions(&self) -> usize {
        self.npartitions
    }

    pub fn partitionsize(&self, i: usize) -> Result<(u64, u64)> {
        let m = self.rt.part_meta(self.id, i)?;
        Ok((m.nrow, m.ncol))
    }

    pub fn dim(&self) -> (u64, u64) {
        let metas = self.rt.all_meta(self.id);
        let rows = metas.iter().map(|m| m.nrow).sum();
        let cols = metas
            .iter()
            .filter(|m| m.filled)
            .map(|m| m.ncol)
            .max()
            .unwrap_or(0);
        (rows, cols)
    }

    pub fn worker_of(&self, i: usize) -> Result<usize> {
        Ok(self.rt.part_meta(self.id, i)?.worker)
    }

    pub fn is_materialized(&self) -> bool {
        self.rt.all_meta(self.id).iter().all(|m| m.filled)
    }

    /// Fill partition `part` on an explicit worker.
    pub fn fill_partition_on(&self, worker: usize, part: usize, batch: Batch) -> Result<()> {
        // Schema conformity across filled partitions.
        for p in 0..self.npartitions {
            if p == part {
                continue;
            }
            if let Some(existing) = self.rt.inner.frame_store.read().get(&(self.id, p)) {
                if existing.schema() != batch.schema() {
                    return Err(DistrError::Conformity(format!(
                        "partition {part} schema {} != partition {p} schema {}",
                        batch.schema(),
                        existing.schema()
                    )));
                }
            }
        }
        let bytes = batch.byte_size();
        self.rt.commit_partition(
            self.id,
            part,
            worker,
            batch.num_rows() as u64,
            batch.num_columns() as u64,
            bytes,
        )?;
        self.rt
            .inner
            .frame_store
            .write()
            .insert((self.id, part), Arc::new(batch));
        Ok(())
    }

    /// Fill on the default worker.
    pub fn fill_partition(&self, part: usize, batch: Batch) -> Result<()> {
        let worker = self.rt.part_meta(self.id, part)?.worker;
        self.fill_partition_on(worker, part, batch)
    }

    pub fn partition(&self, part: usize) -> Result<Arc<Batch>> {
        let meta = self.rt.part_meta(self.id, part)?;
        if !meta.filled {
            return Err(DistrError::PartitionEmpty { index: part });
        }
        self.rt
            .inner
            .frame_store
            .read()
            .get(&(self.id, part))
            .cloned()
            .ok_or(DistrError::PartitionEmpty { index: part })
    }

    /// Map over partitions on their owning workers; see
    /// [`crate::DArray::map_partitions`].
    pub fn map_partitions<R: Send>(&self, f: impl Fn(usize, &Batch) -> R + Sync) -> Result<Vec<R>> {
        let part = |p| self.partition(p);
        self.rt.map_owned(self.id, self.npartitions, part, f)
    }

    /// Gather all rows to the master as one batch.
    pub fn gather(&self) -> Result<Batch> {
        let first = self.partition(0)?;
        let mut out = Batch::empty(first.schema().clone());
        for p in 0..self.npartitions {
            let part = self.partition(p)?;
            out.extend(part.as_ref())
                .map_err(|e| DistrError::Conformity(e.to_string()))?;
        }
        Ok(out)
    }
}

impl std::fmt::Debug for DFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DFrame")
            .field("id", &self.id)
            .field("npartitions", &self.npartitions)
            .finish()
    }
}

impl Drop for DFrame {
    fn drop(&mut self) {
        self.rt.free(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;
    use vdr_columnar::{Column, DataType, Schema};

    fn rt() -> DistributedR {
        DistributedR::on_all_nodes(SimCluster::for_tests(2), 2).unwrap()
    }

    fn batch(ids: Vec<i64>) -> Batch {
        Batch::new(
            Schema::of(&[("id", DataType::Int64)]),
            vec![Column::from_i64(ids)],
        )
        .unwrap()
    }

    #[test]
    fn fill_map_gather() {
        let dr = rt();
        let f = dr.dframe(2).unwrap();
        f.fill_partition(0, batch(vec![1, 2, 3])).unwrap();
        f.fill_partition(1, batch(vec![4])).unwrap();
        assert_eq!(f.dim(), (4, 1));
        assert_eq!(f.partitionsize(1).unwrap(), (1, 1));
        let counts = f.map_partitions(|_, b| b.num_rows()).unwrap();
        assert_eq!(counts, vec![3, 1]);
        let all = f.gather().unwrap();
        assert_eq!(all.num_rows(), 4);
        assert_eq!(all.column(0).get(3), vdr_columnar::Value::Int64(4));
    }

    #[test]
    fn schema_conformity_enforced() {
        let dr = rt();
        let f = dr.dframe(2).unwrap();
        f.fill_partition(0, batch(vec![1])).unwrap();
        let other = Batch::new(
            Schema::of(&[("x", DataType::Float64)]),
            vec![Column::from_f64(vec![1.0])],
        )
        .unwrap();
        assert!(matches!(
            f.fill_partition(1, other),
            Err(DistrError::Conformity(_))
        ));
    }

    #[test]
    fn empty_partition_errors() {
        let dr = rt();
        let f = dr.dframe(2).unwrap();
        f.fill_partition(0, batch(vec![1])).unwrap();
        assert!(f.gather().is_err());
        assert!(f.map_partitions(|_, _| ()).is_err());
        assert!(!f.is_materialized());
    }
}
