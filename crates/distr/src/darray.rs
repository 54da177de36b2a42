//! Distributed arrays with flexible partition sizes (Section 4).

use crate::error::{DistrError, Result};
use crate::runtime::DistributedR;
use std::sync::Arc;

/// One materialized partition: a dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct PartData {
    pub nrow: usize,
    pub ncol: usize,
    /// Row-major values, `nrow × ncol`.
    pub data: Vec<f64>,
}

impl PartData {
    pub fn new(nrow: usize, ncol: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrow * ncol {
            return Err(DistrError::Conformity(format!(
                "data length {} != {nrow}×{ncol}",
                data.len()
            )));
        }
        Ok(PartData { nrow, ncol, data })
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.ncol..(r + 1) * self.ncol]
    }

    pub fn bytes(&self) -> u64 {
        (self.data.len() * 8) as u64
    }
}

/// A handle to a distributed dense matrix, partitioned by rows. Dropping the
/// handle frees the partitions on the workers.
pub struct DArray {
    rt: DistributedR,
    id: u64,
    npartitions: usize,
}

impl DArray {
    pub(crate) fn new(rt: DistributedR, id: u64, npartitions: usize) -> Self {
        DArray {
            rt,
            id,
            npartitions,
        }
    }

    pub fn npartitions(&self) -> usize {
        self.npartitions
    }

    /// `partitionsize(A, i)`: the `(rows, cols)` of partition `i` (Table 1).
    pub fn partitionsize(&self, i: usize) -> Result<(u64, u64)> {
        let m = self.rt.part_meta(self.id, i)?;
        Ok((m.nrow, m.ncol))
    }

    /// `partitionsize(A)`: sizes of all partitions.
    pub fn partition_sizes(&self) -> Vec<(u64, u64)> {
        self.rt
            .all_meta(self.id)
            .iter()
            .map(|m| (m.nrow, m.ncol))
            .collect()
    }

    /// Compute lanes available per worker (the per-node R-instance count):
    /// the partition-level training kernels split a partition's rows across
    /// this many accumulators, mirroring how the VFT decodes one stream per
    /// instance.
    pub fn instance_lanes(&self) -> usize {
        self.rt.instances_per_worker()
    }

    /// Worker index owning partition `i`.
    pub fn worker_of(&self, i: usize) -> Result<usize> {
        Ok(self.rt.part_meta(self.id, i)?.worker)
    }

    /// Overall dimensions `(rows, cols)`. Unfilled partitions contribute
    /// zero rows.
    pub fn dim(&self) -> (u64, u64) {
        let metas = self.rt.all_meta(self.id);
        let rows = metas.iter().map(|m| m.nrow).sum();
        let cols = metas.iter().filter(|m| m.filled).map(|m| m.ncol).max();
        (rows, cols.unwrap_or(0))
    }

    /// Whether every partition has been filled.
    pub fn is_materialized(&self) -> bool {
        self.rt.all_meta(self.id).iter().all(|m| m.filled)
    }

    /// Fill partition `part` on its default worker (`part % num_workers`).
    pub fn fill_partition(
        &self,
        part: usize,
        nrow: usize,
        ncol: usize,
        data: Vec<f64>,
    ) -> Result<()> {
        let worker = self.rt.part_meta(self.id, part)?.worker;
        self.fill_partition_on(worker, part, nrow, ncol, data)
    }

    /// Fill partition `part`, placing it on `worker` explicitly (the VFT
    /// receive path places partitions on the worker whose streams produced
    /// them, preserving locality).
    pub fn fill_partition_on(
        &self,
        worker: usize,
        part: usize,
        nrow: usize,
        ncol: usize,
        data: Vec<f64>,
    ) -> Result<()> {
        let pd = PartData::new(nrow, ncol, data)?;
        // Conformity: row-partitioned arrays need a consistent column count
        // across filled partitions.
        if ncol > 0 {
            for (i, m) in self.rt.all_meta(self.id).iter().enumerate() {
                if i != part && m.filled && m.nrow > 0 && m.ncol != ncol as u64 {
                    return Err(DistrError::Conformity(format!(
                        "partition {part} has {ncol} columns but partition {i} has {}",
                        m.ncol
                    )));
                }
            }
        }
        let bytes = pd.bytes();
        self.rt
            .commit_partition(self.id, part, worker, nrow as u64, ncol as u64, bytes)?;
        self.rt
            .inner
            .array_store
            .write()
            .insert((self.id, part), Arc::new(pd));
        Ok(())
    }

    /// Read partition `part` (cheap: refcounted).
    pub fn partition(&self, part: usize) -> Result<Arc<PartData>> {
        let meta = self.rt.part_meta(self.id, part)?;
        if !meta.filled {
            return Err(DistrError::PartitionEmpty { index: part });
        }
        self.rt
            .inner
            .array_store
            .read()
            .get(&(self.id, part))
            .cloned()
            .ok_or(DistrError::PartitionEmpty { index: part })
    }

    /// `clone(A, ncol=)`: a new array with the same partition count, row
    /// counts, and placement as `self`, filled with `fill` (Table 1:
    /// "Return another object with the same structure … the partitions are
    /// co-located with those of array X", Figure 9).
    pub fn clone_structure(&self, ncol: usize, fill: f64) -> Result<DArray> {
        let out = self.rt.darray(self.npartitions)?;
        for (i, m) in self.rt.all_meta(self.id).iter().enumerate() {
            if !m.filled {
                return Err(DistrError::PartitionEmpty { index: i });
            }
            out.fill_partition_on(
                m.worker,
                i,
                m.nrow as usize,
                ncol,
                vec![fill; m.nrow as usize * ncol],
            )?;
        }
        Ok(out)
    }

    /// Select columns into a new, co-partitioned array (same partition row
    /// counts and worker placement). This is how one `db2darray` load of
    /// `[Y | X…]` becomes the co-located `data$Y` / `data$X` pair the paper's
    /// Figure 3 trains on.
    pub fn split_columns(&self, columns: &[usize]) -> Result<DArray> {
        let (_, d) = self.dim();
        if columns.is_empty() {
            return Err(DistrError::Invalid("no columns selected".into()));
        }
        for &c in columns {
            if c as u64 >= d {
                return Err(DistrError::Invalid(format!(
                    "column {c} out of range (array has {d})"
                )));
            }
        }
        let out = self.rt.darray(self.npartitions)?;
        let selected: Vec<(usize, PartData)> = self
            .map_partitions(|p, part| {
                let mut data = Vec::with_capacity(part.nrow * columns.len());
                for r in 0..part.nrow {
                    let row = part.row(r);
                    for &c in columns {
                        data.push(row[c]);
                    }
                }
                (
                    p,
                    PartData {
                        nrow: part.nrow,
                        ncol: columns.len(),
                        data,
                    },
                )
            })?
            .into_iter()
            .collect();
        for (p, part) in selected {
            let worker = self.worker_of(p)?;
            out.fill_partition_on(worker, p, part.nrow, part.ncol, part.data)?;
        }
        Ok(out)
    }

    /// Run `f(part_index, &PartData) -> R` on every partition: the workers
    /// run in parallel, each over the partitions it owns in turn. Results
    /// come back in partition order.
    pub fn map_partitions<R: Send>(
        &self,
        f: impl Fn(usize, &PartData) -> R + Sync,
    ) -> Result<Vec<R>> {
        let store = &self.rt.inner.array_store;
        let part = |p| {
            let found = store.read().get(&(self.id, p)).cloned();
            found.ok_or(DistrError::PartitionEmpty { index: p })
        };
        self.rt.map_owned(self.id, self.npartitions, part, f)
    }

    /// Run `f(part_index, &x_part, &y_part)` over co-partitioned arrays
    /// (e.g. features X and labels Y in `hpdglm(data$Y, data$X, …)`).
    pub fn zip_map<R: Send>(
        &self,
        other: &DArray,
        f: impl Fn(usize, &PartData, &PartData) -> R + Sync,
    ) -> Result<Vec<R>> {
        self.check_copartitioned(other)?;
        let other_parts: Vec<Arc<PartData>> = (0..self.npartitions)
            .map(|p| other.partition(p))
            .collect::<Result<_>>()?;
        self.map_partitions(|p, x| f(p, x, &other_parts[p]))
    }

    /// Overwrite partitions in place via `f(part_index, &mut PartData)`,
    /// running on the owning workers (the update path of distributed
    /// algorithms, e.g. filling a cloned Y vector).
    pub fn update_partitions(&self, f: impl Fn(usize, &mut PartData) + Sync) -> Result<()> {
        let updated: Vec<(usize, PartData)> = self
            .map_partitions(|p, part| {
                let mut copy = part.clone();
                f(p, &mut copy);
                (p, copy)
            })?
            .into_iter()
            .collect();
        for (p, d) in updated {
            let worker = self.worker_of(p)?;
            self.fill_partition_on(worker, p, d.nrow, d.ncol, d.data)?;
        }
        Ok(())
    }

    /// Verify `other` has identical partitioning and placement.
    pub fn check_copartitioned(&self, other: &DArray) -> Result<()> {
        if self.npartitions != other.npartitions {
            return Err(DistrError::NotCoPartitioned(format!(
                "{} vs {} partitions",
                self.npartitions, other.npartitions
            )));
        }
        let a = self.rt.all_meta(self.id);
        let b = self.rt.all_meta(other.id);
        for (i, (ma, mb)) in a.iter().zip(&b).enumerate() {
            if ma.nrow != mb.nrow {
                return Err(DistrError::NotCoPartitioned(format!(
                    "partition {i}: {} vs {} rows",
                    ma.nrow, mb.nrow
                )));
            }
            if ma.worker != mb.worker {
                return Err(DistrError::NotCoPartitioned(format!(
                    "partition {i}: worker {} vs {}",
                    ma.worker, mb.worker
                )));
            }
        }
        Ok(())
    }

    /// Gather the full matrix to the master ("the master first gathers the
    /// model from R workers", Section 5). Returns `(nrow, ncol, row-major)`.
    pub fn gather(&self) -> Result<(usize, usize, Vec<f64>)> {
        let (nrow, ncol) = self.dim();
        let (nrow, ncol) = (nrow as usize, ncol as usize);
        let mut data = Vec::with_capacity(nrow * ncol);
        for p in 0..self.npartitions {
            let part = self.partition(p)?;
            data.extend_from_slice(&part.data);
        }
        Ok((nrow, ncol, data))
    }

    /// Total bytes across partitions.
    pub fn byte_size(&self) -> u64 {
        self.rt.all_meta(self.id).iter().map(|m| m.bytes).sum()
    }
}

impl std::fmt::Debug for DArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DArray")
            .field("id", &self.id)
            .field("npartitions", &self.npartitions)
            .finish()
    }
}

impl Drop for DArray {
    fn drop(&mut self) {
        self.rt.free(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;

    fn rt(nodes: usize) -> DistributedR {
        DistributedR::on_all_nodes(SimCluster::for_tests(nodes), 2).unwrap()
    }

    /// Build the Figure 8 example: 3 partitions of 1, 3, and 2 rows.
    fn figure8_array(dr: &DistributedR) -> DArray {
        let a = dr.darray(3).unwrap();
        a.fill_partition(0, 1, 2, vec![1.0, 2.0]).unwrap();
        a.fill_partition(1, 3, 2, vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .unwrap();
        a.fill_partition(2, 2, 2, vec![9.0, 10.0, 11.0, 12.0])
            .unwrap();
        a
    }

    #[test]
    fn flexible_partitions_match_figure_8() {
        let dr = rt(3);
        let a = figure8_array(&dr);
        assert_eq!(a.dim(), (6, 2));
        assert_eq!(a.partitionsize(0).unwrap(), (1, 2));
        assert_eq!(a.partitionsize(1).unwrap(), (3, 2));
        assert_eq!(a.partitionsize(2).unwrap(), (2, 2));
        assert_eq!(a.partition_sizes(), vec![(1, 2), (3, 2), (2, 2)]);
        assert!(a.is_materialized());
    }

    #[test]
    fn declaration_reserves_no_memory() {
        let dr = rt(2);
        let a = dr.darray(4).unwrap();
        assert_eq!(dr.memory_used(), vec![0, 0]);
        assert!(!a.is_materialized());
        assert_eq!(a.dim(), (0, 0));
        assert!(matches!(
            a.partition(0),
            Err(DistrError::PartitionEmpty { index: 0 })
        ));
    }

    #[test]
    fn conformity_enforced_across_partitions() {
        let dr = rt(2);
        let a = dr.darray(2).unwrap();
        a.fill_partition(0, 2, 3, vec![0.0; 6]).unwrap();
        let err = a.fill_partition(1, 2, 4, vec![0.0; 8]).unwrap_err();
        assert!(matches!(err, DistrError::Conformity(_)));
        // Matching column count is fine.
        a.fill_partition(1, 5, 3, vec![0.0; 15]).unwrap();
        // Bad data length rejected.
        assert!(a.fill_partition(1, 2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn legacy_blocks_declaration_matches_figure_7() {
        let dr = rt(3);
        // A = darray(dim=c(6,2), blocks=c(2,2)): three 2×2 partitions.
        let a = dr.darray_with_blocks((6, 2), (2, 2)).unwrap();
        assert_eq!(a.npartitions(), 3);
        assert_eq!(a.partition_sizes(), vec![(2, 2), (2, 2), (2, 2)]);
        // Uneven tail: 7 rows in blocks of 3 → 3,3,1.
        let b = dr.darray_with_blocks((7, 2), (3, 2)).unwrap();
        assert_eq!(b.partition_sizes(), vec![(3, 2), (3, 2), (1, 2)]);
        assert!(dr.darray_with_blocks((6, 2), (2, 3)).is_err());
    }

    #[test]
    fn clone_structure_is_colocated_like_figure_9() {
        let dr = rt(3);
        let x = figure8_array(&dr);
        let y = x.clone_structure(1, 0.0).unwrap();
        assert_eq!(y.npartitions(), x.npartitions());
        assert_eq!(y.partition_sizes(), vec![(1, 1), (3, 1), (2, 1)]);
        for p in 0..3 {
            assert_eq!(x.worker_of(p).unwrap(), y.worker_of(p).unwrap());
        }
        x.check_copartitioned(&y).unwrap();
    }

    #[test]
    fn map_partitions_runs_everywhere_in_order() {
        let dr = rt(3);
        let a = figure8_array(&dr);
        let sums = a
            .map_partitions(|_, part| part.data.iter().sum::<f64>())
            .unwrap();
        assert_eq!(sums, vec![3.0, 33.0, 42.0]);
    }

    #[test]
    fn zip_map_requires_copartitioning() {
        let dr = rt(3);
        let x = figure8_array(&dr);
        let y = x.clone_structure(1, 2.0).unwrap();
        let dots = x
            .zip_map(&y, |_, xp, yp| {
                // Multiply each row sum by the co-located y value.
                (0..xp.nrow)
                    .map(|r| xp.row(r).iter().sum::<f64>() * yp.data[r])
                    .sum::<f64>()
            })
            .unwrap();
        assert_eq!(dots, vec![6.0, 66.0, 84.0]);

        let z = dr.darray(3).unwrap();
        z.fill_partition(0, 2, 1, vec![0.0; 2]).unwrap();
        z.fill_partition(1, 2, 1, vec![0.0; 2]).unwrap();
        z.fill_partition(2, 2, 1, vec![0.0; 2]).unwrap();
        assert!(matches!(
            x.zip_map(&z, |_, _, _| 0.0),
            Err(DistrError::NotCoPartitioned(_))
        ));
    }

    #[test]
    fn update_partitions_persists() {
        let dr = rt(2);
        let a = dr.darray_with_blocks((4, 1), (2, 1)).unwrap();
        a.update_partitions(|p, part| {
            for v in &mut part.data {
                *v = (p + 1) as f64;
            }
        })
        .unwrap();
        let (_, _, data) = a.gather().unwrap();
        assert_eq!(data, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn gather_concatenates_in_partition_order() {
        let dr = rt(3);
        let a = figure8_array(&dr);
        let (nrow, ncol, data) = a.gather().unwrap();
        assert_eq!((nrow, ncol), (6, 2));
        assert_eq!(data, (1..=12).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_worker_placement() {
        let dr = rt(3);
        let a = dr.darray(2).unwrap();
        a.fill_partition_on(2, 0, 1, 1, vec![1.0]).unwrap();
        a.fill_partition_on(2, 1, 1, 1, vec![2.0]).unwrap();
        assert_eq!(a.worker_of(0).unwrap(), 2);
        assert_eq!(a.worker_of(1).unwrap(), 2);
        let used = dr.memory_used();
        assert_eq!(used[2], 16);
        assert_eq!(used[0] + used[1], 0);
    }

    #[test]
    fn byte_size_tracks_partitions() {
        let dr = rt(2);
        let a = dr.darray_with_blocks((10, 4), (5, 4)).unwrap();
        assert_eq!(a.byte_size(), 10 * 4 * 8);
    }

    #[test]
    fn split_columns_produces_copartitioned_views() {
        let dr = rt(3);
        let a = figure8_array(&dr); // 6×2, values 1..12 row-major
        let first = a.split_columns(&[0]).unwrap();
        let swapped = a.split_columns(&[1, 0]).unwrap();
        a.check_copartitioned(&first).unwrap();
        a.check_copartitioned(&swapped).unwrap();
        let (_, _, col0) = first.gather().unwrap();
        assert_eq!(col0, vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
        let (_, _, sw) = swapped.gather().unwrap();
        assert_eq!(&sw[..4], &[2.0, 1.0, 4.0, 3.0]);
        assert!(a.split_columns(&[]).is_err());
        assert!(a.split_columns(&[9]).is_err());
    }
}
