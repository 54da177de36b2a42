//! Distributed lists: partitions hold sequences of opaque serialized
//! elements (arbitrary R objects in the real system).

use crate::error::{DistrError, Result};
use crate::runtime::DistributedR;
use std::sync::Arc;

/// A distributed list (`dlist(npartitions=)`, Table 1). Each partition holds
/// zero or more serialized elements; partition lengths are free to differ.
pub struct DList {
    rt: DistributedR,
    id: u64,
    npartitions: usize,
}

impl DList {
    pub(crate) fn new(rt: DistributedR, id: u64, npartitions: usize) -> Self {
        DList {
            rt,
            id,
            npartitions,
        }
    }

    pub fn npartitions(&self) -> usize {
        self.npartitions
    }

    /// Number of elements in partition `i`.
    pub fn partitionsize(&self, i: usize) -> Result<u64> {
        Ok(self.rt.part_meta(self.id, i)?.nrow)
    }

    /// Total elements across partitions.
    pub fn len(&self) -> u64 {
        self.rt.all_meta(self.id).iter().map(|m| m.nrow).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn worker_of(&self, i: usize) -> Result<usize> {
        Ok(self.rt.part_meta(self.id, i)?.worker)
    }

    /// Fill partition `part` with serialized elements on an explicit worker.
    pub fn fill_partition_on(
        &self,
        worker: usize,
        part: usize,
        elements: Vec<Vec<u8>>,
    ) -> Result<()> {
        let bytes: u64 = elements.iter().map(|e| e.len() as u64).sum();
        self.rt
            .commit_partition(self.id, part, worker, elements.len() as u64, 1, bytes)?;
        self.rt
            .inner
            .list_store
            .write()
            .insert((self.id, part), Arc::new(elements));
        Ok(())
    }

    pub fn fill_partition(&self, part: usize, elements: Vec<Vec<u8>>) -> Result<()> {
        let worker = self.rt.part_meta(self.id, part)?.worker;
        self.fill_partition_on(worker, part, elements)
    }

    pub fn partition(&self, part: usize) -> Result<Arc<Vec<Vec<u8>>>> {
        let meta = self.rt.part_meta(self.id, part)?;
        if !meta.filled {
            return Err(DistrError::PartitionEmpty { index: part });
        }
        self.rt
            .inner
            .list_store
            .read()
            .get(&(self.id, part))
            .cloned()
            .ok_or(DistrError::PartitionEmpty { index: part })
    }

    /// Gather all elements to the master in partition order.
    pub fn gather(&self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        for p in 0..self.npartitions {
            out.extend(self.partition(p)?.iter().cloned());
        }
        Ok(out)
    }
}

impl std::fmt::Debug for DList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DList")
            .field("id", &self.id)
            .field("npartitions", &self.npartitions)
            .finish()
    }
}

impl Drop for DList {
    fn drop(&mut self) {
        self.rt.free(self.id);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;

    #[test]
    fn lists_hold_variable_length_partitions() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(2), 1).unwrap();
        let l = dr.dlist(2).unwrap();
        l.fill_partition(0, vec![b"one".to_vec(), b"two".to_vec()])
            .unwrap();
        l.fill_partition(1, vec![b"three".to_vec()]).unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l.partitionsize(0).unwrap(), 2);
        assert_eq!(l.partitionsize(1).unwrap(), 1);
        assert_eq!(
            l.gather().unwrap(),
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert!(!l.is_empty());
    }

    #[test]
    fn empty_partition_read_errors() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(1), 1).unwrap();
        let l = dr.dlist(2).unwrap();
        l.fill_partition(0, vec![]).unwrap();
        assert!(l.partition(1).is_err());
        assert!(l.gather().is_err());
        assert_eq!(l.len(), 0);
        assert!(l.is_empty());
    }
}
