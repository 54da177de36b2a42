//! The runtime: master symbol table, per-node workers, and the partition
//! store with memory accounting.

use crate::darray::{DArray, PartData};
use crate::dframe::DFrame;
use crate::dlist::DList;
use crate::error::{DistrError, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vdr_cluster::{NodeId, SimCluster};
use vdr_columnar::Batch;

/// One Distributed R worker process group: which cluster node it lives on
/// and how many R instances it runs ("Distributed R starts 24 R instances on
/// each node", Section 7.1).
#[derive(Debug, Clone)]
pub struct WorkerInfo {
    /// Dense worker index `0..num_workers`.
    pub index: usize,
    /// The cluster node hosting this worker.
    pub node: NodeId,
    /// R instances (conversion/compute lanes) on this worker.
    pub instances: usize,
}

/// What kind of distributed object a symbol refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Array,
    Frame,
    List,
}

/// Master-side metadata for one partition: where it lives and its shape.
/// "The memory manager tracks the location and meta-data of each partition"
/// (Section 4).
#[derive(Debug, Clone)]
pub struct PartMeta {
    pub worker: usize,
    pub nrow: u64,
    pub ncol: u64,
    pub filled: bool,
    pub bytes: u64,
}

pub(crate) struct ObjectMeta {
    pub kind: ObjectKind,
    pub partitions: Vec<PartMeta>,
}

/// Partition store maps: (object id, partition index) → payload.
type PartStore<T> = RwLock<HashMap<(u64, usize), Arc<T>>>;

pub(crate) struct Inner {
    cluster: SimCluster,
    workers: Vec<WorkerInfo>,
    mem_capacity_per_worker: u64,
    mem_used: Mutex<Vec<u64>>,
    next_id: AtomicU64,
    pub(crate) symbols: RwLock<HashMap<u64, ObjectMeta>>,
    pub(crate) array_store: PartStore<PartData>,
    pub(crate) frame_store: PartStore<Batch>,
    pub(crate) list_store: PartStore<Vec<Vec<u8>>>,
}

/// A running Distributed R session. Cheap to clone.
#[derive(Clone)]
pub struct DistributedR {
    pub(crate) inner: Arc<Inner>,
}

impl DistributedR {
    /// Start a session (`distributedR_start()` in Figure 3) with workers on
    /// the given cluster nodes. `instances_per_node` mirrors the paper's
    /// per-node R instance count; `mem_capacity_per_worker` bounds each
    /// worker's in-memory partitions (pass `u64::MAX` for tests).
    pub fn start(
        cluster: SimCluster,
        worker_nodes: Vec<NodeId>,
        instances_per_node: usize,
        mem_capacity_per_worker: u64,
    ) -> Result<Self> {
        if worker_nodes.is_empty() {
            return Err(DistrError::Invalid("no worker nodes".into()));
        }
        if instances_per_node == 0 {
            return Err(DistrError::Invalid("instances_per_node must be > 0".into()));
        }
        for &n in &worker_nodes {
            if n.0 >= cluster.num_nodes() {
                return Err(DistrError::Invalid(format!(
                    "worker node {n} not in cluster of {} nodes",
                    cluster.num_nodes()
                )));
            }
        }
        let workers = worker_nodes
            .iter()
            .enumerate()
            .map(|(index, &node)| WorkerInfo {
                index,
                node,
                instances: instances_per_node,
            })
            .collect();
        let n = worker_nodes.len();
        Ok(DistributedR {
            inner: Arc::new(Inner {
                cluster,
                workers,
                mem_capacity_per_worker,
                mem_used: Mutex::new(vec![0; n]),
                next_id: AtomicU64::new(1),
                symbols: RwLock::new(HashMap::new()),
                array_store: RwLock::new(HashMap::new()),
                frame_store: RwLock::new(HashMap::new()),
                list_store: RwLock::new(HashMap::new()),
            }),
        })
    }

    /// Convenience: workers on every cluster node (the co-located layout).
    pub fn on_all_nodes(cluster: SimCluster, instances_per_node: usize) -> Result<Self> {
        let nodes = cluster.node_ids();
        DistributedR::start(cluster, nodes, instances_per_node, u64::MAX)
    }

    pub fn cluster(&self) -> &SimCluster {
        &self.inner.cluster
    }

    pub fn workers(&self) -> &[WorkerInfo] {
        &self.inner.workers
    }

    pub fn num_workers(&self) -> usize {
        self.inner.workers.len()
    }

    /// Total R instances across all workers (the ODBC-baseline connection
    /// count: 5 nodes × 24 instances = 120 connections in Figure 1).
    pub fn total_instances(&self) -> usize {
        self.inner.workers.iter().map(|w| w.instances).sum()
    }

    /// Per-worker R-instance count (the widest worker): how many
    /// conversion/compute lanes a partition-level kernel splits its rows into.
    pub fn instances_per_worker(&self) -> usize {
        self.inner
            .workers
            .iter()
            .map(|w| w.instances)
            .max()
            .unwrap_or(1)
    }

    /// The cluster node of worker `w`.
    pub fn worker_node(&self, w: usize) -> NodeId {
        self.inner.workers[w].node
    }

    // ------------------------------------------------------------ creation

    /// `darray(npartitions=)`: declare a distributed array with unknown
    /// partition sizes. "After declaration, metadata related to darray is
    /// created on the Distributed R master node, but no memory is reserved
    /// on the workers" (Section 4).
    pub fn darray(&self, npartitions: usize) -> Result<DArray> {
        if npartitions == 0 {
            return Err(DistrError::Invalid("npartitions must be > 0".into()));
        }
        let id = self.register(ObjectKind::Array, npartitions);
        Ok(DArray::new(self.clone(), id, npartitions))
    }

    /// The legacy equal-block declaration `darray(dim=, blocks=)`: partitions
    /// are pre-sized `blocks.0 × dim.1` slices (the last may be smaller) and
    /// eagerly zero-filled, exactly the pre-Section-4 behaviour (Figure 7).
    pub fn darray_with_blocks(&self, dim: (u64, u64), blocks: (u64, u64)) -> Result<DArray> {
        if blocks.0 == 0 || dim.1 == 0 {
            return Err(DistrError::Invalid("dim/blocks must be positive".into()));
        }
        if blocks.1 != dim.1 {
            return Err(DistrError::Invalid(
                "row-partitioned arrays need blocks.1 == dim.1".into(),
            ));
        }
        let nparts = (dim.0.div_ceil(blocks.0)).max(1) as usize;
        let arr = self.darray(nparts)?;
        for p in 0..nparts {
            let rows = blocks.0.min(dim.0 - (p as u64) * blocks.0) as usize;
            arr.fill_partition(p, rows, dim.1 as usize, vec![0.0; rows * dim.1 as usize])?;
        }
        Ok(arr)
    }

    /// `dframe(npartitions=)`: a distributed data frame.
    pub fn dframe(&self, npartitions: usize) -> Result<DFrame> {
        if npartitions == 0 {
            return Err(DistrError::Invalid("npartitions must be > 0".into()));
        }
        let id = self.register(ObjectKind::Frame, npartitions);
        Ok(DFrame::new(self.clone(), id, npartitions))
    }

    /// `dlist(npartitions=)`: a distributed list of opaque serialized
    /// elements.
    pub fn dlist(&self, npartitions: usize) -> Result<DList> {
        if npartitions == 0 {
            return Err(DistrError::Invalid("npartitions must be > 0".into()));
        }
        let id = self.register(ObjectKind::List, npartitions);
        Ok(DList::new(self.clone(), id, npartitions))
    }

    fn register(&self, kind: ObjectKind, npartitions: usize) -> u64 {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let nworkers = self.num_workers();
        let partitions = (0..npartitions)
            .map(|i| PartMeta {
                worker: i % nworkers, // default placement; fills may override
                nrow: 0,
                ncol: 0,
                filled: false,
                bytes: 0,
            })
            .collect();
        self.inner
            .symbols
            .write()
            .insert(id, ObjectMeta { kind, partitions });
        id
    }

    // ----------------------------------------------------- partition store

    pub(crate) fn part_meta(&self, id: u64, part: usize) -> Result<PartMeta> {
        let symbols = self.inner.symbols.read();
        let obj = symbols
            .get(&id)
            .ok_or_else(|| DistrError::Invalid(format!("dangling object id {id}")))?;
        obj.partitions
            .get(part)
            .cloned()
            .ok_or(DistrError::NoSuchPartition {
                index: part,
                npartitions: obj.partitions.len(),
            })
    }

    pub(crate) fn all_meta(&self, id: u64) -> Vec<PartMeta> {
        self.inner
            .symbols
            .read()
            .get(&id)
            .map(|o| o.partitions.clone())
            .unwrap_or_default()
    }

    /// Update one partition's symbol-table entry and memory accounting.
    pub(crate) fn commit_partition(
        &self,
        id: u64,
        part: usize,
        worker: usize,
        nrow: u64,
        ncol: u64,
        bytes: u64,
    ) -> Result<()> {
        if worker >= self.num_workers() {
            return Err(DistrError::Invalid(format!(
                "worker {worker} out of range ({} workers)",
                self.num_workers()
            )));
        }
        let mut load_span = vdr_obs::detail_span("distr.partition.load");
        load_span.set_node(self.inner.workers[worker].node.0);
        load_span.record("partition", part);
        load_span.record("bytes", bytes);
        let mut symbols = self.inner.symbols.write();
        let obj = symbols
            .get_mut(&id)
            .ok_or_else(|| DistrError::Invalid(format!("dangling object id {id}")))?;
        let npartitions = obj.partitions.len();
        let meta = obj
            .partitions
            .get_mut(part)
            .ok_or(DistrError::NoSuchPartition {
                index: part,
                npartitions,
            })?;
        // Memory accounting: release the old allocation, claim the new one.
        let mut used = self.inner.mem_used.lock();
        used[meta.worker] = used[meta.worker].saturating_sub(meta.bytes);
        let available = self
            .inner
            .mem_capacity_per_worker
            .saturating_sub(used[worker]);
        if bytes > available {
            // Roll back nothing: the old allocation was already released,
            // matching a failed realloc that freed the original buffer.
            meta.filled = false;
            meta.bytes = 0;
            return Err(DistrError::OutOfMemory {
                worker,
                requested: bytes,
                available,
            });
        }
        used[worker] += bytes;
        vdr_obs::counter_on(
            "distr.partition.commits",
            self.inner.workers[worker].node.0,
            1,
        );
        *meta = PartMeta {
            worker,
            nrow,
            ncol,
            filled: true,
            bytes,
        };
        Ok(())
    }

    /// Drop an object: remove its partitions everywhere and release memory.
    pub(crate) fn free(&self, id: u64) {
        let Some(obj) = self.inner.symbols.write().remove(&id) else {
            return;
        };
        let mut used = self.inner.mem_used.lock();
        for meta in &obj.partitions {
            used[meta.worker] = used[meta.worker].saturating_sub(meta.bytes);
        }
        drop(used);
        let nparts = obj.partitions.len();
        match obj.kind {
            ObjectKind::Array => {
                let mut store = self.inner.array_store.write();
                for p in 0..nparts {
                    store.remove(&(id, p));
                }
            }
            ObjectKind::Frame => {
                let mut store = self.inner.frame_store.write();
                for p in 0..nparts {
                    store.remove(&(id, p));
                }
            }
            ObjectKind::List => {
                let mut store = self.inner.list_store.write();
                for p in 0..nparts {
                    store.remove(&(id, p));
                }
            }
        }
    }

    /// Bytes currently held by each worker.
    pub fn memory_used(&self) -> Vec<u64> {
        self.inner.mem_used.lock().clone()
    }

    /// Run `f(worker_index)` concurrently for each distinct worker in
    /// `worker_set`, one thread per worker, and return results keyed by
    /// worker index. This is the low-level "ship a function to
    /// workers" primitive; the data structures' `map_partitions` build on
    /// it, and so do transfer receive pools.
    pub fn run_on_workers<R: Send>(
        &self,
        worker_set: &[usize],
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<(usize, R)> {
        let parent_span = vdr_obs::current_span_id();
        // Worker threads don't inherit thread-locals: carry the query id
        // across the fan-out so every distr.task (and the spans/events the
        // shipped closure records) stays attributed to the statement.
        let query_id = vdr_obs::current_query_id();
        std::thread::scope(|scope| {
            let handles: Vec<_> = worker_set
                .iter()
                .map(|&w| {
                    let node_id = self.inner.workers[w].node;
                    let f = &f;
                    scope.spawn(move || {
                        let _q = vdr_obs::QueryScope::enter(query_id);
                        let _n = vdr_obs::NodeScope::enter(node_id.0);
                        let mut task_span =
                            vdr_obs::detail_span_with_parent("distr.task", parent_span);
                        task_span.set_node(node_id.0);
                        task_span.record("worker", w);
                        (w, f(w))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker task panicked"))
                .collect()
        })
    }

    /// Run `f(p, &part(p))` for every partition `p` of object `id`: the
    /// owning workers run in parallel, each over its partitions in turn.
    /// Every partition must be filled. Results come back in partition order.
    pub(crate) fn map_owned<P: Send + Sync, R: Send>(
        &self,
        id: u64,
        npartitions: usize,
        part: impl Fn(usize) -> Result<Arc<P>>,
        f: impl Fn(usize, &P) -> R + Sync,
    ) -> Result<Vec<R>> {
        let metas = self.all_meta(id);
        if let Some(index) = metas.iter().position(|m| !m.filled) {
            return Err(DistrError::PartitionEmpty { index });
        }
        let mut by_worker: Vec<Vec<usize>> = vec![Vec::new(); self.num_workers()];
        for (i, m) in metas.iter().enumerate() {
            by_worker[m.worker].push(i);
        }
        let workers: Vec<usize> = (0..by_worker.len())
            .filter(|&w| !by_worker[w].is_empty())
            .collect();
        let parts = (0..npartitions).map(part).collect::<Result<Vec<_>>>()?;
        let results = self.run_on_workers(&workers, |w| {
            let mine = by_worker[w].iter();
            mine.map(|&p| (p, f(p, &parts[p]))).collect::<Vec<_>>()
        });
        let mut out: Vec<Option<R>> = (0..npartitions).map(|_| None).collect();
        for (p, r) in results.into_iter().flat_map(|(_, rs)| rs) {
            out[p] = Some(r);
        }
        // A slot stays empty only if the symbol table lists fewer
        // partitions than the object has.
        let ran = out.into_iter().enumerate();
        ran.map(|(p, r)| r.ok_or(DistrError::PartitionEmpty { index: p }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt() -> DistributedR {
        let cluster = SimCluster::for_tests(3);
        DistributedR::on_all_nodes(cluster, 4).unwrap()
    }

    #[test]
    fn session_setup() {
        let dr = rt();
        assert_eq!(dr.num_workers(), 3);
        assert_eq!(dr.total_instances(), 12);
        assert_eq!(dr.worker_node(2), NodeId(2));
    }

    #[test]
    fn start_validations() {
        let cluster = SimCluster::for_tests(2);
        assert!(DistributedR::start(cluster.clone(), vec![], 1, u64::MAX).is_err());
        assert!(DistributedR::start(cluster.clone(), vec![NodeId(0)], 0, u64::MAX).is_err());
        assert!(DistributedR::start(cluster, vec![NodeId(7)], 1, u64::MAX).is_err());
    }

    #[test]
    fn workers_on_subset_of_nodes() {
        // Distributed R "can be installed on either the same nodes as the
        // Vertica database or on remote nodes" (Section 2): model the remote
        // layout with workers on the upper half of a larger cluster.
        let cluster = SimCluster::for_tests(6);
        let dr = DistributedR::start(cluster, vec![NodeId(3), NodeId(4), NodeId(5)], 2, u64::MAX)
            .unwrap();
        assert_eq!(dr.num_workers(), 3);
        assert_eq!(dr.worker_node(0), NodeId(3));
    }

    #[test]
    fn memory_accounting_and_free() {
        let cluster = SimCluster::for_tests(2);
        let dr = DistributedR::start(
            cluster,
            vec![NodeId(0), NodeId(1)],
            1,
            1024, // 128 doubles per worker
        )
        .unwrap();
        let a = dr.darray(2).unwrap();
        a.fill_partition(0, 8, 8, vec![0.0; 64]).unwrap(); // 512 B on worker 0
        assert_eq!(dr.memory_used(), vec![512, 0]);
        // Second partition lands on worker 1.
        a.fill_partition(1, 8, 8, vec![0.0; 64]).unwrap();
        assert_eq!(dr.memory_used(), vec![512, 512]);
        // Exceeding capacity fails.
        let b = dr.darray(1).unwrap();
        let err = b.fill_partition(0, 16, 8, vec![0.0; 128]).unwrap_err();
        assert!(matches!(err, DistrError::OutOfMemory { worker: 0, .. }));
        // Dropping the array frees its memory.
        drop(a);
        assert_eq!(dr.memory_used(), vec![0, 0]);
        b.fill_partition(0, 16, 8, vec![0.0; 128]).unwrap();
        assert_eq!(dr.memory_used(), vec![1024, 0]);
    }

    #[test]
    fn refill_releases_previous_allocation() {
        let cluster = SimCluster::for_tests(1);
        let dr = DistributedR::start(cluster, vec![NodeId(0)], 1, 1000).unwrap();
        let a = dr.darray(1).unwrap();
        a.fill_partition(0, 10, 10, vec![1.0; 100]).unwrap(); // 800 B
                                                              // Refilling the same partition must not double-count.
        a.fill_partition(0, 10, 10, vec![2.0; 100]).unwrap();
        assert_eq!(dr.memory_used(), vec![800]);
    }

    #[test]
    fn run_on_workers_executes_on_each() {
        let dr = rt();
        let mut results = dr.run_on_workers(&[0, 1, 2], |w| w * 10);
        results.sort();
        assert_eq!(results, vec![(0, 0), (1, 10), (2, 20)]);
    }
}
