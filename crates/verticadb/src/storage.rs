//! Segment storage: each node stores its table segment as a series of
//! encoded, checksummed columnar *containers* (ROS-style) on its simulated
//! disk.
//!
//! The scan path does three things a naive "read + decode everything"
//! loop would not:
//!
//! * **Projection pushdown** — callers pass the set of referenced columns
//!   and only those payloads are decoded
//!   ([`vdr_columnar::decode_batch_columns`]); decode CPU is charged per
//!   *decoded* value, not per stored value.
//! * **Decoded-block cache** — a node-local LRU of decoded batches keyed by
//!   `(node, container path)` and validated by the container's crc32
//!   ([`crate::blockcache::BlockCache`]). Hits charge a memory-speed
//!   `disk_cached_read` and zero decode CPU.
//! * **Parallel container decode** — each node's containers are decoded on
//!   the rayon pool, mirroring a real node's per-core scan threads.
//! * **Compressed execution** — [`SegmentStore::scan_node_encoded`] returns
//!   [`EncodedBatch`]es whose Rle/Dictionary columns stay in run/code form
//!   for the executor's encoded kernels and late materialization; those
//!   entries cache at *encoded* size on the block cache's encoded tier.

use crate::blockcache::{BlockCache, CacheTier};
use crate::catalog::TableDef;
use crate::error::{DbError, Result};
use parking_lot::RwLock;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::{NodeId, PhaseRecorder, SimCluster};
use vdr_columnar::{
    block_checksum, block_column_info, decode_batch_columns, decode_batch_encoded, encode_batch,
    encoding::Encoding, Batch, DecodeStats, EncodedBatch, Schema,
};

/// Fraction of a node's RAM given to the decoded-block cache (1/32 of the
/// profile's `mem_bytes` — the rest belongs to the resource pools).
const CACHE_MEM_FRACTION: u64 = 32;

/// Per-column storage facts for one container: the encoding the block
/// writer chose and the encoded-vs-decoded byte sizes. Surfaced through
/// `v_monitor.storage_containers`.
#[derive(Debug, Clone)]
pub struct ColumnStat {
    pub name: String,
    pub encoding: Encoding,
    /// Bytes of the encoded payload inside the container block.
    pub encoded_bytes: u64,
    /// Bytes the column occupies once decoded to plain form.
    pub decoded_bytes: u64,
}

/// Metadata for one on-disk container.
#[derive(Debug, Clone)]
pub struct ContainerMeta {
    pub path: String,
    pub rows: u64,
    pub bytes: u64,
    /// crc32 of the encoded block body; doubles as the block-cache's
    /// content version tag.
    pub crc: u32,
    /// Per-column encoding and size facts.
    pub columns: Vec<ColumnStat>,
}

/// A block decoder restricted to the wanted columns: the plain
/// ([`decode_batch_columns`]) or the encoded ([`decode_batch_encoded`]) one.
type DecodeFn<T> = fn(&[u8], Option<&HashSet<String>>) -> vdr_columnar::Result<(T, DecodeStats)>;

/// Per-table, per-node container lists.
#[derive(Default)]
struct TableMeta {
    /// Indexed by node id.
    segments: Vec<Vec<ContainerMeta>>,
}

/// The storage layer across all nodes.
pub struct SegmentStore {
    cluster: SimCluster,
    meta: RwLock<HashMap<String, TableMeta>>,
    cache: BlockCache,
}

impl SegmentStore {
    pub fn new(cluster: SimCluster) -> Self {
        let cache = BlockCache::new(cluster.profile().mem_bytes / CACHE_MEM_FRACTION);
        SegmentStore {
            cluster,
            meta: RwLock::new(HashMap::new()),
            cache,
        }
    }

    /// The node-local decoded-block cache (stats + capacity control).
    pub fn block_cache(&self) -> &BlockCache {
        &self.cache
    }

    fn key(table: &str) -> String {
        table.to_ascii_lowercase()
    }

    /// Append one batch as a new container in `table`'s segment on `node`.
    /// Charges the disk write to `rec`.
    pub fn append(
        &self,
        table: &str,
        node: NodeId,
        batch: &Batch,
        rec: &PhaseRecorder,
    ) -> Result<()> {
        if batch.num_rows() == 0 {
            return Ok(());
        }
        let key = Self::key(table);
        let block = encode_batch(batch);
        let bytes = block.len() as u64;
        let crc = block_checksum(&block)?;
        let columns = block_column_info(&block)?
            .into_iter()
            .zip(batch.columns())
            .map(|(info, col)| ColumnStat {
                name: info.name,
                encoding: info.encoding,
                encoded_bytes: info.encoded_bytes,
                decoded_bytes: col.byte_size(),
            })
            .collect();
        let mut meta = self.meta.write();
        let tm = meta.entry(key.clone()).or_insert_with(|| TableMeta {
            segments: vec![Vec::new(); self.cluster.num_nodes()],
        });
        if tm.segments.len() != self.cluster.num_nodes() {
            return Err(DbError::Exec("cluster size changed under storage".into()));
        }
        let idx = tm.segments[node.0].len();
        let path = format!("tables/{key}/c{idx:06}");
        self.cluster.node(node).disk().write(path.clone(), block);
        rec.disk_write(node, bytes);
        tm.segments[node.0].push(ContainerMeta {
            path,
            rows: batch.num_rows() as u64,
            bytes,
            crc,
            columns,
        });
        Ok(())
    }

    /// Containers of `table` on `node`.
    pub fn containers(&self, table: &str, node: NodeId) -> Vec<ContainerMeta> {
        self.meta
            .read()
            .get(&Self::key(table))
            .map(|tm| tm.segments[node.0].clone())
            .unwrap_or_default()
    }

    /// Rows of `table` held by each node.
    pub fn segment_rows(&self, table: &str) -> Vec<u64> {
        let meta = self.meta.read();
        match meta.get(&Self::key(table)) {
            Some(tm) => tm
                .segments
                .iter()
                .map(|cs| cs.iter().map(|c| c.rows).sum())
                .collect(),
            None => vec![0; self.cluster.num_nodes()],
        }
    }

    /// Total rows in `table`.
    pub fn total_rows(&self, table: &str) -> u64 {
        self.segment_rows(table).iter().sum()
    }

    /// On-disk bytes of `table` held by each node.
    pub fn segment_bytes(&self, table: &str) -> Vec<u64> {
        let meta = self.meta.read();
        match meta.get(&Self::key(table)) {
            Some(tm) => tm
                .segments
                .iter()
                .map(|cs| cs.iter().map(|c| c.bytes).sum())
                .collect(),
            None => vec![0; self.cluster.num_nodes()],
        }
    }

    /// Read and decode every container of `table` on `node`, charging cold
    /// disk reads (or cached re-reads) and decode CPU to `rec`. Projection
    /// pushdown: only the columns named in `wanted` are decoded (`None`
    /// decodes all).
    pub fn scan_node_projected(
        &self,
        table: &str,
        node: NodeId,
        rec: &PhaseRecorder,
        cached: bool,
        wanted: Option<&HashSet<String>>,
    ) -> Result<Vec<Arc<Batch>>> {
        self.scan_node_slice(table, node, 0, 1, rec, cached, wanted)
    }

    /// Read the containers assigned to UDx instance `slice` of `num_slices`
    /// on `node` (containers are dealt round-robin to instances, so
    /// concurrent instances never share a container), decoding only the
    /// `wanted` columns (`None` = all). Containers are decoded in parallel
    /// on the rayon pool; cache hits skip decode entirely.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_node_slice(
        &self,
        table: &str,
        node: NodeId,
        slice: usize,
        num_slices: usize,
        rec: &PhaseRecorder,
        cached: bool,
        wanted: Option<&HashSet<String>>,
    ) -> Result<Vec<Arc<Batch>>> {
        self.scan_containers(
            table,
            node,
            slice,
            num_slices,
            rec,
            cached,
            wanted,
            decode_batch_columns,
        )
    }

    /// Compressed-execution scan: like [`Self::scan_node_projected`] but
    /// Rle/Dictionary columns stay in run/code form
    /// ([`vdr_columnar::decode_batch_encoded`]). Decode CPU is charged only
    /// for the eagerly decoded (Plain/DeltaVarint) columns — encoded
    /// columns' expansion is charged later, at late materialization, for
    /// surviving rows only. Results cache on the block cache's encoded
    /// tier, at encoded byte size.
    pub fn scan_node_encoded(
        &self,
        table: &str,
        node: NodeId,
        rec: &PhaseRecorder,
        cached: bool,
        wanted: Option<&HashSet<String>>,
    ) -> Result<Vec<Arc<EncodedBatch>>> {
        self.scan_containers(table, node, 0, 1, rec, cached, wanted, decode_batch_encoded)
    }

    /// The one container-scan body: cache probe on `T`'s tier, else disk
    /// read, `decode` and cache insert, with every charge to `rec`.
    #[allow(clippy::too_many_arguments)]
    fn scan_containers<T: CacheTier + Send + Sync>(
        &self,
        table: &str,
        node: NodeId,
        slice: usize,
        num_slices: usize,
        rec: &PhaseRecorder,
        cached: bool,
        wanted: Option<&HashSet<String>>,
        decode: DecodeFn<T>,
    ) -> Result<Vec<Arc<T>>> {
        assert!(slice < num_slices, "slice index out of range");
        let wanted_lc = lowercase_set(wanted);
        let containers = self.containers(table, node);
        let disk = self.cluster.node(node).disk();
        let scan_cost = self.cluster.profile().costs.db_scan_ns_per_value;
        let cols_skipped = AtomicU64::new(0);
        let out: Vec<Arc<T>> = containers
            .iter()
            .enumerate()
            .filter(|(i, _)| i % num_slices == slice)
            .map(|(_, c)| c)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|c| -> Result<Arc<T>> {
                if let Some(hit) = self.cache.get(node, &c.path, c.crc, wanted_lc.as_ref()) {
                    // The scan product is already resident: memory-speed
                    // re-read of the container, no decode CPU at all.
                    rec.disk_cached_read(node, c.bytes);
                    return Ok(hit);
                }
                let raw = disk.read(&c.path)?;
                if cached {
                    rec.disk_cached_read(node, c.bytes);
                } else {
                    rec.disk_read(node, c.bytes);
                }
                let started = Instant::now();
                let (batch, stats) = decode(&raw, wanted_lc.as_ref())?;
                let values = stats.values_decoded();
                rec.cpu_work(node, values as f64, scan_cost);
                if values > 0 {
                    vdr_obs::observe_on(
                        "scan.decode.ns_per_value",
                        node.0,
                        started.elapsed().as_nanos() as f64 / values as f64,
                    );
                }
                cols_skipped.fetch_add(stats.cols_skipped() as u64, Ordering::Relaxed);
                let batch = Arc::new(batch);
                let cache_cols = cached_columns(&stats, batch.schema());
                self.cache
                    .insert(node, &c.path, c.crc, cache_cols, Arc::clone(&batch));
                Ok(batch)
            })
            .collect::<Result<Vec<_>>>()?;
        let skipped = cols_skipped.load(Ordering::Relaxed);
        if skipped > 0 {
            vdr_obs::counter_on("exec.scan.cols_skipped", node.0, skipped);
        }
        Ok(out)
    }

    /// Remove `table`'s containers everywhere (disk and block cache).
    pub fn drop_table(&self, table: &str) {
        let key = Self::key(table);
        if let Some(tm) = self.meta.write().remove(&key) {
            for (node_idx, containers) in tm.segments.iter().enumerate() {
                let disk = self.cluster.node(NodeId(node_idx)).disk();
                for c in containers {
                    disk.delete(&c.path);
                }
            }
        }
        self.cache.invalidate_prefix(&format!("tables/{key}/"));
    }

    /// Load a stream of batches into a table according to its segmentation,
    /// chunking each node's share into containers. Returns rows loaded.
    pub fn load(
        &self,
        def: &TableDef,
        batches: impl IntoIterator<Item = Batch>,
        rec: &PhaseRecorder,
    ) -> Result<u64> {
        let n = self.cluster.num_nodes();
        let mut start_row = self.total_rows(&def.name);
        let mut loaded = 0u64;
        for batch in batches {
            let parts = def.segmentation.split(&batch, n, start_row)?;
            for (node_idx, part) in parts.into_iter().enumerate() {
                self.append(&def.name, NodeId(node_idx), &part, rec)?;
            }
            start_row += batch.num_rows() as u64;
            loaded += batch.num_rows() as u64;
        }
        Ok(loaded)
    }
}

/// The projection set, lowercased once so the block cache's coverage check
/// is a plain set test.
fn lowercase_set(wanted: Option<&HashSet<String>>) -> Option<HashSet<String>> {
    wanted.map(|w| w.iter().map(|s| s.to_ascii_lowercase()).collect())
}

/// Which columns a block-cache entry covers: `None` when the scan produced
/// every column of the block, otherwise the (lowercased) names it did.
fn cached_columns(stats: &DecodeStats, schema: &Schema) -> Option<HashSet<String>> {
    if stats.cols_skipped() == 0 {
        return None;
    }
    Some(
        schema
            .fields()
            .iter()
            .map(|f| f.name.to_ascii_lowercase())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segmentation::Segmentation;
    use vdr_cluster::PhaseKind;
    use vdr_columnar::{Column, DataType, Schema};

    fn setup() -> (SimCluster, SegmentStore, TableDef) {
        let cluster = SimCluster::for_tests(3);
        let store = SegmentStore::new(cluster.clone());
        let def = TableDef {
            name: "T".into(),
            schema: Schema::of(&[("id", DataType::Int64)]),
            segmentation: Segmentation::RoundRobin,
        };
        (cluster, store, def)
    }

    fn rec(n: usize) -> PhaseRecorder {
        PhaseRecorder::new("t", PhaseKind::Sequential, n)
    }

    /// A cold scan of every column of `table` on `node`.
    fn scan(s: &SegmentStore, table: &str, node: NodeId, rec: &PhaseRecorder) -> Vec<Arc<Batch>> {
        s.scan_node_projected(table, node, rec, false, None)
            .unwrap()
    }

    fn ids(n: i64) -> Batch {
        Batch::new(
            Schema::of(&[("id", DataType::Int64)]),
            vec![Column::from_i64((0..n).collect())],
        )
        .unwrap()
    }

    fn wide(n: i64) -> Batch {
        Batch::new(
            Schema::of(&[
                ("id", DataType::Int64),
                ("a", DataType::Float64),
                ("b", DataType::Float64),
                ("c", DataType::Float64),
            ]),
            vec![
                Column::from_i64((0..n).collect()),
                Column::from_f64((0..n).map(|v| v as f64).collect()),
                Column::from_f64((0..n).map(|v| v as f64 * 2.0).collect()),
                Column::from_f64((0..n).map(|v| v as f64 * 3.0).collect()),
            ],
        )
        .unwrap()
    }

    fn set(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn load_and_scan_roundtrip() {
        let (cluster, store, def) = setup();
        let r = rec(cluster.num_nodes());
        let loaded = store.load(&def, vec![ids(90), ids(9)], &r).unwrap();
        assert_eq!(loaded, 99);
        assert_eq!(store.total_rows("t"), 99);
        assert_eq!(store.segment_rows("T"), vec![33, 33, 33]);

        let mut all = 0;
        for node in cluster.node_ids() {
            for b in scan(&store, "t", node, &r) {
                all += b.num_rows();
            }
        }
        assert_eq!(all, 99);
    }

    #[test]
    fn scan_charges_disk_and_cpu() {
        let (cluster, store, def) = setup();
        let load_rec = rec(3);
        store.load(&def, vec![ids(3000)], &load_rec).unwrap();
        let r = rec(3);
        scan(&store, "t", NodeId(0), &r);
        let report = r.finish(cluster.profile());
        assert!(report.total_disk_read > 0);
        assert!(report.total_cpu_core_ns > 0.0);
    }

    #[test]
    fn projected_scan_decodes_fewer_values() {
        let cluster = SimCluster::for_tests(1);
        let store = SegmentStore::new(cluster.clone());
        let def = TableDef {
            name: "W".into(),
            schema: wide(1).schema().clone(),
            segmentation: Segmentation::RoundRobin,
        };
        store.load(&def, vec![wide(4000)], &rec(1)).unwrap();

        let full = rec(1);
        scan(&store, "w", NodeId(0), &full);
        let full_cpu = full.finish(cluster.profile()).total_cpu_core_ns;

        // Fresh store so the cache can't serve the projected scan.
        let store2 = SegmentStore::new(cluster.clone());
        store2.load(&def, vec![wide(4000)], &rec(1)).unwrap();
        let narrow = rec(1);
        let batches = store2
            .scan_node_projected("w", NodeId(0), &narrow, false, Some(&set(&["id"])))
            .unwrap();
        let narrow_cpu = narrow.finish(cluster.profile()).total_cpu_core_ns;

        assert_eq!(batches[0].schema().names(), vec!["id"]);
        assert!(
            narrow_cpu * 3.0 < full_cpu,
            "1-of-4 columns should cost ~1/4 the decode CPU: {narrow_cpu} vs {full_cpu}"
        );
    }

    #[test]
    fn repeated_scan_hits_cache_with_zero_decode_cpu() {
        let (cluster, store, def) = setup();
        store.load(&def, vec![ids(3000)], &rec(3)).unwrap();
        scan(&store, "t", NodeId(0), &rec(3));
        assert!(store.block_cache().hits() == 0);

        let r = rec(3);
        scan(&store, "t", NodeId(0), &r);
        let report = r.finish(cluster.profile());
        assert!(store.block_cache().hits() > 0);
        assert_eq!(
            report.total_cpu_core_ns, 0.0,
            "cache hit must not charge decode CPU"
        );
        assert!(
            report.total_disk_read > 0,
            "hit still pays a cached re-read"
        );
    }

    #[test]
    fn wide_cached_batch_serves_narrow_projection() {
        let cluster = SimCluster::for_tests(1);
        let store = SegmentStore::new(cluster.clone());
        let def = TableDef {
            name: "W".into(),
            schema: wide(1).schema().clone(),
            segmentation: Segmentation::RoundRobin,
        };
        store.load(&def, vec![wide(100)], &rec(1)).unwrap();
        scan(&store, "w", NodeId(0), &rec(1));
        let r = rec(1);
        let batches = store
            .scan_node_projected("w", NodeId(0), &r, false, Some(&set(&["A"])))
            .unwrap();
        assert!(store.block_cache().hits() > 0);
        // Served from the full-decode entry: all columns present.
        assert_eq!(batches[0].num_columns(), 4);
    }

    #[test]
    fn append_records_per_column_stats() {
        let cluster = SimCluster::for_tests(1);
        let store = SegmentStore::new(cluster.clone());
        let schema = Schema::of(&[("grp", DataType::Int64), ("x", DataType::Float64)]);
        let def = TableDef {
            name: "lc".into(),
            schema: schema.clone(),
            segmentation: Segmentation::RoundRobin,
        };
        let n = 4000i64;
        let batch = Batch::new(
            schema,
            vec![
                Column::from_i64((0..n).map(|i| i / 1000).collect()),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        store.load(&def, vec![batch], &rec(1)).unwrap();
        let meta = store.containers("lc", NodeId(0));
        assert_eq!(meta.len(), 1);
        let grp = meta[0].columns.iter().find(|c| c.name == "grp").unwrap();
        assert_eq!(grp.encoding, Encoding::Rle);
        assert!(grp.encoded_bytes * 10 < grp.decoded_bytes, "{grp:?}");
        let x = meta[0].columns.iter().find(|c| c.name == "x").unwrap();
        assert_eq!(x.encoding, Encoding::Plain);
    }

    /// What `append` records about a container must equal what a reader
    /// derives from the bytes that reached the node's disk.
    #[test]
    fn append_metadata_matches_the_bytes_on_disk() {
        let cluster = SimCluster::for_tests(2);
        let store = SegmentStore::new(cluster.clone());
        let schema = Schema::of(&[
            ("id", DataType::Int64),
            ("grp", DataType::Int64),
            ("x", DataType::Float64),
            ("tag", DataType::Varchar),
        ]);
        let def = TableDef {
            name: "M".into(),
            schema: schema.clone(),
            segmentation: Segmentation::Hash {
                column: "id".into(),
            },
        };
        let n = 3000i64;
        let batch = Batch::new(
            schema,
            vec![
                Column::from_i64((0..n).collect()),
                Column::from_i64((0..n).map(|i| i / 700).collect()),
                Column::from_f64((0..n).map(|i| (i as f64).sin()).collect()),
                Column::from_strings((0..n).map(|i| format!("t{}", i % 3)).collect()),
            ],
        )
        .unwrap();
        store.load(&def, vec![batch], &rec(2)).unwrap();
        for node in cluster.node_ids() {
            let metas = store.containers("m", node);
            assert_eq!(metas.len(), 1);
            let meta = &metas[0];
            let on_disk = cluster.node(node).disk().read(&meta.path).unwrap();
            assert_eq!(meta.bytes, on_disk.len() as u64);
            assert_eq!(meta.crc, block_checksum(&on_disk).unwrap());
            let info = block_column_info(&on_disk).unwrap();
            assert_eq!(meta.columns.len(), info.len());
            for (stat, info) in meta.columns.iter().zip(&info) {
                assert_eq!(stat.name, info.name);
                assert_eq!(stat.encoding, info.encoding);
                assert_eq!(stat.encoded_bytes, info.encoded_bytes);
            }
        }
    }

    #[test]
    fn encoded_scan_keeps_rle_columns_and_caches_encoded() {
        let cluster = SimCluster::for_tests(1);
        let store = SegmentStore::new(cluster.clone());
        let schema = Schema::of(&[("grp", DataType::Int64), ("x", DataType::Float64)]);
        let def = TableDef {
            name: "lc".into(),
            schema: schema.clone(),
            segmentation: Segmentation::RoundRobin,
        };
        let n = 4000i64;
        let batch = Batch::new(
            schema,
            vec![
                Column::from_i64((0..n).map(|i| i / 1000).collect()),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        store.load(&def, vec![batch], &rec(1)).unwrap();

        let r = rec(1);
        let ebs = store
            .scan_node_encoded("lc", NodeId(0), &r, false, None)
            .unwrap();
        assert_eq!(ebs.len(), 1);
        assert_eq!(ebs[0].num_encoded(), 1, "grp stays in run form");
        let cold = r.finish(cluster.profile());
        assert!(cold.total_disk_read > 0);

        // The entry sits on the encoded tier at encoded size — well below
        // the fully decoded footprint (the plain float column still costs
        // full size; the RLE column shrinks to a handful of runs).
        assert_eq!(store.block_cache().encoded_len(), 1);
        assert_eq!(store.block_cache().bytes_on(NodeId(0)), ebs[0].byte_size());
        let full_mask = vdr_columnar::Bitmap::all_valid(ebs[0].num_rows());
        let (full, _) = ebs[0].materialize(&full_mask, None).unwrap();
        assert!(ebs[0].byte_size() * 3 < full.byte_size() * 2);

        // Re-scan: encoded-tier hit, zero decode CPU.
        let r2 = rec(1);
        store
            .scan_node_encoded("lc", NodeId(0), &r2, false, None)
            .unwrap();
        assert!(store.block_cache().hits() > 0);
        assert_eq!(r2.finish(cluster.profile()).total_cpu_core_ns, 0.0);

        // A decoded-path scan of the same container misses (tier mismatch)
        // and replaces the entry with a decoded one.
        let r3 = rec(1);
        scan(&store, "lc", NodeId(0), &r3);
        assert_eq!(store.block_cache().encoded_len(), 0);
        assert_eq!(store.block_cache().len(), 1);
    }

    #[test]
    fn drop_and_recreate_does_not_serve_stale_blocks() {
        let (_, store, def) = setup();
        store.load(&def, vec![ids(90)], &rec(3)).unwrap();
        scan(&store, "t", NodeId(0), &rec(3));
        store.drop_table("t");
        assert!(store.block_cache().is_empty(), "drop must purge the cache");

        // Re-create under the same name: container paths repeat from
        // c000000, so only the crc tag tells old from new.
        store.load(&def, vec![ids(30)], &rec(3)).unwrap();
        let batches = scan(&store, "t", NodeId(0), &rec(3));
        let total: usize = batches.iter().map(|b| b.num_rows()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn slices_partition_containers_exactly_once() {
        let (cluster, store, def) = setup();
        let r = rec(3);
        // 5 containers per node.
        for _ in 0..5 {
            store.load(&def, vec![ids(300)], &r).unwrap();
        }
        let node = NodeId(1);
        let full: usize = scan(&store, "t", node, &r)
            .iter()
            .map(|b| b.num_rows())
            .sum();
        let mut sliced = 0;
        for s in 0..4 {
            sliced += store
                .scan_node_slice("t", node, s, 4, &r, false, None)
                .unwrap()
                .iter()
                .map(|b| b.num_rows())
                .sum::<usize>();
        }
        assert_eq!(full, sliced);
        let _ = cluster;
    }

    #[test]
    fn empty_batches_create_no_containers() {
        let (_, store, def) = setup();
        let r = rec(3);
        store.load(&def, vec![ids(0)], &r).unwrap();
        assert_eq!(store.total_rows("t"), 0);
        assert!(store.containers("t", NodeId(0)).is_empty());
    }

    #[test]
    fn drop_table_frees_disk() {
        let (cluster, store, def) = setup();
        let r = rec(3);
        store.load(&def, vec![ids(300)], &r).unwrap();
        assert!(cluster.node(NodeId(0)).disk().used_bytes() > 0);
        store.drop_table("T");
        assert_eq!(cluster.node(NodeId(0)).disk().used_bytes(), 0);
        assert_eq!(store.total_rows("t"), 0);
    }

    #[test]
    fn skewed_load_produces_uneven_segments() {
        let cluster = SimCluster::for_tests(2);
        let store = SegmentStore::new(cluster.clone());
        let def = TableDef {
            name: "S".into(),
            schema: Schema::of(&[("id", DataType::Int64)]),
            segmentation: Segmentation::Skewed {
                weights: vec![4.0, 1.0],
            },
        };
        let r = rec(2);
        store.load(&def, vec![ids(5000)], &r).unwrap();
        let rows = store.segment_rows("s");
        assert!(rows[0] > rows[1] * 3, "{rows:?}");
        assert_eq!(rows[0] + rows[1], 5000);
    }
}
