//! Segment storage: each node stores its table segment as a series of
//! encoded, checksummed columnar *containers* (ROS-style) on its simulated
//! disk, and [`SegmentStore::scan_node`] is the one way to read them back.
//!
//! A scan returns one [`EncodedBatch`] per container:
//!
//! * **Projection pushdown** — only the `wanted` columns are read; decode
//!   CPU is charged per *decoded* value, not per stored value.
//! * **Compressed execution** — Plain and DeltaVarint columns decode
//!   eagerly; RLE and dictionary columns stay in run/code form until a
//!   reader needs their values, which charges their decode then
//!   (`exec.rs`, `EncodedScanStats`).
//! * **Block cache** — a node-local LRU of scanned columns keyed by
//!   `(node, container path)` and validated by the container's crc32
//!   ([`crate::blockcache::BlockCache`]). A container whose wanted columns
//!   are all resident charges a memory-speed `disk_cached_read` and zero
//!   decode CPU; otherwise the scan decodes only the missing columns.
//!
//! A scan always reads the node's whole segment, in container order: the
//! executor, not storage, splits it among UDx instances (`exec.rs`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::blockcache::BlockCache;
use crate::catalog::TableDef;
use crate::error::{DbError, Result};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use vdr_cluster::{NodeId, PhaseRecorder, SimCluster};
use vdr_columnar::{
    block_checksum, block_column_info, decode_batch_encoded, encode_batch, encoding::Encoding,
    Batch, EncodedBatch, Field, Schema,
};

/// Fraction of a node's RAM given to the block cache (1/32 of the
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

impl ContainerMeta {
    /// The block's names of the columns a scan reads, in block order:
    /// those `wanted` names (case-insensitively; `None` is every column),
    /// or, when that is none of them, the one with the smallest payload, so
    /// the scan still carries the row count (`SELECT count(*)` needs rows,
    /// not values) — the block decoder's rule, decided before the cache
    /// probe.
    fn read(&self, wanted: Option<&HashSet<String>>) -> Vec<&str> {
        let is_wanted =
            |name: &str| wanted.is_none_or(|w| w.iter().any(|n| n.eq_ignore_ascii_case(name)));
        let names = self.columns.iter().map(|c| c.name.as_str());
        let read: Vec<&str> = names.filter(|n| is_wanted(n)).collect();
        if !read.is_empty() {
            return read;
        }
        let cheapest = self.columns.iter().min_by_key(|c| c.encoded_bytes);
        cheapest.map(|c| c.name.as_str()).into_iter().collect()
    }
}

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

    /// The node-local block cache (stats + capacity control).
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
        let nodes = tm.segments.len();
        let segment = match tm.segments.get_mut(node.0) {
            Some(s) if nodes == self.cluster.num_nodes() => s,
            _ => return Err(DbError::Exec("cluster size changed under storage".into())),
        };
        let path = format!("tables/{key}/c{:06}", segment.len());
        self.cluster.node(node).disk().write(path.clone(), block);
        rec.disk_write(node, bytes);
        segment.push(ContainerMeta {
            path,
            rows: batch.num_rows() as u64,
            bytes,
            crc,
            columns,
        });
        Ok(())
    }

    /// Containers of `table` on `node` (none on a node the table does not
    /// span).
    pub fn containers(&self, table: &str, node: NodeId) -> Vec<ContainerMeta> {
        let meta = self.meta.read();
        let segment = meta
            .get(&Self::key(table))
            .and_then(|tm| tm.segments.get(node.0));
        segment.cloned().unwrap_or_default()
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

    /// [`Self::scan_node`] over every container; `_cached` is ignored. Kept
    /// only for the benchmark's scan probe, which calls it by this name.
    pub fn scan_node_projected(
        &self,
        table: &str,
        node: NodeId,
        rec: &PhaseRecorder,
        _cached: bool,
        wanted: Option<&HashSet<String>>,
    ) -> Result<Vec<EncodedBatch>> {
        self.scan_node(table, node, rec, wanted)
    }

    /// Read `table`'s containers on `node`: the `wanted` columns
    /// (`None` = all) of each, in block order, charging `rec` for the disk
    /// read and the eager decode. Resident columns come from the block
    /// cache; a container with some missing decodes only those and caches
    /// them.
    pub fn scan_node(
        &self,
        table: &str,
        node: NodeId,
        rec: &PhaseRecorder,
        wanted: Option<&HashSet<String>>,
    ) -> Result<Vec<EncodedBatch>> {
        let containers = self.containers(table, node);
        let mut skipped = 0;
        let out = containers
            .iter()
            .map(|c| self.scan_container(c, node, rec, wanted, &mut skipped))
            .collect::<Result<Vec<_>>>()?;
        if skipped > 0 {
            vdr_obs::counter_on("exec.scan.cols_skipped", node.0, skipped);
        }
        Ok(out)
    }

    /// One container of [`Self::scan_node`]: a cache hit, or a disk read
    /// that decodes the columns the cache lacks.
    fn scan_container(
        &self,
        c: &ContainerMeta,
        node: NodeId,
        rec: &PhaseRecorder,
        wanted: Option<&HashSet<String>>,
        cols_skipped: &mut u64,
    ) -> Result<EncodedBatch> {
        let names = c.read(wanted);
        let mut found = self.cache.get(node, &c.path, c.crc, &names);
        let missing: HashSet<String> = names
            .iter()
            .zip(&found)
            .filter(|(_, col)| col.is_none())
            .map(|(name, _)| name.to_string())
            .collect();
        if missing.is_empty() {
            // Every wanted column is resident: memory-speed re-read of the
            // container, no decode CPU at all.
            rec.disk_cached_read(node, c.bytes);
        } else {
            let raw = self.cluster.node(node).disk().read(&c.path)?;
            rec.disk_read(node, c.bytes);
            let started = Instant::now();
            let (decoded, stats) = decode_batch_encoded(&raw, Some(&missing))?;
            let values = stats.values_decoded();
            let scan_cost = self.cluster.profile().costs.db_scan_ns_per_value;
            rec.cpu_work(node, values as f64, scan_cost);
            if values > 0 {
                let ns = started.elapsed().as_nanos() as f64 / values as f64;
                vdr_obs::observe_on("scan.decode.ns_per_value", node.0, ns);
            }
            let skipped = c.columns.len() - names.len();
            *cols_skipped += skipped as u64;
            for (slot, name) in found.iter_mut().zip(&names) {
                if slot.is_none() {
                    *slot = Some(decoded.column_by_name(name)?.clone());
                }
            }
            let fields = decoded.schema().fields().iter();
            let new = fields
                .map(|f| f.name.clone())
                .zip(decoded.columns().to_vec());
            self.cache.insert(node, &c.path, c.crc, new.collect());
        }
        let cols: Vec<_> = found.into_iter().flatten().collect();
        let fields = names.iter().zip(&cols);
        let schema = Schema::new(fields.map(|(n, c)| Field::new(*n, c.data_type())).collect());
        Ok(EncodedBatch::new(schema, c.rows as usize, cols)?)
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
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

    /// A scan of every column of `table` on `node`.
    fn scan(s: &SegmentStore, table: &str, node: NodeId, rec: &PhaseRecorder) -> Vec<EncodedBatch> {
        s.scan_node(table, node, rec, None).unwrap()
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
            .scan_node("w", NodeId(0), &narrow, Some(&set(&["id"])))
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

    /// A cached wide scan serves a narrower one by column, and the scan
    /// returns exactly the columns it asked for; a wider scan then decodes
    /// only the column the entry lacks.
    #[test]
    fn projections_hit_by_column() {
        let cluster = SimCluster::for_tests(1);
        let store = SegmentStore::new(cluster.clone());
        let def = TableDef {
            name: "W".into(),
            schema: wide(1).schema().clone(),
            segmentation: Segmentation::RoundRobin,
        };
        store.load(&def, vec![wide(100)], &rec(1)).unwrap();
        let ab = set(&["a", "B"]);
        store.scan_node("w", NodeId(0), &rec(1), Some(&ab)).unwrap();
        let r = rec(1);
        let narrow = store.scan_node("w", NodeId(0), &r, Some(&set(&["A"])));
        assert_eq!(narrow.unwrap()[0].schema().names(), vec!["a"]);
        assert_eq!(store.block_cache().hits(), 1);
        assert_eq!(r.finish(cluster.profile()).total_cpu_core_ns, 0.0);
        let r = rec(1);
        let wider = store.scan_node("w", NodeId(0), &r, Some(&set(&["a", "c"])));
        assert_eq!(wider.unwrap()[0].schema().names(), vec!["a", "c"]);
        assert_eq!(store.block_cache().misses(), 2);
        let one_column = scan_cost(&cluster) * 100.0;
        assert_eq!(r.finish(cluster.profile()).total_cpu_core_ns, one_column);
    }

    fn scan_cost(cluster: &SimCluster) -> f64 {
        cluster.profile().costs.db_scan_ns_per_value
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
    fn scan_keeps_rle_columns_and_caches_them_encoded() {
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
        let ebs = scan(&store, "lc", NodeId(0), &r);
        assert_eq!(ebs.len(), 1);
        assert_eq!(ebs[0].num_encoded(), 1, "grp stays in run form");
        let cold = r.finish(cluster.profile());
        assert!(cold.total_disk_read > 0);
        // Only the plain column decoded at scan.
        assert_eq!(cold.total_cpu_core_ns, scan_cost(&cluster) * n as f64);

        // The entry is charged at the size its columns are held in — well
        // below the fully decoded footprint (the plain float column still
        // costs full size; the RLE column shrinks to a handful of runs).
        assert_eq!(store.block_cache().len(), 1);
        assert_eq!(store.block_cache().bytes_on(NodeId(0)), ebs[0].byte_size());
        let full_mask = vdr_columnar::Bitmap::all_valid(ebs[0].num_rows());
        let (full, _) = ebs[0].materialize(&full_mask, None).unwrap();
        assert!(ebs[0].byte_size() * 3 < full.into_batch().unwrap().byte_size() * 2);

        // Re-scan: a hit, zero decode CPU.
        let r2 = rec(1);
        scan(&store, "lc", NodeId(0), &r2);
        assert_eq!(store.block_cache().hits(), 1);
        assert_eq!(r2.finish(cluster.profile()).total_cpu_core_ns, 0.0);
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
    fn empty_batches_create_no_containers() {
        let (_, store, def) = setup();
        let r = rec(3);
        store.load(&def, vec![ids(0)], &r).unwrap();
        assert_eq!(store.total_rows("t"), 0);
        assert!(store.containers("t", NodeId(0)).is_empty());
        // A node the table does not span holds no container.
        assert!(store.containers("t", NodeId(9)).is_empty());
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
