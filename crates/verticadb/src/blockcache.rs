//! Node-local cache of scanned segment containers, in two tiers.
//!
//! A real Vertica node keeps hot ROS containers in the OS page cache, but
//! our engine was still paying the *decode* on every re-read. This cache
//! keeps the scan product per `(node, container path)`, mirroring the
//! prediction path's `ModelCache`: entries carry the container's crc32 as a
//! content version tag, so a same-named table that was dropped and
//! re-created (container paths restart at `c000000`) misses on the stale
//! entry and reloads.
//!
//! Entries come in two **tiers**, matching the two scan paths:
//!
//! * **decoded** — a plain [`Arc<Batch>`], charged at decoded byte size, and
//! * **encoded** — an [`Arc<EncodedBatch>`] for compressed execution,
//!   charged at *encoded* byte size, so low-cardinality columns cache far
//!   more rows per budget byte.
//!
//! Both tiers share one key namespace: inserting either form replaces the
//! other, a lookup hits only its own tier (an encoded scan cannot use a
//! decoded entry and vice versa), and prefix invalidation (`drop_table`)
//! covers both. Capacity is bounded in charged bytes **per node** (a slice
//! of the cluster profile's `mem_bytes`, as each simulated node has its own
//! RAM), with LRU eviction. Projection-pushdown interacts with caching: an
//! entry remembers which columns it holds, and a lookup hits only if the
//! wanted set is covered — a cached `{a, b}` batch serves a later
//! `SELECT a`, but a `SELECT *` (wanted `None` ⇒ every column) must
//! re-decode and then replaces the narrow entry.
//!
//! Cost model: a hit charges `disk_cached_read` (memory-speed re-read) and
//! **zero** decode CPU; misses pay the disk read and the per-value decode
//! as before. Emits `scan.cache.{hit,miss,evict,invalidated}` per-node
//! counters through `vdr-obs`.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vdr_cluster::NodeId;
use vdr_columnar::{Batch, EncodedBatch, Schema};

/// A cached scan product: one tier per scan path.
#[derive(Clone)]
pub(crate) enum CachedBlock {
    Decoded(Arc<Batch>),
    Encoded(Arc<EncodedBatch>),
}

/// A scan product the cache can hold. The implementing type picks the tier:
/// [`Batch`] is the decoded tier, [`EncodedBatch`] the encoded one.
pub(crate) trait CacheTier: Sized {
    fn into_block(this: Arc<Self>) -> CachedBlock;
    /// The entry's payload if it is on this tier.
    fn from_block(block: &CachedBlock) -> Option<Arc<Self>>;
    /// Bytes charged against the node's budget.
    fn charged_bytes(&self) -> u64;
    fn schema(&self) -> &Schema;
}

impl CacheTier for Batch {
    fn into_block(this: Arc<Self>) -> CachedBlock {
        CachedBlock::Decoded(this)
    }
    fn from_block(block: &CachedBlock) -> Option<Arc<Self>> {
        match block {
            CachedBlock::Decoded(b) => Some(Arc::clone(b)),
            CachedBlock::Encoded(_) => None,
        }
    }
    fn charged_bytes(&self) -> u64 {
        self.byte_size()
    }
    fn schema(&self) -> &Schema {
        self.schema()
    }
}

impl CacheTier for EncodedBatch {
    fn into_block(this: Arc<Self>) -> CachedBlock {
        CachedBlock::Encoded(this)
    }
    fn from_block(block: &CachedBlock) -> Option<Arc<Self>> {
        match block {
            CachedBlock::Encoded(b) => Some(Arc::clone(b)),
            CachedBlock::Decoded(_) => None,
        }
    }
    fn charged_bytes(&self) -> u64 {
        self.byte_size()
    }
    fn schema(&self) -> &Schema {
        self.schema()
    }
}

struct Entry {
    /// Content version tag: the container block's crc32.
    crc: u32,
    /// Lowercased names of the columns this entry holds; `None` means the
    /// whole block (covers any projection).
    cols: Option<HashSet<String>>,
    block: CachedBlock,
    /// Charged bytes: decoded size for the decoded tier, encoded size for
    /// the encoded tier.
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<(usize, String), Entry>,
    /// Decoded bytes currently cached per node id.
    bytes_per_node: HashMap<usize, u64>,
    /// Monotonic LRU clock.
    tick: u64,
}

/// The decoded-block cache. One instance serves the whole database; keys
/// carry the node id so each node has its own logical cache and byte
/// budget, as it would on real hardware.
pub struct BlockCache {
    inner: Mutex<Inner>,
    capacity_per_node: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl BlockCache {
    /// `capacity_per_node` bounds the decoded bytes each node may cache.
    pub fn new(capacity_per_node: u64) -> Self {
        BlockCache {
            inner: Mutex::new(Inner::default()),
            capacity_per_node: AtomicU64::new(capacity_per_node),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Shrink or grow the per-node byte budget (tests exercise eviction by
    /// lowering it). Takes effect on the next insert.
    pub fn set_capacity_per_node(&self, bytes: u64) {
        self.capacity_per_node.store(bytes, Ordering::Relaxed);
    }

    /// Look up the tier-`T` scan product for `(node, path)`. Hits require the
    /// content tag to match, the entry to be on `T`'s tier, and the cached
    /// projection to cover `wanted` (`None` = all columns). A tag mismatch
    /// drops the stale entry and counts an invalidation; an uncovered
    /// projection or a tier mismatch counts a plain miss (the caller
    /// re-decodes and the wider/newer entry replaces this one).
    pub(crate) fn get<T: CacheTier>(
        &self,
        node: NodeId,
        path: &str,
        crc: u32,
        wanted: Option<&HashSet<String>>,
    ) -> Option<Arc<T>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (node.0, path.to_string());
        if let Some(e) = inner.entries.get_mut(&key) {
            if e.crc != crc {
                let bytes = e.bytes;
                inner.entries.remove(&key);
                *inner.bytes_per_node.entry(node.0).or_default() -= bytes;
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                vdr_obs::counter_on("scan.cache.invalidated", node.0, 1);
                vdr_obs::event_on(
                    "cache.invalidate",
                    node.0,
                    format!("path={path} reason=crc"),
                );
            } else {
                let covered = match (&e.cols, wanted) {
                    (None, _) => true,
                    (Some(_), None) => false,
                    (Some(have), Some(want)) => want.iter().all(|w| have.contains(w)),
                };
                if let Some(hit) = T::from_block(&e.block).filter(|_| covered) {
                    e.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    vdr_obs::counter_on("scan.cache.hit", node.0, 1);
                    return Some(hit);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        vdr_obs::counter_on("scan.cache.miss", node.0, 1);
        None
    }

    /// Cache a scan product on its tier: a decoded batch is charged at its
    /// decoded byte size, an encoded one at its *encoded* size — the point
    /// of that tier: a dictionary or RLE column occupies budget at
    /// compressed size, not expanded size. `cols` is the lowercased set of
    /// columns the batch holds (`None` for a full decode). Evicts the node's
    /// least-recently-used entries until the batch fits; a batch larger than
    /// the whole per-node budget is not cached at all.
    pub(crate) fn insert<T: CacheTier>(
        &self,
        node: NodeId,
        path: &str,
        crc: u32,
        cols: Option<HashSet<String>>,
        batch: Arc<T>,
    ) {
        let bytes = batch.charged_bytes();
        let block = T::into_block(batch);
        let capacity = self.capacity_per_node.load(Ordering::Relaxed);
        if bytes > capacity {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (node.0, path.to_string());
        if let Some(old) = inner.entries.remove(&key) {
            *inner.bytes_per_node.entry(node.0).or_default() -= old.bytes;
        }
        while inner.bytes_per_node.get(&node.0).copied().unwrap_or(0) + bytes > capacity {
            let victim = inner
                .entries
                .iter()
                .filter(|((n, _), _)| *n == node.0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            let freed = inner.entries.remove(&victim).expect("victim present").bytes;
            *inner.bytes_per_node.entry(node.0).or_default() -= freed;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.evict", node.0, 1);
            vdr_obs::event_on(
                "cache.evict",
                node.0,
                format!("path={} freed={freed}", victim.1),
            );
        }
        *inner.bytes_per_node.entry(node.0).or_default() += bytes;
        inner.entries.insert(
            key,
            Entry {
                crc,
                cols,
                block,
                bytes,
                last_used: tick,
            },
        );
    }

    /// Drop every entry (on any node) whose container path starts with
    /// `prefix` — the `drop_table` hook (`tables/<name>/`).
    pub fn invalidate_prefix(&self, prefix: &str) {
        let mut inner = self.inner.lock();
        let victims: Vec<(usize, String)> = inner
            .entries
            .keys()
            .filter(|(_, p)| p.starts_with(prefix))
            .cloned()
            .collect();
        for key in victims {
            let e = inner.entries.remove(&key).expect("victim present");
            *inner.bytes_per_node.entry(key.0).or_default() -= e.bytes;
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.invalidated", key.0, 1);
            vdr_obs::event_on(
                "cache.invalidate",
                key.0,
                format!("path={} reason=drop prefix={prefix}", key.1),
            );
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of cached entries across all nodes.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of encoded-tier entries across all nodes.
    pub fn encoded_len(&self) -> usize {
        self.inner
            .lock()
            .entries
            .values()
            .filter(|e| matches!(e.block, CachedBlock::Encoded(_)))
            .count()
    }

    /// Charged bytes cached on `node` (decoded entries at decoded size,
    /// encoded entries at encoded size).
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.inner
            .lock()
            .bytes_per_node
            .get(&node.0)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_columnar::{Column, DataType, Schema};

    fn batch(rows: i64) -> Arc<Batch> {
        Arc::new(
            Batch::new(
                Schema::of(&[("id", DataType::Int64)]),
                vec![Column::from_i64((0..rows).collect())],
            )
            .unwrap(),
        )
    }

    fn set(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn projection_coverage_rules() {
        let cache = BlockCache::new(1 << 20);
        let b = batch(10);
        // Narrow entry serves an equal-or-narrower projection only.
        cache.insert(
            NodeId(0),
            "tables/t/c0",
            7,
            Some(set(&["a", "b"])),
            b.clone(),
        );
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 7, Some(&set(&["a"])))
            .is_some());
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 7, Some(&set(&["a", "b"])))
            .is_some());
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 7, Some(&set(&["c"])))
            .is_none());
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 7, None)
            .is_none());
        // Full entry serves everything.
        cache.insert(NodeId(0), "tables/t/c0", 7, None, b);
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 7, None)
            .is_some());
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 7, Some(&set(&["z"])))
            .is_some());
    }

    #[test]
    fn crc_mismatch_invalidates() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(1), "tables/t/c0", 1, None, batch(5));
        assert!(cache
            .get::<Batch>(NodeId(1), "tables/t/c0", 2, None)
            .is_none());
        assert_eq!(cache.invalidations(), 1);
        // The stale entry is gone entirely.
        assert!(cache.is_empty());
    }

    #[test]
    fn nodes_have_separate_budgets_and_lru_eviction() {
        let b = batch(1000);
        let size = b.byte_size();
        // Budget fits exactly two batches per node.
        let cache = BlockCache::new(size * 2);
        cache.insert(NodeId(0), "p0", 0, None, b.clone());
        cache.insert(NodeId(0), "p1", 0, None, b.clone());
        cache.insert(NodeId(1), "p0", 0, None, b.clone());
        assert_eq!(cache.len(), 3, "node budgets are independent");
        // Touch p0 so p1 becomes the LRU victim.
        assert!(cache.get::<Batch>(NodeId(0), "p0", 0, None).is_some());
        cache.insert(NodeId(0), "p2", 0, None, b.clone());
        assert_eq!(cache.evictions(), 1);
        assert!(
            cache.get::<Batch>(NodeId(0), "p1", 0, None).is_none(),
            "LRU evicted"
        );
        assert!(cache.get::<Batch>(NodeId(0), "p0", 0, None).is_some());
        assert!(cache.get::<Batch>(NodeId(0), "p2", 0, None).is_some());
        assert!(cache.bytes_on(NodeId(0)) <= size * 2);
        // An oversized batch is refused outright.
        let tiny = BlockCache::new(8);
        tiny.insert(NodeId(0), "p", 0, None, b);
        assert!(tiny.is_empty());
    }

    #[test]
    fn prefix_invalidation_hits_all_nodes() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(0), "tables/t/c0", 0, None, batch(1));
        cache.insert(NodeId(1), "tables/t/c0", 0, None, batch(1));
        cache.insert(NodeId(0), "tables/u/c0", 0, None, batch(1));
        cache.invalidate_prefix("tables/t/");
        assert_eq!(cache.len(), 1);
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/u/c0", 0, None)
            .is_some());
    }

    fn encoded_batch(rows: usize) -> Arc<EncodedBatch> {
        let b = Batch::new(
            Schema::of(&[("k", DataType::Int64)]),
            vec![Column::from_i64(vec![7; rows])],
        )
        .unwrap();
        let bytes = vdr_columnar::encode_batch(&b);
        let (eb, _) = vdr_columnar::decode_batch_encoded(&bytes, None).unwrap();
        assert!(eb.num_encoded() > 0, "constant column must stay encoded");
        Arc::new(eb)
    }

    #[test]
    fn encoded_tier_charges_encoded_bytes() {
        let eb = encoded_batch(10_000);
        let decoded_size = batch(10_000).byte_size();
        assert!(eb.byte_size() * 10 < decoded_size);
        // A budget far below decoded size still accepts the encoded entry.
        let cache = BlockCache::new(decoded_size / 4);
        cache.insert(NodeId(0), "tables/t/c0", 5, None, eb.clone());
        assert_eq!(cache.encoded_len(), 1);
        assert_eq!(cache.bytes_on(NodeId(0)), eb.byte_size());
        assert!(cache
            .get::<EncodedBatch>(NodeId(0), "tables/t/c0", 5, None)
            .is_some());
    }

    #[test]
    fn tiers_share_keys_but_not_hits() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(0), "tables/t/c0", 5, None, encoded_batch(100));
        // A decoded-path lookup must not see the encoded entry (tier miss,
        // not invalidation — the entry survives).
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 5, None)
            .is_none());
        assert_eq!(cache.invalidations(), 0);
        assert!(cache
            .get::<EncodedBatch>(NodeId(0), "tables/t/c0", 5, None)
            .is_some());
        // Inserting the decoded form replaces the encoded entry outright.
        cache.insert(NodeId(0), "tables/t/c0", 5, None, batch(100));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.encoded_len(), 0);
        assert!(cache
            .get::<EncodedBatch>(NodeId(0), "tables/t/c0", 5, None)
            .is_none());
        assert!(cache
            .get::<Batch>(NodeId(0), "tables/t/c0", 5, None)
            .is_some());
        // crc mismatch invalidates encoded entries just like decoded ones.
        cache.insert(NodeId(0), "tables/t/c1", 5, None, encoded_batch(100));
        assert!(cache
            .get::<EncodedBatch>(NodeId(0), "tables/t/c1", 6, None)
            .is_none());
        assert_eq!(cache.invalidations(), 1);
    }

    #[test]
    fn prefix_invalidation_covers_both_tiers() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(0), "tables/t/c0", 0, None, batch(1));
        cache.insert(NodeId(1), "tables/t/c1", 0, None, encoded_batch(100));
        cache.insert(NodeId(0), "tables/u/c0", 0, None, encoded_batch(100));
        cache.invalidate_prefix("tables/t/");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.encoded_len(), 1);
        assert!(cache
            .get::<EncodedBatch>(NodeId(0), "tables/u/c0", 0, None)
            .is_some());
    }
}
