//! Node-local cache of scanned columns: one entry per segment container.
//!
//! A real Vertica node keeps hot ROS containers in the OS page cache, but
//! our engine was still paying the *decode* on every re-read. This cache
//! keeps, per `(node, container path)`, every column a scan has read in the
//! form the scan produced it — a [`ScanColumn`], eagerly decoded or still in
//! RLE run / dictionary code form — behind an `Arc`, so a hit costs no copy.
//! Mirroring the prediction path's `ModelCache`, an entry carries the
//! container's crc32 as a content version tag: a same-named table that was
//! dropped and re-created (container paths restart at `c000000`) misses on
//! the stale entry and reloads.
//!
//! A scan counts one **hit** when every column it wants is resident, and
//! otherwise one **miss**: it decodes only the missing columns and adds them
//! to the entry. A narrower, a wider or an alternating projection therefore
//! hits by column. Capacity is bounded in charged bytes **per node** (a
//! slice of the cluster profile's `mem_bytes`, as each simulated node has
//! its own RAM): a column is charged at the size it is held in, so an RLE or
//! dictionary column costs its encoded size. Eviction is LRU over whole
//! entries; prefix invalidation (`drop_table`) drops a table's entries.
//!
//! Cost model: a hit charges `disk_cached_read` (memory-speed re-read) and
//! **zero** decode CPU; a miss pays the disk read and the per-value decode of
//! the columns it decodes eagerly. Emits `scan.cache.{hit,miss,evict,
//! invalidated}` per-node counters through `vdr-obs`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use vdr_cluster::NodeId;
use vdr_columnar::ScanColumn;

struct Entry {
    /// Content version tag: the container block's crc32.
    crc: u32,
    /// The resident columns, by their name in the block.
    cols: HashMap<String, ScanColumn>,
    /// Charged bytes: every resident column at its held size.
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<(usize, String), Entry>,
    /// Charged bytes currently cached per node id.
    bytes_per_node: HashMap<usize, u64>,
    /// Monotonic LRU clock.
    tick: u64,
}

impl Inner {
    /// Drop `key`'s entry and give its bytes back to its node's budget.
    fn remove(&mut self, key: &(usize, String)) -> Option<Entry> {
        let e = self.entries.remove(key)?;
        let node = self.bytes_per_node.entry(key.0).or_default();
        *node = node.saturating_sub(e.bytes);
        Some(e)
    }
}

/// The block cache. One instance serves the whole database; keys carry the
/// node id so each node has its own logical cache and byte budget, as it
/// would on real hardware.
pub struct BlockCache {
    inner: Mutex<Inner>,
    capacity_per_node: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl BlockCache {
    /// `capacity_per_node` bounds the charged bytes each node may cache.
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

    /// The resident columns of `(node, path)` among `wanted`, in `wanted`'s
    /// order (`None` where a column is not resident). Counts one hit when
    /// every wanted column is resident and one miss otherwise. An entry
    /// tagged with another crc is dropped first and counts an invalidation.
    pub(crate) fn get(
        &self,
        node: NodeId,
        path: &str,
        crc: u32,
        wanted: &[&str],
    ) -> Vec<Option<ScanColumn>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (node.0, path.to_string());
        if inner.entries.get(&key).is_some_and(|e| e.crc != crc) {
            inner.remove(&key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.invalidated", node.0, 1);
            vdr_obs::event_on(
                "cache.invalidate",
                node.0,
                format!("path={path} reason=crc"),
            );
        }
        let found: Vec<Option<ScanColumn>> = match inner.entries.get(&key) {
            Some(e) => wanted.iter().map(|w| e.cols.get(*w).cloned()).collect(),
            None => vec![None; wanted.len()],
        };
        if found.iter().all(Option::is_some) {
            if let Some(e) = inner.entries.get_mut(&key) {
                e.last_used = tick;
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.hit", node.0, 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.miss", node.0, 1);
        }
        found
    }

    /// Add scanned `cols` (by their name in the block) to the entry of
    /// `(node, path)` — created, or replaced when it carries another crc —
    /// then evict the node's least-recently-used other entries until its
    /// charged bytes fit the budget. Columns that would make the entry alone
    /// outgrow the whole budget are not cached.
    pub(crate) fn insert(
        &self,
        node: NodeId,
        path: &str,
        crc: u32,
        cols: Vec<(String, ScanColumn)>,
    ) {
        let capacity = self.capacity_per_node.load(Ordering::Relaxed);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        let key = (node.0, path.to_string());
        if inner.entries.get(&key).is_some_and(|e| e.crc != crc) {
            inner.remove(&key);
        }
        let entry = inner.entries.entry(key.clone()).or_insert_with(|| Entry {
            crc,
            cols: HashMap::new(),
            bytes: 0,
            last_used: tick,
        });
        let new: Vec<(String, ScanColumn)> = cols
            .into_iter()
            .filter(|(name, _)| !entry.cols.contains_key(name))
            .collect();
        let added: u64 = new.iter().map(|(_, c)| c.byte_size()).sum();
        if entry.bytes + added > capacity {
            if entry.cols.is_empty() {
                inner.entries.remove(&key);
            }
            return;
        }
        entry.cols.extend(new);
        entry.bytes += added;
        entry.last_used = tick;
        *inner.bytes_per_node.entry(node.0).or_default() += added;
        while inner.bytes_per_node.get(&node.0).copied().unwrap_or(0) > capacity {
            let victim = inner
                .entries
                .iter()
                .filter(|((n, p), _)| *n == node.0 && p != path)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            let Some(evicted) = inner.remove(&victim) else {
                break;
            };
            self.evictions.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("scan.cache.evict", node.0, 1);
            vdr_obs::event_on(
                "cache.evict",
                node.0,
                format!("path={} freed={}", victim.1, evicted.bytes),
            );
        }
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
            if inner.remove(&key).is_none() {
                continue;
            }
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

    /// Number of cached entries (containers) across all nodes.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Charged bytes cached on `node`.
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vdr_columnar::{Batch, Column, DataType, Schema};

    /// A decoded `Int64` column of `rows` values.
    fn plain(rows: i64) -> ScanColumn {
        ScanColumn::Decoded(Arc::new(Column::from_i64((0..rows).collect())))
    }

    /// A constant `Int64` column of `rows` values, kept in RLE form.
    fn rle(rows: usize) -> ScanColumn {
        let b = Batch::new(
            Schema::of(&[("k", DataType::Int64)]),
            vec![Column::from_i64(vec![7; rows])],
        )
        .unwrap();
        let bytes = vdr_columnar::encode_batch(&b);
        let (eb, _) = vdr_columnar::decode_batch_encoded(&bytes, None).unwrap();
        let col = eb.columns()[0].clone();
        assert!(matches!(col, ScanColumn::Encoded(_)), "constant stays RLE");
        col
    }

    fn cols(names: &[&str], col: &ScanColumn) -> Vec<(String, ScanColumn)> {
        names.iter().map(|n| (n.to_string(), col.clone())).collect()
    }

    fn resident(found: &[Option<ScanColumn>]) -> Vec<bool> {
        found.iter().map(Option::is_some).collect()
    }

    /// A scan hits only when every wanted column is resident; a miss still
    /// returns the resident ones, and the missing ones join the entry.
    #[test]
    fn hits_are_per_column() {
        let cache = BlockCache::new(1 << 20);
        let path = "tables/t/c0";
        cache.insert(NodeId(0), path, 7, cols(&["a", "b"], &plain(10)));
        assert_eq!(resident(&cache.get(NodeId(0), path, 7, &["a"])), [true]);
        assert_eq!(cache.hits(), 1);
        let wider = cache.get(NodeId(0), path, 7, &["a", "b", "c"]);
        assert_eq!(resident(&wider), [true, true, false]);
        assert_eq!(cache.misses(), 1);
        cache.insert(NodeId(0), path, 7, cols(&["c"], &plain(10)));
        let all = cache.get(NodeId(0), path, 7, &["c", "a", "b"]);
        assert_eq!(resident(&all), [true, true, true]);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));
        assert_eq!(cache.bytes_on(NodeId(0)), plain(10).byte_size() * 3);
    }

    #[test]
    fn crc_mismatch_invalidates() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(1), "tables/t/c0", 1, cols(&["a"], &plain(5)));
        let found = cache.get(NodeId(1), "tables/t/c0", 2, &["a"]);
        assert_eq!(resident(&found), [false]);
        assert_eq!(cache.invalidations(), 1);
        // The stale entry is gone entirely.
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_on(NodeId(1)), 0);
    }

    #[test]
    fn nodes_have_separate_budgets_and_lru_eviction() {
        let col = plain(1000);
        let size = col.byte_size();
        // Budget fits exactly two one-column entries per node.
        let cache = BlockCache::new(size * 2);
        let one = cols(&["a"], &col);
        cache.insert(NodeId(0), "p0", 0, one.clone());
        cache.insert(NodeId(0), "p1", 0, one.clone());
        cache.insert(NodeId(1), "p0", 0, one.clone());
        assert_eq!(cache.len(), 3, "node budgets are independent");
        // Touch p0 so p1 becomes the LRU victim.
        assert_eq!(resident(&cache.get(NodeId(0), "p0", 0, &["a"])), [true]);
        cache.insert(NodeId(0), "p2", 0, one.clone());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(resident(&cache.get(NodeId(0), "p1", 0, &["a"])), [false]);
        assert_eq!(resident(&cache.get(NodeId(0), "p0", 0, &["a"])), [true]);
        assert_eq!(resident(&cache.get(NodeId(0), "p2", 0, &["a"])), [true]);
        assert!(cache.bytes_on(NodeId(0)) <= size * 2);
        // A second column for p2 evicts p0, never p2 itself.
        cache.insert(NodeId(0), "p2", 0, cols(&["b"], &col));
        assert_eq!(cache.evictions(), 2);
        let p2 = cache.get(NodeId(0), "p2", 0, &["a", "b"]);
        assert_eq!(resident(&p2), [true, true]);
        // An entry that would outgrow the whole budget takes no column.
        cache.insert(NodeId(0), "p2", 0, cols(&["c"], &col));
        assert_eq!(resident(&cache.get(NodeId(0), "p2", 0, &["c"])), [false]);
        let tiny = BlockCache::new(8);
        tiny.insert(NodeId(0), "p", 0, one);
        assert!(tiny.is_empty());
    }

    #[test]
    fn prefix_invalidation_hits_all_nodes() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(NodeId(0), "tables/t/c0", 0, cols(&["a"], &plain(1)));
        cache.insert(NodeId(1), "tables/t/c0", 0, cols(&["a"], &rle(100)));
        cache.insert(NodeId(0), "tables/u/c0", 0, cols(&["a"], &plain(1)));
        cache.invalidate_prefix("tables/t/");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidations(), 2);
        assert_eq!(cache.bytes_on(NodeId(1)), 0);
        let u = cache.get(NodeId(0), "tables/u/c0", 0, &["a"]);
        assert_eq!(resident(&u), [true]);
    }

    /// An RLE column is charged at its run-form size, so a budget far below
    /// its decoded size still holds it.
    #[test]
    fn encoded_columns_charge_encoded_bytes() {
        let col = rle(10_000);
        let decoded_size = plain(10_000).byte_size();
        assert!(col.byte_size() * 10 < decoded_size);
        let cache = BlockCache::new(decoded_size / 4);
        cache.insert(NodeId(0), "tables/t/c0", 5, cols(&["k"], &col));
        assert_eq!(cache.bytes_on(NodeId(0)), col.byte_size());
        let found = cache.get(NodeId(0), "tables/t/c0", 5, &["k"]);
        assert_eq!(found, [Some(col)]);
    }
}
