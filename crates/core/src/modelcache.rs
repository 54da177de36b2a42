//! Node-local cache of deserialized models.
//!
//! The paper's DFS replication makes a model blob node-local, but a naive
//! prediction UDx still pays a DFS read plus a deserialize *per instance,
//! per query*. This cache keeps one deserialized [`Arc<Model>`] per
//! `(node, DFS path)`, shared by every UDx instance on that node and across
//! queries. Entries are validated against the blob's content checksum
//! (its version tag, see `Dfs::checksum_of`): re-deploying a model changes
//! the checksum, so the next lookup misses and reloads.
//!
//! Concurrency: parallel UDx instances race to score the first partition.
//! Each `(node, path)` key owns a small mutexed slot, so exactly one loser
//! of the race performs the load (and charges the ledger) while the others
//! block on the slot and then share the result — the DFS read + deserialize
//! cost lands once per node per model version.

use crate::codec::Model;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vdr_cluster::NodeId;

#[derive(Default)]
struct Slot {
    /// `(version checksum, deserialized model)` once loaded.
    loaded: Option<(u32, Arc<Model>)>,
}

/// One mutexed slot per `(node, DFS path)` key; the slot-level lock is what
/// collapses a thundering herd of UDx instances into a single load.
type SlotMap = HashMap<(NodeId, String), Arc<Mutex<Slot>>>;

/// Per-node deserialized-model cache. One instance serves the whole
/// database: keys carry the node id, so each node has its own logical
/// cache, as it would on real hardware.
#[derive(Default)]
pub struct ModelCache {
    slots: Mutex<SlotMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ModelCache {
    pub fn new() -> Self {
        ModelCache::default()
    }

    /// Fetch the model at `path` as seen from `node`, loading it with
    /// `load` only on a cold or stale (checksum-mismatched) entry.
    ///
    /// `checksum` is the current version tag of the blob; an entry cached
    /// under a different tag counts as an invalidation and is reloaded.
    /// Emits `predict.model_cache.hit` / `.miss` / `.invalidated` per-node
    /// counters through `vdr-obs`.
    pub fn get_or_load<E>(
        &self,
        node: NodeId,
        path: &str,
        checksum: u32,
        load: impl FnOnce() -> std::result::Result<Model, E>,
    ) -> std::result::Result<Arc<Model>, E> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .entry((node, path.to_string()))
                .or_default(),
        );
        let mut slot = slot.lock();
        if let Some((tag, model)) = &slot.loaded {
            if *tag == checksum {
                self.hits.fetch_add(1, Ordering::Relaxed);
                vdr_obs::counter_on("predict.model_cache.hit", node.0, 1);
                return Ok(Arc::clone(model));
            }
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            vdr_obs::counter_on("predict.model_cache.invalidated", node.0, 1);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        vdr_obs::counter_on("predict.model_cache.miss", node.0, 1);
        let model = Arc::new(load()?);
        slot.loaded = Some((checksum, Arc::clone(&model)));
        Ok(model)
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Number of cached `(node, path)` entries.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_ml::models::KmeansModel;

    fn model(v: f64) -> Model {
        Model::Kmeans(KmeansModel {
            centers: vec![vec![v]],
            iterations: 1,
            total_withinss: 0.0,
        })
    }

    #[test]
    fn caches_per_node_and_invalidates_on_checksum_change() {
        let cache = ModelCache::new();
        let load_calls = AtomicU64::new(0);
        let get = |node: usize, checksum: u32| {
            cache
                .get_or_load::<()>(NodeId(node), "models/m", checksum, || {
                    load_calls.fetch_add(1, Ordering::Relaxed);
                    Ok(model(checksum as f64))
                })
                .unwrap()
        };
        let a = get(0, 1);
        let b = get(0, 1);
        assert!(Arc::ptr_eq(&a, &b), "second lookup shares the Arc");
        assert_eq!(load_calls.load(Ordering::Relaxed), 1);
        // A different node loads its own copy.
        get(1, 1);
        assert_eq!(load_calls.load(Ordering::Relaxed), 2);
        assert_eq!(cache.len(), 2);
        // New checksum = re-deployed model: reload, count an invalidation.
        let c = get(0, 2);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(load_calls.load(Ordering::Relaxed), 3);
        assert_eq!(
            (cache.hits(), cache.misses(), cache.invalidations()),
            (1, 3, 1)
        );
    }

    #[test]
    fn load_errors_are_not_cached() {
        let cache = ModelCache::new();
        let err = cache.get_or_load(NodeId(0), "models/bad", 7, || Err("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(cache.misses(), 1);
        // A later successful load still runs (the failure left no entry).
        let ok = cache.get_or_load::<()>(NodeId(0), "models/bad", 7, || Ok(model(1.0)));
        assert!(ok.is_ok());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn concurrent_lookups_load_once() {
        let cache = Arc::new(ModelCache::new());
        let load_calls = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let load_calls = Arc::clone(&load_calls);
                std::thread::spawn(move || {
                    cache
                        .get_or_load::<()>(NodeId(0), "models/m", 42, || {
                            load_calls.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            Ok(model(1.0))
                        })
                        .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(load_calls.load(Ordering::Relaxed), 1, "one loader wins");
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.misses(), 1);
    }
}
