//! Vertica's internal distributed file system (DFS).
//!
//! "Since models can be large (sometimes gigabytes), we don't store them as
//! part of a regular table. Instead, models are stored as binary blobs in
//! Vertica's distributed file system (DFS). … The DFS can replicate files
//! across nodes to ensure that they are available at all nodes. … Models
//! stored in the DFS provide the same fault-tolerance guarantees as Vertica
//! tables." (Section 5)

use crate::error::{DbError, Result};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashSet};
use vdr_cluster::{NodeId, PhaseRecorder, SimCluster};

#[derive(Debug, Clone)]
struct FileMeta {
    replicas: Vec<NodeId>,
    size: u64,
    /// crc32 of the blob contents, fixed at write time. Doubles as the
    /// blob's version tag: re-deploying a model changes the checksum, which
    /// is what invalidates node-local deserialized-model caches.
    checksum: u32,
}

/// A replicated blob store across the database nodes.
pub struct Dfs {
    cluster: SimCluster,
    replication: usize,
    files: RwLock<BTreeMap<String, FileMeta>>,
    down: RwLock<HashSet<NodeId>>,
}

impl Dfs {
    /// `replication` is clamped to the cluster size.
    pub fn new(cluster: SimCluster, replication: usize) -> Self {
        let replication = replication.clamp(1, cluster.num_nodes());
        Dfs {
            cluster,
            replication,
            files: RwLock::new(BTreeMap::new()),
            down: RwLock::new(HashSet::new()),
        }
    }

    pub fn replication(&self) -> usize {
        self.replication
    }

    fn disk_path(name: &str) -> String {
        format!("dfs/{name}")
    }

    /// Replica placement: deterministic ring walk starting at the blob
    /// name's hash, skipping nodes that are down.
    fn placement(&self, name: &str) -> Result<Vec<NodeId>> {
        let n = self.cluster.num_nodes();
        let down = self.down.read();
        let start =
            (crate::segmentation::hash_value(&vdr_columnar::Value::Varchar(name.to_string()))
                % n as u64) as usize;
        let mut replicas = Vec::with_capacity(self.replication);
        for i in 0..n {
            let node = NodeId((start + i) % n);
            if !down.contains(&node) {
                replicas.push(node);
                if replicas.len() == self.replication {
                    break;
                }
            }
        }
        if replicas.is_empty() {
            return Err(DbError::Dfs("no live nodes to place replicas on".into()));
        }
        Ok(replicas)
    }

    /// Write a blob from `src` node, replicating it. Charges the disk writes
    /// on every replica and the network hops from `src` to remote replicas.
    pub fn write(
        &self,
        src: NodeId,
        name: &str,
        data: bytes::Bytes,
        rec: &PhaseRecorder,
    ) -> Result<()> {
        let replicas = self.placement(name)?;
        let size = data.len() as u64;
        let checksum = vdr_columnar::checksum::crc32(&data);
        vdr_obs::counter_on("dfs.blob.stored", src.0, 1);
        vdr_obs::counter_on("dfs.blob.bytes_written", src.0, size);
        for &node in &replicas {
            rec.net(src, node, size);
            rec.disk_write(node, size);
            self.cluster
                .node(node)
                .disk()
                .write(Self::disk_path(name), data.clone());
        }
        self.files.write().insert(
            name.to_string(),
            FileMeta {
                replicas,
                size,
                checksum,
            },
        );
        Ok(())
    }

    /// Read a blob from `reader`'s point of view: a local replica if one
    /// exists, else the nearest live replica over the network. Fails only if
    /// every replica is down.
    pub fn read(&self, reader: NodeId, name: &str, rec: &PhaseRecorder) -> Result<bytes::Bytes> {
        let meta = self
            .files
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::Dfs(format!("blob '{name}' does not exist")))?;
        let down = self.down.read();
        let source = if meta.replicas.contains(&reader) && !down.contains(&reader) {
            reader
        } else {
            *meta
                .replicas
                .iter()
                .find(|r| !down.contains(r))
                .ok_or_else(|| DbError::Dfs(format!("all replicas of '{name}' are down")))?
        };
        drop(down);
        let data = self
            .cluster
            .node(source)
            .disk()
            .read(&Self::disk_path(name))?;
        rec.disk_read(source, meta.size);
        rec.net(source, reader, meta.size);
        vdr_obs::counter_on("dfs.blob.read", reader.0, 1);
        Ok(data)
    }

    /// Delete a blob from all replicas.
    pub fn delete(&self, name: &str) -> Result<()> {
        let meta = self
            .files
            .write()
            .remove(name)
            .ok_or_else(|| DbError::Dfs(format!("blob '{name}' does not exist")))?;
        for node in meta.replicas {
            self.cluster
                .node(node)
                .disk()
                .delete(&Self::disk_path(name));
        }
        Ok(())
    }

    pub fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    pub fn size_of(&self, name: &str) -> Option<u64> {
        self.files.read().get(name).map(|m| m.size)
    }

    /// The blob's content checksum (its version tag), without reading it.
    /// Model caches compare this against their cached copy to detect
    /// re-deploys.
    pub fn checksum_of(&self, name: &str) -> Option<u32> {
        self.files.read().get(name).map(|m| m.checksum)
    }

    /// Whether at least one replica of the blob is on a live node. Caches
    /// must not serve a blob whose every replica is down: the DFS is the
    /// durability story, and a cache outliving it would mask the loss.
    pub fn is_readable(&self, name: &str) -> bool {
        let files = self.files.read();
        let Some(meta) = files.get(name) else {
            return false;
        };
        let down = self.down.read();
        meta.replicas.iter().any(|r| !down.contains(r))
    }

    pub fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// Where a blob's replicas live (for tests and DESCRIBE output).
    pub fn replicas_of(&self, name: &str) -> Vec<NodeId> {
        self.files
            .read()
            .get(name)
            .map(|m| m.replicas.clone())
            .unwrap_or_default()
    }

    /// Mark a node as failed: reads fail over to surviving replicas.
    pub fn set_node_down(&self, node: NodeId) {
        self.down.write().insert(node);
    }

    /// Bring a node back.
    pub fn set_node_up(&self, node: NodeId) {
        self.down.write().remove(&node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use vdr_cluster::PhaseKind;

    fn setup(n: usize, replication: usize) -> (SimCluster, Dfs, PhaseRecorder) {
        let cluster = SimCluster::for_tests(n);
        let dfs = Dfs::new(cluster.clone(), replication);
        let rec = PhaseRecorder::new("t", PhaseKind::Sequential, n);
        (cluster, dfs, rec)
    }

    #[test]
    fn write_read_roundtrip() {
        let (_, dfs, rec) = setup(4, 3);
        dfs.write(NodeId(0), "models/m1", Bytes::from_static(b"blob"), &rec)
            .unwrap();
        assert!(dfs.exists("models/m1"));
        assert_eq!(dfs.size_of("models/m1"), Some(4));
        assert_eq!(dfs.replicas_of("models/m1").len(), 3);
        for reader in 0..4 {
            let data = dfs.read(NodeId(reader), "models/m1", &rec).unwrap();
            assert_eq!(data, Bytes::from_static(b"blob"));
        }
    }

    #[test]
    fn replication_clamped_to_cluster() {
        let (_, dfs, rec) = setup(2, 5);
        assert_eq!(dfs.replication(), 2);
        dfs.write(NodeId(0), "f", Bytes::from_static(b"x"), &rec)
            .unwrap();
        assert_eq!(dfs.replicas_of("f").len(), 2);
    }

    #[test]
    fn read_survives_replica_failure() {
        let (_, dfs, rec) = setup(4, 2);
        dfs.write(NodeId(0), "m", Bytes::from_static(b"v"), &rec)
            .unwrap();
        let replicas = dfs.replicas_of("m");
        dfs.set_node_down(replicas[0]);
        let data = dfs.read(NodeId(0), "m", &rec).unwrap();
        assert_eq!(data, Bytes::from_static(b"v"));
        // Both replicas down → error.
        dfs.set_node_down(replicas[1]);
        let err = dfs.read(NodeId(0), "m", &rec).unwrap_err();
        assert!(err.to_string().contains("down"));
        // Recovery.
        dfs.set_node_up(replicas[0]);
        assert!(dfs.read(NodeId(0), "m", &rec).is_ok());
    }

    #[test]
    fn delete_removes_all_replicas() {
        let (cluster, dfs, rec) = setup(3, 3);
        dfs.write(NodeId(1), "gone", Bytes::from(vec![7u8; 100]), &rec)
            .unwrap();
        dfs.delete("gone").unwrap();
        assert!(!dfs.exists("gone"));
        for node in cluster.node_ids() {
            assert!(!cluster.node(node).disk().exists("dfs/gone"));
        }
        assert!(dfs.delete("gone").is_err());
        assert!(dfs.read(NodeId(0), "gone", &rec).is_err());
    }

    #[test]
    fn local_replica_read_costs_no_network() {
        let (cluster, dfs, _) = setup(3, 3);
        let w = PhaseRecorder::new("w", PhaseKind::Sequential, 3);
        dfs.write(NodeId(0), "m", Bytes::from(vec![0u8; 1_000_000]), &w)
            .unwrap();
        // With replication = cluster size, every node has a local copy.
        let r = PhaseRecorder::new("r", PhaseKind::Sequential, 3);
        dfs.read(NodeId(2), "m", &r).unwrap();
        let report = r.finish(cluster.profile());
        assert_eq!(
            report.total_bytes_moved, 0,
            "local read must not touch the NIC"
        );
        assert!(report.total_disk_read > 0);
    }

    #[test]
    fn placement_skips_down_nodes_at_write() {
        let (_, dfs, rec) = setup(3, 2);
        dfs.set_node_down(NodeId(0));
        dfs.set_node_down(NodeId(1));
        dfs.write(NodeId(2), "m", Bytes::from_static(b"x"), &rec)
            .unwrap();
        assert_eq!(dfs.replicas_of("m"), vec![NodeId(2)]);
        dfs.set_node_down(NodeId(2));
        assert!(dfs
            .write(NodeId(2), "m2", Bytes::from_static(b"x"), &rec)
            .is_err());
    }

    #[test]
    fn checksum_tracks_blob_contents() {
        let (_, dfs, rec) = setup(3, 3);
        assert_eq!(dfs.checksum_of("m"), None);
        dfs.write(NodeId(0), "m", Bytes::from_static(b"v1"), &rec)
            .unwrap();
        let first = dfs.checksum_of("m").unwrap();
        // Same bytes → same checksum; different bytes → new version tag.
        dfs.write(NodeId(1), "m", Bytes::from_static(b"v1"), &rec)
            .unwrap();
        assert_eq!(dfs.checksum_of("m"), Some(first));
        dfs.write(NodeId(0), "m", Bytes::from_static(b"v2"), &rec)
            .unwrap();
        assert_ne!(dfs.checksum_of("m"), Some(first));
    }

    #[test]
    fn listing_sorted() {
        let (_, dfs, rec) = setup(2, 1);
        dfs.write(NodeId(0), "b", Bytes::new(), &rec).unwrap();
        dfs.write(NodeId(0), "a", Bytes::new(), &rec).unwrap();
        assert_eq!(dfs.list(), vec!["a", "b"]);
    }
}
