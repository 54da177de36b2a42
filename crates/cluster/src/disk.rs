//! In-memory simulated disk.
//!
//! Holds file contents as immutable [`Bytes`] keyed by path. The disk itself
//! does not charge the ledger — callers know whether a read is cold or
//! cached, sequential or not, and charge the active [`crate::PhaseRecorder`]
//! accordingly. Keeping I/O accounting at the call site avoids a hidden
//! global "current phase".

use crate::error::{ClusterError, Result};
use crate::node::NodeId;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// One node's local disk: a path → bytes map.
pub struct SimDisk {
    node: NodeId,
    files: RwLock<BTreeMap<String, Bytes>>,
}

impl SimDisk {
    pub fn new(node: NodeId) -> Self {
        SimDisk {
            node,
            files: RwLock::new(BTreeMap::new()),
        }
    }

    /// Write (or overwrite) a file.
    pub fn write(&self, path: impl Into<String>, data: Bytes) {
        self.files.write().insert(path.into(), data);
    }

    /// Read a file. Cheap: returns a refcounted slice.
    pub fn read(&self, path: &str) -> Result<Bytes> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| ClusterError::FileNotFound {
                node: self.node,
                path: path.to_string(),
            })
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Delete a file; returns its contents if it existed.
    pub fn delete(&self, path: &str) -> Option<Bytes> {
        self.files.write().remove(path)
    }

    /// Paths starting with `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Size of one file, in bytes.
    pub fn size_of(&self, path: &str) -> Result<u64> {
        self.read(path).map(|b| b.len() as u64)
    }

    /// Total bytes stored.
    pub fn used_bytes(&self) -> u64 {
        self.files.read().values().map(|b| b.len() as u64).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(NodeId(0))
    }

    #[test]
    fn write_read_roundtrip() {
        let d = disk();
        d.write("a/b", Bytes::from_static(b"hello"));
        assert_eq!(d.read("a/b").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(d.size_of("a/b").unwrap(), 5);
        assert!(d.exists("a/b"));
    }

    #[test]
    fn missing_file_errors_with_path() {
        let d = disk();
        let err = d.read("nope").unwrap_err();
        assert_eq!(
            err,
            ClusterError::FileNotFound {
                node: NodeId(0),
                path: "nope".into()
            }
        );
    }

    #[test]
    fn list_by_prefix_is_sorted_and_scoped() {
        let d = disk();
        d.write("seg/2", Bytes::new());
        d.write("seg/10", Bytes::new());
        d.write("other/1", Bytes::new());
        d.write("seg/1", Bytes::new());
        assert_eq!(d.list("seg/"), vec!["seg/1", "seg/10", "seg/2"]);
        assert_eq!(d.list("zzz"), Vec::<String>::new());
    }

    #[test]
    fn delete_and_usage() {
        let d = disk();
        d.write("x", Bytes::from(vec![0u8; 100]));
        d.write("y", Bytes::from(vec![0u8; 50]));
        assert_eq!(d.used_bytes(), 150);
        assert_eq!(d.delete("x").unwrap().len(), 100);
        assert_eq!(d.used_bytes(), 50);
        assert!(d.delete("x").is_none());
    }

    #[test]
    fn overwrite_replaces_content() {
        let d = disk();
        d.write("f", Bytes::from_static(b"old"));
        d.write("f", Bytes::from_static(b"new!"));
        assert_eq!(d.read("f").unwrap(), Bytes::from_static(b"new!"));
        assert_eq!(d.used_bytes(), 4);
    }
}
