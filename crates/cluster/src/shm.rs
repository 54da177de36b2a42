//! Shared-memory staging area.
//!
//! "As each Distributed R node receives data from Vertica, it stores them as
//! in-memory data files (typically in /dev/shm)" (Section 3.3). This module
//! models that staging area: append-oriented in-memory files with a capacity
//! bound, so tests can exercise the out-of-memory path.
//!
//! Staged files are kept as sequences of [`Bytes`] chunks: a receive pool can
//! stage an incoming wire chunk with [`SharedMem::append_bytes`] without
//! copying it (the file holds a refcounted view of the network buffer), and
//! release the whole file with [`SharedMem::take_bytes`] once its frames have
//! been decoded. The byte-slice API ([`SharedMem::append`] /
//! [`SharedMem::take`]) remains for callers that work with owned buffers.

use crate::error::{ClusterError, Result};
use crate::node::NodeId;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;

/// One node's `/dev/shm`-like staging area.
pub struct SharedMem {
    node: NodeId,
    capacity: u64,
    inner: Mutex<Inner>,
}

/// A staged in-memory file: the chunks appended so far, in order.
#[derive(Default)]
struct SegFile {
    chunks: Vec<Bytes>,
    len: u64,
}

#[derive(Default)]
struct Inner {
    files: HashMap<String, SegFile>,
    used: u64,
}

impl SharedMem {
    pub fn new(node: NodeId, capacity: u64) -> Self {
        SharedMem {
            node,
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Stage a chunk into a (possibly new) segment without copying: the file
    /// keeps a refcounted view of the caller's buffer. Receive threads call
    /// this concurrently for different streams.
    pub fn append_bytes(&self, key: &str, chunk: Bytes) -> Result<()> {
        let mut inner = self.inner.lock();
        let new_used = inner.used + chunk.len() as u64;
        if new_used > self.capacity {
            return Err(ClusterError::ShmOutOfMemory {
                node: self.node,
                requested: chunk.len() as u64,
                capacity: self.capacity,
            });
        }
        inner.used = new_used;
        let file = inner.files.entry(key.to_string()).or_default();
        file.len += chunk.len() as u64;
        file.chunks.push(chunk);
        Ok(())
    }

    /// Append bytes to a (possibly new) segment (copies into an owned chunk;
    /// prefer [`SharedMem::append_bytes`] when a [`Bytes`] is at hand).
    pub fn append(&self, key: &str, data: &[u8]) -> Result<()> {
        self.append_bytes(key, Bytes::copy_from_slice(data))
    }

    /// Remove a segment and return its staged chunks without copying.
    pub fn take_bytes(&self, key: &str) -> Result<Vec<Bytes>> {
        let mut inner = self.inner.lock();
        match inner.files.remove(key) {
            Some(file) => {
                inner.used -= file.len;
                Ok(file.chunks)
            }
            None => Err(ClusterError::ShmNotFound {
                node: self.node,
                key: key.to_string(),
            }),
        }
    }

    /// Remove a segment and return its contents as one contiguous buffer
    /// (the "convert to R object" step consumes the staged file).
    pub fn take(&self, key: &str) -> Result<Vec<u8>> {
        let chunks = self.take_bytes(key)?;
        let mut out = Vec::with_capacity(chunks.iter().map(Bytes::len).sum());
        for c in &chunks {
            out.extend_from_slice(c);
        }
        Ok(out)
    }

    /// All segment keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.inner.lock().files.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Bytes currently staged.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_take_roundtrip() {
        let shm = SharedMem::new(NodeId(0), 1024);
        shm.append("s", b"abc").unwrap();
        shm.append("s", b"def").unwrap();
        assert_eq!(shm.used_bytes(), 6);
        assert_eq!(shm.take("s").unwrap(), b"abcdef");
        assert_eq!(shm.used_bytes(), 0);
        assert!(shm.take("s").is_err());
    }

    #[test]
    fn capacity_is_enforced() {
        let shm = SharedMem::new(NodeId(2), 10);
        shm.append("a", &[0u8; 8]).unwrap();
        let err = shm.append("b", &[0u8; 4]).unwrap_err();
        assert!(matches!(err, ClusterError::ShmOutOfMemory { node, .. } if node == NodeId(2)));
        // Freeing restores headroom.
        shm.take("a").unwrap();
        shm.append("b", &[0u8; 4]).unwrap();
    }

    #[test]
    fn zero_copy_chunks_survive_take() {
        let shm = SharedMem::new(NodeId(1), 100);
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::from(vec![4u8, 5]);
        shm.append_bytes("s", a.clone()).unwrap();
        shm.append_bytes("s", b).unwrap();
        assert_eq!(shm.used_bytes(), 5);
        let chunks = shm.take_bytes("s").unwrap();
        assert_eq!(chunks.len(), 2, "chunk boundaries preserved");
        assert_eq!(&chunks[0][..], &[1, 2, 3]);
        assert_eq!(&chunks[1][..], &[4, 5]);
        assert_eq!(shm.used_bytes(), 0);
        assert!(shm.take_bytes("s").is_err());
        // The staged view shared storage with the caller's buffer.
        assert_eq!(&a[..], &[1, 2, 3]);
    }

    #[test]
    fn append_bytes_enforces_capacity() {
        let shm = SharedMem::new(NodeId(3), 4);
        let err = shm
            .append_bytes("s", Bytes::from(vec![0u8; 5]))
            .unwrap_err();
        assert!(matches!(err, ClusterError::ShmOutOfMemory { node, .. } if node == NodeId(3)));
        assert_eq!(shm.used_bytes(), 0, "failed append stages nothing");
    }

    #[test]
    fn keys_sorted() {
        let shm = SharedMem::new(NodeId(0), 100);
        shm.append("b", b"1").unwrap();
        shm.append("a", b"1").unwrap();
        assert_eq!(shm.keys(), vec!["a", "b"]);
    }

    #[test]
    fn concurrent_appends_account_correctly() {
        let shm = std::sync::Arc::new(SharedMem::new(NodeId(0), u64::MAX));
        std::thread::scope(|s| {
            for t in 0..4 {
                let shm = shm.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        shm.append(&format!("k{t}"), &[1u8; 7]).unwrap();
                    }
                });
            }
        });
        assert_eq!(shm.used_bytes(), 4 * 500 * 7);
        for t in 0..4 {
            assert_eq!(shm.take(&format!("k{t}")).unwrap().len(), 3500);
        }
    }
}
