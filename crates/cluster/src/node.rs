//! A simulated cluster node: identity, local disk and shared-memory staging
//! area.

use crate::disk::SimDisk;
use crate::shm::SharedMem;
use std::fmt;

/// Identifies a node within a [`crate::SimCluster`]. Dense indices `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One simulated machine. Engines store table segments on the `disk` and
/// stage incoming transfer data in `shm` (the paper stores arriving streams
/// as in-memory files, "typically in /dev/shm", Section 3.3). A node's cores
/// are modeled by the ledger's [`crate::HardwareProfile`], not by threads.
pub struct Node {
    id: NodeId,
    disk: SimDisk,
    shm: SharedMem,
}

impl Node {
    pub fn new(id: NodeId) -> Self {
        Node {
            id,
            disk: SimDisk::new(id),
            shm: SharedMem::new(id, u64::MAX),
        }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    pub fn shm(&self) -> &SharedMem {
        &self.shm
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node").field("id", &self.id).finish()
    }
}
