//! Error types for the cluster substrate.

use crate::node::NodeId;
use std::fmt;

pub type Result<T> = std::result::Result<T, ClusterError>;

/// Failures of the simulated hardware layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A read referenced a file the simulated disk does not hold.
    FileNotFound { node: NodeId, path: String },
    /// A shared-memory segment was not found.
    ShmNotFound { node: NodeId, key: String },
    /// A shared-memory write would exceed the staging area's capacity.
    ShmOutOfMemory {
        node: NodeId,
        requested: u64,
        capacity: u64,
    },
    /// The peer hung up before the stream was fully consumed.
    StreamClosed,
    /// A node id referenced a node outside the cluster.
    NoSuchNode { node: NodeId, cluster_size: usize },
    /// A malformed wire stream or a producer failure inside a gather.
    Io(String),
    /// The task for input `input`, run on `node` by
    /// [`crate::SimCluster::run_on`], panicked.
    NodePanicked { node: NodeId, input: usize },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::FileNotFound { node, path } => {
                write!(f, "node {node}: file not found: {path}")
            }
            ClusterError::ShmNotFound { node, key } => {
                write!(f, "node {node}: shared-memory segment not found: {key}")
            }
            ClusterError::ShmOutOfMemory {
                node,
                requested,
                capacity,
            } => write!(
                f,
                "node {node}: shared memory exhausted (requested {requested} B, capacity {capacity} B)"
            ),
            ClusterError::StreamClosed => write!(f, "stream closed by peer"),
            ClusterError::NoSuchNode { node, cluster_size } => {
                write!(f, "node {node} does not exist (cluster has {cluster_size} nodes)")
            }
            ClusterError::Io(msg) => write!(f, "{msg}"),
            ClusterError::NodePanicked { node, input } => {
                write!(f, "node {node}: the task for input {input} panicked")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ClusterError::FileNotFound {
            node: NodeId(3),
            path: "seg/0".into(),
        };
        let s = e.to_string();
        assert!(s.contains("node 3") && s.contains("seg/0"));

        let e = ClusterError::ShmOutOfMemory {
            node: NodeId(1),
            requested: 10,
            capacity: 5,
        };
        assert!(e.to_string().contains("exhausted"));
    }
}
