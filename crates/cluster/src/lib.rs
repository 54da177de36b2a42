//! # vdr-cluster — simulated cluster substrate
//!
//! The paper's evaluation runs on a 24-node cluster (24 hyper-threaded 2.67 GHz
//! cores, 196 GB RAM, SSD, full-bisection 10 Gbps Ethernet). This crate stands
//! in for that hardware: a [`SimCluster`] hosts N [`Node`]s inside one process,
//! each with an in-memory [`disk::SimDisk`], a `/dev/shm`-style staging area
//! ([`shm::SharedMem`]), a bounded thread pool, and point-to-point
//! [`net::Network`] links.
//!
//! Every byte moved and every unit of compute performed by the engines built
//! on top (the database, the distributed runtime, the connectors) is recorded
//! in a [`ledger::Ledger`] of phases. A phase's *simulated duration* is a pure
//! function of the recorded operation counts and a [`profile::HardwareProfile`]
//! calibrated against the paper's testbed — see `profile.rs` for the
//! arithmetic deriving each constant from the paper's reported numbers.
//!
//! This split lets the repository run the *real* code on laptop-scale data
//! (for correctness and measured wall time) while projecting the same
//! operation counts to the paper's 50–400 GB scale deterministically.

pub mod disk;
pub mod error;
pub mod exchange;
pub mod fetch;
pub mod frame;
pub mod ledger;
pub mod net;
pub mod node;
pub mod profile;
pub mod shm;
pub mod time;

pub use disk::SimDisk;
pub use error::{ClusterError, Result};
pub use exchange::{exchange_framed, ExchangeRecv};
pub use fetch::gather_framed;
pub use frame::{stream_chunks, ChunkBuf, FrameAssembler};
pub use ledger::{Ledger, NodePhase, NodeUsage, PhaseKind, PhaseRecorder, PhaseReport};
pub use net::{Network, StreamRx, StreamTx};
pub use node::{Node, NodeId};
pub use profile::{EngineCosts, HardwareProfile, KernelRegime};
pub use shm::SharedMem;
pub use time::SimDuration;

use std::sync::Arc;

/// A simulated cluster: a set of nodes plus the network connecting them and
/// the hardware profile used to convert recorded work into simulated time.
///
/// Cloning is cheap (`Arc` internally); all engines share one cluster.
#[derive(Clone)]
pub struct SimCluster {
    inner: Arc<ClusterInner>,
}

struct ClusterInner {
    nodes: Vec<Arc<Node>>,
    network: Network,
    profile: HardwareProfile,
}

impl SimCluster {
    /// Build a cluster of `n` nodes using the given hardware profile.
    ///
    /// `threads_per_node` bounds the *real* worker threads backing each node's
    /// pool; it is independent of `profile.cores`, which drives the simulated
    /// time model. Tests typically use 2–4 real threads while modelling 24
    /// simulated cores.
    pub fn new(n: usize, profile: HardwareProfile, threads_per_node: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        assert!(threads_per_node > 0, "nodes need at least one thread");
        let nodes = (0..n)
            .map(|i| Arc::new(Node::new(NodeId(i), threads_per_node)))
            .collect();
        SimCluster {
            inner: Arc::new(ClusterInner {
                nodes,
                network: Network::new(n),
                profile,
            }),
        }
    }

    /// Convenience constructor: `n` nodes, paper-testbed profile, small real
    /// thread pools suitable for tests.
    pub fn for_tests(n: usize) -> Self {
        SimCluster::new(n, HardwareProfile::paper_testbed(), 2)
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.num_nodes()).map(NodeId).collect()
    }

    /// Access a node. Panics if the id is out of range (programming error).
    pub fn node(&self, id: NodeId) -> &Arc<Node> {
        &self.inner.nodes[id.0]
    }

    /// The shared network fabric.
    pub fn network(&self) -> &Network {
        &self.inner.network
    }

    /// The hardware profile this cluster simulates.
    pub fn profile(&self) -> &HardwareProfile {
        &self.inner.profile
    }

    /// Run one closure per node concurrently (one real OS thread each) and
    /// collect the results in node order. This is the primitive engines use
    /// for "every node does X with its local data" phases.
    pub fn scatter<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Arc<Node>) -> R + Sync,
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .inner
                .nodes
                .iter()
                .map(|node| scope.spawn(|| f(node)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("node task panicked"))
                .collect()
        })
    }
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("nodes", &self.num_nodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_runs_on_every_node() {
        let cluster = SimCluster::for_tests(4);
        let ids = cluster.scatter(|node| node.id().0);
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scatter_results_in_node_order_despite_concurrency() {
        let cluster = SimCluster::for_tests(8);
        for _ in 0..10 {
            let ids = cluster.scatter(|node| {
                // Induce scheduling jitter.
                std::thread::yield_now();
                node.id().0 * 10
            });
            assert_eq!(ids, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = SimCluster::new(0, HardwareProfile::paper_testbed(), 1);
    }
}
