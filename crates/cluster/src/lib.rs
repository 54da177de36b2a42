//! # vdr-cluster — simulated cluster substrate
//!
//! The paper's evaluation runs on a 24-node cluster (24 hyper-threaded 2.67 GHz
//! cores, 196 GB RAM, SSD, full-bisection 10 Gbps Ethernet). This crate stands
//! in for that hardware: a [`SimCluster`] hosts N [`Node`]s inside one process,
//! each with an in-memory [`disk::SimDisk`], a `/dev/shm`-style staging area
//! ([`shm::SharedMem`]), and point-to-point [`net::Network`] links.
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
//!
//! Data moves between nodes two ways, both over [`frame`]'s wire format:
//! VFT's export lanes, and [`exchange_framed`], the all-to-all exchange the
//! query executor ships every shuffle and broadcast through. A gather to the
//! initiator is charged on the ledger by the executor that runs it; system
//! tables are gathered the same way as any other query's rows.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod disk;
pub mod error;
pub mod exchange;
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
    /// `_threads_per_node` is unused: a node's cores are `profile.cores`,
    /// which drives the simulated time model, and no engine runs a node's
    /// work on threads of its own. The argument stays so that existing
    /// callers, the benchmark among them, keep compiling.
    pub fn new(n: usize, profile: HardwareProfile, _threads_per_node: usize) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        let nodes = (0..n).map(|i| Arc::new(Node::new(NodeId(i)))).collect();
        SimCluster {
            inner: Arc::new(ClusterInner {
                nodes,
                network: Network::new(n),
                profile,
            }),
        }
    }

    /// Convenience constructor: `n` nodes with the paper-testbed profile.
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
    pub fn scatter<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&Arc<Node>) -> R + Sync,
    {
        let inputs = self.inner.nodes.iter().map(|_| ()).collect();
        self.scatter_each(inputs, |node, ()| f(node))
    }

    /// [`Self::scatter`] handing node *i* the *i*-th of `inputs`, owned. A
    /// node whose closure panicked fails the whole call with
    /// [`ClusterError::NodePanicked`] naming the first such node, after
    /// every node has finished; the other nodes' results are dropped.
    pub fn scatter_each<I, R, F>(&self, inputs: Vec<I>, f: F) -> Result<Vec<R>>
    where
        I: Send,
        R: Send,
        F: Fn(&Arc<Node>, I) -> R + Sync,
    {
        let nodes = &self.inner.nodes;
        if inputs.len() != nodes.len() {
            let (got, n) = (inputs.len(), nodes.len());
            return Err(ClusterError::Io(format!(
                "scatter got {got} inputs for {n} nodes"
            )));
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .iter()
                .zip(inputs)
                .map(|(node, input)| scope.spawn(move || f(node, input)))
                .collect();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let mut out = Vec::with_capacity(joined.len());
            for (i, r) in joined.into_iter().enumerate() {
                out.push(r.map_err(|_| ClusterError::NodePanicked { node: NodeId(i) })?);
            }
            Ok(out)
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_runs_on_every_node() {
        let cluster = SimCluster::for_tests(4);
        let ids = cluster.scatter(|node| node.id().0).unwrap();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scatter_results_in_node_order_despite_concurrency() {
        let cluster = SimCluster::for_tests(8);
        for _ in 0..10 {
            let ids = cluster
                .scatter(|node| {
                    // Induce scheduling jitter.
                    std::thread::yield_now();
                    node.id().0 * 10
                })
                .unwrap();
            assert_eq!(ids, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        }
    }

    /// A node whose closure panics fails the scatter with an error naming
    /// it; every other node still runs to the end, and its result is
    /// dropped, not leaked.
    #[test]
    fn a_panicking_node_is_an_error_naming_it() {
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
        let cluster = SimCluster::for_tests(4);
        let got = cluster.scatter(|node| {
            if node.id().0 == 2 {
                panic!("node 2 fails");
            }
            Counted
        });
        match got {
            Err(ClusterError::NodePanicked { node }) => assert_eq!(node, NodeId(2)),
            Err(other) => panic!("another error: {other}"),
            Ok(_) => panic!("a panicking node must fail the scatter"),
        }
        assert_eq!(DROPPED.load(Ordering::Relaxed), 3, "the other results drop");
        let err = cluster.scatter_each(vec![1, 2], |_, i| i).unwrap_err();
        assert!(err.to_string().contains("2 inputs for 4 nodes"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = SimCluster::new(0, HardwareProfile::paper_testbed(), 1);
    }
}
