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
//! Every thread that does a node's work starts in [`SimCluster::run_on`],
//! which carries the calling statement's query context onto it.
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

    /// [`Self::run_on`] every node, in node order.
    pub fn scatter<R, F>(&self, f: F) -> Result<Vec<R>>
    where
        R: Send,
        F: Fn(&Arc<Node>) -> R + Sync,
    {
        let inputs = vec![(); self.num_nodes()];
        self.run_on(&self.node_ids(), inputs, |node, ()| f(node), None)
    }

    /// The one fan-out of per-node work: `f(node, input)` for each of
    /// `inputs` on a thread of its own, the *i*-th on `nodes[i]` (a subset
    /// of the cluster, repeats allowed), results in input order. Each thread
    /// enters the caller's query context [`on`](vdr_obs::QueryContext::on)
    /// its node; span parents stay explicit. `meanwhile` runs on the calling
    /// thread, in the caller's context, while the nodes work. A panic fails
    /// the call with [`ClusterError::NodePanicked`] naming the first such
    /// input and its node, once every input has finished.
    #[allow(clippy::disallowed_methods, reason = "the one fan-out")]
    pub fn run_on<I: Send, R: Send>(
        &self,
        nodes: &[NodeId],
        inputs: Vec<I>,
        f: impl Fn(&Arc<Node>, I) -> R + Sync,
        meanwhile: Option<&mut dyn FnMut()>,
    ) -> Result<Vec<R>> {
        let (got, n, cluster_size) = (inputs.len(), nodes.len(), self.num_nodes());
        if got != n {
            let msg = format!("run_on got {got} inputs for {n} nodes");
            return Err(ClusterError::Io(msg));
        }
        let find = |&node: &NodeId| {
            let found = self.inner.nodes.get(node.0);
            found.ok_or(ClusterError::NoSuchNode { node, cluster_size })
        };
        let nodes = nodes.iter().map(find).collect::<Result<Vec<_>>>()?;
        let (f, query) = (&f, &vdr_obs::query::current());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (nodes.iter().zip(inputs))
                .map(|(&node, input)| {
                    scope.spawn(move || {
                        let _q = vdr_obs::QueryScope::enter(query.on(node.id().0));
                        f(node, input)
                    })
                })
                .collect();
            if let Some(meanwhile) = meanwhile {
                meanwhile();
            }
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let ran = joined.into_iter().zip(&nodes).enumerate();
            ran.map(|(input, (r, n))| {
                r.map_err(|_| ClusterError::NodePanicked {
                    node: n.id(),
                    input,
                })
            })
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use vdr_obs::Verbosity;

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
            Err(ClusterError::NodePanicked { node, input }) => {
                assert_eq!((node, input), (NodeId(2), 2))
            }
            Err(other) => panic!("another error: {other}"),
            Ok(_) => panic!("a panicking node must fail the scatter"),
        }
        assert_eq!(DROPPED.load(Ordering::Relaxed), 3, "the other results drop");
    }

    fn ids(nodes: &[usize]) -> Vec<NodeId> {
        nodes.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn run_on_a_subset_with_a_repeated_node_answers_in_input_order() {
        let cluster = SimCluster::for_tests(4);
        let nodes = ids(&[2, 0, 2, 3]);
        let got = cluster
            .run_on(
                &nodes,
                vec![10, 20, 30, 40],
                |node, i| (node.id().0, i),
                None,
            )
            .unwrap();
        assert_eq!(got, vec![(2, 10), (0, 20), (2, 30), (3, 40)]);
    }

    /// Each node thread records into the caller's query context, on its own
    /// node: the caller's sink holds every thread's counter, by node.
    #[test]
    fn run_on_carries_the_callers_query_context_onto_each_node() {
        let cluster = SimCluster::for_tests(3);
        let id = vdr_obs::next_query_id();
        let open = vdr_obs::QueryContext::open(id, Verbosity::Summary);
        let _q = vdr_obs::QueryScope::enter(open);
        let seen = cluster
            .run_on(
                &ids(&[1, 2, 1]),
                vec![1, 10, 100],
                |_, add| {
                    let node = vdr_obs::current_node().unwrap();
                    vdr_obs::counter_on("cluster.test.run_on", node, add);
                    (vdr_obs::current_query_id(), node)
                },
                None,
            )
            .unwrap();
        assert_eq!(seen, vec![(id, 1), (id, 2), (id, 1)]);
        let own = vdr_obs::query::current().metrics();
        let by_node = own.counter_by_node("cluster.test.run_on");
        assert_eq!((by_node[&Some(1)], by_node[&Some(2)]), (101, 10));
        assert_eq!(vdr_obs::current_node(), None);
    }

    /// `meanwhile` runs on the calling thread, in its context and on no
    /// node, while the node threads wait for what it sends them.
    #[test]
    fn meanwhile_feeds_the_nodes_from_the_calling_thread() {
        let cluster = SimCluster::for_tests(2);
        let id = vdr_obs::next_query_id();
        let open = vdr_obs::QueryContext::open(id, Verbosity::Summary);
        let _q = vdr_obs::QueryScope::enter(open);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| mpsc::channel::<usize>()).unzip();
        let mut fed_from = None;
        let mut feed = || {
            fed_from = Some((vdr_obs::current_query_id(), vdr_obs::current_node()));
            vdr_obs::counter("cluster.test.meanwhile", 1);
            for (i, tx) in txs.iter().enumerate() {
                tx.send(i * 7).unwrap();
            }
        };
        let got = cluster
            .run_on(
                &ids(&[0, 1, 0]),
                rxs,
                |_, rx| rx.recv().unwrap(),
                Some(&mut feed),
            )
            .unwrap();
        assert_eq!(got, vec![0, 7, 14]);
        assert_eq!(fed_from, Some((id, None)));
        let own = vdr_obs::query::current().metrics();
        let by_node = own.counter_by_node("cluster.test.meanwhile");
        assert_eq!(by_node.into_iter().collect::<Vec<_>>(), vec![(None, 1)]);
    }

    /// A panic names its input's position and node, and is reported only
    /// once every other input has run to the end: the others wait for the
    /// panicking input to drop their senders as it unwinds.
    #[test]
    fn a_panicking_input_is_named_by_position_and_node() {
        let cluster = SimCluster::for_tests(4);
        let finished = AtomicUsize::new(0);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| mpsc::channel::<()>()).unzip();
        let mut inputs: Vec<_> = rxs.into_iter().map(Ok).collect();
        inputs.insert(2, Err(txs));
        let got = cluster.run_on(
            &ids(&[1, 3, 3, 0]),
            inputs,
            |_, input| match input {
                Ok(rx) => {
                    assert!(rx.recv().is_err(), "nothing is sent, the sender drops");
                    finished.fetch_add(1, Ordering::Relaxed);
                }
                Err(_senders) => panic!("input 2 fails"),
            },
            None,
        );
        let err = got.unwrap_err();
        let expect = ClusterError::NodePanicked {
            node: NodeId(3),
            input: 2,
        };
        assert_eq!(err, expect);
        assert!(err.to_string().contains("node 3") && err.to_string().contains("input 2"));
        assert_eq!(finished.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_on_refuses_a_mismatched_or_unknown_node_list() {
        let cluster = SimCluster::for_tests(4);
        let err = cluster.run_on(&ids(&[0, 1, 2, 3]), vec![1, 2], |_, i| i, None);
        let err = err.unwrap_err();
        assert!(matches!(err, ClusterError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("2 inputs for 4 nodes"), "{err}");
        let err = cluster.run_on(&ids(&[4]), vec![()], |_, ()| (), None);
        let expect = ClusterError::NoSuchNode {
            node: NodeId(4),
            cluster_size: 4,
        };
        assert_eq!(err.unwrap_err(), expect);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = SimCluster::new(0, HardwareProfile::paper_testbed(), 1);
    }
}
