//! Point-to-point streams between nodes.
//!
//! Data really moves (over in-process channels) so receivers see exactly the
//! bytes senders produced; the cost of the movement is charged to a
//! [`PhaseRecorder`] supplied when the stream is opened. Loopback streams
//! move data but cost no network time (the ledger ignores same-node
//! transfers).

use crate::error::{ClusterError, Result};
use crate::ledger::PhaseRecorder;
use crate::node::NodeId;
use bytes::Bytes;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// The cluster's network fabric. Full bisection bandwidth: any pair of nodes
/// can stream concurrently (the paper recommends 10 GbE, Section 2).
pub struct Network {
    num_nodes: usize,
}

impl Network {
    pub fn new(num_nodes: usize) -> Self {
        Network { num_nodes }
    }

    /// Open a byte stream from `src` to `dst`, charging connection latency
    /// and per-chunk bytes to `rec`.
    pub fn connect(
        &self,
        rec: &Arc<PhaseRecorder>,
        src: NodeId,
        dst: NodeId,
    ) -> Result<(StreamTx, StreamRx)> {
        for node in [src, dst] {
            if node.0 >= self.num_nodes {
                return Err(ClusterError::NoSuchNode {
                    node,
                    cluster_size: self.num_nodes,
                });
            }
        }
        let (tx, rx) = channel();
        Ok((
            StreamTx {
                tx,
                src,
                dst,
                rec: Arc::clone(rec),
            },
            StreamRx { rx },
        ))
    }
}

/// Sending half of a stream. Dropping it closes the stream; the receiver
/// drains buffered chunks and then sees end-of-stream.
pub struct StreamTx {
    tx: Sender<Bytes>,
    src: NodeId,
    dst: NodeId,
    rec: Arc<PhaseRecorder>,
}

impl StreamTx {
    /// Send one chunk. Fails if the receiver hung up.
    pub fn send(&self, chunk: Bytes) -> Result<()> {
        self.rec.net(self.src, self.dst, chunk.len() as u64);
        self.tx.send(chunk).map_err(|_| ClusterError::StreamClosed)
    }

    pub fn src(&self) -> NodeId {
        self.src
    }

    pub fn dst(&self) -> NodeId {
        self.dst
    }
}

/// Receiving half of a stream.
pub struct StreamRx {
    rx: Receiver<Bytes>,
}

impl StreamRx {
    /// Next chunk, or `None` once the sender is dropped and the buffer is
    /// drained.
    pub fn recv(&self) -> Option<Bytes> {
        self.rx.recv().ok()
    }

    /// Drain the whole stream into one buffer.
    pub fn recv_all(&self) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(chunk) = self.recv() {
            out.extend_from_slice(&chunk);
        }
        out
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods
)]
mod tests {
    use super::*;
    use crate::ledger::PhaseKind;
    use crate::profile::HardwareProfile;

    fn rec() -> Arc<PhaseRecorder> {
        Arc::new(PhaseRecorder::new("t", PhaseKind::Sequential, 4))
    }

    #[test]
    fn bytes_arrive_in_order() {
        let net = Network::new(4);
        let r = rec();
        let (tx, rx) = net.connect(&r, NodeId(0), NodeId(1)).unwrap();
        tx.send(Bytes::from_static(b"one")).unwrap();
        tx.send(Bytes::from_static(b"two")).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"one"));
        assert_eq!(rx.recv().unwrap(), Bytes::from_static(b"two"));
        assert!(rx.recv().is_none());
    }

    #[test]
    fn transfer_charges_ledger() {
        let net = Network::new(4);
        let r = rec();
        let (tx, rx) = net.connect(&r, NodeId(0), NodeId(2)).unwrap();
        tx.send(Bytes::from(vec![0u8; 1_150_000_000 / 1000]))
            .unwrap();
        drop(tx);
        let _ = rx.recv_all();
        let p = HardwareProfile::paper_testbed();
        // 1.15 MB at 1.15 GB/s = 1 ms.
        let d = r.duration(&p);
        assert!((d.as_millis() - 1.0).abs() < 0.01, "{d}");
    }

    #[test]
    fn loopback_moves_data_but_costs_nothing() {
        let net = Network::new(2);
        let r = rec();
        let (tx, rx) = net.connect(&r, NodeId(1), NodeId(1)).unwrap();
        tx.send(Bytes::from_static(b"local")).unwrap();
        drop(tx);
        assert_eq!(rx.recv_all(), b"local");
        let p = HardwareProfile::paper_testbed();
        assert!(r.duration(&p).is_zero());
    }

    #[test]
    fn invalid_node_rejected() {
        let net = Network::new(2);
        let r = rec();
        let err = match net.connect(&r, NodeId(0), NodeId(9)) {
            Err(e) => e,
            Ok(_) => panic!("connect to nonexistent node succeeded"),
        };
        assert!(matches!(err, ClusterError::NoSuchNode { node, .. } if node == NodeId(9)));
    }

    #[test]
    fn cross_thread_streaming() {
        let net = Network::new(2);
        let r = rec();
        let (tx, rx) = net.connect(&r, NodeId(0), NodeId(1)).unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..100u8 {
                tx.send(Bytes::from(vec![i; 10])).unwrap();
            }
        });
        let all = rx.recv_all();
        handle.join().unwrap();
        assert_eq!(all.len(), 1000);
        assert_eq!(all[995], 99);
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let net = Network::new(2);
        let r = rec();
        let (tx, rx) = net.connect(&r, NodeId(0), NodeId(1)).unwrap();
        drop(rx);
        assert_eq!(
            tx.send(Bytes::from_static(b"x")).unwrap_err(),
            ClusterError::StreamClosed
        );
    }
}
