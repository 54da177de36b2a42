//! Cluster-wide framed gather: every node produces frames, stages them in
//! shared memory, and streams them to the initiator over the network fabric.
//!
//! This is the fetch half of the VFT wire protocol (PR 5) lifted into the
//! cluster substrate so layers *below* the transfer crate can use it — the
//! monitor uses it to materialize `v_monitor` tables as a union across
//! nodes. The framing is identical to the VFT streams: a 16-byte stream
//! header `[src u64 LE][instance u64 LE]` followed by `[len u64 LE][payload]`
//! frames, each sent as separate header and payload chunks so payload bytes
//! stay refcounted (`Bytes`) end to end. Network bytes are charged to the
//! supplied [`PhaseRecorder`]; loopback (node 0 → node 0) moves data free,
//! matching the rest of the simulator.

use crate::error::Result;
use crate::frame::{stream_chunks, FrameAssembler};
use crate::ledger::PhaseRecorder;
use crate::node::{Node, NodeId};
use crate::SimCluster;
use bytes::Bytes;
use std::sync::Arc;

/// Run `produce` on every node in parallel, stream each node's frames to
/// node 0, and return the reassembled frames in node order
/// (`result[n]` = node `n`'s frames, in production order).
///
/// `produce` returns the frames a node contributes (possibly empty); an
/// error from any node fails the whole gather. Frames are staged through the
/// producing node's shared memory under `stage_key` (mirroring the
/// `/dev/shm` staging of the VFT path) before being framed onto the wire.
pub fn gather_framed<F>(
    cluster: &SimCluster,
    rec: &Arc<PhaseRecorder>,
    stage_key: &str,
    produce: F,
) -> Result<Vec<Vec<Bytes>>>
where
    F: Fn(&Arc<Node>) -> Result<Vec<Bytes>> + Sync,
{
    let initiator = NodeId(0);
    // Scatter: each node produces, stages, frames, and sends. The channels
    // are unbounded, so senders never block on the initiator draining —
    // scatter-then-drain cannot deadlock.
    let streams = cluster.scatter(|node| -> Result<crate::net::StreamRx> {
        let frames = produce(node)?;
        let shm = node.shm();
        let key = format!("{stage_key}.{}", node.id().0);
        for chunk in stream_chunks(Some((node.id().0 as u64, 0)), frames) {
            shm.append_bytes(&key, chunk)?;
        }
        let staged = shm.take_bytes(&key)?;
        let (tx, rx) = cluster.network().connect(rec, node.id(), initiator)?;
        for chunk in staged {
            tx.send(chunk)?;
        }
        Ok(rx)
    });
    // Drain on the initiator, in node order.
    let mut out = Vec::with_capacity(streams.len());
    for rx in streams {
        let rx = rx?;
        let mut asm = FrameAssembler::default();
        let mut frames = Vec::new();
        while let Some(chunk) = rx.recv() {
            asm.push(chunk);
            while let Some(frame) = asm.next_frame() {
                frames.push(frame);
            }
        }
        asm.finish()?;
        out.push(frames);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::PhaseKind;

    #[test]
    fn gathers_frames_from_every_node_in_order() {
        let cluster = SimCluster::for_tests(3);
        let rec = Arc::new(PhaseRecorder::new(
            "gather",
            PhaseKind::Sequential,
            cluster.num_nodes(),
        ));
        let gathered = gather_framed(&cluster, &rec, "test.gather", |node| {
            let n = node.id().0;
            Ok((0..=n)
                .map(|i| Bytes::from(format!("node{n}.frame{i}").into_bytes()))
                .collect())
        })
        .unwrap();
        assert_eq!(gathered.len(), 3);
        for (n, frames) in gathered.iter().enumerate() {
            assert_eq!(frames.len(), n + 1, "node {n} frame count");
            assert_eq!(&frames[0][..], format!("node{n}.frame0").as_bytes());
        }
        // Remote nodes were charged network bytes; node 0 was loopback.
        let report = Arc::into_inner(rec).unwrap().finish(cluster.profile());
        let by_node = &report.nodes;
        assert!(by_node
            .iter()
            .any(|p| p.node == 1 && p.usage.net_out_bytes > 0));
        assert_eq!(
            by_node
                .iter()
                .find(|p| p.node == 0)
                .map(|p| p.usage.net_out_bytes),
            Some(0),
            "loopback is free"
        );
    }

    #[test]
    fn empty_producers_contribute_empty_frame_lists() {
        let cluster = SimCluster::for_tests(2);
        let rec = Arc::new(PhaseRecorder::new("gather", PhaseKind::Sequential, 2));
        let gathered = gather_framed(&cluster, &rec, "test.empty", |node| {
            if node.id().0 == 0 {
                Ok(vec![Bytes::from_static(b"only-node-0")])
            } else {
                Ok(Vec::new())
            }
        })
        .unwrap();
        assert_eq!(gathered[0].len(), 1);
        assert!(gathered[1].is_empty());
    }

    #[test]
    fn producer_errors_fail_the_gather() {
        let cluster = SimCluster::for_tests(2);
        let rec = Arc::new(PhaseRecorder::new("gather", PhaseKind::Sequential, 2));
        let err = gather_framed(&cluster, &rec, "test.err", |node| {
            if node.id().0 == 1 {
                Err(crate::error::ClusterError::Io("boom".into()))
            } else {
                Ok(Vec::new())
            }
        });
        assert!(err.is_err());
    }
}
