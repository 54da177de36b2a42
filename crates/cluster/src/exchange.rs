//! All-to-all framed exchange: every node produces one frame list per
//! destination, ships them over the network fabric, and consumes the frames
//! the other nodes addressed to it.
//!
//! This is the shuffle substrate under the distributed JOIN and the shuffled
//! two-phase GROUP BY. It reuses the VFT wire format end to end — a 16-byte
//! stream header `[src u64 LE][dst u64 LE]` followed by `[len u64 LE][payload]`
//! frames, each staged through the producing node's shared memory and sent as
//! separate header and payload chunks so payload bytes stay refcounted
//! (`Bytes`) across the whole hop: producer → shm → wire → [`FrameAssembler`]
//! → consumer, with no intermediate copies. Network bytes are charged to the
//! supplied [`PhaseRecorder`]; loopback partitions move free, matching the
//! rest of the simulator.

use crate::error::{ClusterError, Result};
use crate::frame::{stream_chunks, FrameAssembler};
use crate::ledger::PhaseRecorder;
use crate::net::{StreamRx, StreamTx};
use crate::node::Node;
use crate::SimCluster;
use bytes::Bytes;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one node received from the exchange, plus wall-clock receive
/// telemetry (real time, not simulated — feeds `exchange.*` metrics only).
pub struct ExchangeRecv {
    /// `frames[src]` = the frames node `src` addressed to this node, in
    /// production order. Zero-copy slices of the wire chunks whenever frame
    /// boundaries line up with chunk boundaries (they do: senders emit each
    /// length header and each payload as its own chunk).
    pub frames: Vec<Vec<Bytes>>,
    /// Wall-clock nanoseconds this node spent blocked on `recv` across all
    /// inbound streams.
    pub wait_ns: u64,
    /// Total payload frames received (excluding headers).
    pub num_frames: u64,
    /// Total bytes received, headers and framing included.
    pub bytes: u64,
}

/// Run an all-to-all exchange: `produce` on every node returns one frame
/// list per destination node (outer index = destination) plus a local carry
/// of type `L` that skips the wire; `consume` then runs on every node with
/// its carry and everything the other nodes sent it.
///
/// Streams are pre-connected before the scatter, so the whole exchange is a
/// single parallel phase: each node stages its partitions through shared
/// memory, streams them out, then drains its own inbound streams in source
/// order. The channels are unbounded, so senders never block on receivers —
/// produce-send-then-drain cannot deadlock, and a producer that fails drops
/// its send handles early, which surfaces at every receiver as a
/// missing-header error rather than a hang.
pub fn exchange_framed<P, C, L, R>(
    cluster: &SimCluster,
    rec: &Arc<PhaseRecorder>,
    stage_key: &str,
    produce: P,
    consume: C,
) -> Result<Vec<R>>
where
    P: Fn(&Arc<Node>) -> Result<(Vec<Vec<Bytes>>, L)> + Sync,
    C: Fn(&Arc<Node>, L, ExchangeRecv) -> Result<R> + Sync,
    L: Send,
    R: Send,
{
    let n = cluster.num_nodes();
    let network = cluster.network();
    // Pre-connect the full N×N mesh. txs[src][dst] sends src → dst;
    // rxs[dst][src] is the matching receive end. Each node's handles are
    // parked in a mutex slot its scatter closure takes ownership of.
    let mut tx_slots: Vec<Vec<Option<StreamTx>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut rx_slots: Vec<Vec<Option<StreamRx>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for src in 0..n {
        for dst in 0..n {
            let (tx, rx) = network.connect(rec, crate::NodeId(src), crate::NodeId(dst))?;
            tx_slots[src][dst] = Some(tx);
            rx_slots[dst][src] = Some(rx);
        }
    }
    let tx_slots: Vec<Mutex<Vec<Option<StreamTx>>>> =
        tx_slots.into_iter().map(Mutex::new).collect();
    let rx_slots: Vec<Mutex<Vec<Option<StreamRx>>>> =
        rx_slots.into_iter().map(Mutex::new).collect();

    let results = cluster.scatter(|node| -> Result<R> {
        let me = node.id().0;
        let txs: Vec<StreamTx> = tx_slots[me]
            .lock()
            .expect("tx slot")
            .iter_mut()
            .map(|s| s.take().expect("each node takes its txs once"))
            .collect();
        let rxs: Vec<StreamRx> = rx_slots[me]
            .lock()
            .expect("rx slot")
            .iter_mut()
            .map(|s| s.take().expect("each node takes its rxs once"))
            .collect();

        let (parts, local) = produce(node)?;
        if parts.len() != n {
            return Err(ClusterError::Io(format!(
                "exchange produce on node {me} returned {} partitions for {n} nodes",
                parts.len()
            )));
        }
        // Stage each partition through shm (mirroring the VFT `/dev/shm`
        // hand-off) and stream it to its destination. Every destination gets
        // at least the 16-byte header, so receivers can tell "empty
        // partition" from "producer died".
        let shm = node.shm();
        for (dst, frames) in parts.into_iter().enumerate() {
            let key = format!("{stage_key}.{me}.{dst}");
            for chunk in stream_chunks(Some((me as u64, dst as u64)), frames) {
                shm.append_bytes(&key, chunk)?;
            }
            for chunk in shm.take_bytes(&key)? {
                txs[dst].send(chunk)?;
            }
        }
        drop(txs); // close outbound streams: receivers see end-of-stream

        // Drain inbound streams in source order, measuring wire wait.
        let mut recv = ExchangeRecv {
            frames: Vec::with_capacity(n),
            wait_ns: 0,
            num_frames: 0,
            bytes: 0,
        };
        for (src, rx) in rxs.iter().enumerate() {
            let mut asm = FrameAssembler::default();
            let mut frames = Vec::new();
            loop {
                let t0 = Instant::now();
                let chunk = rx.recv();
                recv.wait_ns += t0.elapsed().as_nanos() as u64;
                let Some(chunk) = chunk else { break };
                recv.bytes += chunk.len() as u64;
                asm.push(chunk);
                while let Some(frame) = asm.next_frame() {
                    recv.num_frames += 1;
                    frames.push(frame);
                }
            }
            let header = asm.finish()?;
            if header != (src as u64, me as u64) {
                return Err(ClusterError::Io(format!(
                    "exchange stream misrouted: header {header:?}, expected ({src}, {me})"
                )));
            }
            recv.frames.push(frames);
        }
        consume(node, local, recv)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::PhaseKind;

    fn rec(n: usize) -> Arc<PhaseRecorder> {
        Arc::new(PhaseRecorder::new("exchange", PhaseKind::Pipelined, n))
    }

    #[test]
    fn all_to_all_routes_every_frame_to_its_destination() {
        let cluster = SimCluster::for_tests(3);
        let r = rec(3);
        let out = exchange_framed(
            &cluster,
            &r,
            "test.x",
            |node| {
                let me = node.id().0;
                let parts = (0..3)
                    .map(|dst| vec![Bytes::from(format!("{me}->{dst}"))])
                    .collect();
                Ok((parts, format!("local{me}")))
            },
            |node, local, recv| {
                let me = node.id().0;
                assert_eq!(local, format!("local{me}"));
                assert_eq!(recv.frames.len(), 3);
                for (src, frames) in recv.frames.iter().enumerate() {
                    assert_eq!(frames.len(), 1);
                    assert_eq!(&frames[0][..], format!("{src}->{me}").as_bytes());
                }
                assert_eq!(recv.num_frames, 3);
                assert!(recv.bytes > 0);
                Ok(me)
            },
        )
        .unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn empty_partitions_are_distinguishable_from_failures() {
        let cluster = SimCluster::for_tests(2);
        let r = rec(2);
        let out = exchange_framed(
            &cluster,
            &r,
            "test.empty",
            |node| {
                // Only node 0 sends anything, and only to node 1.
                let me = node.id().0;
                let mut parts = vec![Vec::new(), Vec::new()];
                if me == 0 {
                    parts[1].push(Bytes::from_static(b"payload"));
                }
                Ok((parts, ()))
            },
            |_, _, recv| Ok(recv.frames.iter().map(Vec::len).collect::<Vec<_>>()),
        )
        .unwrap();
        assert_eq!(out[0], vec![0, 0]);
        assert_eq!(out[1], vec![1, 0]);
    }

    #[test]
    fn producer_errors_fail_the_whole_exchange() {
        let cluster = SimCluster::for_tests(3);
        let r = rec(3);
        let err = exchange_framed(
            &cluster,
            &r,
            "test.err",
            |node| {
                if node.id().0 == 1 {
                    Err(ClusterError::Io("boom".into()))
                } else {
                    Ok((vec![Vec::new(); 3], ()))
                }
            },
            |_, (), _| Ok(()),
        );
        assert!(err.is_err());
    }

    #[test]
    fn wrong_partition_count_is_rejected() {
        let cluster = SimCluster::for_tests(2);
        let r = rec(2);
        let err = exchange_framed(
            &cluster,
            &r,
            "test.count",
            |_| Ok((vec![Vec::new()], ())),
            |_, (), _| Ok(()),
        );
        assert!(err.is_err());
    }

    #[test]
    fn payload_bytes_cross_the_exchange_without_copies() {
        // A frame big enough that ChunkBuf alignment matters; assert the
        // received frame is the same allocation the producer sent.
        let cluster = SimCluster::for_tests(2);
        let r = rec(2);
        let payload = Bytes::from(vec![7u8; 4096]);
        let sent_ptr = payload.as_ptr() as usize;
        let out = exchange_framed(
            &cluster,
            &r,
            "test.zerocopy",
            |node| {
                let mut parts = vec![Vec::new(), Vec::new()];
                if node.id().0 == 0 {
                    parts[1].push(payload.clone());
                }
                Ok((parts, ()))
            },
            |node, (), recv| {
                if node.id().0 == 1 {
                    assert_eq!(recv.frames[0].len(), 1);
                    assert_eq!(recv.frames[0][0].as_ptr() as usize, sent_ptr);
                }
                Ok(())
            },
        );
        out.unwrap();
    }

    #[test]
    fn network_bytes_are_charged_and_loopback_is_free() {
        let cluster = SimCluster::for_tests(2);
        let r = rec(2);
        exchange_framed(
            &cluster,
            &r,
            "test.cost",
            |_| Ok((vec![vec![Bytes::from(vec![1u8; 1000])]; 2], ())),
            |_, (), _| Ok(()),
        )
        .unwrap();
        let report = Arc::into_inner(r).unwrap().finish(cluster.profile());
        for p in &report.nodes {
            // Each node sent ~1 KB to the *other* node (loopback not charged).
            assert!(
                p.usage.net_out_bytes >= 1000 && p.usage.net_out_bytes < 2200,
                "node {} charged {} B",
                p.node,
                p.usage.net_out_bytes
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Hash-partition → exchange → reassemble is a permutation of the
        /// input: every record lands on exactly the node its hash names, no
        /// record is lost or duplicated, and per-(src,dst) arrival order is
        /// production order — regardless of how records split into frames.
        #[test]
        fn hash_partition_exchange_is_a_stable_permutation(
            rows in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..200),
            nodes in 1usize..5,
        ) {
            let cluster = SimCluster::for_tests(nodes);
            let r = rec(nodes);
            let rows = Arc::new(rows);
            let rows_in = Arc::clone(&rows);
            let out = exchange_framed(
                &cluster,
                &r,
                "test.prop",
                move |node| {
                    // Deal rows round-robin to producers, route by hash.
                    let me = node.id().0;
                    let mut parts: Vec<Vec<Bytes>> = vec![Vec::new(); nodes];
                    for v in rows_in.iter().skip(me).step_by(nodes) {
                        let dst = (v % nodes as u64) as usize;
                        parts[dst].push(Bytes::from(v.to_le_bytes().to_vec()));
                    }
                    Ok((parts, ()))
                },
                |node, (), recv| {
                    let me = node.id().0 as u64;
                    let mut got = Vec::new();
                    for per_src in &recv.frames {
                        let mut prev: Option<u64> = None;
                        for f in per_src {
                            let v = u64::from_le_bytes(f[..].try_into().unwrap());
                            assert_eq!(v % nodes as u64, me, "misrouted record");
                            if let Some(p) = prev {
                                // Production order within one (src, dst)
                                // stream: this producer walked `rows` in
                                // index order.
                                let pi = rows.iter().position(|x| *x == p).unwrap();
                                let vi = rows.iter().rposition(|x| *x == v).unwrap();
                                assert!(pi <= vi, "stream reordered {p} after {v}");
                            }
                            prev = Some(v);
                            got.push(v);
                        }
                    }
                    Ok(got)
                },
            )
            .unwrap();
            let mut all: Vec<u64> = out.into_iter().flatten().collect();
            let mut expect = rows.to_vec();
            all.sort_unstable();
            expect.sort_unstable();
            proptest::prop_assert_eq!(all, expect);
        }
    }
}
