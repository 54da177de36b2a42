//! Vertica Fast Transfer (Section 3).
//!
//! One SQL query (Figure 4) starts the whole transfer:
//!
//! ```sql
//! SELECT ExportToDistributedR(col1, col2 USING PARAMETERS
//!        transfer='7', workers='0,1,2', policy='locality', psize=100000)
//! OVER (PARTITION BEST) FROM mytable
//! ```
//!
//! The query planner spawns UDx instances on every database node; each reads
//! only node-local segment containers, buffers about `psize` rows, encodes a
//! binary columnar block, and streams it to its target Distributed R
//! worker(s) according to the distribution policy (Figures 5 and 6).
//!
//! ## The pipelined receive path
//!
//! Worker receive pools do not wait for the export query to finish before
//! touching the bytes. Each accepted stream is drained chunk by chunk: the
//! chunk is staged zero-copy in shared memory (`/dev/shm`, Section 3.3), fed
//! to an incremental [`FrameAssembler`], and every completed frame is decoded
//! into a columnar [`Batch`] *on the spot* — so the database-side export and
//! the client-side conversion overlap instead of running back to back. The
//! wire format is a 16-byte stream header `[src u64 LE][instance u64 LE]`
//! followed by frames of `[len u64 LE][block]`; senders emit the length
//! header and the encoded block as two separate chunks (a vectored write),
//! so the assembler's zero-copy fast path — slicing a frame straight out of
//! one chunk — is also the common path, and no per-block framing copy is
//! made on either side.
//!
//! Decoded streams are sorted by `(source node, instance)` so conversion
//! order is deterministic; the final assembly into [`DArray`]/[`DFrame`]
//! partitions runs on the workers ([`DistributedR::run_on_workers`]) with
//! per-batch / per-column work fanned across each worker's instance lanes.
//!
//! The receive pools' measured behaviour surfaces twice: wall-clock wait and
//! decode time go to the `vft.receive.*` metrics, while the simulated-time
//! gap between the `vft db` and `vft r` phases — the part of the export the
//! client could not overlap — is reported as
//! [`TransferReport::queue_time`].

use crate::report::TransferReport;
use crate::{check_features, gather_f64_rows};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::{
    stream_chunks, FrameAssembler, NodeId, PhaseKind, PhaseRecorder, SharedMem, StreamRx,
};
use vdr_columnar::{decode_batch, encode_batch, Batch, Column, DataType, Schema};
use vdr_distr::{DArray, DFrame, DistributedR};
use vdr_verticadb::{DbError, Result, TransformFunction, UdxContext, VerticaDb};

/// How exported data spreads over Distributed R workers (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferPolicy {
    /// One-to-one mapping from database nodes to workers: "all UDF instances
    /// executing on Vertica node 1 will send data to Distributed R worker 1"
    /// (Figure 5). Minimizes network traffic when co-located, but inherits
    /// any segment skew.
    Locality,
    /// Round-robin sprinkling so every worker ends up with the same amount
    /// of data regardless of segmentation (Figure 6).
    Uniform,
}

impl TransferPolicy {
    pub fn as_param(self) -> &'static str {
        match self {
            TransferPolicy::Locality => "locality",
            TransferPolicy::Uniform => "uniform",
        }
    }

    fn from_param(s: &str) -> Result<Self> {
        match s {
            "locality" => Ok(TransferPolicy::Locality),
            "uniform" => Ok(TransferPolicy::Uniform),
            other => Err(DbError::Plan(format!("unknown transfer policy '{other}'"))),
        }
    }
}

// ----------------------------------------------------------------- the hub

/// The rendezvous between export UDx instances (connecting out of the
/// database) and worker receive pools (listening). Plays the role of the
/// workers' listening sockets.
struct ExportHub {
    listeners: Mutex<HashMap<(u64, usize), Sender<StreamRx>>>,
    /// Cluster-unique transfer ids: the hub is shared by every session on a
    /// database, so ids never collide across concurrent sessions.
    next_transfer: AtomicU64,
}

impl ExportHub {
    fn new() -> Self {
        ExportHub {
            listeners: Mutex::new(HashMap::new()),
            next_transfer: AtomicU64::new(1),
        }
    }

    /// Worker `w` starts listening for transfer `id`.
    fn listen(&self, id: u64, worker: usize) -> Receiver<StreamRx> {
        let (tx, rx) = unbounded();
        self.listeners.lock().insert((id, worker), tx);
        rx
    }

    /// A UDx instance connects to worker `w` of transfer `id`.
    fn connect(
        &self,
        ctx: &UdxContext<'_>,
        id: u64,
        worker: usize,
        worker_node: NodeId,
    ) -> Result<vdr_cluster::StreamTx> {
        let accept = self
            .listeners
            .lock()
            .get(&(id, worker))
            .cloned()
            .ok_or_else(|| {
                DbError::Exec(format!("transfer {id}: worker {worker} not listening"))
            })?;
        let (tx, rx) = ctx
            .cluster
            .network()
            .connect(ctx.rec, ctx.node, worker_node)?;
        ctx.rec.fixed(ctx.node, ctx.cluster.profile().net_latency);
        accept
            .send(rx)
            .map_err(|_| DbError::Exec(format!("transfer {id}: worker {worker} hung up")))?;
        Ok(tx)
    }

    /// End of transfer: stop accepting new streams.
    fn close(&self, id: u64) {
        self.listeners.lock().retain(|(t, _), _| *t != id);
    }
}

// ------------------------------------------------------- framing / receive

/// Callback invoked inside a worker's receive pool immediately after each
/// frame decodes — while the export query may still be producing. Arguments
/// are `(worker, source node, source instance, batch)`. This is the
/// train-while-loading hook (see [`crate::train`]): per-batch statistics
/// folded here overlap the database-side export instead of running after
/// it. Runs on pool threads, so it must be `Send + Sync`; keep per-call work
/// proportional to the batch or it will stall the decode loop.
pub type BatchObserver = Arc<dyn Fn(usize, u64, u64, &Batch) + Send + Sync>;

/// Node-local flavor used inside the receive path: `(frame_seq, decode_ns,
/// batch)` for one stream, with the partition index already bound.
type FrameObserver<'a> = &'a dyn Fn(u64, u64, &Batch);

/// Reference framing from the staged-era path: copy the block behind a
/// length header into one buffer. The live sender now ships header and block
/// as two chunks instead; tests keep this as the known-good oracle.
#[cfg(test)]
fn frame_block(block: &bytes::Bytes) -> bytes::Bytes {
    let mut framed = Vec::with_capacity(block.len() + 8);
    framed.extend_from_slice(&(block.len() as u64).to_le_bytes());
    framed.extend_from_slice(block);
    bytes::Bytes::from(framed)
}

/// Whole-stream splitter over a fully buffered stream body; the reference
/// the incremental [`FrameAssembler`] is tested against.
#[cfg(test)]
fn deframe(data: &[u8]) -> Result<Vec<&[u8]>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        if pos + 8 > data.len() {
            return Err(DbError::Exec("truncated frame header".into()));
        }
        let len = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8 bytes")) as usize;
        pos += 8;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= data.len())
            .ok_or_else(|| DbError::Exec("truncated frame body".into()))?;
        out.push(&data[pos..end]);
        pos = end;
    }
    Ok(out)
}

// `ChunkBuf`/`FrameAssembler` (the incremental receive half of this wire
// format) live in `vdr_cluster::frame` since the exchange layer shares them.

/// Wall-clock receive-pool measurements (real time, not simulated): time
/// spent waiting on the wire vs. decoding, and frames decoded. These feed
/// the `vft.receive.*` metrics only — simulated phase totals stay
/// deterministic.
#[derive(Default, Clone, Copy)]
struct RecvWall {
    wait_ns: u64,
    decode_ns: u64,
    /// Time spent inside a [`BatchObserver`] (kept out of `decode_ns` so the
    /// decode metrics stay comparable whether or not an observer is set).
    observe_ns: u64,
    frames: u64,
}

impl RecvWall {
    fn absorb(&mut self, other: RecvWall) {
        self.wait_ns += other.wait_ns;
        self.decode_ns += other.decode_ns;
        self.observe_ns += other.observe_ns;
        self.frames += other.frames;
    }
}

/// One accepted stream, fully received and decoded: the exporting
/// `(node, instance)` from its header and its blocks in arrival order.
struct ReceivedStream {
    src: u64,
    inst: u64,
    batches: Vec<Batch>,
}

/// Drain one accepted stream: stage each chunk zero-copy in shared memory,
/// feed it to the frame assembler, and decode every completed frame on the
/// spot, charging the decode to `r_rec` so the `vft r` phase accounts for
/// all conversion cpu. Staged bytes are released when the stream ends —
/// including on error, so a failed stream leaves nothing behind.
#[allow(clippy::too_many_arguments)]
fn receive_stream(
    shm: &SharedMem,
    key: &str,
    rx: &StreamRx,
    r_rec: &PhaseRecorder,
    node: NodeId,
    convert_cost: f64,
    wall: &mut RecvWall,
    observer: Option<FrameObserver>,
) -> Result<(u64, u64, Vec<Batch>)> {
    let out = drain_stream(shm, key, rx, r_rec, node, convert_cost, wall, observer);
    if out.is_err() {
        // Best effort: free whatever the failed stream had staged.
        let _ = shm.take_bytes(key);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn drain_stream(
    shm: &SharedMem,
    key: &str,
    rx: &StreamRx,
    r_rec: &PhaseRecorder,
    node: NodeId,
    convert_cost: f64,
    wall: &mut RecvWall,
    observer: Option<FrameObserver>,
) -> Result<(u64, u64, Vec<Batch>)> {
    let mut asm = FrameAssembler::default();
    let mut batches = Vec::new();
    loop {
        let waited = Instant::now();
        let Some(chunk) = rx.recv() else { break };
        wall.wait_ns += waited.elapsed().as_nanos() as u64;
        shm.append_bytes(key, chunk.clone())
            .map_err(DbError::from)?;
        let decoding = Instant::now();
        asm.push(chunk);
        let mut observed = 0u64;
        while let Some(frame) = asm.next_frame() {
            let batch = decode_batch(&frame)?;
            r_rec.cpu_work(node, batch.num_values() as f64, convert_cost);
            wall.frames += 1;
            if let Some(obs) = observer {
                // The 16-byte stream header parses before the first frame,
                // so the exporting (node, instance) identity is known here.
                let (src, inst) = asm.header().expect("header precedes frames");
                let t = Instant::now();
                obs(src, inst, &batch);
                observed += t.elapsed().as_nanos() as u64;
            }
            batches.push(batch);
        }
        wall.observe_ns += observed;
        wall.decode_ns += (decoding.elapsed().as_nanos() as u64).saturating_sub(observed);
    }
    let header = asm.finish()?;
    // Every frame is decoded; the staged file has served its purpose.
    shm.take_bytes(key).map_err(DbError::from)?;
    Ok((header.0, header.1, batches))
}

// ----------------------------------------------------------- the UDx side

/// The `ExportToDistributedR` transform function.
struct ExportToDistributedR {
    hub: Arc<ExportHub>,
}

impl TransformFunction for ExportToDistributedR {
    fn name(&self) -> &str {
        "ExportToDistributedR"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn output_schema(&self, _input: &Schema, _params: &BTreeMap<String, String>) -> Result<Schema> {
        // One row per UDx instance reporting how many rows it exported.
        Ok(Schema::of(&[("rows_exported", DataType::Int64)]))
    }

    fn process_partition(
        &self,
        ctx: &UdxContext<'_>,
        input: Vec<Batch>,
        emit: &mut dyn FnMut(Batch),
    ) -> Result<()> {
        let transfer: u64 = ctx
            .param("transfer")?
            .parse()
            .map_err(|_| DbError::Plan("bad transfer id".into()))?;
        let policy = TransferPolicy::from_param(ctx.param("policy")?)?;
        let psize: usize = ctx.param_as::<usize>("psize")?.unwrap_or(100_000).max(1);
        // Worker endpoints: cluster node ids in worker-index order.
        let worker_nodes: Vec<NodeId> = ctx
            .param("workers")?
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map(NodeId)
                    .map_err(|_| DbError::Plan(format!("bad worker node id '{s}'")))
            })
            .collect::<Result<Vec<_>>>()?;
        if worker_nodes.is_empty() {
            return Err(DbError::Plan("no workers listed".into()));
        }

        let mut export_span = vdr_obs::span("vft.export");
        export_span.set_node(ctx.node.0);
        export_span.record("instance", ctx.instance);
        export_span.record("policy", policy.as_param());

        let export_cost = ctx.cluster.profile().costs.vft_export_ns_per_value;
        let nworkers = worker_nodes.len();
        // Locality: this node's data goes to "its" worker. When node counts
        // differ, fold by modulo (the policy "is used when Vertica and
        // Distributed R have the same number of nodes").
        let home_worker = worker_nodes
            .iter()
            .position(|&n| n == ctx.node)
            .unwrap_or(ctx.node.0 % nworkers);

        let mut streams: HashMap<usize, vdr_cluster::StreamTx> = HashMap::new();
        // Stagger round-robin starts across nodes and instances so worker 0
        // isn't hit by every exporter's first block.
        let mut rr = (ctx.node.0 * 31 + ctx.instance * 7) % nworkers;
        let mut buffer: Option<Batch> = None;
        let mut exported_rows = 0i64;

        // Ship one ≈psize-row block to the policy's next target. Blocks are
        // psize-granular (not container-granular) so the uniform policy
        // sprinkles evenly even when containers are large.
        let send_block = |block_batch: Batch,
                          rr: &mut usize,
                          streams: &mut HashMap<usize, vdr_cluster::StreamTx>|
         -> Result<()> {
            if block_batch.num_rows() == 0 {
                return Ok(());
            }
            let block_rows = block_batch.num_rows() as u64;
            // Serializing the buffered batch is the export work the paper
            // attributes to the database: decompress, convert, serialize.
            ctx.rec
                .cpu_work(ctx.node, block_batch.num_values() as f64, export_cost);
            let encoded = encode_batch(&block_batch);
            vdr_obs::counter_on("vft.segment.rows", ctx.node.0, block_rows);
            vdr_obs::counter_on("vft.segment.bytes", ctx.node.0, (encoded.len() + 8) as u64);
            let target = match policy {
                TransferPolicy::Locality => home_worker,
                TransferPolicy::Uniform => {
                    let t = *rr;
                    *rr = (*rr + 1) % nworkers;
                    t
                }
            };
            // Rows landing per worker node: the policy-skew signal (locality
            // inherits segment skew; uniform should flatten it).
            vdr_obs::counter_on("vft.worker.rows", worker_nodes[target].0, block_rows);
            let mut header = None;
            if let std::collections::hash_map::Entry::Vacant(e) = streams.entry(target) {
                e.insert(
                    self.hub
                        .connect(ctx, transfer, target, worker_nodes[target])?,
                );
                // Stream header: (source node, instance). Receivers sort
                // accepted streams by it so conversion order is
                // deterministic — two transfers of the same table then
                // produce identically ordered partitions, which keeps
                // separately loaded X and Y arrays row-aligned.
                header = Some((ctx.node.0 as u64, ctx.instance as u64));
            }
            // Vectored write: the 8-byte length header and the encoded block
            // go out as two chunks, so the block bytes are the encoder's
            // buffer all the way to the receiver — no framing copy.
            let tx = streams.get(&target).expect("stream just inserted");
            for chunk in stream_chunks(header, [encoded]) {
                tx.send(chunk).map_err(DbError::from)?;
            }
            Ok(())
        };

        for batch in input {
            exported_rows += batch.num_rows() as i64;
            match &mut buffer {
                None => buffer = Some(batch),
                Some(b) => b.extend(&batch)?,
            }
            // Drain full psize blocks from the buffer.
            while buffer.as_ref().is_some_and(|b| b.num_rows() >= psize) {
                let b = buffer.take().expect("checked above");
                let head = b.slice(0, psize);
                let rest = b.slice(psize, b.num_rows());
                if rest.num_rows() > 0 {
                    buffer = Some(rest);
                }
                send_block(head, &mut rr, &mut streams)?;
            }
        }
        if let Some(b) = buffer.take() {
            send_block(b, &mut rr, &mut streams)?;
        }
        export_span.record("rows", exported_rows);

        emit(Batch::new(
            Schema::of(&[("rows_exported", DataType::Int64)]),
            vec![Column::from_i64(vec![exported_rows])],
        )?);
        Ok(())
    }
}

/// Register `ExportToDistributedR` with the database and return the transfer
/// API bound to it. Idempotent: if the function is already installed (e.g.
/// by another session on the same database), the existing hub is shared —
/// concurrent sessions must rendezvous through one hub.
pub fn install_export_function(db: &VerticaDb) -> FastTransfer {
    if let Ok(existing) = db.udx().get("ExportToDistributedR") {
        if let Some(f) = existing.as_any().downcast_ref::<ExportToDistributedR>() {
            return FastTransfer {
                hub: Arc::clone(&f.hub),
            };
        }
    }
    let hub = Arc::new(ExportHub::new());
    db.register_transform(Arc::new(ExportToDistributedR {
        hub: Arc::clone(&hub),
    }));
    FastTransfer { hub }
}

// ------------------------------------------------------------ orchestrator

/// The client-side API: `db2darray` / `db2dframe` (Figure 3, line 5).
pub struct FastTransfer {
    hub: Arc<ExportHub>,
}

impl FastTransfer {
    /// Load numeric columns of `table` into a distributed array with one
    /// partition per worker. Returns the array and the transfer report; the
    /// `db`/`r` phases are also pushed onto `ledger`.
    pub fn db2darray(
        &self,
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        features: &[&str],
        policy: TransferPolicy,
        ledger: &vdr_cluster::Ledger,
    ) -> Result<(DArray, TransferReport)> {
        self.db2darray_opts(db, dr, table, features, policy, ledger, None)
    }

    /// `db2darray` with an explicit partition-size hint (rows buffered per
    /// block) instead of the rows ÷ instances default — used by the
    /// buffering ablation. `None` keeps the default.
    #[allow(clippy::too_many_arguments)]
    pub fn db2darray_opts(
        &self,
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        features: &[&str],
        policy: TransferPolicy,
        ledger: &vdr_cluster::Ledger,
        psize: Option<u64>,
    ) -> Result<(DArray, TransferReport)> {
        self.db2darray_inner(db, dr, table, features, policy, ledger, psize, None)
    }

    /// `db2darray` with a per-batch [`BatchObserver`]: the callback runs
    /// inside the worker receive pools on every decoded block, while the
    /// export query is still producing. This is the train-while-loading
    /// entry point — [`crate::train`] uses it to fold iteration-0 model
    /// statistics into accumulators during the transfer itself.
    #[allow(clippy::too_many_arguments)]
    pub fn db2darray_observed(
        &self,
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        features: &[&str],
        policy: TransferPolicy,
        ledger: &vdr_cluster::Ledger,
        observer: BatchObserver,
    ) -> Result<(DArray, TransferReport)> {
        self.db2darray_inner(
            db,
            dr,
            table,
            features,
            policy,
            ledger,
            None,
            Some(&observer),
        )
    }

    /// Advance the data collector one tick for a completed transfer (the
    /// "vft" trigger). The sampling window opened when the transfer entered
    /// its query scope, so the delta covers the export query, the receive
    /// pools, and assembly; per-node usage comes from the receive-pool phase
    /// rows captured before the report was pushed onto the ledger.
    fn transfer_dc_tick(
        db: &VerticaDb,
        before: Option<(vdr_obs::MetricsSnapshot, Instant)>,
        label: String,
        report: &TransferReport,
        pool_nodes: &[vdr_cluster::NodePhase],
    ) {
        let Some((before, started)) = before else {
            return;
        };
        let dc = vdr_obs::global().dc();
        if !dc.sampling() {
            return;
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        vdr_obs::observe("query.wall_us", wall_ns as f64 / 1e3);
        let after = vdr_obs::global().metrics().snapshot();
        let cache = db.storage().block_cache();
        let usage = pool_nodes
            .iter()
            .map(|n| vdr_obs::TickUsage {
                node: n.node,
                sim_secs: n.duration_secs,
                cpu_core_ns: n.usage.cpu_core_ns,
                disk_read_bytes: n.usage.disk_read_bytes + n.usage.disk_cached_read_bytes,
                disk_write_bytes: n.usage.disk_write_bytes,
                net_in_bytes: n.usage.net_in_bytes,
                net_out_bytes: n.usage.net_out_bytes,
                cache_bytes: cache.bytes_on(NodeId(n.node)),
            })
            .collect();
        dc.tick(vdr_obs::TickContext {
            query_id: vdr_obs::current_query_id(),
            trigger: "vft",
            label,
            status: "complete".to_string(),
            rows: report.rows,
            bytes: report.bytes,
            sim_secs: report.total().as_secs(),
            wall_ns,
            delta: after.diff(&before),
            latency: after.histogram_total("query.wall_us"),
            usage,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn db2darray_inner(
        &self,
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        features: &[&str],
        policy: TransferPolicy,
        ledger: &vdr_cluster::Ledger,
        psize: Option<u64>,
        observer: Option<&BatchObserver>,
    ) -> Result<(DArray, TransferReport)> {
        let def = db.catalog().get(table)?;
        check_features(&def.schema, features)?;
        // A transfer issues its export via `query_with` (not the tracked
        // statement path), so attribute the whole transfer — export, receive
        // pools, assembly — to one query id; callers already inside a
        // statement scope (e.g. a tracked CTAS) keep their id.
        let query_id = match vdr_obs::current_query_id() {
            0 => vdr_obs::next_query_id(),
            id => id,
        };
        let _query_scope = vdr_obs::QueryScope::enter(query_id);
        // Data-collector window: opened here so the tick's delta covers the
        // whole transfer (export, receive pools, assembly).
        let dc_before = vdr_obs::global()
            .dc()
            .sampling()
            .then(|| (vdr_obs::global().metrics().snapshot(), Instant::now()));
        let mut transfer_span = vdr_obs::span("vft.db2darray");
        transfer_span.record("table", table);
        transfer_span.record("policy", policy.as_param());

        // The `vft r` phase recorder exists before the query runs: receive
        // pools charge decode work to it while the export is still
        // producing (that's the pipelining).
        let r_rec = PhaseRecorder::new("vft r", PhaseKind::Sequential, db.cluster().num_nodes());
        let (received, db_time, _wall) = self.run_transfer(
            db, dr, table, features, policy, ledger, psize, &r_rec, observer,
        )?;

        // Assembly: each worker turns its decoded blocks into one darray
        // partition ("the in-memory files are converted into R objects and
        // assembled into partitions", Section 3.3). The partition buffer is
        // sized once; each block gathers column-at-a-time into its disjoint
        // row range, fanned across the worker's instance lanes.
        let array = dr
            .darray(dr.num_workers())
            .map_err(|e| DbError::Exec(e.to_string()))?;
        let ncol = features.len();
        let parent_span = transfer_span.id();
        let fills: Vec<Result<(usize, usize, Vec<f64>)>> = {
            let received = &received;
            dr.run_on_workers(&(0..dr.num_workers()).collect::<Vec<_>>(), move |w| {
                let node = dr.worker_node(w);
                let instances = dr.workers()[w].instances;
                let mut convert_span = vdr_obs::detail_span_with_parent("vft.convert", parent_span);
                convert_span.set_node(node.0);
                vdr_obs::gauge_on("vft.lanes", node.0, instances as f64);
                let batches: Vec<&Batch> =
                    received[w].iter().flat_map(|s| s.batches.iter()).collect();
                let nrow: usize = batches.iter().map(|b| b.num_rows()).sum();
                let mut data = vec![0.0f64; nrow * ncol];
                let mut jobs: Vec<(&Batch, &mut [f64])> = Vec::with_capacity(batches.len());
                let mut rest: &mut [f64] = &mut data;
                for b in batches {
                    let (head, tail) = std::mem::take(&mut rest).split_at_mut(b.num_rows() * ncol);
                    rest = tail;
                    jobs.push((b, head));
                }
                jobs.into_par_iter()
                    .try_for_each(|(b, out)| gather_f64_rows(b, out))?;
                convert_span.record("streams", received[w].len());
                convert_span.record("rows", nrow);
                Ok((w, nrow, data))
            })
            .into_iter()
            .map(|(_, r)| r)
            .collect()
        };
        let mut total_rows = 0u64;
        for fill in fills {
            let (w, nrow, rows) = fill?;
            total_rows += nrow as u64;
            array
                .fill_partition_on(w, w, nrow, ncol, rows)
                .map_err(|e| DbError::Exec(e.to_string()))?;
        }

        let r_report = r_rec.finish(db.cluster().profile());
        let client_time = r_report.duration();
        let pool_nodes = r_report.nodes.clone();
        ledger.push(r_report);
        transfer_span.record("rows", total_rows);
        transfer_span.set_sim_time(db_time + client_time);

        let values = total_rows * ncol as u64;
        let report = TransferReport {
            rows: total_rows,
            values,
            bytes: values * 8,
            db_time,
            client_time,
            // The receive pools' idle window: the part of the export the
            // pipelined conversion could not cover (clamped at zero when
            // conversion dominates).
            queue_time: db_time - client_time,
        };
        Self::transfer_dc_tick(
            db,
            dc_before,
            format!("VFT db2darray {table}"),
            &report,
            &pool_nodes,
        );
        Ok((array, report))
    }

    /// Load arbitrary columns of `table` into a distributed data frame (one
    /// partition per worker), keeping column types.
    pub fn db2dframe(
        &self,
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        columns: &[&str],
        policy: TransferPolicy,
        ledger: &vdr_cluster::Ledger,
    ) -> Result<(DFrame, TransferReport)> {
        let def = db.catalog().get(table)?;
        for c in columns {
            def.schema.index_of(c)?;
        }
        // One query id per transfer (see db2darray_opts).
        let query_id = match vdr_obs::current_query_id() {
            0 => vdr_obs::next_query_id(),
            id => id,
        };
        let _query_scope = vdr_obs::QueryScope::enter(query_id);
        let dc_before = vdr_obs::global()
            .dc()
            .sampling()
            .then(|| (vdr_obs::global().metrics().snapshot(), Instant::now()));
        let mut transfer_span = vdr_obs::span("vft.db2dframe");
        transfer_span.record("table", table);
        transfer_span.record("policy", policy.as_param());

        let r_rec = PhaseRecorder::new("vft r", PhaseKind::Sequential, db.cluster().num_nodes());
        let (received, db_time, _wall) =
            self.run_transfer(db, dr, table, columns, policy, ledger, None, &r_rec, None)?;

        let frame = dr
            .dframe(dr.num_workers())
            .map_err(|e| DbError::Exec(e.to_string()))?;
        let schema = def.schema.project(columns)?;
        let parent_span = transfer_span.id();
        // Assembly runs on the workers; within a worker the partition's
        // columns are stitched independently across the instance lanes.
        let parts: Vec<Result<(usize, Batch)>> = {
            let received = &received;
            let schema = &schema;
            dr.run_on_workers(&(0..dr.num_workers()).collect::<Vec<_>>(), move |w| {
                let node = dr.worker_node(w);
                let instances = dr.workers()[w].instances;
                let mut convert_span = vdr_obs::detail_span_with_parent("vft.convert", parent_span);
                convert_span.set_node(node.0);
                vdr_obs::gauge_on("vft.lanes", node.0, instances as f64);
                let batches: Vec<&Batch> =
                    received[w].iter().flat_map(|s| s.batches.iter()).collect();
                let cols: Vec<Column> = (0..schema.fields().len())
                    .into_par_iter()
                    .map(|c| -> Result<Column> {
                        let mut col = Column::empty(schema.field(c).dtype);
                        for b in &batches {
                            col.extend(b.column(c))?;
                        }
                        Ok(col)
                    })
                    .collect::<Result<Vec<Column>>>()?;
                let part = Batch::new(schema.clone(), cols)?;
                convert_span.record("streams", received[w].len());
                convert_span.record("rows", part.num_rows());
                Ok((w, part))
            })
            .into_iter()
            .map(|(_, r)| r)
            .collect()
        };
        let mut total_rows = 0u64;
        let mut total_values = 0u64;
        let mut total_bytes = 0u64;
        for part in parts {
            let (w, part) = part?;
            total_rows += part.num_rows() as u64;
            total_values += part.num_values();
            total_bytes += part.byte_size();
            frame
                .fill_partition_on(w, w, part)
                .map_err(|e| DbError::Exec(e.to_string()))?;
        }
        let r_report = r_rec.finish(db.cluster().profile());
        let client_time = r_report.duration();
        let pool_nodes = r_report.nodes.clone();
        ledger.push(r_report);
        transfer_span.record("rows", total_rows);
        transfer_span.set_sim_time(db_time + client_time);

        let report = TransferReport {
            rows: total_rows,
            values: total_values,
            bytes: total_bytes,
            db_time,
            client_time,
            queue_time: db_time - client_time,
        };
        Self::transfer_dc_tick(
            db,
            dc_before,
            format!("VFT db2dframe {table}"),
            &report,
            &pool_nodes,
        );
        Ok((frame, report))
    }

    /// Issue the export query while worker receive pools drain, stage, and
    /// decode incoming streams as they arrive. Returns the decoded streams
    /// per worker (sorted by source for determinism), the DB-side phase
    /// duration, and the pools' wall-clock measurements; the phase report is
    /// pushed onto `ledger`. Decode cpu is charged to `r_rec` as it happens.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn run_transfer(
        &self,
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        columns: &[&str],
        policy: TransferPolicy,
        ledger: &vdr_cluster::Ledger,
        psize_override: Option<u64>,
        r_rec: &PhaseRecorder,
        observer: Option<&BatchObserver>,
    ) -> Result<(Vec<Vec<ReceivedStream>>, vdr_cluster::SimDuration, RecvWall)> {
        let transfer = self.hub.next_transfer.fetch_add(1, Ordering::Relaxed);
        let nworkers = dr.num_workers();
        let workers_param: String = dr
            .workers()
            .iter()
            .map(|w| w.node.0.to_string())
            .collect::<Vec<_>>()
            .join(",");

        // Partition-size hint: rows ÷ total R instances ("calculated by
        // dividing the number of rows in the Vertica table by the total
        // number of R instances waiting to receive the data", Section 3.1).
        let total_rows = db.storage().total_rows(table);
        let psize = psize_override
            .unwrap_or(total_rows / dr.total_instances().max(1) as u64)
            .max(1);

        let mut db_span = vdr_obs::span("vft.db");
        db_span.record("transfer", transfer);
        db_span.record("psize", psize);
        db_span.record("workers", nworkers);

        let convert_cost = db.cluster().profile().costs.vft_convert_ns_per_value;
        let db_rec = Arc::new(PhaseRecorder::new(
            "vft db",
            PhaseKind::Pipelined,
            db.cluster().num_nodes(),
        ));

        // Start the receive pools, then issue the single SQL query.
        let accepts: Vec<Receiver<StreamRx>> = (0..nworkers)
            .map(|w| self.hub.listen(transfer, w))
            .collect();

        let pool_parent = db_span.id();
        let query_id = vdr_obs::current_query_id();
        let (received, wall) =
            std::thread::scope(|scope| -> Result<(Vec<Vec<ReceivedStream>>, RecvWall)> {
                let handles: Vec<_> = accepts
                    .into_iter()
                    .enumerate()
                    .map(|(w, accept)| {
                        let node = db.cluster().node(dr.worker_node(w)).clone();
                        let observer = observer.map(Arc::clone);
                        scope.spawn(move || -> Result<(Vec<ReceivedStream>, RecvWall)> {
                            // The worker's receive pool: accept streams and
                            // decode their frames as the bytes arrive, so
                            // conversion overlaps the still-running export.
                            let node_id = dr.worker_node(w);
                            // Pool threads are spawned fresh: re-enter the
                            // transfer's query scope and the worker's node
                            // scope so spans/metrics/events recorded here
                            // stay attributed.
                            let _q = vdr_obs::QueryScope::enter(query_id);
                            let _n = vdr_obs::NodeScope::enter(node_id.0);
                            let mut pool_span =
                                vdr_obs::detail_span_with_parent("vft.receive", pool_parent);
                            pool_span.record("worker", w);
                            r_rec.set_lanes(node_id, dr.workers()[w].instances);
                            // Bind the worker index once; streams then only
                            // see the `(src, inst, batch)` part.
                            let worker_obs = observer
                                .map(|o| move |src: u64, inst: u64, b: &Batch| o(w, src, inst, b));
                            let mut wall = RecvWall::default();
                            let mut streams: Vec<ReceivedStream> = Vec::new();
                            let mut idx = 0usize;
                            loop {
                                let waited = Instant::now();
                                let Ok(rx) = accept.recv() else { break };
                                wall.wait_ns += waited.elapsed().as_nanos() as u64;
                                let key = format!("vft/{transfer}/{w}/{idx}");
                                idx += 1;
                                let (src, inst, batches) = match receive_stream(
                                    node.shm(),
                                    &key,
                                    &rx,
                                    r_rec,
                                    node_id,
                                    convert_cost,
                                    &mut wall,
                                    worker_obs.as_ref().map(|f| f as &dyn Fn(u64, u64, &Batch)),
                                ) {
                                    Ok(decoded) => decoded,
                                    Err(e) => {
                                        vdr_obs::event(
                                            "vft.receive.error",
                                            format!("transfer={transfer} worker={w} error={e}"),
                                        );
                                        return Err(e);
                                    }
                                };
                                streams.push(ReceivedStream { src, inst, batches });
                            }
                            // Sort by (source node, instance) so conversion
                            // order — and thus partition row order — is
                            // deterministic across transfers.
                            streams.sort_by_key(|s| (s.src, s.inst));
                            vdr_obs::counter_on("vft.receive.wait_ns", node_id.0, wall.wait_ns);
                            vdr_obs::counter_on("vft.receive.decode_ns", node_id.0, wall.decode_ns);
                            if wall.observe_ns > 0 {
                                vdr_obs::counter_on(
                                    "vft.receive.observe_ns",
                                    node_id.0,
                                    wall.observe_ns,
                                );
                            }
                            vdr_obs::counter_on("vft.receive.frames", node_id.0, wall.frames);
                            vdr_obs::observe_on(
                                "vft.receive.stream_decode_ms",
                                node_id.0,
                                wall.decode_ns as f64 / 1e6,
                            );
                            pool_span.record("streams", streams.len());
                            pool_span.record("frames", wall.frames);
                            Ok((streams, wall))
                        })
                    })
                    .collect();

                let sql = format!(
                    "SELECT ExportToDistributedR({cols} USING PARAMETERS transfer='{transfer}', \
                     workers='{workers_param}', policy='{policy}', psize={psize}) \
                     OVER (PARTITION BEST) FROM {table}",
                    cols = columns.join(", "),
                    policy = policy.as_param(),
                );
                let query_result = db.query_with(&sql, &db_rec);
                // Whatever happened, stop accepting so receivers terminate.
                self.hub.close(transfer);
                let joined: Vec<Result<(Vec<ReceivedStream>, RecvWall)>> = handles
                    .into_iter()
                    .map(|h| h.join().expect("receiver panicked"))
                    .collect();
                // A receive-pool error is the root cause: the exporter then
                // saw a hung-up worker and the query failed after it, so
                // report the receiver's error first.
                let mut received = Vec::with_capacity(nworkers);
                let mut wall = RecvWall::default();
                for j in joined {
                    let (streams, w) = j?;
                    wall.absorb(w);
                    received.push(streams);
                }
                query_result?;
                Ok((received, wall))
            })?;

        let db_report = Arc::into_inner(db_rec)
            .expect("query released its recorder")
            .finish(db.cluster().profile());
        let db_time = db_report.duration();
        db_span.record("receive_wait_ms", wall.wait_ns / 1_000_000);
        db_span.record("receive_decode_ms", wall.decode_ns / 1_000_000);
        db_span.record("frames", wall.frames);
        db_span.set_sim_time(db_time);
        ledger.push(db_report);
        Ok((received, db_time, wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_to_f64_rows;
    use bytes::Bytes;
    use proptest::prelude::*;
    use vdr_cluster::{Ledger, SimCluster};
    use vdr_verticadb::Segmentation;
    use vdr_workloads_shim::make_table;

    /// Minimal local workload helper (the real generators live in
    /// vdr-workloads, which depends on this crate's consumers, not on us).
    mod vdr_workloads_shim {
        use vdr_columnar::{Batch, Column, DataType, Schema};
        use vdr_verticadb::{Segmentation, TableDef, VerticaDb};

        pub fn make_table(db: &VerticaDb, name: &str, rows: i64, seg: Segmentation) {
            let schema = Schema::of(&[
                ("id", DataType::Int64),
                ("a", DataType::Float64),
                ("b", DataType::Float64),
            ]);
            db.create_table(TableDef {
                name: name.into(),
                schema: schema.clone(),
                segmentation: seg,
            })
            .unwrap();
            // Load in several batches so nodes hold multiple containers.
            let chunk = (rows / 4).max(1);
            let mut start = 0i64;
            while start < rows {
                let end = (start + chunk).min(rows);
                let ids: Vec<i64> = (start..end).collect();
                let a: Vec<f64> = ids.iter().map(|&i| i as f64).collect();
                let b: Vec<f64> = ids.iter().map(|&i| (i * 2) as f64).collect();
                let batch = Batch::new(
                    schema.clone(),
                    vec![
                        Column::from_i64(ids),
                        Column::from_f64(a),
                        Column::from_f64(b),
                    ],
                )
                .unwrap();
                db.copy(name, vec![batch]).unwrap();
                start = end;
            }
        }
    }

    fn setup(
        nodes: usize,
        rows: i64,
        seg: Segmentation,
    ) -> (Arc<VerticaDb>, DistributedR, FastTransfer, Ledger) {
        let cluster = SimCluster::for_tests(nodes);
        let db = VerticaDb::new(cluster.clone());
        make_table(&db, "samples", rows, seg);
        let dr = DistributedR::on_all_nodes(cluster, 4).unwrap();
        let vft = install_export_function(&db);
        (db, dr, vft, Ledger::new())
    }

    #[test]
    fn darray_transfer_delivers_every_row_exactly_once() {
        let (db, dr, vft, ledger) = setup(
            3,
            3000,
            Segmentation::Hash {
                column: "id".into(),
            },
        );
        let (arr, report) = vft
            .db2darray(
                &db,
                &dr,
                "samples",
                &["id", "a", "b"],
                TransferPolicy::Locality,
                &ledger,
            )
            .unwrap();
        assert_eq!(report.rows, 3000);
        assert_eq!(arr.dim(), (3000, 3));
        // Sum of ids must match arithmetic series — catches duplicates and
        // losses that row counts alone would miss.
        let sums = arr
            .map_partitions(|_, p| (0..p.nrow).map(|r| p.row(r)[0]).sum::<f64>())
            .unwrap();
        let total: f64 = sums.iter().sum();
        assert_eq!(total, (2999.0 * 3000.0) / 2.0);
        // Each row is consistent: b = 2a = 2·id.
        let consistent = arr
            .map_partitions(|_, p| {
                (0..p.nrow).all(|r| {
                    let row = p.row(r);
                    row[1] == row[0] && row[2] == 2.0 * row[0]
                })
            })
            .unwrap();
        assert!(consistent.iter().all(|&c| c));
        assert!(report.db_time.as_secs() > 0.0);
        assert!(report.client_time.as_secs() > 0.0);
    }

    #[test]
    fn locality_policy_preserves_segment_sizes() {
        let (db, dr, vft, ledger) = setup(
            2,
            4000,
            Segmentation::Skewed {
                weights: vec![4.0, 1.0],
            },
        );
        let seg_rows = db.storage().segment_rows("samples");
        let (arr, _) = vft
            .db2darray(
                &db,
                &dr,
                "samples",
                &["a"],
                TransferPolicy::Locality,
                &ledger,
            )
            .unwrap();
        let sizes = arr.partition_sizes();
        // Partition w holds exactly node w's segment.
        assert_eq!(sizes[0].0, seg_rows[0]);
        assert_eq!(sizes[1].0, seg_rows[1]);
        assert!(
            sizes[0].0 > sizes[1].0 * 3,
            "skew must survive locality transfer"
        );
    }

    #[test]
    fn uniform_policy_balances_skewed_segments() {
        let (db, dr, vft, ledger) = setup(
            2,
            4000,
            Segmentation::Skewed {
                weights: vec![4.0, 1.0],
            },
        );
        let (arr, report) = vft
            .db2darray(
                &db,
                &dr,
                "samples",
                &["a"],
                TransferPolicy::Uniform,
                &ledger,
            )
            .unwrap();
        assert_eq!(report.rows, 4000);
        let sizes = arr.partition_sizes();
        let (a, b) = (sizes[0].0 as f64, sizes[1].0 as f64);
        let ratio = a.max(b) / a.min(b).max(1.0);
        assert!(ratio < 1.6, "uniform policy should balance: {sizes:?}");
    }

    #[test]
    fn dframe_transfer_keeps_types() {
        let (db, dr, vft, ledger) = setup(2, 500, Segmentation::RoundRobin);
        let (frame, report) = vft
            .db2dframe(
                &db,
                &dr,
                "samples",
                &["id", "a"],
                TransferPolicy::Locality,
                &ledger,
            )
            .unwrap();
        assert_eq!(report.rows, 500);
        let all = frame.gather().unwrap();
        assert_eq!(all.num_rows(), 500);
        assert_eq!(all.schema().names(), vec!["id", "a"]);
        assert_eq!(all.column(0).data_type(), DataType::Int64);
        assert_eq!(all.column(1).data_type(), DataType::Float64);
    }

    #[test]
    fn varchar_features_rejected_for_darray() {
        let cluster = SimCluster::for_tests(2);
        let db = VerticaDb::new(cluster.clone());
        db.query("CREATE TABLE t (s VARCHAR, x FLOAT)").unwrap();
        let dr = DistributedR::on_all_nodes(cluster, 1).unwrap();
        let vft = install_export_function(&db);
        let ledger = Ledger::new();
        let err = vft
            .db2darray(&db, &dr, "t", &["s"], TransferPolicy::Locality, &ledger)
            .unwrap_err();
        assert!(err.to_string().contains("db2dframe"));
        assert!(vft
            .db2darray(&db, &dr, "t", &[], TransferPolicy::Locality, &ledger)
            .is_err());
    }

    #[test]
    fn empty_table_produces_empty_partitions() {
        let (db, dr, vft, ledger) = setup(2, 0, Segmentation::RoundRobin);
        // make_table loads at least one chunk; create a genuinely empty one.
        db.query("CREATE TABLE empty_t (a FLOAT)").unwrap();
        let (arr, report) = vft
            .db2darray(
                &db,
                &dr,
                "empty_t",
                &["a"],
                TransferPolicy::Locality,
                &ledger,
            )
            .unwrap();
        assert_eq!(report.rows, 0);
        assert_eq!(arr.dim().0, 0);
        assert!(arr.is_materialized());
    }

    #[test]
    fn transfers_ride_on_a_single_sql_query() {
        let (db, dr, vft, ledger) = setup(2, 1000, Segmentation::RoundRobin);
        let before = db.admission().admitted();
        vft.db2darray(
            &db,
            &dr,
            "samples",
            &["a", "b"],
            TransferPolicy::Locality,
            &ledger,
        )
        .unwrap();
        // The heart of VFT: exactly ONE query, not one per R instance.
        assert_eq!(db.admission().admitted(), before + 1);
    }

    #[test]
    fn concurrent_transfers_do_not_cross_wires() {
        let (db, dr, vft, _) = setup(2, 2000, Segmentation::RoundRobin);
        let vft = Arc::new(vft);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let db = Arc::clone(&db);
                    let dr = dr.clone();
                    let vft = Arc::clone(&vft);
                    s.spawn(move || {
                        let ledger = Ledger::new();
                        let (arr, report) = vft
                            .db2darray(
                                &db,
                                &dr,
                                "samples",
                                &["id"],
                                TransferPolicy::Uniform,
                                &ledger,
                            )
                            .unwrap();
                        let sums = arr
                            .map_partitions(|_, p| p.data.iter().sum::<f64>())
                            .unwrap();
                        (report.rows, sums.iter().sum::<f64>())
                    })
                })
                .collect();
            for h in handles {
                let (rows, sum) = h.join().unwrap();
                assert_eq!(rows, 2000);
                assert_eq!(sum, 1999.0 * 2000.0 / 2.0);
            }
        });
    }

    #[test]
    fn separate_transfers_of_one_table_stay_row_aligned() {
        // Deterministic stream ordering guarantee: loading X columns and the
        // Y column in two transfers must deliver rows in the same order, or
        // co-partitioned training data would silently misalign.
        check_row_alignment(TransferPolicy::Locality);
    }

    #[test]
    fn uniform_transfers_stay_row_aligned() {
        // Same guarantee under round-robin sprinkling: the rr stagger and
        // psize depend only on (node, instance) and the table, never on the
        // transfer id, so two uniform transfers land rows identically.
        check_row_alignment(TransferPolicy::Uniform);
    }

    fn check_row_alignment(policy: TransferPolicy) {
        let (db, dr, vft, ledger) = setup(
            3,
            2500,
            Segmentation::Hash {
                column: "id".into(),
            },
        );
        let (xa, _) = vft
            .db2darray(&db, &dr, "samples", &["id", "a"], policy, &ledger)
            .unwrap();
        let (yb, _) = vft
            .db2darray(&db, &dr, "samples", &["b"], policy, &ledger)
            .unwrap();
        xa.check_copartitioned(&yb).unwrap();
        // Row-wise: b == 2·id in the generator; verify against the separately
        // transferred array.
        let aligned = xa
            .zip_map(&yb, |_, xp, yp| {
                (0..xp.nrow).all(|r| yp.data[r] == 2.0 * xp.row(r)[0])
            })
            .unwrap();
        assert!(
            aligned.iter().all(|&ok| ok),
            "transfers delivered rows in different orders"
        );
    }

    /// Reference implementation of the retired staged data path: buffer
    /// every stream's raw bytes until the export query finishes, then strip
    /// the header, deframe, decode, and flatten — the pipelined path must
    /// produce bit-identical partitions.
    fn staged_reference(
        db: &VerticaDb,
        dr: &DistributedR,
        vft: &FastTransfer,
        table: &str,
        features: &[&str],
        policy: TransferPolicy,
    ) -> Vec<Vec<f64>> {
        let transfer = vft.hub.next_transfer.fetch_add(1, Ordering::Relaxed);
        let nworkers = dr.num_workers();
        let accepts: Vec<Receiver<StreamRx>> =
            (0..nworkers).map(|w| vft.hub.listen(transfer, w)).collect();
        let workers_param: String = dr
            .workers()
            .iter()
            .map(|w| w.node.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let psize = (db.storage().total_rows(table) / dr.total_instances().max(1) as u64).max(1);
        let db_rec = Arc::new(PhaseRecorder::new(
            "vft db",
            PhaseKind::Pipelined,
            db.cluster().num_nodes(),
        ));
        std::thread::scope(|scope| {
            let handles: Vec<_> = accepts
                .into_iter()
                .map(|accept| {
                    scope.spawn(move || {
                        let mut streams: Vec<(u64, u64, Vec<u8>)> = Vec::new();
                        while let Ok(rx) = accept.recv() {
                            let raw = rx.recv_all();
                            assert!(raw.len() >= 16, "stream missing header");
                            let src = u64::from_le_bytes(raw[0..8].try_into().unwrap());
                            let inst = u64::from_le_bytes(raw[8..16].try_into().unwrap());
                            streams.push((src, inst, raw[16..].to_vec()));
                        }
                        streams.sort_by_key(|&(s, i, _)| (s, i));
                        let mut part: Vec<f64> = Vec::new();
                        for (_, _, data) in &streams {
                            for frame in deframe(data).unwrap() {
                                let batch = decode_batch(frame).unwrap();
                                part.extend(batch_to_f64_rows(&batch).unwrap());
                            }
                        }
                        part
                    })
                })
                .collect();
            let sql = format!(
                "SELECT ExportToDistributedR({cols} USING PARAMETERS transfer='{transfer}', \
                 workers='{workers_param}', policy='{policy}', psize={psize}) \
                 OVER (PARTITION BEST) FROM {table}",
                cols = features.join(", "),
                policy = policy.as_param(),
            );
            db.query_with(&sql, &db_rec).unwrap();
            vft.hub.close(transfer);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn pipelined_receive_matches_staged_conversion() {
        for policy in [TransferPolicy::Locality, TransferPolicy::Uniform] {
            let (db, dr, vft, ledger) = setup(
                3,
                3000,
                Segmentation::Hash {
                    column: "id".into(),
                },
            );
            let expected = staged_reference(&db, &dr, &vft, "samples", &["id", "a", "b"], policy);
            let (arr, _) = vft
                .db2darray(&db, &dr, "samples", &["id", "a", "b"], policy, &ledger)
                .unwrap();
            let got = arr.map_partitions(|_, p| p.data.clone()).unwrap();
            assert_eq!(got, expected, "{policy:?} diverged from the staged path");
        }
    }

    #[test]
    fn queue_time_measures_the_uncovered_db_window() {
        let (db, dr, vft, ledger) = setup(2, 2000, Segmentation::RoundRobin);
        let before = vdr_obs::global().metrics().snapshot();
        let (_, report) = vft
            .db2darray(
                &db,
                &dr,
                "samples",
                &["id", "a", "b"],
                TransferPolicy::Locality,
                &ledger,
            )
            .unwrap();
        // queue_time is the receive pools' idle stretch: the part of db_time
        // that pipelined conversion did not cover, never negative.
        assert_eq!(
            report.queue_time.as_secs(),
            (report.db_time - report.client_time).as_secs()
        );
        assert!(report.queue_time.as_secs() <= report.db_time.as_secs());
        let diff = vdr_obs::global().metrics().snapshot().diff(&before);
        assert!(
            diff.counter_total("vft.receive.frames") > 0,
            "pipelined receive decoded no frames"
        );
    }

    #[test]
    fn receive_pool_errors_propagate_instead_of_panicking() {
        let cluster = SimCluster::for_tests(2);
        let rec = Arc::new(PhaseRecorder::new("test net", PhaseKind::Pipelined, 2));
        let r_rec = PhaseRecorder::new("vft r", PhaseKind::Sequential, 2);
        let mut wall = RecvWall::default();

        // Staging-area exhaustion becomes an error, not a panic.
        let tiny = SharedMem::new(NodeId(1), 4);
        let (tx, rx) = cluster
            .network()
            .connect(&rec, NodeId(0), NodeId(1))
            .unwrap();
        tx.send(Bytes::from(vec![0u8; 16])).unwrap();
        drop(tx);
        let err =
            receive_stream(&tiny, "s", &rx, &r_rec, NodeId(1), 1.0, &mut wall, None).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        assert_eq!(tiny.used_bytes(), 0, "failed stream leaves nothing staged");

        // A stream that dies mid-frame reports truncation and releases its
        // staged bytes.
        let shm = SharedMem::new(NodeId(1), 1 << 20);
        let (tx, rx) = cluster
            .network()
            .connect(&rec, NodeId(0), NodeId(1))
            .unwrap();
        tx.send(Bytes::from(vec![0u8; 16])).unwrap();
        tx.send(Bytes::copy_from_slice(&10u64.to_le_bytes()))
            .unwrap();
        tx.send(Bytes::from(vec![1u8, 2, 3])).unwrap();
        drop(tx);
        let err =
            receive_stream(&shm, "s", &rx, &r_rec, NodeId(1), 1.0, &mut wall, None).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        assert_eq!(shm.used_bytes(), 0);

        // A stream too short to carry its header is rejected too.
        let (tx, rx) = cluster
            .network()
            .connect(&rec, NodeId(0), NodeId(1))
            .unwrap();
        tx.send(Bytes::from(vec![9u8; 5])).unwrap();
        drop(tx);
        let err =
            receive_stream(&shm, "s", &rx, &r_rec, NodeId(1), 1.0, &mut wall, None).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn truncation_is_detected_at_every_offset() {
        // Wire: header + three frames (5, 0, and 9 payload bytes). Feeding
        // any prefix must succeed exactly at frame boundaries.
        let payload_sizes = [5usize, 0, 9];
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&2u64.to_le_bytes());
        let mut valid = vec![16usize];
        for (i, &n) in payload_sizes.iter().enumerate() {
            wire.extend_from_slice(&(n as u64).to_le_bytes());
            wire.extend_from_slice(&vec![i as u8; n]);
            valid.push(wire.len());
        }
        for cut in 0..=wire.len() {
            let mut asm = FrameAssembler::default();
            asm.push(Bytes::copy_from_slice(&wire[..cut]));
            while asm.next_frame().is_some() {}
            let fin = asm.finish();
            if valid.contains(&cut) {
                assert!(fin.is_ok(), "offset {cut} is a frame boundary");
            } else {
                assert!(fin.is_err(), "cut at offset {cut} went undetected");
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let b = Bytes::from_static(b"hello");
        let framed = frame_block(&b);
        let frames = deframe(&framed).unwrap();
        assert_eq!(frames, vec![b"hello".as_slice()]);
        // Two frames back to back.
        let mut both = framed.to_vec();
        both.extend_from_slice(&frame_block(&Bytes::from_static(b"x")));
        assert_eq!(deframe(&both).unwrap().len(), 2);
        // Truncation detected.
        assert!(deframe(&both[..both.len() - 1]).is_err());
        assert!(deframe(&[1, 2, 3]).is_err());
    }

    proptest! {
        /// The incremental assembler must reproduce the staged-era `deframe`
        /// exactly, no matter where chunk boundaries fall — including inside
        /// the stream header, a length word, or a frame body.
        #[test]
        fn assembler_reproduces_frames_under_any_chunking(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..60), 0..6),
            cuts in prop::collection::vec(any::<usize>(), 0..12),
        ) {
            let mut wire = Vec::new();
            wire.extend_from_slice(&7u64.to_le_bytes());
            wire.extend_from_slice(&3u64.to_le_bytes());
            for p in &payloads {
                wire.extend_from_slice(&(p.len() as u64).to_le_bytes());
                wire.extend_from_slice(p);
            }
            let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            offsets.push(0);
            offsets.push(wire.len());
            offsets.sort_unstable();
            offsets.dedup();
            let mut asm = FrameAssembler::default();
            let mut frames: Vec<Vec<u8>> = Vec::new();
            for pair in offsets.windows(2) {
                asm.push(Bytes::copy_from_slice(&wire[pair[0]..pair[1]]));
                while let Some(f) = asm.next_frame() {
                    frames.push(f.to_vec());
                }
            }
            prop_assert_eq!(&frames, &payloads);
            let reference: Vec<Vec<u8>> =
                deframe(&wire[16..]).unwrap().iter().map(|f| f.to_vec()).collect();
            prop_assert_eq!(&frames, &reference);
            prop_assert_eq!(asm.finish().unwrap(), (7, 3));
        }
    }
}
