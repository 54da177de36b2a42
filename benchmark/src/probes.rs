//! Per-layer probes of the traced pass: direct calls into one crate's public
//! functions on the workload's own batches, outside the loop. Each is a span
//! (iteration 0) in the trace and a handful of samples; the reported value is
//! the median. They put a number on a layer by itself, next to the share of
//! the loop the stage spans attribute to it.

use crate::engine::{Bench, GLM_MODEL};
use crate::gen::user_bytes;
use crate::spans::Recorder;
use crate::sqlmix::CLASSES;
use crate::stats::median;
use bytes::Bytes;
use vertica_dr::cluster::{FrameAssembler, NodeId, PhaseKind, PhaseRecorder, SharedMem};
use vertica_dr::columnar::kernels::{cmp_scalar, cmp_scalar_dict, cmp_scalar_rle, CmpOp};
use vertica_dr::columnar::{
    decode_batch_columns, decode_batch_encoded, encode_batch, Batch, ScanColumn,
};
use vertica_dr::core::Model;
use vertica_dr::ml::{GlmModel, KmeansModel};
use vertica_dr::verticadb::sql;
use vertica_dr::verticadb::storage::SegmentStore;
use vertica_dr::verticadb::{Segmentation, TableDef};

const REPS: usize = 7;

/// Batches probed per table: enough bytes for a stable rate, few enough
/// that the probes stay a small part of the traced pass.
const PROBE_BATCHES: usize = 4;

/// Calls per span for operations that take microseconds, so the span is long
/// enough for the clock.
const SMALL_CALLS: usize = 100;

/// Median milliseconds of `REPS` runs of `f` as span `name`.
fn reps(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..REPS).map(|_| rec.span(name, |_| f()).1).collect();
    median(&ms)
}

/// Median microseconds of one call of a small operation `f`.
fn small_us(rec: &mut Recorder, name: &'static str, mut f: impl FnMut()) -> f64 {
    let ms = reps(rec, name, || {
        for _ in 0..SMALL_CALLS {
            f();
        }
    });
    ms * 1e3 / SMALL_CALLS as f64
}

fn mb_per_s(bytes: u64, ms: f64) -> f64 {
    bytes as f64 / 1e6 / (ms / 1e3)
}

fn per_s(count: usize, ms: f64) -> f64 {
    count as f64 / (ms / 1e3)
}

/// Feature columns of a loop-table batch (`x1..xd`, between the key columns
/// and `y`).
fn feature_columns(batch: &Batch, d: usize) -> Vec<&[f64]> {
    let first = batch.num_columns() - 1 - d;
    (first..first + d)
        .map(|c| batch.column(c).f64_data().expect("float feature"))
        .collect()
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run(bench: &Bench, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let loop_batches: Vec<&Batch> = bench
        .inputs
        .train
        .batches
        .iter()
        .take(PROBE_BATCHES)
        .collect();
    let fact_batches: Vec<&Batch> = bench.sql.fact_batches.iter().take(PROBE_BATCHES).collect();

    // ---------------------------------------------------------- columnar
    let loop_bytes: u64 = loop_batches.iter().map(|b| user_bytes(b)).sum();
    let fact_bytes: u64 = fact_batches.iter().map(|b| user_bytes(b)).sum();
    let fact_rows: usize = fact_batches.iter().map(|b| b.num_rows()).sum();
    let ms = reps(rec, "columnar.encode_batch", || {
        for b in &loop_batches {
            std::hint::black_box(encode_batch(b));
        }
    });
    out.push(("columnar.encode_mb_per_s", mb_per_s(loop_bytes, ms)));
    let loop_blocks: Vec<Bytes> = loop_batches.iter().map(|b| encode_batch(b)).collect();
    let fact_blocks: Vec<Bytes> = fact_batches.iter().map(|b| encode_batch(b)).collect();
    let ms = reps(rec, "columnar.decode_batch_columns", || {
        for block in &loop_blocks {
            std::hint::black_box(decode_batch_columns(block, None).expect("own block"));
        }
    });
    out.push(("columnar.decode_mb_per_s", mb_per_s(loop_bytes, ms)));
    let ms = reps(rec, "columnar.decode_batch_encoded", || {
        for block in &fact_blocks {
            std::hint::black_box(decode_batch_encoded(block, None).expect("own block"));
        }
    });
    out.push(("columnar.decode_encoded_mb_per_s", mb_per_s(fact_bytes, ms)));

    // Predicate kernels on the fact columns in the form storage keeps them:
    // `v` plain, `grp` run-length encoded, `tag` dictionary encoded.
    let encoded: Vec<_> = fact_blocks
        .iter()
        .map(|b| decode_batch_encoded(b, None).expect("own block").0)
        .collect();
    let ms = reps(rec, "columnar.cmp_scalar", || {
        for b in &fact_batches {
            std::hint::black_box(cmp_scalar(b.column(3), CmpOp::Lt, Some(250.0)));
        }
    });
    out.push(("columnar.cmp_plain_rows_per_s", per_s(fact_rows, ms)));
    let mut kept_encoded = true;
    let ms = reps(rec, "columnar.cmp_scalar_rle", || {
        for b in &encoded {
            match &b.columns()[1] {
                ScanColumn::Encoded(col) => {
                    std::hint::black_box(cmp_scalar_rle(col, CmpOp::Eq, Some(7.0)));
                }
                ScanColumn::Decoded(_) => kept_encoded = false,
            }
        }
    });
    out.push(("columnar.cmp_rle_rows_per_s", per_s(fact_rows, ms)));
    let ms = reps(rec, "columnar.cmp_scalar_dict", || {
        for b in &encoded {
            match &b.columns()[2] {
                ScanColumn::Encoded(col) => {
                    std::hint::black_box(cmp_scalar_dict(col, CmpOp::Eq, "coral"));
                }
                ScanColumn::Decoded(_) => kept_encoded = false,
            }
        }
    });
    out.push(("columnar.cmp_dict_rows_per_s", per_s(fact_rows, ms)));
    assert!(
        kept_encoded,
        "grp and tag are generated to run-length and dictionary encode"
    );

    // --------------------------------------------------------- verticadb
    let us = small_us(rec, "verticadb.sql.parse", || {
        for class in &CLASSES {
            for text in class.sql {
                std::hint::black_box(sql::parse(text).expect("statement of the mix"));
            }
        }
    });
    out.push(("verticadb.parse_us", us));

    // A store of its own, so the first scan is cold whatever the loop cached.
    let cluster = bench.db.cluster().clone();
    let store = SegmentStore::new(cluster.clone());
    let def = TableDef {
        name: "probe".into(),
        schema: bench.sql.fact_schema.clone(),
        segmentation: Segmentation::RoundRobin,
    };
    let phase = PhaseRecorder::new("probe", PhaseKind::Sequential, cluster.num_nodes());
    store
        .load(&def, fact_batches.iter().map(|b| (*b).clone()), &phase)
        .expect("load of generated rows");
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        store.block_cache().invalidate_prefix("tables/probe/");
        for samples in [&mut cold, &mut warm] {
            let (_, ms) = rec.span("verticadb.scan_node_projected", |_| {
                store
                    .scan_node_projected("probe", NodeId(0), &phase, false, None)
                    .expect("scan of own table")
            });
            samples.push(ms);
        }
    }
    out.push(("verticadb.scan.cold_ms", median(&cold)));
    out.push(("verticadb.scan.warm_ms", median(&warm)));

    let us = small_us(rec, "verticadb.models.load", || {
        std::hint::black_box(
            bench
                .db
                .models()
                .load(NodeId(0), GLM_MODEL, &bench.session.options().user, &phase)
                .expect("model deployed by the loop"),
        );
    });
    out.push(("verticadb.models.load_us", us));

    // ----------------------------------------------------------- cluster
    // The framed wire layout: a 16-byte stream header, then a length chunk
    // and a payload chunk per frame.
    let block_bytes: u64 = loop_blocks.iter().map(|b| b.len() as u64).sum();
    // Both paths move refcounted chunks, never bytes, so one pass takes
    // microseconds: repeat it inside the span.
    let us = small_us(rec, "cluster.frame_assembler", || {
        let mut asm = FrameAssembler::default();
        asm.push(Bytes::from(vec![0u8; 16]));
        for block in &loop_blocks {
            asm.push(Bytes::from((block.len() as u64).to_le_bytes().to_vec()));
            asm.push(block.clone());
        }
        let mut frames = 0;
        while let Some(frame) = asm.next_frame() {
            std::hint::black_box(frame);
            frames += 1;
        }
        assert_eq!(frames, loop_blocks.len());
        asm.finish().expect("complete stream");
    });
    out.push((
        "cluster.frame.assemble_mb_per_s",
        mb_per_s(block_bytes, us / 1e3),
    ));
    let shm = SharedMem::new(NodeId(0), u64::MAX);
    let us = small_us(rec, "cluster.shm_roundtrip", || {
        for block in &loop_blocks {
            shm.append_bytes("probe", block.clone()).expect("unbounded");
        }
        std::hint::black_box(shm.take_bytes("probe").expect("just staged"));
    });
    out.push((
        "cluster.shm.roundtrip_mb_per_s",
        mb_per_s(block_bytes, us / 1e3),
    ));

    // ------------------------------------------------------------- distr
    if let Some(array) = &bench.last_array {
        let ms = reps(rec, "distr.gather", || {
            std::hint::black_box(array.gather().expect("materialized array"));
        });
        out.push(("distr.gather_ms", ms));
    }

    // ---------------------------------------------------------- ml, core
    let d = bench.inputs.d;
    let loop_rows: usize = loop_batches.iter().map(|b| b.num_rows()).sum();
    let glm = GlmModel {
        coefficients: bench.inputs.truth_beta.clone(),
        intercept: true,
        family: bench.inputs.family,
        deviance: 0.0,
        iterations: 1,
        converged: true,
    };
    let ms = reps(rec, "ml.kernels.glm_predict_batch", || {
        for b in &loop_batches {
            std::hint::black_box(glm.predict_batch(&feature_columns(b, d)));
        }
    });
    out.push((
        "ml.kernel.glm_predict_ns_per_row",
        ms * 1e6 / loop_rows as f64,
    ));
    let kmeans = bench.inputs.kmeans.as_ref().map(|truth| KmeansModel {
        centers: truth.init.chunks_exact(d).map(<[f64]>::to_vec).collect(),
        iterations: 1,
        total_withinss: truth.wss,
    });
    if let Some(kmeans) = &kmeans {
        let ms = reps(rec, "ml.kernels.kmeans_assign_batch", || {
            for b in &loop_batches {
                std::hint::black_box(kmeans.assign_batch(&feature_columns(b, d)));
            }
        });
        out.push((
            "ml.kernel.kmeans_assign_ns_per_row",
            ms * 1e6 / loop_rows as f64,
        ));
    }
    // The model codec, on the widest model the workload deploys.
    let model = kmeans.map_or(Model::Glm(glm), Model::Kmeans);
    let us = small_us(rec, "core.codec.encode", || {
        std::hint::black_box(model.to_bytes());
    });
    out.push(("core.codec.encode_us", us));
    let blob = model.to_bytes();
    let us = small_us(rec, "core.codec.decode", || {
        std::hint::black_box(Model::from_bytes(&blob).expect("own blob"));
    });
    out.push(("core.codec.decode_us", us));
    out
}
