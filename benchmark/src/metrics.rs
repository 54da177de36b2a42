//! Metric names, units, and how each is computed from a run's samples.
//!
//! `BENCHMARK.json` lists the same names; `--check` fails when the two
//! disagree. End-to-end metrics come from the untraced iterations, per-layer
//! metrics from the traced ones and the probes.

use crate::engine::{Bench, STAGES};
use crate::spans::Recorder;
use crate::sqlmix::{
    CAPPED, CLASSES, FILTER_FAMILY, GROUPBY_FAMILY, JOIN_FAMILY, STATEMENTS_PER_ITERATION,
};
use crate::stats::{median, p_hi};
use vertica_dr::obs::MetricsSnapshot;

/// One reported value.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("loop_s", "s"),
    ("load_rows_per_s", "rows/s"),
    ("feature_rows_per_s", "rows/s"),
    ("transfer_rows_per_s", "rows/s"),
    ("train_s", "s"),
    ("predict_rows_per_s", "rows/s"),
    ("sql_stmt_per_s", "1/s"),
    ("filter_p50_ms", "ms"),
    ("groupby_p50_ms", "ms"),
    ("join_p50_ms", "ms"),
    ("capped_scan_p50_ms", "ms"),
    ("stored_bytes_per_raw_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Classes whose exchange traffic is reported on its own: the co-located
/// join must move nothing, the other two must move something.
const EXCHANGE_CLASSES: [usize; 3] = [4, 6, 7];

/// `(name, unit)` of every per-layer metric, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for (name, unit) in [
        ("columnar.encode_mb_per_s", "MB/s"),
        ("columnar.decode_mb_per_s", "MB/s"),
        ("columnar.decode_encoded_mb_per_s", "MB/s"),
        ("columnar.cmp_plain_rows_per_s", "rows/s"),
        ("columnar.cmp_rle_rows_per_s", "rows/s"),
        ("columnar.cmp_dict_rows_per_s", "rows/s"),
        ("columnar.stored_bytes", "bytes"),
        ("columnar.raw_bytes", "bytes"),
        ("verticadb.copy.wall_ms", "ms"),
        ("verticadb.copy.sim_ms", "ms"),
        ("verticadb.parse_us", "us"),
        ("verticadb.scan.cold_ms", "ms"),
        ("verticadb.scan.warm_ms", "ms"),
        ("verticadb.blockcache.hit_ratio.fits", "ratio"),
        ("verticadb.blockcache.hit_ratio.capped", "ratio"),
        ("verticadb.blockcache.evictions.capped", "count"),
        ("verticadb.feature_ctas.wall_ms", "ms"),
        ("verticadb.feature_ctas.sim_ms", "ms"),
        ("verticadb.models.load_us", "us"),
    ] {
        add(name, unit);
    }
    for class in &CLASSES {
        for suffix in ["p50_ms", "phi_ms", "sim_ms"] {
            add(&format!("verticadb.stmt.{}.{suffix}", class.name), "ms");
        }
    }
    for (name, unit) in [
        ("cluster.exchange.bytes", "bytes"),
        ("cluster.exchange.rows", "rows"),
        ("cluster.exchange.frames", "count"),
        ("cluster.exchange.wait_ms", "ms"),
        ("cluster.exchange.encoded_cols", "count"),
    ] {
        add(name, unit);
    }
    for idx in EXCHANGE_CLASSES {
        add(
            &format!("cluster.exchange.bytes.{}", CLASSES[idx].name),
            "bytes",
        );
    }
    for (name, unit) in [
        ("cluster.frame.assemble_mb_per_s", "MB/s"),
        ("cluster.shm.roundtrip_mb_per_s", "MB/s"),
        ("cluster.gather.bytes", "bytes"),
        ("transfer.vft.locality_rows_per_s", "rows/s"),
        ("transfer.vft.uniform_rows_per_s", "rows/s"),
        ("transfer.vft.dframe_rows_per_s", "rows/s"),
        ("transfer.vft.db_sim_ms", "ms"),
        ("transfer.vft.client_sim_ms", "ms"),
        ("transfer.vft.queue_sim_ms", "ms"),
        ("transfer.vft.receive_wait_ms", "ms"),
        ("transfer.vft.receive_decode_ms", "ms"),
        ("transfer.vft.frames", "count"),
        ("transfer.vft.segment_bytes", "bytes"),
        ("transfer.odbc_rows_per_s", "rows/s"),
        ("transfer.vft_over_odbc", "ratio"),
        ("distr.split_columns_ms", "ms"),
        ("distr.gather_ms", "ms"),
        ("distr.partition_commits", "count"),
        ("ml.glm.fit_ms", "ms"),
        ("ml.glm.iterations", "count"),
        ("ml.kmeans.fit_ms", "ms"),
        ("ml.kmeans.iterations", "count"),
        ("ml.glm_wl.fit_ms", "ms"),
        ("ml.kmeans_wl.fit_ms", "ms"),
        ("ml.train.overlap_ms", "ms"),
        ("ml.kernel.glm_predict_ns_per_row", "ns"),
        ("ml.kernel.kmeans_assign_ns_per_row", "ns"),
        ("core.deploy_us", "us"),
        ("core.load_model_us", "us"),
        ("core.codec.encode_us", "us"),
        ("core.codec.decode_us", "us"),
        ("core.model_cache.hit_ratio", "ratio"),
        ("core.predict.glm_rows_per_s", "rows/s"),
        ("core.predict.kmeans_rows_per_s", "rows/s"),
        ("core.predict.sim_ms", "ms"),
    ] {
        add(name, unit);
    }
    for stage in &STAGES {
        add(&format!("loop.stage.{}.wall_ms", stage.name), "ms");
        add(&format!("loop.stage.{}.sim_ms", stage.name), "ms");
    }
    for (name, unit) in [
        ("loop.unaccounted_pct", "%"),
        ("loop.sim_wall_rank_inversions", "count"),
        ("obs.traced_overhead_pct", "%"),
        ("process.cpu_s", "s"),
        ("host.nproc", "count"),
    ] {
        add(name, unit);
    }
    v
}

fn med(rec: &Recorder, name: &str) -> f64 {
    median(rec.samples(name))
}

fn sum_of_medians(rec: &Recorder, spans: impl IntoIterator<Item = &'static str>) -> f64 {
    spans.into_iter().map(|s| med(rec, s)).sum()
}

fn rate(count: f64, ms: f64) -> f64 {
    if ms > 0.0 {
        count / (ms / 1e3)
    } else {
        0.0
    }
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// User plus system CPU seconds of the whole process, all threads
/// (`/proc/self/stat` fields 14 and 15, in 100 Hz ticks).
fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; fields count from
            // the closing parenthesis.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Stored and user bytes of every table the workload loaded.
fn storage_bytes(bench: &Bench) -> (u64, u64) {
    let mut tables = vec!["fact_rr", "fact_seg", "dim_rr", "dim_seg", "dim_small"];
    let mut raw = bench.sql.raw_bytes() + bench.inputs.train.raw_bytes();
    match &bench.inputs.score {
        Some(score) => {
            tables.extend(["train", "score"]);
            raw += score.raw_bytes();
        }
        None => tables.push("mixed"),
    }
    let stored = tables
        .iter()
        .map(|t| bench.db.storage().segment_bytes(t).iter().sum::<u64>())
        .sum();
    (stored, raw)
}

/// Every end-to-end metric, from the untraced iterations in `rec`.
pub fn end_to_end(bench: &Bench, rec: &Recorder, setup_s: &[f64]) -> Vec<Metric> {
    let family = |idx: [usize; 3]| sum_of_medians(rec, idx.map(|i| CLASSES[i].span));
    let load_rows = bench.inputs.train.rows + bench.inputs.score.as_ref().map_or(0, |s| s.rows);
    let (stored, raw) = storage_bytes(bench);
    let values = [
        median(setup_s),
        med(rec, "loop.iteration") / 1e3,
        rate(load_rows as f64, med(rec, "iter.copy_ms")),
        rate(
            bench.inputs.train.rows as f64,
            med(rec, "verticadb.feature_ctas"),
        ),
        rate(med(rec, "iter.transfer_rows"), med(rec, "iter.transfer_ms")),
        med(rec, "iter.train_ms") / 1e3,
        rate(med(rec, "iter.predict_rows"), med(rec, "iter.predict_ms")),
        rate(STATEMENTS_PER_ITERATION as f64, med(rec, "loop.stage.sql")),
        family(FILTER_FAMILY),
        family(GROUPBY_FAMILY),
        family(JOIN_FAMILY),
        sum_of_medians(rec, CAPPED.map(|i| CLASSES[i].capped_span)),
        stored as f64 / raw as f64,
        proc_status_kb("VmHWM:") / 1024.0,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

/// What the traced pass adds to the samples.
pub struct Traced<'a> {
    /// Samples and spans of the traced iterations.
    pub rec: &'a Recorder,
    /// Samples of the untraced iterations run in between, and of the capped
    /// phase (which always runs untraced).
    pub untraced: &'a Recorder,
    /// Engine counters over the traced iterations (`vdr_obs` registry diff).
    pub counters: &'a MetricsSnapshot,
    pub iterations: usize,
    pub probes: &'a [(&'static str, f64)],
}

/// Stage pairs that modeled time and wall time order differently.
fn rank_inversions(wall: &[f64], sim: &[f64]) -> usize {
    let mut n = 0;
    for i in 0..wall.len() {
        for j in i + 1..wall.len() {
            if (wall[i] - wall[j]) * (sim[i] - sim[j]) < 0.0 {
                n += 1;
            }
        }
    }
    n
}

/// Every per-layer metric. A layer the workload does not reach reads 0.
pub fn per_layer(bench: &Bench, t: &Traced<'_>) -> Vec<Metric> {
    let rec = t.rec;
    let iters = t.iterations.max(1) as f64;
    let per_iter = |counter: &str| t.counters.counter_total(counter) as f64 / iters;
    let (stored, raw) = storage_bytes(bench);
    let mut m: Vec<(String, f64)> = t.probes.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    put("columnar.stored_bytes", stored as f64);
    put("columnar.raw_bytes", raw as f64);
    put("verticadb.copy.wall_ms", med(rec, "iter.copy_ms"));
    put("verticadb.copy.sim_ms", med(rec, "verticadb.copy.sim"));
    put(
        "verticadb.blockcache.hit_ratio.fits",
        ratio(
            med(rec, "blockcache.fits.hits"),
            med(rec, "blockcache.fits.misses"),
        ),
    );
    put(
        "verticadb.blockcache.hit_ratio.capped",
        ratio(
            med(t.untraced, "blockcache.capped.hits"),
            med(t.untraced, "blockcache.capped.misses"),
        ),
    );
    put(
        "verticadb.blockcache.evictions.capped",
        med(t.untraced, "blockcache.capped.evictions"),
    );
    put(
        "verticadb.feature_ctas.wall_ms",
        med(rec, "verticadb.feature_ctas"),
    );
    put(
        "verticadb.feature_ctas.sim_ms",
        med(rec, "verticadb.feature_ctas.sim"),
    );
    for class in &CLASSES {
        put(
            &format!("verticadb.stmt.{}.p50_ms", class.name),
            med(rec, class.span),
        );
        put(
            &format!("verticadb.stmt.{}.phi_ms", class.name),
            p_hi(rec.samples(class.span)),
        );
        put(
            &format!("verticadb.stmt.{}.sim_ms", class.name),
            med(rec, class.sim),
        );
    }
    put("cluster.exchange.bytes", per_iter("exchange.bytes"));
    put("cluster.exchange.rows", per_iter("exchange.rows"));
    put("cluster.exchange.frames", per_iter("exchange.frames"));
    put(
        "cluster.exchange.wait_ms",
        per_iter("exchange.wait_ns") / 1e6,
    );
    put(
        "cluster.exchange.encoded_cols",
        per_iter("exchange.encoded_cols"),
    );
    for idx in EXCHANGE_CLASSES {
        put(
            &format!("cluster.exchange.bytes.{}", CLASSES[idx].name),
            bench.exchange_bytes_by_class[idx] as f64,
        );
    }
    put("cluster.gather.bytes", per_iter("exec.gather.bytes"));

    let rows = bench.inputs.train.rows as f64;
    let locality = rate(
        bench.inputs.feature_rows as f64,
        med(rec, "transfer.vft.locality"),
    );
    let uniform = rate(rows, med(rec, "transfer.vft.uniform"));
    put("transfer.vft.locality_rows_per_s", locality);
    put("transfer.vft.uniform_rows_per_s", uniform);
    put(
        "transfer.vft.dframe_rows_per_s",
        rate(rows, med(rec, "transfer.vft.dframe")),
    );
    put("transfer.vft.db_sim_ms", med(rec, "transfer.vft.db_sim"));
    put(
        "transfer.vft.client_sim_ms",
        med(rec, "transfer.vft.client_sim"),
    );
    put(
        "transfer.vft.queue_sim_ms",
        med(rec, "transfer.vft.queue_sim"),
    );
    put(
        "transfer.vft.receive_wait_ms",
        per_iter("vft.receive.wait_ns") / 1e6,
    );
    put(
        "transfer.vft.receive_decode_ms",
        per_iter("vft.receive.decode_ns") / 1e6,
    );
    put("transfer.vft.frames", per_iter("vft.receive.frames"));
    put("transfer.vft.segment_bytes", per_iter("vft.segment.bytes"));
    let odbc = rate(bench.shape.odbc_rows as f64, med(rec, "transfer.odbc"));
    put("transfer.odbc_rows_per_s", odbc);
    // The paper's headline ratio, on the policy the workload transfers with.
    put(
        "transfer.vft_over_odbc",
        if odbc > 0.0 { uniform / odbc } else { 0.0 },
    );

    put("distr.split_columns_ms", med(rec, "distr.split_columns"));
    put(
        "distr.partition_commits",
        per_iter("distr.partition.commits"),
    );
    put("ml.glm.fit_ms", med(rec, "ml.glm.fit"));
    put("ml.glm.iterations", med(rec, "ml.glm.iterations"));
    put("ml.kmeans.fit_ms", med(rec, "ml.kmeans.fit"));
    put("ml.kmeans.iterations", med(rec, "ml.kmeans.iterations"));
    put("ml.glm_wl.fit_ms", med(rec, "ml.glm_wl.fit"));
    put("ml.kmeans_wl.fit_ms", med(rec, "ml.kmeans_wl.fit"));
    put("ml.train.overlap_ms", med(rec, "ml.train.overlap"));
    put("core.deploy_us", med(rec, "core.deploy") * 1e3);
    put("core.load_model_us", med(rec, "core.load_model") * 1e3);
    put(
        "core.model_cache.hit_ratio",
        ratio(
            per_iter("predict.model_cache.hit"),
            per_iter("predict.model_cache.miss"),
        ),
    );
    let scored = bench
        .inputs
        .score
        .as_ref()
        .map_or(bench.inputs.train.rows, |s| s.rows) as f64;
    // `alt_paths` scores its GLM through the write-back CTAS.
    let glm_ms = med(rec, "core.predict.glm") + med(rec, "core.predict.ctas");
    put("core.predict.glm_rows_per_s", rate(scored, glm_ms));
    put(
        "core.predict.kmeans_rows_per_s",
        rate(scored, med(rec, "core.predict.kmeans")),
    );
    put("core.predict.sim_ms", med(rec, "core.predict.sim"));

    let wall: Vec<f64> = STAGES.iter().map(|s| med(rec, s.span)).collect();
    let sim: Vec<f64> = STAGES.iter().map(|s| med(rec, s.sim)).collect();
    for (i, stage) in STAGES.iter().enumerate() {
        put(&format!("loop.stage.{}.wall_ms", stage.name), wall[i]);
        put(&format!("loop.stage.{}.sim_ms", stage.name), sim[i]);
    }
    put("loop.unaccounted_pct", unaccounted_pct(rec));
    put(
        "loop.sim_wall_rank_inversions",
        rank_inversions(&wall, &sim) as f64,
    );
    let (traced, untraced) = (
        med(rec, "loop.iteration"),
        med(t.untraced, "loop.iteration"),
    );
    put(
        "obs.traced_overhead_pct",
        if untraced > 0.0 {
            100.0 * (traced - untraced) / untraced
        } else {
            0.0
        },
    );
    put("process.cpu_s", process_cpu_s());
    put(
        "host.nproc",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );

    // Emit in the declared order; a layer the workload never reached is 0.
    let declared = per_layer_names();
    for (name, _) in &m {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "per-layer metric '{name}' is computed but not declared"
        );
    }
    declared
        .into_iter()
        .map(|(name, unit)| {
            let value = m.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            Metric { name, unit, value }
        })
        .collect()
}

/// Share of the iteration's wall time no stage span covers: the median over
/// iterations of `wall − Σ stages`, over the median wall time.
pub fn unaccounted_pct(rec: &Recorder) -> f64 {
    let walls = rec.samples("loop.iteration");
    let residuals: Vec<f64> = (0..walls.len())
        .map(|i| {
            let staged: f64 = STAGES
                .iter()
                .map(|s| rec.samples(s.span).get(i).copied().unwrap_or(0.0))
                .sum();
            walls[i] - staged
        })
        .collect();
    let wall = median(walls);
    if wall > 0.0 {
        100.0 * median(&residuals) / wall
    } else {
        0.0
    }
}
