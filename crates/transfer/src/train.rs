//! Train-while-loading: distributed model creation that starts *during* the
//! VFT transfer — the paper's "fast data transfer" and "distributed model
//! creation" halves composed end to end instead of run back to back.
//!
//! [`FastTransfer::db2darray_observed`] invokes a [`BatchObserver`] on every
//! decoded block inside the worker receive pools. The functions here use
//! that hook to fold iteration-0 training statistics while the export query
//! is still producing:
//!
//! * **GLM** — each arriving batch contributes its share of the
//!   normal equations `XᵀWX β = XᵀWz` at the starting coefficients
//!   ([`vdr_ml::glm::accumulate_rows`]). Partials merge by addition, so
//!   stream arrival order doesn't matter. After the transfer the merged
//!   system is solved once and [`vdr_ml::glm::hpdglm`] resumes from that β:
//!   the first Newton iteration rode along with the load.
//! * **K-means** — arriving batches are scored against the caller's initial
//!   centers ([`vdr_ml::kmeans::assign_partial`]); the merged partial yields
//!   the iteration-1 centers and [`vdr_ml::kmeans::hpdkmeans`] warm-starts
//!   from them.
//!
//! The wall-clock time spent inside the callbacks — training work hidden
//! under the transfer — is returned as `overlap_ns` and recorded on the
//! `ml.train.overlap_ns` counter, attributed to the same query id as the
//! transfer's `vft.*` metrics (so `PROFILE` shows load and training as one
//! query). The part of the export that could *not* be covered stays visible
//! through the existing [`TransferReport::queue_time`] plumbing.

use crate::report::TransferReport;
use crate::vft::{BatchObserver, FastTransfer, TransferPolicy};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::Ledger;
use vdr_distr::{DArray, DistributedR};
use vdr_ml::glm::{accumulate_rows, hpdglm, Family, GlmOptions, GlmPartials};
use vdr_ml::kmeans::{assign_partial, hpdkmeans, merge_partials, KmeansOptions, KmeansPartial};
use vdr_ml::models::{GlmModel, KmeansModel};
use vdr_verticadb::{DbError, Result, VerticaDb};

fn exec<E: std::fmt::Display>(e: E) -> DbError {
    DbError::Exec(e.to_string())
}

/// Enter (or inherit) one query scope for the whole load-and-train, so the
/// `ml.train.*` metrics land on the same `PROFILE` row as the `vft.*` ones.
fn train_query_scope() -> vdr_obs::QueryScope {
    let query_id = match vdr_obs::current_query_id() {
        0 => vdr_obs::next_query_id(),
        id => id,
    };
    vdr_obs::QueryScope::enter(query_id)
}

/// Attribution bracket around one load-and-train: snapshots metrics on open
/// and, on [`TrainAttribution::finish`], records the run into the database's
/// query history so `v_monitor.query_requests` lists it and
/// [`vdr_verticadb::monitor::profile_batch`] attributes its `ml.train.*` /
/// `vft.*` metric deltas to the train query id, like `PROFILE` does for SQL
/// statements.
struct TrainAttribution {
    query_id: u64,
    label: String,
    started: Instant,
    before: Option<vdr_obs::MetricsSnapshot>,
}

impl TrainAttribution {
    fn open(label: String) -> Self {
        TrainAttribution {
            query_id: vdr_obs::current_query_id(),
            label,
            started: Instant::now(),
            // Mirror the tracked SQL path: with recording off nothing moves
            // between the snapshots, so skip the capture entirely.
            before: vdr_obs::Verbosity::current()
                .recording()
                .then(|| vdr_obs::global().metrics().snapshot()),
        }
    }

    fn finish(self, db: &VerticaDb, report: &TransferReport) {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let recording = self.before.is_some();
        if recording {
            vdr_obs::observe("query.wall_us", wall_ns as f64 / 1e3);
        }
        let after = recording.then(|| vdr_obs::global().metrics().snapshot());
        let metrics_delta = match (&after, self.before) {
            (Some(after), Some(before)) => after.diff(&before),
            _ => Default::default(),
        };
        // Train-pool completion is a data-collector tick of its own: the
        // transfer inside ticked with trigger "vft" and carried the per-node
        // pool usage, so this tick contributes the train-level rollup plus an
        // initiator-lane sample holding the `ml.train.*` deltas (they are
        // recorded without a node label and would otherwise never land in a
        // ring).
        let dc = vdr_obs::global().dc();
        if dc.sampling() {
            let cache = db.storage().block_cache();
            dc.tick(vdr_obs::TickContext {
                query_id: self.query_id,
                trigger: "train",
                label: self.label.clone(),
                status: "complete".to_string(),
                rows: report.rows,
                bytes: report.bytes,
                sim_secs: report.total().as_secs(),
                wall_ns,
                delta: metrics_delta.clone(),
                latency: after
                    .as_ref()
                    .and_then(|snap| snap.histogram_total("query.wall_us")),
                usage: vec![vdr_obs::TickUsage {
                    node: 0,
                    sim_secs: report.total().as_secs(),
                    cpu_core_ns: 0.0,
                    disk_read_bytes: 0,
                    disk_write_bytes: 0,
                    net_in_bytes: 0,
                    net_out_bytes: 0,
                    cache_bytes: cache.bytes_on(vdr_cluster::NodeId(0)),
                }],
            });
        }
        db.monitor().history().record(vdr_verticadb::QueryRecord {
            id: self.query_id,
            sql: self.label,
            status: "complete".to_string(),
            sim_secs: report.total().as_secs(),
            wall_ns,
            rows: report.rows,
            bytes: report.bytes,
            phases: Vec::new(),
            metrics_delta,
        });
    }
}

/// A GLM fitted while its data loaded.
pub struct GlmLoadFit {
    pub model: GlmModel,
    pub x: DArray,
    pub y: DArray,
    pub report: TransferReport,
    /// Query id the whole load-and-train ran under (shared with the
    /// transfer's `vft.*` metrics; keyed into `v_monitor.query_requests`).
    pub query_id: u64,
    /// Wall-clock nanoseconds of training work folded into the receive
    /// pools while the export was still running (also recorded on the
    /// `ml.train.overlap_ns` counter).
    pub overlap_ns: u64,
}

/// Fit `hpdglm(y ~ x_features)` on `table`, starting the training during the
/// transfer itself: iteration-0 IRLS statistics are folded on each block as
/// the receive pools decode it, and the post-load fit resumes from the
/// resulting warm start.
#[allow(clippy::too_many_arguments)]
pub fn glm_while_loading(
    vft: &FastTransfer,
    db: &VerticaDb,
    dr: &DistributedR,
    table: &str,
    x_features: &[&str],
    y_feature: &str,
    family: Family,
    opts: &GlmOptions,
    policy: TransferPolicy,
    ledger: &Ledger,
) -> Result<GlmLoadFit> {
    let d = x_features.len();
    if d == 0 {
        return Err(DbError::Plan("no feature columns requested".into()));
    }
    if opts.initial_beta.is_some() {
        return Err(DbError::Plan(
            "glm_while_loading computes its own warm start; leave initial_beta unset".into(),
        ));
    }
    let p = d + usize::from(opts.add_intercept);
    let _scope = train_query_scope();
    let attribution = TrainAttribution::open(format!("TRAIN GLM WHILE LOADING {table}"));

    // Iteration-0 normal equations at the starting coefficients, or the
    // first error a batch's accumulation reported (the receive pools have
    // no other way to fail the load-and-train).
    let beta0 = vec![0.0; p];
    let partials = Arc::new(Mutex::new(Ok(GlmPartials::zeros(p))));
    let overlap = Arc::new(AtomicU64::new(0));
    let observer: BatchObserver = {
        let partials = Arc::clone(&partials);
        let overlap = Arc::clone(&overlap);
        let intercept = opts.add_intercept;
        Arc::new(move |_w, _src, _inst, batch| {
            let t = Instant::now();
            let Ok(rows) = crate::batch_to_f64_rows(batch) else {
                return;
            };
            // The block carries [X | y]: peel the response off each row.
            let nrow = batch.num_rows();
            let mut xb = Vec::with_capacity(nrow * d);
            let mut yb = Vec::with_capacity(nrow);
            for row in rows.chunks_exact(d + 1) {
                xb.extend_from_slice(&row[..d]);
                yb.push(row[d]);
            }
            let part = accumulate_rows(&xb, &yb, d, &beta0, family, intercept);
            let mut merged = partials.lock();
            match (&mut *merged, part) {
                (Ok(m), Ok(part)) => m.merge(&part),
                (Ok(_), Err(e)) => *merged = Err(e),
                (Err(_), _) => {}
            }
            overlap.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })
    };

    let mut columns = x_features.to_vec();
    columns.push(y_feature);
    let (xy, report) = vft.db2darray_observed(db, dr, table, &columns, policy, ledger, observer)?;
    let overlap_ns = overlap.load(Ordering::Relaxed);
    vdr_obs::counter("ml.train.overlap_ns", overlap_ns);

    let (x, y) = split_xy(dr, &xy, d)?;
    let mut fit_opts = opts.clone();
    fit_opts.initial_beta = {
        let merged = partials.lock();
        let merged = merged.as_ref().map_err(exec)?;
        // A singular or under-determined system just means no warm
        // start — the staged path from scratch still runs.
        if merged.rows >= p as u64 {
            merged.solve().ok()
        } else {
            None
        }
    };
    let model = hpdglm(&x, &y, family, &fit_opts).map_err(exec)?;
    let query_id = attribution.query_id;
    attribution.finish(db, &report);
    Ok(GlmLoadFit {
        model,
        x,
        y,
        report,
        query_id,
        overlap_ns,
    })
}

/// Split a combined `[X | y]` darray (`d + 1` columns) into co-partitioned
/// feature and response arrays on the same workers.
fn split_xy(dr: &DistributedR, xy: &DArray, d: usize) -> Result<(DArray, DArray)> {
    let nparts = xy.npartitions();
    let x = dr.darray(nparts).map_err(exec)?;
    let y = dr.darray(nparts).map_err(exec)?;
    let parts = xy
        .map_partitions(|p, part| {
            let mut xd = Vec::with_capacity(part.nrow * d);
            let mut yd = Vec::with_capacity(part.nrow);
            for row in part.data.chunks_exact(d + 1) {
                xd.extend_from_slice(&row[..d]);
                yd.push(row[d]);
            }
            (p, part.nrow, xd, yd)
        })
        .map_err(exec)?;
    for (p, nrow, xd, yd) in parts {
        let w = xy.worker_of(p).map_err(exec)?;
        x.fill_partition_on(w, p, nrow, d, xd).map_err(exec)?;
        y.fill_partition_on(w, p, nrow, 1, yd).map_err(exec)?;
    }
    Ok((x, y))
}

/// A K-means model fitted while its data loaded.
pub struct KmeansLoadFit {
    pub model: KmeansModel,
    pub x: DArray,
    pub report: TransferReport,
    /// Query id the whole load-and-train ran under (shared with the
    /// transfer's `vft.*` metrics; keyed into `v_monitor.query_requests`).
    pub query_id: u64,
    /// Wall-clock nanoseconds of assignment work folded into the receive
    /// pools while the export was still running (also recorded on the
    /// `ml.train.overlap_ns` counter).
    pub overlap_ns: u64,
}

/// Cluster `table`'s feature columns, running the first Lloyd assignment
/// pass against `opts.initial_centers` *during* the transfer and
/// warm-starting [`hpdkmeans`] from the resulting iteration-1 centers.
///
/// `initial_centers` is required: scoring starts before the data is
/// complete, so centers cannot be sampled from it.
#[allow(clippy::too_many_arguments)]
pub fn kmeans_while_loading(
    vft: &FastTransfer,
    db: &VerticaDb,
    dr: &DistributedR,
    table: &str,
    features: &[&str],
    opts: &KmeansOptions,
    policy: TransferPolicy,
    ledger: &Ledger,
) -> Result<KmeansLoadFit> {
    let d = features.len();
    if d == 0 {
        return Err(DbError::Plan("no feature columns requested".into()));
    }
    let Some(init) = opts.initial_centers.clone() else {
        return Err(DbError::Plan(
            "kmeans_while_loading needs opts.initial_centers: scoring starts before \
             the data is complete, so centers cannot be sampled from it"
                .into(),
        ));
    };
    if init.len() != opts.k * d {
        return Err(DbError::Plan(format!(
            "initial_centers must be k×d = {}, got {}",
            opts.k * d,
            init.len()
        )));
    }
    let _scope = train_query_scope();
    let attribution = TrainAttribution::open(format!("TRAIN KMEANS WHILE LOADING {table}"));

    let partial = Arc::new(Mutex::new(KmeansPartial::zeros(opts.k, d)));
    let overlap = Arc::new(AtomicU64::new(0));
    let observer: BatchObserver = {
        let partial = Arc::clone(&partial);
        let overlap = Arc::clone(&overlap);
        let centers = init.clone();
        Arc::new(move |_w, _src, _inst, batch| {
            let t = Instant::now();
            let Ok(rows) = crate::batch_to_f64_rows(batch) else {
                return;
            };
            let part = assign_partial(&rows, d, &centers);
            merge_partials(&mut partial.lock(), &part);
            overlap.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })
    };

    let (x, report) = vft.db2darray_observed(db, dr, table, features, policy, ledger, observer)?;
    let overlap_ns = overlap.load(Ordering::Relaxed);
    vdr_obs::counter("ml.train.overlap_ns", overlap_ns);

    // Iteration-1 centers from the statistics folded during the load. A
    // center that saw no rows keeps its initial position (hpdkmeans reseeds
    // it if it stays empty).
    let mut centers = init;
    {
        let merged = partial.lock();
        for c in 0..opts.k {
            if merged.counts[c] > 0 {
                let n = merged.counts[c] as f64;
                for (cj, s) in centers[c * d..(c + 1) * d]
                    .iter_mut()
                    .zip(&merged.sums[c * d..(c + 1) * d])
                {
                    *cj = s / n;
                }
            }
        }
    }
    let mut fit_opts = opts.clone();
    fit_opts.initial_centers = Some(centers);
    // One Lloyd iteration already happened under the transfer.
    fit_opts.max_iterations = opts.max_iterations.saturating_sub(1).max(1);
    let model = hpdkmeans(&x, &fit_opts).map_err(exec)?;
    let query_id = attribution.query_id;
    attribution.finish(db, &report);
    Ok(KmeansLoadFit {
        model,
        x,
        report,
        query_id,
        overlap_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vft::install_export_function;
    use vdr_cluster::SimCluster;
    use vdr_columnar::{Batch, Column, DataType, Schema};
    use vdr_verticadb::{Segmentation, TableDef};

    /// Deterministic pseudo-uniform in [0, 1) from a row index (splitmix64,
    /// so streams with different salts are decorrelated).
    fn unit(i: i64, salt: u64) -> f64 {
        let mut z = (i as u64).wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A regression table: f0, f1 features plus gaussian and binomial
    /// responses around known coefficients (the paper's validation
    /// methodology — generate data from coefficients you expect back).
    fn regression_db(nodes: usize, rows: i64) -> (Arc<VerticaDb>, DistributedR, FastTransfer) {
        let cluster = SimCluster::for_tests(nodes);
        let db = VerticaDb::new(cluster.clone());
        let schema = Schema::of(&[
            ("f0", DataType::Float64),
            ("f1", DataType::Float64),
            ("y_gauss", DataType::Float64),
            ("y_logit", DataType::Float64),
        ]);
        db.create_table(TableDef {
            name: "train".into(),
            schema: schema.clone(),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
        let chunk = (rows / 4).max(1);
        let mut start = 0i64;
        while start < rows {
            let end = (start + chunk).min(rows);
            let idx: Vec<i64> = (start..end).collect();
            let f0: Vec<f64> = idx.iter().map(|&i| 4.0 * unit(i, 1) - 2.0).collect();
            let f1: Vec<f64> = idx.iter().map(|&i| 4.0 * unit(i, 2) - 2.0).collect();
            let yg: Vec<f64> = f0
                .iter()
                .zip(&f1)
                .map(|(a, b)| 2.0 + 1.5 * a - 0.5 * b)
                .collect();
            let yl: Vec<f64> = idx
                .iter()
                .zip(f0.iter().zip(&f1))
                .map(|(&i, (a, b))| {
                    let eta = 0.4 + 1.2 * a - 0.8 * b;
                    let p = 1.0 / (1.0 + (-eta).exp());
                    f64::from(unit(i, 3) < p)
                })
                .collect();
            let batch = Batch::new(
                schema.clone(),
                vec![
                    Column::from_f64(f0),
                    Column::from_f64(f1),
                    Column::from_f64(yg),
                    Column::from_f64(yl),
                ],
            )
            .unwrap();
            db.copy("train", vec![batch]).unwrap();
            start = end;
        }
        let dr = DistributedR::on_all_nodes(cluster, 2).unwrap();
        let vft = install_export_function(&db);
        (db, dr, vft)
    }

    /// Three deterministic 2-D blobs for the k-means path.
    fn blobs_db(nodes: usize, rows: i64) -> (Arc<VerticaDb>, DistributedR, FastTransfer) {
        let cluster = SimCluster::for_tests(nodes);
        let db = VerticaDb::new(cluster.clone());
        let schema = Schema::of(&[("px", DataType::Float64), ("py", DataType::Float64)]);
        db.create_table(TableDef {
            name: "pts".into(),
            schema: schema.clone(),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
        let centers = [(0.0, 0.0), (12.0, 12.0), (-12.0, 10.0)];
        let chunk = (rows / 4).max(1);
        let mut start = 0i64;
        while start < rows {
            let end = (start + chunk).min(rows);
            let mut px = Vec::new();
            let mut py = Vec::new();
            for i in start..end {
                let (cx, cy) = centers[(i % 3) as usize];
                px.push(cx + unit(i, 7) - 0.5);
                py.push(cy + unit(i, 8) - 0.5);
            }
            let batch = Batch::new(
                schema.clone(),
                vec![Column::from_f64(px), Column::from_f64(py)],
            )
            .unwrap();
            db.copy("pts", vec![batch]).unwrap();
            start = end;
        }
        let dr = DistributedR::on_all_nodes(cluster, 2).unwrap();
        let vft = install_export_function(&db);
        (db, dr, vft)
    }

    #[test]
    fn pipelined_glm_matches_staged_fit() {
        // Mirror of the transfer crate's pipelined-vs-staged equivalence
        // test, for training: fitting while loading must produce the same
        // model as loading first and fitting after.
        let (db, dr, vft) = regression_db(3, 3000);
        let ledger = Ledger::new();
        for (y_col, family, tol) in [
            ("y_gauss", Family::Gaussian, 1e-9),
            ("y_logit", Family::Binomial, 1e-6),
        ] {
            let opts = GlmOptions {
                tolerance: 1e-12,
                max_iterations: 60,
                ..Default::default()
            };
            let fit = glm_while_loading(
                &vft,
                &db,
                &dr,
                "train",
                &["f0", "f1"],
                y_col,
                family,
                &opts,
                TransferPolicy::Locality,
                &ledger,
            )
            .unwrap();
            assert_eq!(fit.report.rows, 3000);
            assert!(fit.model.converged);
            assert!(
                fit.overlap_ns > 0,
                "iteration-0 work must overlap the transfer"
            );
            // Staged reference: same data (the arrays the fit returned),
            // trained from scratch after the load.
            let staged = hpdglm(&fit.x, &fit.y, family, &opts).unwrap();
            for (a, b) in fit.model.coefficients.iter().zip(&staged.coefficients) {
                assert!(
                    (a - b).abs() < tol * b.abs().max(1.0),
                    "{family:?}: {:?} vs {:?}",
                    fit.model.coefficients,
                    staged.coefficients
                );
            }
        }
    }

    #[test]
    fn pipelined_gaussian_recovers_exact_coefficients() {
        let (db, dr, vft) = regression_db(2, 2000);
        let fit = glm_while_loading(
            &vft,
            &db,
            &dr,
            "train",
            &["f0", "f1"],
            "y_gauss",
            Family::Gaussian,
            &GlmOptions::default(),
            TransferPolicy::Uniform,
            &Ledger::new(),
        )
        .unwrap();
        for (c, e) in fit.model.coefficients.iter().zip([2.0, 1.5, -0.5]) {
            assert!((c - e).abs() < 1e-9, "{:?}", fit.model.coefficients);
        }
    }

    #[test]
    fn pipelined_kmeans_matches_staged_fit() {
        let (db, dr, vft) = blobs_db(3, 3000);
        let opts = KmeansOptions {
            k: 3,
            max_iterations: 30,
            initial_centers: Some(vec![1.0, 1.0, 11.0, 11.0, -11.0, 9.0]),
            ..Default::default()
        };
        let fit = kmeans_while_loading(
            &vft,
            &db,
            &dr,
            "pts",
            &["px", "py"],
            &opts,
            TransferPolicy::Locality,
            &Ledger::new(),
        )
        .unwrap();
        assert_eq!(fit.report.rows, 3000);
        assert!(fit.overlap_ns > 0, "assignment must overlap the transfer");
        // Staged reference: same data, Lloyd from the same initial centers
        // entirely after the load.
        let staged = hpdkmeans(&fit.x, &opts).unwrap();
        for (a, b) in fit.model.centers.iter().zip(&staged.centers) {
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x - y).abs() < 1e-9,
                    "{:?} vs {:?}",
                    fit.model.centers,
                    staged.centers
                );
            }
        }
        assert!(
            (fit.model.total_withinss - staged.total_withinss).abs()
                < 1e-9 * staged.total_withinss.max(1.0)
        );
    }

    #[test]
    fn validations() {
        let (db, dr, vft) = blobs_db(1, 60);
        let ledger = Ledger::new();
        // K-means needs explicit starting centers.
        let no_init = KmeansOptions {
            k: 3,
            ..Default::default()
        };
        assert!(kmeans_while_loading(
            &vft,
            &db,
            &dr,
            "pts",
            &["px", "py"],
            &no_init,
            TransferPolicy::Locality,
            &ledger,
        )
        .is_err());
        // A caller-set warm start would be silently overwritten — reject it.
        let preset = GlmOptions {
            initial_beta: Some(vec![0.0; 3]),
            ..Default::default()
        };
        assert!(glm_while_loading(
            &vft,
            &db,
            &dr,
            "pts",
            &["px"],
            "py",
            Family::Gaussian,
            &preset,
            TransferPolicy::Locality,
            &ledger,
        )
        .is_err());
    }
}
