//! Train-while-loading: distributed model creation that starts *during* the
//! VFT transfer — the paper's "fast data transfer" and "distributed model
//! creation" halves composed end to end instead of run back to back.
//!
//! [`FastTransfer::db2darray_observed`] invokes a [`BatchObserver`] on every
//! decoded block inside the worker receive pools. One load-and-train serves
//! both algorithms: the [`IterativeFit`]'s transition folds each block at the
//! fit's starting parameters while the export query is still producing; the
//! merged pass goes to [`IterativeFit::warm_start`], and [`drive`] — the loop
//! `hpdglm` and `hpdkmeans` run — iterates over the loaded array.
//!
//! * **GLM** — the load is `[X | y]`, read in place: the blocks' normal
//!   equations at β = 0, solved once, give the starting β, so the first
//!   Newton iteration rode along with the load.
//! * **K-means** — the blocks' assignments to the caller's initial centers
//!   give the iteration-1 centers.
//!
//! **Merge order.** Each receive stream folds its own blocks in frame order;
//! after the transfer the stream partials are tree-merged in `(worker,
//! source node, instance)` order, the order the receive pools lay rows into
//! the array — never in arrival order — so a fit is bit-identical run to run.
//!
//! The wall-clock time spent inside the callbacks — training work hidden
//! under the transfer — is returned as `overlap_ns` and recorded on the
//! `ml.train.overlap_ns` counter, attributed to the same query id as the
//! transfer's `vft.*` metrics (so `PROFILE` shows load and training as one
//! query). The part of the export that could *not* be covered stays visible
//! through the existing [`TransferReport::queue_time`] plumbing.

use crate::exec;
use crate::report::TransferReport;
use crate::vft::{BatchObserver, FastTransfer, TransferPolicy};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::Ledger;
use vdr_distr::{DArray, DistributedR};
use vdr_ml::fit::{drive, IterativeFit, Rows, Source};
use vdr_ml::glm::{Family, GlmFit, GlmOptions};
use vdr_ml::kmeans::{KmeansFit, KmeansOptions};
use vdr_ml::models::{GlmModel, KmeansModel};
use vdr_ml::reduce::tree_merge;
use vdr_verticadb::{DbError, QueryRecord, QueryWindow, Result, VerticaDb};

/// A model fitted while its data loaded.
pub struct LoadFit<M> {
    pub model: M,
    /// The loaded array: `[X | y]` for a GLM, the features for k-means.
    pub array: DArray,
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
) -> Result<LoadFit<GlmModel>> {
    let mut columns = x_features.to_vec();
    columns.push(y_feature);
    let fit = GlmFit::new(x_features.len(), family, opts);
    load_and_train(vft, db, dr, table, &columns, policy, ledger, "GLM", fit)
}

/// Cluster `table`'s feature columns, running the first Lloyd assignment
/// pass against `opts.initial_centers` *during* the transfer and
/// warm-starting the remaining iterations from the resulting iteration-1
/// centers.
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
) -> Result<LoadFit<KmeansModel>> {
    let Some(init) = opts.initial_centers.clone() else {
        return Err(DbError::Plan(
            "kmeans_while_loading needs initial_centers".into(),
        ));
    };
    let fit =
        KmeansFit::new(features.len(), opts, init).map_err(|e| DbError::Plan(e.to_string()))?;
    load_and_train(vft, db, dr, table, features, policy, ledger, "KMEANS", fit)
}

/// Load `columns` of `table` while `fit`'s transition folds every block the
/// receive pools decode at the fit's starting parameters, then warm-start
/// `fit` from that pass and drive the rest of it over the loaded array.
#[allow(clippy::too_many_arguments)]
fn load_and_train<F>(
    vft: &FastTransfer,
    db: &VerticaDb,
    dr: &DistributedR,
    table: &str,
    columns: &[&str],
    policy: TransferPolicy,
    ledger: &Ledger,
    algorithm: &str,
    fit: F,
) -> Result<LoadFit<F::Model>>
where
    F: IterativeFit + Send + 'static,
    F::Partial: 'static,
{
    // One query id for the load and the fit: the transfer inside records a
    // `vft` history entry under it, and the run closes with a `train` entry
    // whose metric delta holds both (so `PROFILE`-style views attribute
    // `ml.train.*` and `vft.*` to one query).
    let window = QueryWindow::open(true, vdr_obs::Verbosity::Off);
    let fit = Arc::new(fit);
    // The streamed pass per `(worker, source node, instance)` stream, or the
    // first error its blocks reported (a receive pool has no other way to fail).
    let streams: Arc<Mutex<BTreeMap<_, Result<F::Partial>>>> = Arc::default();
    let overlap = Arc::new(AtomicU64::new(0));
    let observer: BatchObserver = {
        let (fit, streams, overlap) =
            (Arc::clone(&fit), Arc::clone(&streams), Arc::clone(&overlap));
        Arc::new(move |w, src, inst, batch| {
            let t = Instant::now();
            // The block's columns, read in place.
            let cols: Vec<_> = batch.columns().iter().map(|c| c.to_f64_cow()).collect();
            let rows = Rows::new(cols.iter().map(|c| &**c).collect(), None);
            let part = fit.transition(rows).map_err(exec);
            // A stream's blocks arrive in frame order on one pool thread, so
            // each stream's partial folds in that order.
            let mut streams = streams.lock();
            let folded = match streams.remove(&(w, src, inst)) {
                None => part,
                Some(Ok(mut acc)) => part.map(|p| {
                    F::merge(&mut acc, p);
                    acc
                }),
                Some(Err(e)) => Err(e),
            };
            streams.insert((w, src, inst), folded);
            overlap.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        })
    };

    let (array, report) =
        vft.db2darray_observed(db, dr, table, columns, policy, ledger, observer)?;
    let overlap_ns = overlap.load(Ordering::Relaxed);
    vdr_obs::counter("ml.train.overlap_ns", overlap_ns);

    // Merge the streams in key order — the order the receive pools lay
    // their rows into the array — never in arrival order, so the warm start
    // is a pure function of the data.
    let partials = std::mem::take(&mut *streams.lock())
        .into_values()
        .collect::<Result<Vec<_>>>()?;
    let mut fit = Arc::into_inner(fit)
        .ok_or_else(|| DbError::Exec("a receive pool still holds the fit".into()))?;
    let source = Source {
        rows: &array,
        y: None,
    };
    fit.warm_start(tree_merge(partials, F::merge), &source)
        .map_err(exec)?;
    let model = drive(fit, &source).map_err(exec)?;
    let label = format!("TRAIN {algorithm} WHILE LOADING {table}");
    db.monitor().history().record(QueryRecord {
        sim_secs: report.total().as_secs(),
        rows: report.rows,
        bytes: report.bytes,
        ..window.close("train", label)
    });
    Ok(LoadFit {
        model,
        array,
        report,
        query_id: window.id(),
        overlap_ns,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::vft::install_export_function;
    use vdr_cluster::SimCluster;
    use vdr_columnar::{Batch, Column, DataType, Schema};
    use vdr_ml::glm::hpdglm;
    use vdr_ml::kmeans::hpdkmeans;
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
            // Staged reference: same data (the [X | y] array the fit
            // returned, split), trained from scratch after the load.
            let x = fit.array.split_columns(&[0, 1]).unwrap();
            let y = fit.array.split_columns(&[2]).unwrap();
            let staged = hpdglm(&x, &y, family, &opts).unwrap();
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
        let staged = hpdkmeans(&fit.array, &opts).unwrap();
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
        // No feature columns.
        assert!(glm_while_loading(
            &vft,
            &db,
            &dr,
            "pts",
            &[],
            "py",
            Family::Gaussian,
            &GlmOptions::default(),
            TransferPolicy::Locality,
            &ledger,
        )
        .is_err());
    }
}
