//! `cv.hpdglm`: k-fold cross validation of a GLM (Figure 3, line 7).
//!
//! Rows are assigned to folds by a deterministic hash of their global index;
//! each fold's model trains on the remaining data (distributed, same
//! Newton–Raphson path — including the lane-split blocked accumulation
//! and deterministic tree-merge) and is scored on the held-out rows. The
//! folds themselves are independent, so they build/train/score concurrently
//! on scoped threads; results are collected in fold order, so the output is
//! identical to the serial loop.

use crate::error::{MlError, Result};
use crate::glm::{hpdglm, Family, GlmOptions};
use vdr_distr::{DArray, DistributedR};

/// Cross-validation output.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Held-out mean deviance per fold.
    pub fold_deviance: Vec<f64>,
    /// Held-out rows per fold.
    pub fold_rows: Vec<u64>,
}

impl CvResult {
    /// Average held-out deviance per observation.
    pub fn mean_deviance(&self) -> f64 {
        let total: f64 = self
            .fold_deviance
            .iter()
            .zip(&self.fold_rows)
            .map(|(d, r)| d * *r as f64)
            .sum();
        let rows: u64 = self.fold_rows.iter().sum();
        if rows == 0 {
            f64::NAN
        } else {
            total / rows as f64
        }
    }
}

fn fold_of(global_row: u64, folds: usize) -> usize {
    // Deterministic spread (multiplicative hashing).
    ((global_row.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % folds as u64) as usize
}

/// Run `folds`-fold cross validation of `hpdglm(x, y, family)`.
pub fn cv_hpdglm(
    dr: &DistributedR,
    x: &DArray,
    y: &DArray,
    family: Family,
    opts: &GlmOptions,
    folds: usize,
) -> Result<CvResult> {
    if folds < 2 {
        return Err(MlError::Invalid("need at least 2 folds".into()));
    }
    let (n, _) = x.dim();
    if n < folds as u64 * 2 {
        return Err(MlError::Invalid(format!(
            "{n} rows is too few for {folds} folds"
        )));
    }
    x.check_copartitioned(y)?;

    // Global row offsets per partition.
    let sizes = x.partition_sizes();
    let mut offsets = Vec::with_capacity(sizes.len());
    let mut acc = 0u64;
    for (rows, _) in &sizes {
        offsets.push(acc);
        acc += rows;
    }

    let offsets = &offsets;
    let run_fold = |fold: usize| -> Result<(f64, u64)> {
        // Build the training arrays: co-located partitions holding only
        // out-of-fold rows (partition sizes shrink — exactly what the
        // flexible Section 4 structures exist for).
        let train_x = dr.darray(x.npartitions())?;
        let train_y = dr.darray(x.npartitions())?;
        let selections = x.zip_map(y, |p, xp, yp| {
            let base = offsets[p];
            let held: Vec<bool> = (0..xp.nrow())
                .map(|r| fold_of(base + r as u64, folds) == fold)
                .collect();
            // Column by column: the rows in (`true`) or out of the fold.
            let pick = |col: &[f64], in_fold: bool| -> Vec<f64> {
                let rows = col.iter().zip(&held).filter(|&(_, &h)| h == in_fold);
                rows.map(|(v, _)| *v).collect()
            };
            let split = |in_fold| -> (Vec<Vec<f64>>, Vec<f64>) {
                let x = xp.columns().map(|c| pick(c, in_fold)).collect();
                (x, pick(yp.column(0), in_fold))
            };
            (split(false), split(true))
        })?;
        let mut held: Vec<(Vec<Vec<f64>>, Vec<f64>)> = Vec::new();
        for (p, ((xd, yd), hold)) in selections.into_iter().enumerate() {
            let worker = x.worker_of(p)?;
            let rows = yd.len();
            train_x.fill_columns_on(worker, p, rows, xd)?;
            train_y.fill_columns_on(worker, p, rows, vec![yd])?;
            held.push(hold);
        }
        let model = hpdglm(&train_x, &train_y, family, opts)?;

        // Score held-out rows.
        let mut deviance = 0.0;
        let mut rows = 0u64;
        for (hx, hy) in &held {
            let cols: Vec<&[f64]> = hx.iter().map(Vec::as_slice).collect();
            for (mu, &yy) in model.predict_batch(&cols).into_iter().zip(hy) {
                deviance += match family {
                    Family::Gaussian => (yy - mu) * (yy - mu),
                    Family::Binomial => {
                        let mu = mu.clamp(1e-12, 1.0 - 1e-12);
                        -2.0 * (yy * mu.ln() + (1.0 - yy) * (1.0 - mu).ln())
                    }
                    Family::Poisson => {
                        let mu = mu.max(1e-12);
                        let a = if yy > 0.0 { yy * (yy / mu).ln() } else { 0.0 };
                        2.0 * (a - (yy - mu))
                    }
                };
                rows += 1;
            }
        }
        Ok((
            if rows == 0 {
                0.0
            } else {
                deviance / rows as f64
            },
            rows,
        ))
    };

    // Folds are independent models over disjoint hold-outs: run them
    // concurrently and collect in fold order.
    #[allow(
        clippy::disallowed_methods,
        reason = "CV folds are model fits, not node work"
    )]
    let results: Vec<Result<(f64, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..folds).map(|f| s.spawn(move || run_fold(f))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fold thread panicked"))
            .collect()
    });
    let mut fold_deviance = Vec::with_capacity(folds);
    let mut fold_rows = Vec::with_capacity(folds);
    for r in results {
        let (dev, rows) = r?;
        fold_deviance.push(dev);
        fold_rows.push(rows);
    }
    Ok(CvResult {
        fold_deviance,
        fold_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vdr_cluster::SimCluster;

    fn dataset(dr: &DistributedR, noise: f64) -> (DArray, DArray) {
        let mut rng = StdRng::seed_from_u64(5);
        let x = dr.darray(3).unwrap();
        let mut ys = Vec::new();
        for p in 0..3 {
            let rows = 200;
            let mut xd = Vec::new();
            let mut yd = Vec::new();
            for _ in 0..rows {
                let f: f64 = rng.gen_range(-1.0..1.0);
                xd.push(f);
                yd.push(3.0 * f - 1.0 + rng.gen_range(-noise..noise.max(1e-12)));
            }
            x.fill_partition(p, rows, 1, xd).unwrap();
            ys.push(yd);
        }
        let y = x.clone_structure(1, 0.0).unwrap();
        for (p, yd) in ys.into_iter().enumerate() {
            y.fill_partition_on(y.worker_of(p).unwrap(), p, yd.len(), 1, yd)
                .unwrap();
        }
        (x, y)
    }

    #[test]
    fn cv_deviance_tracks_noise_level() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(3), 2).unwrap();
        let (x_clean, y_clean) = dataset(&dr, 0.0);
        let (x_noisy, y_noisy) = dataset(&dr, 1.0);
        let clean = cv_hpdglm(
            &dr,
            &x_clean,
            &y_clean,
            Family::Gaussian,
            &GlmOptions::default(),
            5,
        )
        .unwrap();
        let noisy = cv_hpdglm(
            &dr,
            &x_noisy,
            &y_noisy,
            Family::Gaussian,
            &GlmOptions::default(),
            5,
        )
        .unwrap();
        assert_eq!(clean.fold_deviance.len(), 5);
        assert!(clean.mean_deviance() < 1e-12, "{clean:?}");
        assert!(noisy.mean_deviance() > 0.1, "{noisy:?}");
        // Every row lands in exactly one fold.
        assert_eq!(clean.fold_rows.iter().sum::<u64>(), 600);
    }

    #[test]
    fn folds_cover_all_rows_disjointly() {
        for folds in [2, 3, 7] {
            let counts: Vec<usize> = (0..folds)
                .map(|f| (0..1000u64).filter(|&r| fold_of(r, folds) == f).count())
                .collect();
            assert_eq!(counts.iter().sum::<usize>(), 1000);
            for c in counts {
                // Reasonably balanced.
                assert!(c > 1000 / folds / 2, "fold size {c}");
            }
        }
    }

    #[test]
    fn validations() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(2), 1).unwrap();
        let (x, y) = dataset(&dr, 0.0);
        assert!(cv_hpdglm(&dr, &x, &y, Family::Gaussian, &GlmOptions::default(), 1).is_err());
    }
}
