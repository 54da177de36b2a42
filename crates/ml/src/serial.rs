//! Stock-R baselines: single-threaded implementations used by the paper's
//! single-node comparisons (Figures 17–18).

use crate::error::{MlError, Result};
use crate::kmeans::assign_partial;
use crate::linalg::{qr_least_squares, Matrix};
use crate::models::{GlmModel, KmeansModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Single-threaded Lloyd K-means over a dense row-major matrix — what
/// calling `kmeans()` in one R process does. Same kernel as the distributed
/// version, one partition, one thread.
pub fn serial_kmeans(
    data: &[f64],
    d: usize,
    k: usize,
    max_iterations: usize,
    seed: u64,
) -> Result<KmeansModel> {
    if d == 0 || !data.len().is_multiple_of(d) {
        return Err(MlError::Invalid("data length not a multiple of d".into()));
    }
    let n = data.len() / d;
    if k == 0 || k > n {
        return Err(MlError::Invalid(format!("k={k} with n={n}")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k {
        picked.insert(rng.gen_range(0..n));
    }
    // Contiguous k×d center buffer, same as the distributed version.
    let mut centers: Vec<f64> = Vec::with_capacity(k * d);
    for r in picked {
        centers.extend_from_slice(&data[r * d..(r + 1) * d]);
    }
    let mut iterations = 0;
    let mut wss = f64::INFINITY;
    while iterations < max_iterations {
        iterations += 1;
        let merged = assign_partial(data, d, &centers);
        let moved = merged.update_centers(&mut centers, |_| Ok(()))?;
        wss = merged.wss;
        if moved <= 1e-9 {
            break;
        }
    }
    Ok(KmeansModel {
        centers: centers.chunks_exact(d).map(<[f64]>::to_vec).collect(),
        iterations,
        total_withinss: wss,
    })
}

/// Single-threaded linear regression via QR decomposition — "R uses matrix
/// decomposition to implement regression" (Section 7.3.1). `features` is
/// row-major n×d; an intercept column is prepended.
pub fn serial_lm(features: &[f64], d: usize, y: &[f64]) -> Result<GlmModel> {
    if d == 0 || !features.len().is_multiple_of(d) {
        return Err(MlError::Invalid("bad feature matrix".into()));
    }
    let n = features.len() / d;
    if y.len() != n {
        return Err(MlError::Invalid(format!(
            "{n} rows but {} responses",
            y.len()
        )));
    }
    let mut design = Matrix::zeros(n, d + 1);
    for r in 0..n {
        design.set(r, 0, 1.0);
        for c in 0..d {
            design.set(r, c + 1, features[r * d + c]);
        }
    }
    let beta = qr_least_squares(&design, y)?;
    // Residual sum of squares = gaussian deviance.
    let fitted = design.matvec(&beta)?;
    let deviance: f64 = fitted
        .iter()
        .zip(y)
        .map(|(f, yy)| (yy - f) * (yy - f))
        .sum();
    Ok(GlmModel {
        coefficients: beta,
        intercept: true,
        family: crate::glm::Family::Gaussian,
        deviance,
        iterations: 1,
        converged: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_kmeans_separates_blobs() {
        let mut data = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for &(cx, cy) in &[(0.0, 0.0), (8.0, 8.0)] {
            for _ in 0..100 {
                data.push(cx + rng.gen_range(-0.3..0.3));
                data.push(cy + rng.gen_range(-0.3..0.3));
            }
        }
        let m = serial_kmeans(&data, 2, 2, 50, 11).unwrap();
        let mut found: Vec<f64> = m.centers.iter().map(|c| c[0] + c[1]).collect();
        found.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(found[0].abs() < 0.5, "{found:?}");
        assert!((found[1] - 16.0).abs() < 0.5);
    }

    #[test]
    fn serial_lm_recovers_line() {
        let features: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let y: Vec<f64> = features.iter().map(|x| 5.0 - 2.0 * x).collect();
        let m = serial_lm(&features, 1, &y).unwrap();
        assert!((m.coefficients[0] - 5.0).abs() < 1e-9);
        assert!((m.coefficients[1] + 2.0).abs() < 1e-9);
        assert!(m.deviance < 1e-18);
    }

    /// The paper's key semantic claim about Figure 18: "Even though the
    /// final answer is the same, these techniques result in different
    /// running time." QR-based R and Newton–Raphson-based Distributed R must
    /// agree on coefficients.
    #[test]
    fn qr_and_newton_raphson_agree() {
        use crate::glm::{hpdglm, Family, GlmOptions};
        use vdr_cluster::SimCluster;
        use vdr_distr::DistributedR;

        let mut rng = StdRng::seed_from_u64(99);
        let n = 600;
        let d = 3;
        let mut feats = Vec::with_capacity(n * d);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
            y.push(2.0 + row[0] - 3.0 * row[1] + 0.25 * row[2] + rng.gen_range(-0.01..0.01));
            feats.extend_from_slice(&row);
        }
        let serial = serial_lm(&feats, d, &y).unwrap();

        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(2), 2).unwrap();
        let x = dr.darray(2).unwrap();
        let half = n / 2;
        x.fill_partition(0, half, d, feats[..half * d].to_vec())
            .unwrap();
        x.fill_partition(1, n - half, d, feats[half * d..].to_vec())
            .unwrap();
        let ya = x.clone_structure(1, 0.0).unwrap();
        ya.fill_partition_on(ya.worker_of(0).unwrap(), 0, half, 1, y[..half].to_vec())
            .unwrap();
        ya.fill_partition_on(ya.worker_of(1).unwrap(), 1, n - half, 1, y[half..].to_vec())
            .unwrap();
        let distributed = hpdglm(&x, &ya, Family::Gaussian, &GlmOptions::default()).unwrap();

        for (a, b) in serial.coefficients.iter().zip(&distributed.coefficients) {
            assert!((a - b).abs() < 1e-8, "{serial:?} vs {distributed:?}");
        }
    }

    #[test]
    fn validations() {
        assert!(serial_kmeans(&[1.0, 2.0, 3.0], 2, 1, 10, 0).is_err());
        assert!(serial_kmeans(&[1.0, 2.0], 1, 5, 10, 0).is_err());
        assert!(serial_lm(&[1.0, 2.0], 1, &[1.0]).is_err());
        assert!(serial_lm(&[1.0], 0, &[1.0]).is_err());
    }
}
