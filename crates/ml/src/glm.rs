//! `hpdglm`: distributed generalized linear models.
//!
//! "R uses matrix decomposition to implement regression, while Distributed R
//! uses the Newton-Raphson technique" (Section 7.3.1). For canonical links,
//! Newton–Raphson is iteratively reweighted least squares: each iteration
//! every partition accumulates its share of `XᵀWX` and `XᵀWz`, the master
//! reduces the `p×p` partials and solves one small system.
//!
//! The per-partition map step is *blocked*: rows are processed in
//! [`TILE_ROWS`]-row tiles transposed into a column-major scratch, so
//! `η = X·β` is the same column-sweep gemv the batch prediction kernels use,
//! the `μ/w/z` link math runs as one vectorized sweep, and `XᵀWX` is one
//! symmetric rank-update per tile instead of `p` rank-1 `axpy` updates per
//! row: every tile column is scaled by `w` once into a second scratch (`XᵀWz`
//! is a `dot` of each scaled column with `z`), and
//! [`crate::linalg::syrk_upper`] walks the upper triangle in 2 × 2 blocks of
//! columns, each block's four accumulators — four row lanes wide — held in
//! registers across the tile, so a four-row chunk is loaded once per
//! multiply-add where a `dot` per cell loads two (the kernel is load-bound,
//! not flop-bound). The triangle is mirrored once at the end.
//!
//! **Bit-identity contract.** Every cell of `XᵀWX` and `XᵀWz` is added in
//! [`crate::linalg::dot`]'s association — lanes `(s0+s1)+(s2+s3)`, then the
//! `t mod 4` tail — whatever the block shape, so the blocked kernel returns
//! the same bits as a `dot` per cell: same IRLS iterates, same iteration
//! count, same deployed model bytes. The unit tests hold it to a copy of the
//! dot-per-cell loop, and `tests/glm_golden.rs` to coefficient bits captured
//! before the block kernel existed.
//!
//! [`GlmFit`] is IRLS as an [`IterativeFit`]; every fit iterates in
//! [`crate::fit::drive`], which splits each partition's rows across the
//! worker's instance lanes and tree-merges the partials deterministically.
//! The kernel reads rows by stride, so the response is read in place
//! whether it sits in its own array (`hpdglm(x, y, …)`) or in the last
//! column of the `[X | y]` array a train-while-loading transfer produced.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{MlError, Result};
use crate::fit::{drive, IterativeFit, Rows, Source};
use crate::linalg::{axpy, dot, solve_spd, syrk_upper, Matrix};
use crate::models::GlmModel;
use crate::reduce::TILE_ROWS;
use vdr_distr::DArray;
use vdr_obs::SpanGuard;

/// Exponential-family response distributions with canonical links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Identity link: ordinary least squares (one Newton step suffices).
    Gaussian,
    /// Logit link: logistic regression
    /// (`family=binomial(link=logit)` in Figure 3).
    Binomial,
    /// Log link: count regression.
    Poisson,
}

impl Family {
    /// Inverse link: linear predictor → mean response.
    pub fn link_inverse(self, eta: f64) -> f64 {
        match self {
            Family::Gaussian => eta,
            Family::Binomial => 1.0 / (1.0 + (-eta).exp()),
            Family::Poisson => eta.exp().min(1e300),
        }
    }

    /// IRLS working weight at mean `mu` (the variance function for
    /// canonical links).
    fn weight(self, mu: f64) -> f64 {
        match self {
            Family::Gaussian => 1.0,
            Family::Binomial => (mu * (1.0 - mu)).max(1e-10),
            Family::Poisson => mu.max(1e-10),
        }
    }

    /// Unit deviance contribution of one observation.
    fn deviance(self, y: f64, mu: f64) -> f64 {
        match self {
            Family::Gaussian => (y - mu) * (y - mu),
            Family::Binomial => {
                let mu = mu.clamp(1e-12, 1.0 - 1e-12);
                let a = if y > 0.0 { y * (y / mu).ln() } else { 0.0 };
                let b = if y < 1.0 {
                    (1.0 - y) * ((1.0 - y) / (1.0 - mu)).ln()
                } else {
                    0.0
                };
                2.0 * (a + b)
            }
            Family::Poisson => {
                let mu = mu.max(1e-12);
                let a = if y > 0.0 { y * (y / mu).ln() } else { 0.0 };
                2.0 * (a - (y - mu))
            }
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Family::Gaussian => "gaussian",
            Family::Binomial => "binomial",
            Family::Poisson => "poisson",
        }
    }
}

/// Fit options.
#[derive(Debug, Clone)]
pub struct GlmOptions {
    pub add_intercept: bool,
    pub max_iterations: usize,
    /// Relative deviance-change convergence threshold.
    pub tolerance: f64,
}

impl Default for GlmOptions {
    fn default() -> Self {
        GlmOptions {
            add_intercept: true,
            max_iterations: 25,
            tolerance: 1e-8,
        }
    }
}

/// Sufficient statistics of one IRLS step over some set of rows: the normal
/// equations `(XᵀWX) β = XᵀWz` plus the deviance at the β the pass was run
/// with. Partials from disjoint row sets merge by addition, which is what
/// lets iteration-0 statistics accumulate while data is still loading.
#[derive(Debug, Clone)]
pub struct GlmPartials {
    pub xtwx: Matrix,
    pub xtwz: Vec<f64>,
    pub deviance: f64,
}

impl GlmPartials {
    pub fn zeros(p: usize) -> Self {
        GlmPartials {
            xtwx: Matrix::zeros(p, p),
            xtwz: vec![0.0; p],
            deviance: 0.0,
        }
    }

    /// In-place, allocation-free merge (the reduce step).
    pub fn merge(&mut self, other: &GlmPartials) {
        for (a, b) in self.xtwx.data.iter_mut().zip(&other.xtwx.data) {
            *a += b;
        }
        for (a, b) in self.xtwz.iter_mut().zip(&other.xtwz) {
            *a += b;
        }
        self.deviance += other.deviance;
    }

    /// Newton step: solve `(XᵀWX) β = XᵀWz`.
    pub fn solve(&self) -> Result<Vec<f64>> {
        solve_spd(&self.xtwx, &self.xtwz)
    }
}

/// Load rows `[row0, row0+t)` of `rows` into the column-major tile `cols`
/// (ones column first when `intercept` is set) and `η = X_tile · β` into
/// `eta`: one [`axpy`] sweep per column, exactly like
/// [`crate::models::GlmModel::linear_predictor_batch`].
fn load_tile(
    rows: Rows<'_>,
    row0: usize,
    t: usize,
    beta: &[f64],
    intercept: bool,
    cols: &mut [f64],
    eta: &mut [f64],
) {
    let (off, cap) = (
        usize::from(intercept),
        cols.len().checked_div(beta.len()).unwrap_or(0),
    );
    if intercept {
        cols[..t].fill(1.0);
    }
    for j in 0..beta.len() - off {
        let col = &mut cols[(j + off) * cap..(j + off) * cap + t];
        let mut idx = row0 * rows.stride + j;
        for v in col.iter_mut() {
            *v = rows.data[idx];
            idx += rows.stride;
        }
    }
    eta[..t].fill(0.0);
    for (i, &b) in beta.iter().enumerate() {
        axpy(b, &cols[i * cap..i * cap + t], &mut eta[..t]);
    }
}

/// Blocked accumulation of the IRLS sufficient statistics over `rows` (`d`
/// features, then the response: kept apart, or in column `d` of `[X | y]`
/// rows, read in place) at coefficients `beta` (`d + intercept` of them).
/// This is the training map kernel, [`GlmFit`]'s transition.
pub fn accumulate_rows(
    rows: Rows<'_>,
    d: usize,
    beta: &[f64],
    family: Family,
    intercept: bool,
) -> Result<GlmPartials> {
    let (nrow, p) = (rows.nrow(), beta.len());
    if p != d + usize::from(intercept)
        || rows.stride < d + usize::from(rows.y.is_none())
        || rows.data.len() != nrow * rows.stride
        || rows.y.is_some_and(|y| y.len() != nrow)
    {
        let (n, stride) = (rows.data.len(), rows.stride);
        return Err(MlError::Invalid(format!(
            "{p} coefficients and {n} values in rows of {stride} are not a {d}-feature design"
        )));
    }
    let (y, step) = rows.response(d);
    let mut out = GlmPartials::zeros(p);
    if nrow == 0 {
        return Ok(out);
    }
    let cap = TILE_ROWS.min(nrow);
    let mut cols = vec![0.0; p * cap];
    let mut eta = vec![0.0; cap];
    let mut wbuf = vec![0.0; cap];
    let mut zbuf = vec![0.0; cap];
    let mut wcols = vec![0.0; p * cap];
    let mut row0 = 0;
    while row0 < nrow {
        let t = cap.min(nrow - row0);
        load_tile(rows, row0, t, beta, intercept, &mut cols, &mut eta);
        // One vectorized sweep for the link math: working weight w, working
        // response z = η + (y − μ)/w, and the deviance trace.
        for r in 0..t {
            let mu = family.link_inverse(eta[r]);
            let w = family.weight(mu);
            let yv = y[(row0 + r) * step];
            wbuf[r] = w;
            zbuf[r] = eta[r] + (yv - mu) / w;
            out.deviance += family.deviance(yv, mu);
        }
        // Scale every column by the weights once (XᵀWz falls out of the
        // scaled columns), then XᵀWX is one register-blocked symmetric
        // update over the upper triangle.
        for i in 0..p {
            let ci = &cols[i * cap..i * cap + t];
            let wci = &mut wcols[i * cap..i * cap + t];
            for r in 0..t {
                wci[r] = wbuf[r] * ci[r];
            }
            out.xtwz[i] += dot(wci, &zbuf[..t]);
        }
        syrk_upper(&wcols, &cols, cap, t, p, &mut out.xtwx.data)?;
        row0 += t;
    }
    // Mirror the accumulated upper triangle once at the end.
    for i in 1..p {
        for j in 0..i {
            out.xtwx.data[i * p + j] = out.xtwx.data[j * p + i];
        }
    }
    Ok(out)
}

/// Row-at-a-time reference accumulator (the pre-blocking kernel): `p` rank-1
/// `axpy` updates per row. Kept as the oracle for the blocked-vs-row-wise
/// equivalence property tests.
pub fn accumulate_rows_reference(
    x: &[f64],
    y: &[f64],
    d: usize,
    beta: &[f64],
    family: Family,
    intercept: bool,
) -> GlmPartials {
    let p = beta.len();
    let nrow = y.len();
    let mut out = GlmPartials::zeros(p);
    let mut xrow = vec![0.0; p];
    for r in 0..nrow {
        let feats = &x[r * d..(r + 1) * d];
        if intercept {
            xrow[0] = 1.0;
            xrow[1..].copy_from_slice(feats);
        } else {
            xrow.copy_from_slice(feats);
        }
        let eta: f64 = dot(&xrow, beta);
        let mu = family.link_inverse(eta);
        let w = family.weight(mu);
        let yv = y[r];
        let z = eta + (yv - mu) / w;
        out.deviance += family.deviance(yv, mu);
        for i in 0..p {
            let wxi = w * xrow[i];
            out.xtwz[i] += wxi * z;
            axpy(wxi, &xrow, &mut out.xtwx.data[i * p..(i + 1) * p]);
        }
    }
    out
}

/// Deviance of `beta` over `rows` (laid out as for [`accumulate_rows`]):
/// the blocked η pass without the weighted accumulation (the final Gaussian
/// deviance).
pub fn deviance_rows(
    rows: Rows<'_>,
    d: usize,
    beta: &[f64],
    family: Family,
    intercept: bool,
) -> f64 {
    let (nrow, (y, step)) = (rows.nrow(), rows.response(d));
    if nrow == 0 {
        return 0.0;
    }
    let cap = TILE_ROWS.min(nrow);
    let mut cols = vec![0.0; beta.len() * cap];
    let mut eta = vec![0.0; cap];
    let mut deviance = 0.0;
    let mut row0 = 0;
    while row0 < nrow {
        let t = cap.min(nrow - row0);
        load_tile(rows, row0, t, beta, intercept, &mut cols, &mut eta);
        for r in 0..t {
            deviance += family.deviance(y[(row0 + r) * step], family.link_inverse(eta[r]));
        }
        row0 += t;
    }
    deviance
}

/// IRLS as an [`IterativeFit`]: the transition accumulates `XᵀWX` / `XᵀWz`
/// at the current β ([`accumulate_rows`]), the step solves for the next β
/// and stops when the relative deviance change falls under the tolerance.
#[derive(Debug, Clone)]
pub struct GlmFit {
    d: usize,
    family: Family,
    opts: GlmOptions,
    beta: Vec<f64>,
    /// Deviance of the last pass (∞ before the first).
    deviance: f64,
}

impl GlmFit {
    /// A fit of `d` features starting at β = 0.
    pub fn new(d: usize, family: Family, opts: &GlmOptions) -> Self {
        GlmFit {
            d,
            family,
            opts: opts.clone(),
            beta: vec![0.0; d + usize::from(opts.add_intercept)],
            deviance: f64::INFINITY,
        }
    }
}

impl IterativeFit for GlmFit {
    type Partial = GlmPartials;
    type Model = GlmModel;
    const NAME: &'static str = "ml.glm";

    fn max_iterations(&self) -> usize {
        self.opts.max_iterations
    }

    fn transition(&self, rows: Rows<'_>) -> Result<GlmPartials> {
        let intercept = self.opts.add_intercept;
        accumulate_rows(rows, self.d, &self.beta, self.family, intercept)
    }

    fn merge(acc: &mut GlmPartials, other: GlmPartials) {
        acc.merge(&other);
    }

    fn step(
        &mut self,
        merged: GlmPartials,
        source: &Source<'_>,
        span: &mut SpanGuard<'_>,
    ) -> Result<bool> {
        self.beta = merged.solve()?;
        // Gaussian/identity is exact in one step: one more pass for the
        // final deviance at the solution.
        let gaussian = self.family == Family::Gaussian;
        let deviance = if gaussian {
            let (d, beta, intercept) = (self.d, &self.beta, self.opts.add_intercept);
            source
                .map(|rows| deviance_rows(rows, d, beta, Family::Gaussian, intercept))?
                .into_iter()
                .sum()
        } else {
            merged.deviance
        };
        // The per-iteration objective trace: exact values on the span,
        // magnitudes in the histogram, the latest value on the gauge.
        span.record("deviance", deviance);
        let rel = (deviance - self.deviance).abs() / (deviance.abs() + 0.1);
        if !gaussian {
            span.record("delta", rel);
        }
        vdr_obs::observe("ml.glm.deviance", deviance);
        vdr_obs::gauge("ml.train.deviance", deviance);
        self.deviance = deviance;
        Ok(gaussian || rel < self.opts.tolerance)
    }

    /// A solvable iteration-0 system becomes the starting β; without one
    /// (none given, or singular) β starts at 0, except that a binomial
    /// intercept starts at the logit of the base rate, which keeps early
    /// iterations stable.
    fn warm_start(&mut self, first: Option<GlmPartials>, source: &Source<'_>) -> Result<()> {
        let (n, ncol) = source.rows.dim();
        let (d, p) = (self.d, self.beta.len());
        if d == 0 || ncol as usize != d + usize::from(source.y.is_none()) || n < p as u64 {
            let shape = format!("{n}×{ncol} array for {d} features and {p} parameters");
            return Err(MlError::Invalid(shape));
        }
        if let Some(beta) = first.and_then(|f| f.solve().ok()) {
            self.beta = beta;
        } else if self.family == Family::Binomial && self.opts.add_intercept {
            let pos: f64 = source
                .map(|rows| {
                    let (y, step) = rows.response(d);
                    y.iter().step_by(step).sum::<f64>()
                })?
                .into_iter()
                .sum();
            let rate = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
            self.beta[0] = (rate / (1.0 - rate)).ln();
        }
        Ok(())
    }

    fn finish(self, iterations: usize, done: bool, span: &mut SpanGuard<'_>) -> Result<GlmModel> {
        span.record("family", self.family.name());
        span.record("p", self.beta.len());
        span.record("converged", done);
        if !done {
            return Err(MlError::NoConvergence {
                iterations,
                deviance: self.deviance,
            });
        }
        Ok(GlmModel {
            coefficients: self.beta,
            intercept: self.opts.add_intercept,
            family: self.family,
            deviance: self.deviance,
            iterations,
            converged: true,
        })
    }
}

/// Fit a GLM on co-partitioned features `x` (n×p) and response `y` (n×1).
///
/// Mirrors Figure 3 line 6: `model <- hpdglm(data$Y, data$X,
/// family=binomial(link=logit))`.
pub fn hpdglm(x: &DArray, y: &DArray, family: Family, opts: &GlmOptions) -> Result<GlmModel> {
    let source = Source {
        rows: x,
        y: Some(y),
    };
    let mut fit = GlmFit::new(x.dim().1 as usize, family, opts);
    fit.warm_start(None, &source)?;
    drive(fit, &source)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vdr_cluster::SimCluster;
    use vdr_distr::DistributedR;

    /// Features `x` (`d` wide) beside a separate response `y`.
    fn split<'a>(x: &'a [f64], d: usize, y: &'a [f64]) -> Rows<'a> {
        Rows::new(x, d, Some(y))
    }

    fn runtime(nodes: usize) -> DistributedR {
        DistributedR::on_all_nodes(SimCluster::for_tests(nodes), 2).unwrap()
    }

    /// Build co-partitioned X (n×d) and Y from a row generator.
    fn dataset(
        dr: &DistributedR,
        nparts: usize,
        rows_per_part: usize,
        d: usize,
        f: impl Fn(&mut StdRng, &[f64]) -> f64,
    ) -> (DArray, DArray) {
        let x = dr.darray(nparts).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut ydata: Vec<Vec<f64>> = Vec::new();
        for part in 0..nparts {
            let mut xd = Vec::with_capacity(rows_per_part * d);
            let mut yd = Vec::with_capacity(rows_per_part);
            for _ in 0..rows_per_part {
                let feats: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
                yd.push(f(&mut rng, &feats));
                xd.extend_from_slice(&feats);
            }
            x.fill_partition(part, rows_per_part, d, xd).unwrap();
            ydata.push(yd);
        }
        let y = x.clone_structure(1, 0.0).unwrap();
        for (part, yd) in ydata.into_iter().enumerate() {
            let worker = y.worker_of(part).unwrap();
            y.fill_partition_on(worker, part, rows_per_part, 1, yd)
                .unwrap();
        }
        (x, y)
    }

    #[test]
    fn gaussian_recovers_exact_coefficients_in_one_iteration() {
        // The paper validates this way: "we synthetically generated datasets
        // by creating vectors around coefficients that we expect to fit the
        // data. This methodology ensures that we can check for accuracy of
        // the answers" (Section 7.3.1).
        let dr = runtime(3);
        let (x, y) = dataset(&dr, 3, 200, 3, |_, f| {
            4.0 + 1.5 * f[0] - 2.0 * f[1] + 0.5 * f[2]
        });
        let m = hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default()).unwrap();
        assert!(m.converged);
        assert_eq!(m.iterations, 1, "gaussian/identity is a single Newton step");
        let expect = [4.0, 1.5, -2.0, 0.5];
        for (c, e) in m.coefficients.iter().zip(expect) {
            assert!((c - e).abs() < 1e-9, "{:?}", m.coefficients);
        }
        assert!(m.deviance < 1e-15);
    }

    #[test]
    fn gaussian_with_noise_is_close() {
        let dr = runtime(2);
        let (x, y) = dataset(&dr, 4, 500, 2, |rng, f| {
            1.0 + 2.0 * f[0] - 3.0 * f[1] + rng.gen_range(-0.05..0.05)
        });
        let m = hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default()).unwrap();
        let expect = [1.0, 2.0, -3.0];
        for (c, e) in m.coefficients.iter().zip(expect) {
            assert!((c - e).abs() < 0.02, "{:?}", m.coefficients);
        }
    }

    #[test]
    fn logistic_regression_recovers_coefficients() {
        let dr = runtime(3);
        let true_beta = [0.5, 2.0, -1.5];
        let (x, y) = dataset(&dr, 3, 2000, 2, |rng, f| {
            let eta = true_beta[0] + true_beta[1] * f[0] + true_beta[2] * f[1];
            let p = 1.0 / (1.0 + (-eta).exp());
            f64::from(rng.gen_range(0.0..1.0) < p)
        });
        let m = hpdglm(&x, &y, Family::Binomial, &GlmOptions::default()).unwrap();
        assert!(m.converged);
        assert!(m.iterations > 1, "logit needs several Newton steps");
        for (c, e) in m.coefficients.iter().zip(true_beta) {
            assert!(
                (c - e).abs() < 0.25,
                "{:?} vs {true_beta:?}",
                m.coefficients
            );
        }
        // Predictions are probabilities.
        let p = m.predict(&[2.0, -2.0]);
        assert!((0.5..=1.0).contains(&p));
    }

    #[test]
    fn poisson_regression_recovers_coefficients() {
        let dr = runtime(2);
        let (x, y) = dataset(&dr, 2, 3000, 1, |rng, f| {
            let lambda = (0.8 + 0.6 * f[0]).exp();
            // Knuth-style Poisson sampler.
            let l = (-lambda).exp();
            let mut k = 0u32;
            let mut p = 1.0;
            loop {
                p *= rng.gen_range(0.0..1.0);
                if p <= l {
                    break;
                }
                k += 1;
                if k > 10_000 {
                    break;
                }
            }
            k as f64
        });
        let m = hpdglm(&x, &y, Family::Poisson, &GlmOptions::default()).unwrap();
        assert!(
            (m.coefficients[0] - 0.8).abs() < 0.1,
            "{:?}",
            m.coefficients
        );
        assert!((m.coefficients[1] - 0.6).abs() < 0.1);
    }

    #[test]
    fn shape_validation() {
        let dr = runtime(2);
        let (x, _) = dataset(&dr, 2, 10, 2, |_, _| 0.0);
        // Mis-shaped response.
        let bad_y = dr.darray_with_blocks((20, 2), (10, 2)).unwrap();
        assert!(hpdglm(&x, &bad_y, Family::Gaussian, &GlmOptions::default()).is_err());
        // Not co-partitioned.
        let other = dr.darray_with_blocks((20, 1), (5, 1)).unwrap();
        assert!(hpdglm(&x, &other, Family::Gaussian, &GlmOptions::default()).is_err());
        // More parameters than rows.
        let (tiny_x, tiny_y) = dataset(&dr, 2, 1, 5, |_, _| 0.0);
        assert!(hpdglm(&tiny_x, &tiny_y, Family::Gaussian, &GlmOptions::default()).is_err());
    }

    #[test]
    fn no_intercept_option() {
        let dr = runtime(2);
        let (x, y) = dataset(&dr, 2, 300, 2, |_, f| 2.0 * f[0] + 3.0 * f[1]);
        let opts = GlmOptions {
            add_intercept: false,
            ..Default::default()
        };
        let m = hpdglm(&x, &y, Family::Gaussian, &opts).unwrap();
        assert_eq!(m.coefficients.len(), 2);
        assert!((m.coefficients[0] - 2.0).abs() < 1e-9);
        assert!((m.coefficients[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn uneven_partitions_are_fine() {
        // Flexible partition sizes (the Section 4 data structures) must not
        // bias the fit: build partitions of very different sizes.
        let dr = runtime(2);
        let x = dr.darray(3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let sizes = [5usize, 400, 95];
        let mut ys = Vec::new();
        for (part, &npart) in sizes.iter().enumerate() {
            let mut xd = Vec::new();
            let mut yd = Vec::new();
            for _ in 0..npart {
                let f0: f64 = rng.gen_range(-1.0..1.0);
                xd.push(f0);
                yd.push(10.0 - 4.0 * f0);
            }
            x.fill_partition(part, npart, 1, xd).unwrap();
            ys.push(yd);
        }
        let y = x.clone_structure(1, 0.0).unwrap();
        for (part, yd) in ys.into_iter().enumerate() {
            let w = y.worker_of(part).unwrap();
            y.fill_partition_on(w, part, sizes[part], 1, yd).unwrap();
        }
        let m = hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default()).unwrap();
        assert!((m.coefficients[0] - 10.0).abs() < 1e-9);
        assert!((m.coefficients[1] + 4.0).abs() < 1e-9);
    }

    #[test]
    fn blocked_accumulator_matches_rowwise_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(nrow, d, intercept) in &[(1usize, 3usize, true), (255, 5, true), (700, 8, false)] {
            let x: Vec<f64> = (0..nrow * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let y: Vec<f64> = (0..nrow).map(|_| rng.gen_range(0.0..1.0)).collect();
            let p = d + usize::from(intercept);
            let beta: Vec<f64> = (0..p).map(|_| rng.gen_range(-0.5..0.5)).collect();
            for family in [Family::Gaussian, Family::Binomial, Family::Poisson] {
                let blocked =
                    accumulate_rows(split(&x, d, &y), d, &beta, family, intercept).unwrap();
                let rowwise = accumulate_rows_reference(&x, &y, d, &beta, family, intercept);
                let scale = rowwise.deviance.abs().max(1.0);
                assert!((blocked.deviance - rowwise.deviance).abs() < 1e-9 * scale);
                for (a, b) in blocked.xtwx.data.iter().zip(&rowwise.xtwx.data) {
                    assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
                }
                for (a, b) in blocked.xtwz.iter().zip(&rowwise.xtwz) {
                    assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
                }
            }
        }
    }

    /// The parent commit's (`8688b90`) map kernel, kept verbatim as the
    /// bit-identity reference: one `dot` per upper-triangle cell per tile.
    fn accumulate_rows_dot_per_cell(
        x: &[f64],
        y: &[f64],
        d: usize,
        beta: &[f64],
        family: Family,
        intercept: bool,
    ) -> GlmPartials {
        let p = beta.len();
        let nrow = y.len();
        let mut out = GlmPartials::zeros(p);
        if nrow == 0 {
            return out;
        }
        let cap = TILE_ROWS.min(nrow);
        let mut cols = vec![0.0; p * cap];
        let mut eta = vec![0.0; cap];
        let mut wbuf = vec![0.0; cap];
        let mut zbuf = vec![0.0; cap];
        let mut wx = vec![0.0; cap];
        let mut row0 = 0;
        while row0 < nrow {
            let t = cap.min(nrow - row0);
            load_tile(
                split(x, d, y),
                row0,
                t,
                beta,
                intercept,
                &mut cols,
                &mut eta,
            );
            // One vectorized sweep for the link math: working weight w, working
            // response z = η + (y − μ)/w, and the deviance trace.
            for r in 0..t {
                let mu = family.link_inverse(eta[r]);
                let w = family.weight(mu);
                let yv = y[row0 + r];
                wbuf[r] = w;
                zbuf[r] = eta[r] + (yv - mu) / w;
                out.deviance += family.deviance(yv, mu);
            }
            // Syrk-style blocked XᵀWX: scale column i by the weights once, then
            // the update is dot products over contiguous columns — upper
            // triangle only, half the flops of the per-row rank-1 form.
            for i in 0..p {
                let ci = &cols[i * cap..i * cap + t];
                for r in 0..t {
                    wx[r] = wbuf[r] * ci[r];
                }
                let wxt = &wx[..t];
                out.xtwz[i] += dot(wxt, &zbuf[..t]);
                let row = &mut out.xtwx.data[i * p..(i + 1) * p];
                row[i] += dot(wxt, ci);
                for j in (i + 1)..p {
                    row[j] += dot(wxt, &cols[j * cap..j * cap + t]);
                }
            }
            row0 += t;
        }
        // Mirror the accumulated upper triangle once at the end.
        for i in 1..p {
            for j in 0..i {
                out.xtwx.data[i * p + j] = out.xtwx.data[j * p + i];
            }
        }
        out
    }

    #[test]
    fn block_kernel_is_bit_identical_to_the_dot_per_cell_loop() {
        let mut rng = StdRng::seed_from_u64(20);
        // One full tile plus a last tile of every `t mod 4` class, and short
        // single-tile inputs below one four-row chunk.
        let row_counts = [1usize, 2, 3, 260, 261, 262, 263];
        for p in (1..=20).chain([48, 49, 50]) {
            for intercept in [true, false] {
                let d = p - usize::from(intercept);
                if d == 0 {
                    continue;
                }
                for &nrow in &row_counts {
                    let x: Vec<f64> = (0..nrow * d).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let y: Vec<f64> = (0..nrow).map(|_| rng.gen_range(0.0..1.0)).collect();
                    let beta: Vec<f64> = (0..p).map(|_| rng.gen_range(-0.3..0.3)).collect();
                    for family in [Family::Gaussian, Family::Binomial, Family::Poisson] {
                        let new =
                            accumulate_rows(split(&x, d, &y), d, &beta, family, intercept).unwrap();
                        let old = accumulate_rows_dot_per_cell(&x, &y, d, &beta, family, intercept);
                        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                        let at = format!("p={p} nrow={nrow} {family:?} intercept={intercept}");
                        assert_eq!(bits(&new.xtwx.data), bits(&old.xtwx.data), "xtwx {at}");
                        assert_eq!(bits(&new.xtwz), bits(&old.xtwz), "xtwz {at}");
                        assert_eq!(new.deviance.to_bits(), old.deviance.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn accumulate_rows_rejects_mis_shaped_input() {
        let x = vec![0.5; 12];
        let y = vec![1.0; 4];
        // Short and long beta, with and without the intercept slot.
        for (beta_len, intercept) in [(3usize, true), (5, true), (2, false), (4, false)] {
            let beta = vec![0.0; beta_len];
            let err = accumulate_rows(split(&x, 3, &y), 3, &beta, Family::Gaussian, intercept);
            assert!(
                matches!(err, Err(MlError::Invalid(_))),
                "{beta_len} {intercept}"
            );
        }
        // Feature buffer that is not rows × d.
        for bad in [&x[..11], &x[..9]] {
            let err = accumulate_rows(split(bad, 3, &y), 3, &[0.0; 4], Family::Gaussian, true);
            assert!(matches!(err, Err(MlError::Invalid(_))));
        }
        assert!(accumulate_rows(split(&x, 3, &y), 3, &[0.0; 4], Family::Gaussian, true).is_ok());
        // [X | y] rows need a column past the features for the response.
        let joined = |stride| Rows::new(&x, stride, None);
        let err = accumulate_rows(joined(3), 3, &[0.0; 4], Family::Gaussian, true);
        assert!(matches!(err, Err(MlError::Invalid(_))));
        assert!(accumulate_rows(joined(4), 3, &[0.0; 4], Family::Gaussian, true).is_ok());
    }

    #[test]
    fn lane_parallel_accumulation_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let (nrow, d) = (1500usize, 4usize);
        let xd: Vec<f64> = (0..nrow * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let yd: Vec<f64> = (0..nrow).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let fit = GlmFit::new(d, Family::Gaussian, &GlmOptions::default());
        let rows = split(&xd, d, &yd);
        let a = crate::fit::partition_pass(&fit, rows, 4).unwrap();
        let b = crate::fit::partition_pass(&fit, rows, 4).unwrap();
        assert_eq!(a.xtwx.data, b.xtwx.data, "same lanes ⇒ bit-identical");
        assert_eq!(a.xtwz, b.xtwz);
        assert_eq!(a.deviance, b.deviance);
        // And close to the single-lane result (different summation order).
        let serial = crate::fit::partition_pass(&fit, rows, 1).unwrap();
        for (p, q) in a.xtwx.data.iter().zip(&serial.xtwx.data) {
            assert!((p - q).abs() < 1e-9 * q.abs().max(1.0));
        }
    }
}
