//! One training loop: every `hpdglm` and `hpdkmeans` fit, staged or
//! while loading, iterates in [`drive`].
//!
//! [`IterativeFit`] has Bismarck's shape (*Towards a Unified Architecture
//! for in-RDBMS Analytics*; MADlib drives its iterative methods the same
//! way): a transition folds a block of rows into a partial, partials merge,
//! and a step turns the merged partial into new parameters or stops. A pass
//! splits each partition's rows into tile-aligned lane chunks
//! ([`partition_pass`]) and tree-merges the chunks, then the partitions in
//! partition order, so the reduction is a pure function of the shapes. Rows
//! arrive as a strided [`Rows`] block, so a GLM reads its response in place
//! from either [`Source`]: a separate `y` array or column `d` of `[X | y]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{MlError, Result};
use crate::reduce::{lane_chunk, tree_merge};
use vdr_distr::DArray;
use vdr_obs::SpanGuard;

/// A block of row-major training rows: row `r` starts at `data[r * stride]`.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    pub data: &'a [f64],
    pub stride: usize,
    /// The response, one value per row, when it is not a column of `data`.
    pub y: Option<&'a [f64]>,
}

impl<'a> Rows<'a> {
    pub fn new(data: &'a [f64], stride: usize, y: Option<&'a [f64]>) -> Self {
        Rows { data, stride, y }
    }

    pub fn nrow(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    /// The response as `(values, step)`: `y`, else column `col` of `data`.
    pub fn response(&self, col: usize) -> (&'a [f64], usize) {
        match self.y {
            Some(y) => (y, 1),
            None => (self.data.get(col..).unwrap_or_default(), self.stride),
        }
    }
}

/// Where a fit's rows live: `rows` holds the features (or `[X | y]`), `y` a
/// co-partitioned `n×1` response when it is kept apart.
#[derive(Clone, Copy)]
pub struct Source<'a> {
    pub rows: &'a DArray,
    pub y: Option<&'a DArray>,
}

impl Source<'_> {
    /// `f` over every partition's rows on its owning worker, in partition order.
    pub fn map<R: Send>(&self, f: impl Fn(Rows<'_>) -> R + Sync) -> Result<Vec<R>> {
        let xs = self.rows;
        let Some(y) = self.y else {
            return Ok(xs.map_partitions(|_, x| f(Rows::new(&x.data, x.ncol, None)))?);
        };
        Ok(xs.zip_map(y, |_, x, y| f(Rows::new(&x.data, x.ncol, Some(&y.data))))?)
    }
}

/// An iterative fit: it holds its parameters, and [`drive`] calls
/// `transition`, `merge` and `step` once per pass until `step` says done.
pub trait IterativeFit: Sync {
    /// Statistics of one pass over some rows; disjoint rows' partials merge.
    type Partial: Send;
    type Model;
    /// Span prefix: `{NAME}.fit` spans the fit, `{NAME}.iteration` a pass.
    const NAME: &'static str;

    fn max_iterations(&self) -> usize;
    /// Fold a block of rows at the current parameters.
    fn transition(&self, rows: Rows<'_>) -> Result<Self::Partial>;
    fn merge(acc: &mut Self::Partial, other: Self::Partial);
    /// New parameters from a pass's merged partial; `true` when done.
    fn step(
        &mut self,
        merged: Self::Partial,
        source: &Source<'_>,
        span: &mut SpanGuard<'_>,
    ) -> Result<bool>;
    /// Check `source` and start from a pass the caller ran over all of its
    /// rows (the VFT stream's, during the load); `None` when none arrived.
    fn warm_start(&mut self, first: Option<Self::Partial>, source: &Source<'_>) -> Result<()>;
    /// The model after `iterations` passes; `done` is false when the budget
    /// ran out first.
    fn finish(self, iterations: usize, done: bool, span: &mut SpanGuard<'_>)
        -> Result<Self::Model>;
}

/// One partition's share of a pass: its rows split into tile-aligned chunks,
/// one per lane (the worker's instance lanes), whose partials tree-merge.
/// The lanes fix the reduction's shape, and so the fit's bits; they run
/// one after another.
pub fn partition_pass<F: IterativeFit>(
    fit: &F,
    rows: Rows<'_>,
    lanes: usize,
) -> Result<F::Partial> {
    let (nrow, stride) = (rows.nrow(), rows.stride);
    let chunk = lane_chunk(nrow, lanes);
    if chunk >= nrow {
        return fit.transition(rows);
    }
    let partials = (0..nrow)
        .step_by(chunk)
        .map(|s| {
            let e = (s + chunk).min(nrow);
            let y = rows.y.map(|y| y.get(s..e).unwrap_or_default());
            let data = &rows.data[s * stride..e * stride];
            fit.transition(Rows::new(data, stride, y))
        })
        .collect::<Result<Vec<_>>>()?;
    tree_merge(partials, F::merge).ok_or_else(|| MlError::Invalid("no lane chunks".into()))
}

/// Iterate `fit` over `source` until its step says done or its budget runs
/// out, then finish it.
pub fn drive<F: IterativeFit>(mut fit: F, source: &Source<'_>) -> Result<F::Model> {
    let n = source.rows.dim().0;
    let lanes = source.rows.instance_lanes();
    let mut fit_span = vdr_obs::span(&format!("{}.fit", F::NAME));
    fit_span.record("n", n);
    let mut iterations = 0;
    let mut done = false;
    while !done && iterations < fit.max_iterations() {
        iterations += 1;
        let mut iter_span = vdr_obs::span(&format!("{}.iteration", F::NAME));
        iter_span.record("iter", iterations);
        let pass_start = std::time::Instant::now();
        let partials = source
            .map(|rows| partition_pass(&fit, rows, lanes))?
            .into_iter()
            .collect::<Result<Vec<_>>>()?;
        let merged = tree_merge(partials, F::merge)
            .ok_or_else(|| MlError::Invalid("training array has no partitions".into()))?;
        let secs = pass_start.elapsed().as_secs_f64().max(1e-9);
        vdr_obs::observe("ml.train.rows_per_sec", n as f64 / secs);
        done = fit.step(merged, source, &mut iter_span)?;
    }
    fit_span.record("iterations", iterations);
    fit.finish(iterations, done, &mut fit_span)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_cluster::SimCluster;
    use vdr_distr::DistributedR;

    /// Counts rows and sums their first value; fails on a row holding NaN.
    struct Census {
        passes: usize,
        seen: Vec<(u64, f64)>,
    }

    impl IterativeFit for Census {
        type Partial = (u64, f64);
        type Model = Vec<(u64, f64)>;
        const NAME: &'static str = "test.census";

        fn max_iterations(&self) -> usize {
            self.passes
        }
        fn transition(&self, rows: Rows<'_>) -> Result<(u64, f64)> {
            let firsts = rows.data.iter().step_by(rows.stride);
            if firsts.clone().any(|v| v.is_nan()) {
                return Err(MlError::Invalid("NaN row".into()));
            }
            Ok((rows.nrow() as u64, firsts.sum()))
        }
        fn merge(acc: &mut (u64, f64), other: (u64, f64)) {
            acc.0 += other.0;
            acc.1 += other.1;
        }
        fn step(
            &mut self,
            merged: (u64, f64),
            _: &Source<'_>,
            _: &mut SpanGuard<'_>,
        ) -> Result<bool> {
            self.seen.push(merged);
            Ok(false)
        }
        fn warm_start(&mut self, _: Option<(u64, f64)>, _: &Source<'_>) -> Result<()> {
            Ok(())
        }
        fn finish(
            self,
            iterations: usize,
            done: bool,
            _: &mut SpanGuard<'_>,
        ) -> Result<Self::Model> {
            assert_eq!((iterations, done), (self.passes, false));
            Ok(self.seen)
        }
    }

    fn array(dr: &DistributedR, sizes: &[usize], width: usize) -> DArray {
        let x = dr.darray(sizes.len()).unwrap();
        let mut next = 0.0;
        for (p, &rows) in sizes.iter().enumerate() {
            let data = (0..rows * width)
                .map(|_| {
                    next += 1.0;
                    next
                })
                .collect();
            x.fill_partition(p, rows, width, data).unwrap();
        }
        x
    }

    #[test]
    fn every_row_is_folded_once_per_pass_across_lanes_and_partitions() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(2), 3).unwrap();
        // Empty, sub-tile and multi-lane partitions.
        let x = array(&dr, &[0, 7, 1000, 513], 2);
        let census = Census {
            passes: 3,
            seen: Vec::new(),
        };
        let seen = drive(census, &Source { rows: &x, y: None }).unwrap();
        let n = 1520u64;
        // First values are the odd numbers 1, 3, …, 2n − 1: their sum is n².
        assert_eq!(seen, vec![(n, (n * n) as f64); 3]);
    }

    #[test]
    fn a_lane_chunk_error_fails_the_fit() {
        let dr = DistributedR::on_all_nodes(SimCluster::for_tests(1), 4).unwrap();
        let x = array(&dr, &[1000], 1);
        x.update_partitions(|_, part| part.data[900] = f64::NAN)
            .unwrap();
        let census = Census {
            passes: 1,
            seen: Vec::new(),
        };
        let err = drive(census, &Source { rows: &x, y: None });
        assert!(matches!(err, Err(MlError::Invalid(_))));
    }

    #[test]
    fn rows_split_and_strided_responses_agree() {
        let xy = [1.0, 2.0, 10.0, 3.0, 4.0, 20.0, 5.0, 6.0, 30.0];
        let joined = Rows::new(&xy, 3, None);
        let (y, step) = joined.response(2);
        let strided: Vec<f64> = y.iter().step_by(step).copied().collect();
        assert_eq!(strided, [10.0, 20.0, 30.0]);
        let split = Rows::new(&xy[..6], 2, Some(&[10.0, 20.0, 30.0]));
        assert_eq!(split.response(2), (&[10.0, 20.0, 30.0][..], 1));
    }
}
