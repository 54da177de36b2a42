//! # vdr-transfer — moving table data from the database into Distributed R
//!
//! Implements both sides of the paper's central comparison:
//!
//! * [`odbc`] — the baseline everyone suffers with (Section 1.1, Figure 1):
//!   row-oriented, text-encoded ODBC connections. A single connection
//!   bottlenecks on one client parser; hundreds of parallel connections
//!   issue `ORDER BY … LIMIT/OFFSET` range queries that force repeated
//!   scans, destroy locality, and queue behind the database's admission
//!   control.
//! * [`vft`] — **Vertica Fast Transfer** (Section 3): the Distributed R
//!   master issues *one* SQL query invoking the `ExportToDistributedR`
//!   transform function; UDx instances on each database node read only
//!   node-local segment containers, buffer rows, and stream binary columnar
//!   blocks to the Distributed R workers' receive pools, under a
//!   locality-preserving or uniform (round-robin) distribution policy.
//! * [`local`] — loading from per-node local files (the `DR-disk`
//!   configuration of Figure 21).
//!
//! Every transfer really moves the bytes (receivers decode exactly what the
//! senders produced) and charges one or two phases to a caller-supplied
//! [`vdr_cluster::Ledger`]; see `vdr-cluster::profile` for the calibrated
//! cost constants.

pub mod local;
pub mod model;
pub mod odbc;
pub mod report;
pub mod train;
pub mod vft;

pub use local::LocalLoader;
pub use model::{ClusterShape, TableShape};
pub use odbc::{OdbcConnection, OdbcLoader};
pub use report::TransferReport;
pub use train::{glm_while_loading, kmeans_while_loading, LoadFit};
pub use vft::{install_export_function, BatchObserver, FastTransfer, TransferPolicy};

use vdr_verticadb::{DbError, Result};

/// Numeric feature extraction shared by all loaders: gather the columns of a
/// batch into a pre-sized row-major `f64` slice. Column-at-a-time (strided
/// writes over `Cow` column views) instead of row-at-a-time pushes: no
/// per-row bounds checks on a growing vector, no per-column `Vec`
/// materialization for columns that are already `f64`.
pub(crate) fn gather_f64_rows(batch: &vdr_columnar::Batch, out: &mut [f64]) -> Result<()> {
    let nrow = batch.num_rows();
    let ncol = batch.num_columns();
    debug_assert_eq!(out.len(), nrow * ncol, "destination slice mis-sized");
    for (c, col) in batch.columns().iter().enumerate() {
        let vals = col.to_f64_cow();
        for (r, v) in vals.iter().enumerate() {
            out[r * ncol + c] = *v;
        }
    }
    Ok(())
}

/// [`gather_f64_rows`] into a fresh allocation, for loaders that hand the
/// matrix straight to `fill_partition_on`.
pub(crate) fn batch_to_f64_rows(batch: &vdr_columnar::Batch) -> Result<Vec<f64>> {
    let mut out = vec![0.0; batch.num_rows() * batch.num_columns()];
    gather_f64_rows(batch, &mut out)?;
    Ok(out)
}

/// Validate that requested feature columns exist and are numeric.
pub(crate) fn check_features(schema: &vdr_columnar::Schema, features: &[&str]) -> Result<()> {
    if features.is_empty() {
        return Err(DbError::Plan("no feature columns requested".into()));
    }
    for f in features {
        let idx = schema.index_of(f)?;
        if schema.field(idx).dtype == vdr_columnar::DataType::Varchar {
            return Err(DbError::Plan(format!(
                "column '{f}' is VARCHAR; darrays hold numeric data (use db2dframe)"
            )));
        }
    }
    Ok(())
}
