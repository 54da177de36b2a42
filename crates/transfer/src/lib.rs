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
//! cost constants. Every loader fills darray partitions column by column, in
//! R's layout, with no row-major staging in between.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

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

use vdr_cluster::PhaseReport;
use vdr_verticadb::{DbError, QueryRecord, QueryWindow, Result, VerticaDb};

/// Numeric feature extraction shared by the loaders: a batch's columns as
/// `f64` vectors, the argument of [`vdr_distr::DArray::fill_columns_on`]
/// (darray partitions are column-major, like R matrices). A NULL-free
/// `Float64` column is one contiguous copy; others convert (ints widen,
/// NULLs become NaN).
pub(crate) fn f64_columns(batch: &vdr_columnar::Batch) -> Vec<Vec<f64>> {
    let cols = batch.columns().iter();
    cols.map(|c| c.to_f64_cow().into_owned()).collect()
}

/// Record a completed load as one `trigger` entry (`vft`, `odbc`) of the
/// database's query history, holding its database-side and client-side
/// phases.
pub(crate) fn record_transfer(
    db: &VerticaDb,
    window: &QueryWindow,
    trigger: &'static str,
    label: String,
    report: &TransferReport,
    phases: [PhaseReport; 2],
) {
    db.monitor().history().record(QueryRecord {
        sim_secs: report.total().as_secs(),
        rows: report.rows,
        bytes: report.bytes,
        phases: phases.into(),
        ..window.close(trigger, label)
    });
}

/// A runtime or training failure as a database execution error.
pub(crate) fn exec<E: std::fmt::Display>(e: E) -> DbError {
    DbError::Exec(e.to_string())
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
