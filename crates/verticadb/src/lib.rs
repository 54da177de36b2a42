#![allow(clippy::needless_range_loop)] // validity-bitmap and center loops index by row/center id
//! # vdr-verticadb — a simulated MPP columnar database
//!
//! Stands in for HP Vertica 7.1 in the paper's architecture (Section 2): "a
//! disk-based, columnar store with MPP architecture". Tables are split into
//! *segments* across cluster nodes by a segmentation scheme; each segment is
//! stored as encoded columnar containers on that node's simulated disk.
//!
//! Surfaces:
//! * [`db::VerticaDb`] — create/drop/load tables, run SQL.
//! * A SQL dialect covering the paper's needs: `SELECT … WHERE … GROUP BY …
//!   ORDER BY … LIMIT/OFFSET`, aggregates, scalar functions, and Vertica's
//!   UDx invocation form `SELECT f(cols USING PARAMETERS k='v') OVER
//!   (PARTITION BEST | PARTITION BY col) FROM t` ([`sql`]).
//! * [`udx`] — the user-defined transform/scalar function framework that
//!   `ExportToDistributedR` (vdr-transfer) and the prediction functions
//!   (vdr-core) plug into, with `PARTITION BEST`-style resource-aware
//!   instance planning.
//! * [`dfs`] — the internal distributed file system Vertica uses to store
//!   serialized R models as replicated binary blobs (Section 5).
//! * [`models`] — the `R_Models` metadata table (Figure 10) with owner /
//!   type / size / description and access permissions.
//! * [`admission`] — the resource-pool admission control that makes hundreds
//!   of simultaneous ODBC queries queue (Section 1.1).

pub mod admission;
mod agg;
pub mod blockcache;
pub mod catalog;
pub mod db;
pub mod dfs;
pub mod error;
pub mod exec;
pub mod expr;
pub mod models;
pub mod monitor;
pub mod segmentation;
mod sort;
pub mod sql;
pub mod storage;
pub mod udx;

pub use blockcache::BlockCache;
pub use catalog::{Catalog, TableDef};
pub use db::{QueryOutput, VerticaDb};
pub use dfs::Dfs;
pub use error::{DbError, Result};
pub use models::ModelStore;
pub use monitor::{
    Monitor, QueryHistory, QueryRecord, SystemTableProvider, QUERY_HISTORY_CAPACITY,
};
pub use segmentation::Segmentation;
pub use udx::{TransformFunction, UdxContext};
