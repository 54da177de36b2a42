//! # vdr-distr — the Distributed R runtime
//!
//! Stands in for HP Distributed R 1.0 (Section 2): a master process with a
//! symbol table plus per-node workers holding in-memory partitions of
//! distributed data structures.
//!
//! The paper's Section 4 contribution — data structures whose partition
//! sizes are *not* known at declaration time — is the heart of this crate:
//!
//! * [`DArray`] — a dense `f64` matrix partitioned by rows, each partition
//!   column-major like an R matrix ([`PartData`]). Declared with
//!   `darray(npartitions=)` ([`DistributedR::darray`]) and filled as data
//!   arrives from the database; partitions may have different row counts but
//!   conformity is enforced (equal column counts — "these checks ensure that
//!   arrays constitute well-formed matrices"; a `0 × 0` partition, a worker
//!   that received no rows, is the one exception).
//! * [`DFrame`] — a distributed data frame of typed columns (partitions hold
//!   columnar [`vdr_columnar::Batch`]es).
//! * [`DList`] — a distributed list of opaque serialized R objects.
//! * `partitionsize(A, i)` and `clone(A, ncol=)` from Table 1 appear as
//!   [`DArray::partitionsize`] and [`DArray::clone_structure`].
//!
//! Parallel execution happens via [`DArray::map_partitions`] /
//! [`DArray::zip_map`]: each partition's closure runs on the worker that
//! owns the partition (one real thread per worker), mirroring how
//! Distributed R ships R functions to workers.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod darray;
pub mod dframe;
pub mod dlist;
pub mod error;
pub mod runtime;

pub use darray::{DArray, PartData};
pub use dframe::DFrame;
pub use dlist::DList;
pub use error::{DistrError, Result};
pub use runtime::{DistributedR, WorkerInfo};
