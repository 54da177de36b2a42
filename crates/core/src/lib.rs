//! # vdr-core — the integrated product
//!
//! Ties the database (vdr-verticadb), the distributed runtime (vdr-distr),
//! the transfer layer (vdr-transfer), and the algorithms (vdr-ml) into the
//! workflow of the paper's Figure 3:
//!
//! ```text
//! 1–3  session <- Session::connect(db, dr, "user")        # distributedR_start()
//! 5    data    <- session.db2darray("mytable", ...)       # fast transfer
//! 6    model   <- hpdglm(data.y, data.x, binomial)        # distributed training
//! 9    session.deploy_model(&model, "rModel", ...)        # serialize → DFS + R_Models
//! 10   SELECT glmPredict(a, b USING PARAMETERS model='rModel')
//!          OVER (PARTITION BEST) FROM mytable2            # in-db prediction
//! ```
//!
//! * [`codec`] — the versioned, checksummed format models are stored in
//!   ("models are first serialized and then transferred to the database",
//!   Section 5): each model is a few block-codec tables.
//! * [`predict`] — the prediction UDxs (`KmeansPredict`, `GlmPredict`,
//!   `RfPredict`) that fetch a model from the DFS, deserialize it once per
//!   instance, and score table rows in parallel.
//! * [`session`] — the user-facing [`Session`], including YARN-brokered
//!   resources for co-located deployments (Section 6).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod codec;
pub mod error;
pub mod modelcache;
pub mod predict;
pub mod report;
pub mod session;

pub use codec::Model;
pub use error::{CoreError, Result};
pub use modelcache::ModelCache;
pub use predict::{register_prediction_functions, GLM_PREDICT, KMEANS_PREDICT, RF_PREDICT};
pub use report::TraceReport;
pub use session::{Session, SessionOptions};
