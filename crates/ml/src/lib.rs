#![allow(clippy::needless_range_loop)] // numeric kernels index centers/rows by id on purpose
//! # vdr-ml — distributed machine learning on Distributed R data structures
//!
//! The algorithm layer of the integration (the paper's `HPdregression` /
//! `HPdcluster` packages):
//!
//! * [`glm`] — `hpdglm`: generalized linear models via the distributed
//!   Newton–Raphson / IRLS scheme the paper contrasts with R's matrix
//!   decomposition (Section 7.3.1): every partition accumulates its
//!   `XᵀWX` / `XᵀWz` contributions, the master reduces and solves.
//!   Families: gaussian/identity, binomial/logit, poisson/log.
//! * [`kmeans`] — `hpdkmeans`: distributed Lloyd iterations from k-means++
//!   (or caller-supplied) centers; the per-partition kernel is shared with
//!   the Spark comparator so Figure 20 is apples-to-apples.
//! * [`rf`] — `hpdrf`: a bagged random forest (the paper ships a
//!   `randomforest` prediction function in Vertica).
//! * [`cv`] — `cv.hpdglm`: k-fold cross validation (Figure 3, line 7).
//! * [`serial`] — the stock-R baselines of Figures 17–18: single-threaded
//!   K-means and `lm` via QR decomposition.
//! * [`models`] — the trained-model types and their (serial, per-row)
//!   prediction kernels, used by the in-database prediction UDxs.
//! * [`costmodel`] — analytic simulated-time projections for the compute
//!   experiments (Figures 15–20), in both kernel-rate regimes.

pub mod costmodel;
pub mod cv;
pub mod error;
pub mod glm;
pub mod kernels;
pub mod kmeans;
pub mod linalg;
pub mod models;
pub mod reduce;
pub mod rf;
pub mod serial;

pub use cv::{cv_hpdglm, CvResult};
pub use error::{MlError, Result};
pub use glm::{hpdglm, Family, GlmOptions, GlmPartials};
pub use kmeans::{hpdkmeans, KmeansOptions, KmeansPartial};
pub use models::{GlmModel, KmeansModel, RandomForestModel};
pub use rf::{hpdrf, RfOptions};
