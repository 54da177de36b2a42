//! The four workloads and their fixed input sizes.
//!
//! Every workload runs the whole loop — load, feature query, the ten SQL
//! statement classes, transfer, train, deploy, predict — so every end-to-end
//! metric is defined on every workload. What differs is where the time goes:
//! each workload makes one part large and keeps the others small, so a
//! change to one layer moves its metrics on one workload and must leave
//! them alone on the workloads that bypass it. See `README.md` for why each
//! size was chosen.

use vertica_dr::ml::Family;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LoopNarrow,
    LoopWide,
    SqlMix,
    AltPaths,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LoopNarrow,
        Workload::LoopWide,
        Workload::SqlMix,
        Workload::AltPaths,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopNarrow => "loop_narrow",
            Workload::LoopWide => "loop_wide",
            Workload::SqlMix => "sql_mix",
            Workload::AltPaths => "alt_paths",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cluster under test: 4 nodes, one engine thread per node, two R instances
/// per node — on a 2-core host more threads only add scheduler noise.
pub const NODES: usize = 4;
pub const THREADS_PER_NODE: usize = 1;
pub const R_INSTANCES_PER_NODE: usize = 2;

#[derive(Debug, Clone)]
pub struct Shape {
    pub workload: Workload,
    /// Rows of the training table (`mixed` on `alt_paths`).
    pub train_rows: usize,
    /// Rows of the table scored in the database; 0 scores the training table.
    pub score_rows: usize,
    pub features: usize,
    pub family: Family,
    /// Clusters of the k-means fit; 0 fits no k-means.
    pub kmeans_k: usize,
    /// Rows per loaded batch (one storage container per node per batch).
    pub batch_rows: usize,
    /// Rows of each SQL fact table; a multiple of 8192 (16 groups × runs of
    /// 512) and of `dim_keys`.
    pub fact_rows: usize,
    /// Rows per loaded fact batch.
    pub fact_batch_rows: usize,
    pub dim_keys: usize,
    /// `alt_paths` only: rows of the slice the ODBC baseline loads.
    pub odbc_rows: usize,
}

impl Shape {
    /// The workload at full size, or at `1/divisor` of it (`--check`).
    pub fn of(workload: Workload, divisor: usize) -> Shape {
        let full = match workload {
            Workload::LoopNarrow => Shape {
                workload,
                train_rows: 160_000,
                score_rows: 320_000,
                features: 6,
                family: Family::Gaussian,
                kmeans_k: 0,
                batch_rows: 40_000,
                fact_rows: 40_960,
                fact_batch_rows: 20_480,
                dim_keys: 4_096,
                odbc_rows: 0,
            },
            Workload::LoopWide => Shape {
                workload,
                train_rows: 32_000,
                score_rows: 8_000,
                features: 48,
                family: Family::Binomial,
                kmeans_k: 16,
                batch_rows: 8_000,
                fact_rows: 40_960,
                fact_batch_rows: 20_480,
                dim_keys: 4_096,
                odbc_rows: 0,
            },
            Workload::SqlMix => Shape {
                workload,
                train_rows: 24_000,
                score_rows: 48_000,
                features: 6,
                family: Family::Gaussian,
                kmeans_k: 0,
                batch_rows: 24_000,
                fact_rows: 163_840,
                fact_batch_rows: 40_960,
                dim_keys: 16_384,
                odbc_rows: 0,
            },
            Workload::AltPaths => Shape {
                workload,
                train_rows: 96_000,
                score_rows: 0,
                features: 8,
                family: Family::Binomial,
                kmeans_k: 8,
                batch_rows: 24_000,
                fact_rows: 40_960,
                fact_batch_rows: 20_480,
                dim_keys: 4_096,
                odbc_rows: 16_000,
            },
        };
        if divisor <= 1 {
            return full;
        }
        // Keep the fact table whole runs and whole key cycles.
        let fact_rows = (full.fact_rows / divisor).div_ceil(8192) * 8192;
        Shape {
            train_rows: (full.train_rows / divisor).max(64 * full.kmeans_k.max(1)),
            score_rows: full.score_rows / divisor,
            batch_rows: (full.batch_rows / divisor).max(512),
            fact_rows,
            fact_batch_rows: fact_rows,
            dim_keys: fact_rows / 8,
            odbc_rows: full.odbc_rows / divisor,
            ..full
        }
    }
}
