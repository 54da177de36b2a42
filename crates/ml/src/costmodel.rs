//! Analytic simulated-time projections for the compute experiments
//! (Figures 15–20).
//!
//! Unit definitions mirror the kernels that actually run here:
//! * K-means: one (row × center × feature) multiply-accumulate —
//!   `kmeans::assign_partial` does exactly `rows·k·d` of them per pass.
//! * GLM: one (row × p²) cell of the `XᵀWX` accumulation. The modeled unit
//!   is the full square, `rows·p²` per iteration, which is what the paper's
//!   R-side timings were calibrated against; the kernel that runs here,
//!   `glm::accumulate_rows` → `linalg::syrk_upper`, computes only the
//!   upper triangle — `rows·p(p+1)/2` cells — and mirrors it. The unit rates
//!   price the modeled unit, not the kernel's flops, so making the kernel
//!   faster (or halving its cells) moves wall time and no `sim_ms`.
//!
//! Regimes: the paper's single-node R comparisons (Figs 17–18) run through R
//! bindings ([`KernelRegime::RBound`]); the distributed experiments
//! (Figs 19–20) run at native rates ([`KernelRegime::Native`]). See
//! EXPERIMENTS.md for why the paper's own numbers force this distinction.

use vdr_cluster::{HardwareProfile, KernelRegime, SimDuration};

pub use vdr_cluster::profile::KernelRegime as Regime;

/// Which engine executes the K-means kernel (Fig 20's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmeansEngine {
    DistributedR,
    Spark,
}

/// One K-means Lloyd iteration on `rows` points of `d` features against `k`
/// centers, spread over `nodes` nodes × `lanes` lanes.
#[allow(clippy::too_many_arguments)] // mirrors the experiment's knobs one-to-one
pub fn kmeans_iteration(
    p: &HardwareProfile,
    engine: KmeansEngine,
    regime: KernelRegime,
    rows: u64,
    k: usize,
    d: usize,
    nodes: usize,
    lanes: usize,
) -> SimDuration {
    let units = rows as f64 * k as f64 * d as f64;
    let ns = match (engine, regime) {
        (KmeansEngine::DistributedR, r) => p.costs.kmeans_ns_per_unit(r),
        (KmeansEngine::Spark, _) => p.costs.spark_kmeans_native_ns_per_unit,
    };
    SimDuration::from_nanos(units * ns) / (nodes as f64 * p.parallel_speedup(lanes))
}

/// Stock R's single-threaded K-means iteration (Fig 17's flat line).
pub fn r_kmeans_iteration(p: &HardwareProfile, rows: u64, k: usize, d: usize) -> SimDuration {
    let units = rows as f64 * k as f64 * d as f64;
    SimDuration::from_nanos(units * p.costs.r_kmeans_ns_per_unit)
}

/// One Newton–Raphson iteration of a GLM with `features` predictors (+1 for
/// the intercept) on `rows` rows.
pub fn glm_iteration(
    p: &HardwareProfile,
    regime: KernelRegime,
    rows: u64,
    features: usize,
    nodes: usize,
    lanes: usize,
) -> SimDuration {
    let pp = (features + 1) as f64;
    let units = rows as f64 * pp * pp;
    SimDuration::from_nanos(units * p.costs.glm_ns_per_unit(regime))
        / (nodes as f64 * p.parallel_speedup(lanes))
}

/// Stock R `lm` via QR decomposition: a single (expensive) pass.
pub fn r_lm(p: &HardwareProfile, rows: u64, features: usize) -> SimDuration {
    let pp = (features + 1) as f64;
    SimDuration::from_nanos(rows as f64 * pp * pp * p.costs.r_lm_qr_ns_per_unit)
}

/// What an in-database prediction query applies per row (Figs 15–16).
#[derive(Debug, Clone, Copy)]
pub enum PredictKind {
    /// Distance to `k` centers of `d` features each.
    Kmeans { k: usize, d: usize },
    /// Dot product with `p` coefficients.
    Glm { p: usize },
}

/// In-database prediction of `rows` rows on a cluster of `nodes` nodes
/// (Figs 15–16): fixed startup (plan + model fetch/deserialize) plus
/// per-row UDF work, parallel across nodes × physical cores.
pub fn indb_predict(
    p: &HardwareProfile,
    kind: PredictKind,
    rows: u64,
    nodes: usize,
) -> SimDuration {
    let per_row = p.costs.indb_predict_row_overhead_ns
        + match kind {
            PredictKind::Kmeans { k, d } => (k * d) as f64 * p.costs.indb_kmeans_unit_ns,
            PredictKind::Glm { p: coef } => coef as f64 * p.costs.indb_glm_unit_ns,
        };
    SimDuration::from_secs(p.costs.indb_predict_startup_s)
        + SimDuration::from_nanos(rows as f64 * per_row)
            / (nodes as f64 * p.parallel_speedup(p.physical_cores))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> HardwareProfile {
        HardwareProfile::paper_testbed()
    }

    // ----- Figure 17: K-means, 1M×100, K=1000, single node, 1–24 cores -----

    #[test]
    fn fig17_r_takes_about_35_minutes_per_iteration() {
        let t = r_kmeans_iteration(&p(), 1_000_000, 1000, 100);
        let mins = t.as_minutes();
        assert!(
            (30.0..40.0).contains(&mins),
            "R K-means iter ≈ {mins:.1} min"
        );
    }

    #[test]
    fn fig17_dr_under_4_minutes_at_12_cores_9x_over_r() {
        let prof = p();
        let dr12 = kmeans_iteration(
            &prof,
            KmeansEngine::DistributedR,
            KernelRegime::RBound,
            1_000_000,
            1000,
            100,
            1,
            12,
        );
        assert!(
            dr12.as_minutes() < 4.0,
            "DR @12 cores ≈ {:.1} min",
            dr12.as_minutes()
        );
        let r = r_kmeans_iteration(&prof, 1_000_000, 1000, 100);
        let speedup = r / dr12;
        assert!((8.0..10.0).contains(&speedup), "speedup {speedup:.1}×");
    }

    #[test]
    fn fig17_plateaus_beyond_physical_cores() {
        let prof = p();
        let args = |lanes| {
            kmeans_iteration(
                &prof,
                KmeansEngine::DistributedR,
                KernelRegime::RBound,
                1_000_000,
                1000,
                100,
                1,
                lanes,
            )
        };
        assert_eq!(args(12).as_secs(), args(24).as_secs());
        assert!(args(1).as_secs() > args(12).as_secs() * 8.0);
        // Monotone improvement up to 12.
        let mut last = f64::INFINITY;
        for lanes in [1, 2, 4, 8, 12] {
            let t = args(lanes).as_secs();
            assert!(t < last);
            last = t;
        }
    }

    // -- Figure 18: regression, 100M×7 (6 features + response), 1–24 cores --

    #[test]
    fn fig18_r_over_25_minutes_dr_under_10_at_one_core() {
        let prof = p();
        let r = r_lm(&prof, 100_000_000, 6);
        assert!(r.as_minutes() > 25.0, "R lm ≈ {:.1} min", r.as_minutes());
        // DR converges in ~2 Newton passes for gaussian (solve + deviance).
        let dr1 = glm_iteration(&prof, KernelRegime::RBound, 100_000_000, 6, 1, 1) * 2.0;
        assert!(
            dr1.as_minutes() < 10.0,
            "DR @1 core ≈ {:.1} min",
            dr1.as_minutes()
        );
        let dr24 = glm_iteration(&prof, KernelRegime::RBound, 100_000_000, 6, 1, 24) * 2.0;
        assert!(
            dr24.as_minutes() < 1.0,
            "DR @24 cores ≈ {:.2} min",
            dr24.as_minutes()
        );
        let speedup = dr1 / dr24;
        assert!(
            (8.0..10.0).contains(&speedup),
            "1→24 core speedup {speedup:.1}×"
        );
    }

    // -- Figure 19: distributed regression weak scaling, 100 features -------

    #[test]
    fn fig19_iterations_under_2_minutes_convergence_about_4() {
        let prof = p();
        for (nodes, rows) in [(1u64, 30_000_000u64), (4, 120_000_000), (8, 240_000_000)] {
            let iter = glm_iteration(&prof, KernelRegime::Native, rows, 100, nodes as usize, 24);
            assert!(
                iter.as_minutes() < 2.0,
                "{nodes} nodes: {:.2} min/iter",
                iter.as_minutes()
            );
            // "converges in just 4 minutes (2 iterations)".
            let converge = iter * 2.0;
            assert!(converge.as_minutes() < 4.5, "{:.1}", converge.as_minutes());
        }
        // Weak scaling: per-iteration time roughly constant.
        let t1 = glm_iteration(&prof, KernelRegime::Native, 30_000_000, 100, 1, 24);
        let t8 = glm_iteration(&prof, KernelRegime::Native, 240_000_000, 100, 8, 24);
        let ratio = t8 / t1;
        assert!((0.95..1.05).contains(&ratio), "weak scaling ratio {ratio}");
    }

    // -- Figure 20: K-means vs Spark, weak scaling, K=1000, 100 features ----

    #[test]
    fn fig20_dr_about_16_minutes_spark_about_21_at_8_nodes() {
        let prof = p();
        let dr = kmeans_iteration(
            &prof,
            KmeansEngine::DistributedR,
            KernelRegime::Native,
            480_000_000,
            1000,
            100,
            8,
            24,
        );
        let spark = kmeans_iteration(
            &prof,
            KmeansEngine::Spark,
            KernelRegime::Native,
            480_000_000,
            1000,
            100,
            8,
            24,
        );
        assert!(
            (13.0..20.0).contains(&dr.as_minutes()),
            "DR ≈ {:.1} min/iter",
            dr.as_minutes()
        );
        assert!(
            (17.0..26.0).contains(&spark.as_minutes()),
            "Spark ≈ {:.1} min/iter",
            spark.as_minutes()
        );
        // "Distributed R faster about 20%".
        let advantage = spark / dr;
        assert!(
            (1.15..1.35).contains(&advantage),
            "DR advantage {advantage:.2}×"
        );
    }

    #[test]
    fn fig20_both_systems_weak_scale() {
        let prof = p();
        for engine in [KmeansEngine::DistributedR, KmeansEngine::Spark] {
            let t1 = kmeans_iteration(
                &prof,
                engine,
                KernelRegime::Native,
                60_000_000,
                1000,
                100,
                1,
                24,
            );
            let t8 = kmeans_iteration(
                &prof,
                engine,
                KernelRegime::Native,
                480_000_000,
                1000,
                100,
                8,
                24,
            );
            let ratio = t8 / t1;
            assert!((0.95..1.05).contains(&ratio), "{engine:?} ratio {ratio}");
        }
    }

    // -- Figures 15–16: in-database prediction scalability ------------------

    #[test]
    fn fig15_kmeans_prediction_scales_to_a_billion_rows() {
        let prof = p();
        let kind = PredictKind::Kmeans { k: 10, d: 6 };
        let ten_m = indb_predict(&prof, kind, 10_000_000, 5);
        let billion = indb_predict(&prof, kind, 1_000_000_000, 5);
        assert!(ten_m.as_secs() < 20.0, "10M rows ≈ {ten_m}");
        assert!(
            (250.0..400.0).contains(&billion.as_secs()),
            "paper: 318 s; model: {billion}"
        );
        // "close to linear scaling because both the dataset and execution
        // time grows by approximately 100×" — net of the fixed startup.
        let growth = (billion.as_secs() - prof.costs.indb_predict_startup_s)
            / (ten_m.as_secs() - prof.costs.indb_predict_startup_s);
        assert!((95.0..105.0).contains(&growth), "growth {growth:.0}×");
    }

    #[test]
    fn fig16_glm_prediction_is_cheaper_than_kmeans() {
        let prof = p();
        let kind = PredictKind::Glm { p: 6 };
        let ten_m = indb_predict(&prof, kind, 10_000_000, 5);
        let billion = indb_predict(&prof, kind, 1_000_000_000, 5);
        assert!(ten_m.as_secs() < 10.0, "10M ≈ {ten_m}");
        assert!(
            (170.0..260.0).contains(&billion.as_secs()),
            "paper: 206 s; model: {billion}"
        );
        let kmeans = indb_predict(&prof, PredictKind::Kmeans { k: 10, d: 6 }, 1_000_000_000, 5);
        assert!(kmeans.as_secs() > billion.as_secs());
    }

    #[test]
    fn prediction_speeds_up_with_more_nodes() {
        let prof = p();
        let kind = PredictKind::Glm { p: 6 };
        let five = indb_predict(&prof, kind, 1_000_000_000, 5);
        let ten = indb_predict(&prof, kind, 1_000_000_000, 10);
        assert!(ten.as_secs() < five.as_secs());
    }
}
