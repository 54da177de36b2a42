//! Golden training results: staged `hpdkmeans` and `hpdglm` fits must
//! reproduce, bit for bit, what the per-algorithm iteration loops produced
//! before GLM and k-means shared one training loop (commit `0021582`),
//! and the train-while-loading fits must keep that commit's iteration
//! counts and, to the pipelined-vs-staged tolerances, its values.
//!
//! The literals below were captured by running this file at that commit and
//! are never regenerated from the code under test — same rule as
//! `tests/glm_golden.rs`. The staged bits depend on the floating-point
//! association of the training kernels (256-row tiles, tile-aligned lane
//! chunks, the pairwise tree merge over partitions) and on the platform's
//! `exp`/`ln`. The while-loading values are pinned to tolerances because
//! that commit merged the streamed partials in arrival order, so their last
//! bits varied run to run; here they must not (see the last test).

use std::sync::Arc;
use vertica_dr::cluster::{Ledger, SimCluster};
use vertica_dr::columnar::{Batch, Column, DataType, Schema};
use vertica_dr::distr::{DArray, DistributedR};
use vertica_dr::ml::{hpdglm, hpdkmeans, Family, GlmOptions, KmeansOptions};
use vertica_dr::transfer::{
    glm_while_loading, install_export_function, kmeans_while_loading, FastTransfer, TransferPolicy,
};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

/// Partition row counts: every one crosses the 256-row tile, and with two
/// instance lanes every partition is split into two lane chunks.
const PART_ROWS: [usize; 4] = [1031, 997, 1100, 514];

/// splitmix64 → uniform in [0, 1).
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

fn runtime() -> DistributedR {
    DistributedR::on_all_nodes(SimCluster::for_tests(4), 2).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|c| c.to_bits()).collect()
}

/// Rows of `d` values per partition from `row`, stored as one darray.
fn darray(dr: &DistributedR, d: usize, mut row: impl FnMut(&mut Vec<f64>)) -> DArray {
    let x = dr.darray(PART_ROWS.len()).unwrap();
    for (part, &nrow) in PART_ROWS.iter().enumerate() {
        let mut data = Vec::with_capacity(nrow * d);
        for _ in 0..nrow {
            row(&mut data);
        }
        x.fill_partition(part, nrow, d, data).unwrap();
    }
    x
}

/// Six 3-D blobs at integer centres, ±0.75 around each. Plain arithmetic
/// only, so the data itself is platform-independent.
fn blobs(dr: &DistributedR) -> DArray {
    let mut state = 0xB10B_2015u64;
    let mut i = 0usize;
    darray(dr, 3, |data| {
        let c = (i % 6) as f64;
        i += 1;
        for j in 0..3 {
            let centre = c * (j as f64 + 2.0) - 4.0 * j as f64;
            data.push(centre + 1.5 * unit(&mut state) - 0.75);
        }
    })
}

/// Five features in [-1, 1) and a response from `y(features, u)` with `u`
/// uniform in [0, 1), as co-partitioned X and y.
fn regression(dr: &DistributedR, seed: u64, y: impl Fn(&[f64], f64) -> f64) -> (DArray, DArray) {
    const D: usize = 5;
    let mut state = seed;
    let mut ys = Vec::new();
    let x = darray(dr, D, |data| {
        let start = data.len();
        for _ in 0..D {
            data.push(2.0 * unit(&mut state) - 1.0);
        }
        ys.push(y(&data[start..], unit(&mut state)));
    });
    let yarr = x.clone_structure(1, 0.0).unwrap();
    let mut from = 0;
    for (part, &nrow) in PART_ROWS.iter().enumerate() {
        let worker = yarr.worker_of(part).unwrap();
        yarr.fill_partition_on(worker, part, nrow, 1, ys[from..from + nrow].to_vec())
            .unwrap();
        from += nrow;
    }
    (x, yarr)
}

const KMEANS_PP_ITERATIONS: usize = 6;
const KMEANS_PP_WSS_BITS: u64 = 0x40c5485847980850;
const KMEANS_PP_CENTRE_BITS: [u64; 15] = [
    0x401bfa1bd4e88f91,
    0x4019f2b32498f3c1,
    0x40180b97cf4b4afb,
    0x3f8a2fcff35604ef,
    0xc00ff60e7b412cff,
    0xc02002de8db520e1,
    0x4024014e141d26a1,
    0x402609be9528fb66,
    0x402817cb4a455db6,
    0x400fbe271be4e1a7,
    0x40000208b9fa92a3,
    0xbf9a654a8b3bed29,
    0x40001a970fa7e4bc,
    0xbff00169882f11d1,
    0xc00ff593ec0cb998,
];

#[test]
fn kmeans_plus_plus_fit_reproduces_parent_commit_bits() {
    let dr = runtime();
    let x = blobs(&dr);
    let opts = KmeansOptions {
        k: 5,
        seed: 7,
        ..Default::default()
    };
    let model = hpdkmeans(&x, &opts).unwrap();
    let centres: Vec<f64> = model.centers.concat();
    assert_eq!(
        (
            model.iterations,
            model.total_withinss.to_bits(),
            bits(&centres)
        ),
        (
            KMEANS_PP_ITERATIONS,
            KMEANS_PP_WSS_BITS,
            KMEANS_PP_CENTRE_BITS.to_vec()
        ),
        "{model:?}"
    );
}

const KMEANS_RESEED_ITERATIONS: usize = 23;
const KMEANS_RESEED_WSS_BITS: u64 = 0x40d355178802eb82;
const KMEANS_RESEED_CENTRE_BITS: [u64; 15] = [
    0x3f8df2c53f856a67,
    0xc01003a1f04d815e,
    0xc020c4c0738e5a3d,
    0x40001a970fa7e4bc,
    0xbff00169882f11d1,
    0xc00ff593ec0cb998,
    0x4013ed44405e3462,
    0x400bf9e14bc8e904,
    0x3fffca8f700e7535,
    0x4021fed7b7d05d1e,
    0x40230001a12e0fa7,
    0x402411c64c23b6b7,
    0x3f86494f0569992d,
    0xc00fe43678640656,
    0xc01e73a9105c2cba,
];

/// The last starting centre is far from every row, so the first pass leaves
/// it empty and the update reseeds it at a random row.
#[test]
fn kmeans_empty_cluster_reseed_reproduces_parent_commit_bits() {
    let dr = runtime();
    let x = blobs(&dr);
    let opts = KmeansOptions {
        k: 5,
        initial_centers: Some(vec![
            -1.0, -1.0, -1.0, 2.0, 0.0, -2.0, 6.0, 2.0, 2.0, 9.0, 7.0, 5.0, 1e3, 1e3, 1e3,
        ]),
        ..Default::default()
    };
    let model = hpdkmeans(&x, &opts).unwrap();
    assert!(model.centers.iter().flatten().all(|c| c.abs() < 100.0));
    let centres: Vec<f64> = model.centers.concat();
    assert_eq!(
        (
            model.iterations,
            model.total_withinss.to_bits(),
            bits(&centres)
        ),
        (
            KMEANS_RESEED_ITERATIONS,
            KMEANS_RESEED_WSS_BITS,
            KMEANS_RESEED_CENTRE_BITS.to_vec()
        ),
        "{model:?}"
    );
}

const POISSON_ITERATIONS: usize = 6;
const POISSON_DEVIANCE_BITS: u64 = 0x40acd09aa3d8c938;
const POISSON_COEFFICIENT_BITS: [u64; 6] = [
    0xbfc38018265b5bb6,
    0x3fed122ff9150386,
    0xbfdeb504c3e63165,
    0x3fcf7219fd805d0a,
    0xbfa915aff5444275,
    0x3f6c11658538636f,
];

#[test]
fn staged_poisson_fit_reproduces_parent_commit_bits() {
    let dr = runtime();
    // Counts 0..=6 that grow with the first two features.
    let (x, y) = regression(&dr, 0x9015_5011, |f, u| {
        (u * (3.0 + 2.0 * f[0] - f[1] + 0.5 * f[2])).floor()
    });
    let model = hpdglm(&x, &y, Family::Poisson, &GlmOptions::default()).unwrap();
    assert!(model.converged);
    assert_eq!(
        (
            model.iterations,
            model.deviance.to_bits(),
            bits(&model.coefficients)
        ),
        (
            POISSON_ITERATIONS,
            POISSON_DEVIANCE_BITS,
            POISSON_COEFFICIENT_BITS.to_vec()
        ),
        "{model:?}"
    );
}

const GAUSSIAN_DEVIANCE_BITS: u64 = 0x400866af0814834b;
const GAUSSIAN_COEFFICIENT_BITS: [u64; 6] = [
    0x3ff3fdaaacab91bd,
    0x3fdff59b2a853c6b,
    0xc00000581f087593,
    0x3fe7f77f2c20678a,
    0xbfcffb79ae89277c,
    0x3feff6e0f42ed85f,
];

#[test]
fn staged_gaussian_fit_reproduces_parent_commit_bits() {
    let dr = runtime();
    let (x, y) = regression(&dr, 0x6A55_1A11, |f, u| {
        1.25 + 0.5 * f[0] - 2.0 * f[1] + 0.75 * f[2] - 0.25 * f[3] + f[4] + 0.1 * (u - 0.5)
    });
    let model = hpdglm(&x, &y, Family::Gaussian, &GlmOptions::default()).unwrap();
    assert!(model.converged);
    assert_eq!(
        (
            model.iterations,
            model.deviance.to_bits(),
            bits(&model.coefficients)
        ),
        (
            1,
            GAUSSIAN_DEVIANCE_BITS,
            GAUSSIAN_COEFFICIENT_BITS.to_vec()
        ),
        "{model:?}"
    );
}

// ---------------------------------------------------- train-while-loading

/// Deterministic pseudo-uniform in [0, 1) from a row index and a salt.
fn hashed(i: i64, salt: u64) -> f64 {
    let mut state = (i as u64) ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    unit(&mut state)
}

/// A 3-node database holding `train` (f0, f1, y_gauss, y_logit) and `pts`
/// (px, py: three blobs), each loaded in four COPY batches, round-robin.
fn while_loading_db() -> (Arc<VerticaDb>, DistributedR, FastTransfer) {
    const ROWS: i64 = 3000;
    let cluster = SimCluster::for_tests(3);
    let db = VerticaDb::new(cluster.clone());
    let train = Schema::of(&[
        ("f0", DataType::Float64),
        ("f1", DataType::Float64),
        ("y_gauss", DataType::Float64),
        ("y_logit", DataType::Float64),
    ]);
    let pts = Schema::of(&[("px", DataType::Float64), ("py", DataType::Float64)]);
    for (name, schema) in [("train", &train), ("pts", &pts)] {
        db.create_table(TableDef {
            name: name.into(),
            schema: schema.clone(),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
    }
    for start in (0..ROWS).step_by(750) {
        let idx: Vec<i64> = (start..start + 750).collect();
        let f0: Vec<f64> = idx.iter().map(|&i| 4.0 * hashed(i, 1) - 2.0).collect();
        let f1: Vec<f64> = idx.iter().map(|&i| 4.0 * hashed(i, 2) - 2.0).collect();
        let yg = (0..idx.len())
            .map(|r| 2.0 + 1.5 * f0[r] - 0.5 * f1[r] + 0.2 * hashed(idx[r], 4))
            .collect();
        // Plain arithmetic stands in for the logistic link: the label is 1
        // when a uniform draw falls under a clamped linear score.
        let yl = (0..idx.len())
            .map(|r| {
                let score = (0.5 + 0.3 * f0[r] - 0.2 * f1[r]).clamp(0.05, 0.95);
                f64::from(hashed(idx[r], 3) < score)
            })
            .collect();
        let columns = vec![
            Column::from_f64(f0),
            Column::from_f64(f1),
            Column::from_f64(yg),
            Column::from_f64(yl),
        ];
        db.copy("train", vec![Batch::new(train.clone(), columns).unwrap()])
            .unwrap();
        let centres = [(0.0, 0.0), (12.0, 12.0), (-12.0, 10.0)];
        let (px, py): (Vec<f64>, Vec<f64>) = idx
            .iter()
            .map(|&i| {
                let (cx, cy) = centres[(i % 3) as usize];
                (cx + hashed(i, 7) - 0.5, cy + hashed(i, 8) - 0.5)
            })
            .unzip();
        let columns = vec![Column::from_f64(px), Column::from_f64(py)];
        db.copy("pts", vec![Batch::new(pts.clone(), columns).unwrap()])
            .unwrap();
    }
    let dr = DistributedR::on_all_nodes(cluster, 2).unwrap();
    let vft = install_export_function(&db);
    (db, dr, vft)
}

fn glm_opts() -> GlmOptions {
    GlmOptions {
        tolerance: 1e-12,
        max_iterations: 60,
        ..Default::default()
    }
}

fn kmeans_opts() -> KmeansOptions {
    KmeansOptions {
        k: 3,
        max_iterations: 30,
        initial_centers: Some(vec![1.0, 1.0, 11.0, 11.0, -11.0, 9.0]),
        ..Default::default()
    }
}

fn glm_fit(
    setup: &(Arc<VerticaDb>, DistributedR, FastTransfer),
    y: &str,
    family: Family,
) -> vertica_dr::ml::GlmModel {
    let (db, dr, vft) = setup;
    let ledger = Ledger::new();
    let policy = TransferPolicy::Locality;
    let fit = glm_while_loading(
        vft,
        db,
        dr,
        "train",
        &["f0", "f1"],
        y,
        family,
        &glm_opts(),
        policy,
        &ledger,
    );
    fit.unwrap().model
}

fn kmeans_fit(setup: &(Arc<VerticaDb>, DistributedR, FastTransfer)) -> vertica_dr::ml::KmeansModel {
    let (db, dr, vft) = setup;
    let ledger = Ledger::new();
    let policy = TransferPolicy::Locality;
    let fit = kmeans_while_loading(
        vft,
        db,
        dr,
        "pts",
        &["px", "py"],
        &kmeans_opts(),
        policy,
        &ledger,
    );
    fit.unwrap().model
}

const WL_GAUSSIAN_ITERATIONS: usize = 1;
const WL_GAUSSIAN_COEFFICIENTS: [f64; 3] =
    [2.0983756941025566, 1.4980632518571546, -0.4993684860440523];
const WL_BINOMIAL_ITERATIONS: usize = 6;
const WL_BINOMIAL_COEFFICIENTS: [f64; 3] = [
    9.390892635339905e-5,
    1.5107828563224075,
    -1.0157399984657478,
];
const WL_KMEANS_ITERATIONS: usize = 1;
const WL_KMEANS_WSS: f64 = 499.97661102909865;
const WL_KMEANS_CENTRES: [f64; 6] = [
    0.005216687655242034,
    -0.01280972845675398,
    12.012820953708502,
    12.01059612935035,
    -11.988695835301568,
    9.986235869156273,
];

fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
    for (a, b) in got.iter().zip(want) {
        assert!(
            (a - b).abs() < tol * b.abs().max(1.0),
            "{what}: {got:?} vs {want:?}"
        );
    }
}

#[test]
fn while_loading_fits_keep_parent_commit_iterations_and_values() {
    let setup = while_loading_db();
    let gauss = glm_fit(&setup, "y_gauss", Family::Gaussian);
    let logit = glm_fit(&setup, "y_logit", Family::Binomial);
    let km = kmeans_fit(&setup);
    assert_eq!(
        (gauss.iterations, logit.iterations, km.iterations),
        (
            WL_GAUSSIAN_ITERATIONS,
            WL_BINOMIAL_ITERATIONS,
            WL_KMEANS_ITERATIONS
        ),
        "{gauss:?} {logit:?} {km:?}"
    );
    assert_close(
        &gauss.coefficients,
        &WL_GAUSSIAN_COEFFICIENTS,
        1e-9,
        "gaussian",
    );
    assert_close(
        &logit.coefficients,
        &WL_BINOMIAL_COEFFICIENTS,
        1e-6,
        "binomial",
    );
    assert_close(&km.centers.concat(), &WL_KMEANS_CENTRES, 1e-9, "centres");
    assert_close(&[km.total_withinss], &[WL_KMEANS_WSS], 1e-9, "wss");
}

/// The streamed iteration-0 partials merge in `(worker, source node,
/// instance)` order, never in arrival order, so every while-loading fit is a
/// pure function of the data.
#[test]
fn while_loading_fits_are_bit_identical_run_to_run() {
    let setup = while_loading_db();
    let run = || {
        let logit = glm_fit(&setup, "y_logit", Family::Binomial);
        let gauss = glm_fit(&setup, "y_gauss", Family::Gaussian);
        let km = kmeans_fit(&setup);
        let mut all = logit.coefficients;
        all.extend(gauss.coefficients);
        all.extend(km.centers.concat());
        all.extend([logit.deviance, gauss.deviance, km.total_withinss]);
        bits(&all)
    };
    let first = run();
    for attempt in 1..20 {
        assert_eq!(run(), first, "run {attempt} differs from run 0");
    }
}
