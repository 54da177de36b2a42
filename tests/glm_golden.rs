//! Golden IRLS model bits: a wide binomial `hpdglm` fit must reproduce, bit
//! for bit, the coefficients the dot-per-cell `XᵀWX` kernel produced at
//! commit `8688b90` (the parent of the register-blocked kernel).
//!
//! The literals below were captured by running this file at that commit and
//! are never regenerated from the code under test — same rule as
//! `crates/columnar/tests/golden.rs`. They depend on the floating-point
//! association of the training kernels (`linalg::dot`'s
//! `(s0+s1)+(s2+s3)+tail`, 256-row tiles, tile-aligned lane chunks, pairwise
//! tree merge) and on the platform's `exp`/`ln`; a kernel change that moves
//! one of them changes the deployed model bytes and must say so.

use vertica_dr::cluster::SimCluster;
use vertica_dr::distr::{DArray, DistributedR};
use vertica_dr::ml::{hpdglm, Family, GlmOptions};

const FEATURES: usize = 48;
/// Partition row counts: every one crosses the 256-row tile, and with two
/// instance lanes the second lane's last tiles are 7, 229, 76 and 2 rows —
/// every `t mod 4` class of the kernel's four-row lanes.
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

/// Co-partitioned X (n × 48) and binary Y around fixed coefficients. Plain
/// arithmetic only, so the data itself is platform-independent.
fn dataset(dr: &DistributedR) -> (DArray, DArray) {
    let x = dr.darray(PART_ROWS.len()).unwrap();
    let mut state = 0x5EED_2015u64;
    let mut ys = Vec::new();
    for (part, &nrow) in PART_ROWS.iter().enumerate() {
        let mut xd = Vec::with_capacity(nrow * FEATURES);
        let mut yd = Vec::with_capacity(nrow);
        for _ in 0..nrow {
            let mut eta = 0.25;
            for j in 0..FEATURES {
                let v = 2.0 * unit(&mut state) - 1.0;
                let coef = ((j % 7) as f64 - 3.0) * 0.15;
                eta += coef * v;
                xd.push(v);
            }
            let noise = (unit(&mut state) + unit(&mut state) + unit(&mut state) - 1.5) * 2.0;
            yd.push(f64::from(eta + noise > 0.0));
        }
        x.fill_partition(part, nrow, FEATURES, xd).unwrap();
        ys.push(yd);
    }
    let y = x.clone_structure(1, 0.0).unwrap();
    for (part, yd) in ys.into_iter().enumerate() {
        let worker = y.worker_of(part).unwrap();
        y.fill_partition_on(worker, part, PART_ROWS[part], 1, yd)
            .unwrap();
    }
    (x, y)
}

const GOLDEN_ITERATIONS: usize = 6;
const GOLDEN_DEVIANCE_BITS: u64 = 0x40a9679b553e30fc;
const GOLDEN_COEFFICIENT_BITS: [u64; FEATURES + 1] = [
    0x3fd8f944ef641628,
    0xbfecbfcc3db1273a,
    0xbfd7888630f426f9,
    0xbfd42170a181aea9,
    0x3fc088eb64afe5fe,
    0x3fd61fca93998aef,
    0x3fdc0f00b4f3b431,
    0x3feac4a25fc1b6ea,
    0xbfe6337fe144202a,
    0xbfe241e9cf0ca29e,
    0xbfcd2a9abe827236,
    0x3fbbaa5a069a083a,
    0x3fce6ee7f6d250a5,
    0x3fe0520dc587755c,
    0x3fe619a6b3ee0136,
    0xbfe91dbe5fedc142,
    0xbfde32418493728b,
    0xbfc9e2bf68f2693f,
    0xbfa2b99a316c9804,
    0x3fd282853f4e7ae5,
    0x3fdbd933eebe408b,
    0x3fea528444d2bef2,
    0xbfe9259096ca7edf,
    0xbfe34e68f3a3bdc0,
    0xbfccf8ffefda2d22,
    0xbf7d8053b36a4003,
    0x3fd0874c12742402,
    0x3fe15f29c7114392,
    0x3fea3285ab320945,
    0xbfe8a8e7c98d4adc,
    0xbfd96788f6905a0d,
    0xbfd4994843931337,
    0x3f856f076af94ee4,
    0x3fcc6a26b24c6a36,
    0x3fde96380ea2cd0c,
    0x3feec32c2db28ba8,
    0xbfecce1122742e48,
    0xbfdc380aefb1f295,
    0xbfce0b46dcd95d5b,
    0x3fb0cbdcf2e817f4,
    0x3fd5e91ce4a76b9b,
    0x3fe22281fb73fcaf,
    0x3fea58c5b032052d,
    0xbfe8ae2292083d73,
    0xbfe2f3b1de4f2d42,
    0xbfd47b8a840215b5,
    0xbfb367f9705ab6ce,
    0x3fce1faf22404dc4,
    0x3fddc896bf572ad3,
];

#[test]
fn wide_binomial_fit_reproduces_parent_commit_bits() {
    let dr = DistributedR::on_all_nodes(SimCluster::for_tests(4), 2).unwrap();
    let (x, y) = dataset(&dr);
    let fit = || hpdglm(&x, &y, Family::Binomial, &GlmOptions::default()).unwrap();
    let model = fit();
    let bits: Vec<u64> = model.coefficients.iter().map(|c| c.to_bits()).collect();
    assert!(model.converged);
    assert_eq!(model.iterations, GOLDEN_ITERATIONS);
    assert_eq!(
        bits, GOLDEN_COEFFICIENT_BITS,
        "coefficients differ from the parent commit's: {:?}",
        model.coefficients
    );
    assert_eq!(model.deviance.to_bits(), GOLDEN_DEVIANCE_BITS);

    // Lane split and tree merge are pure functions of the shapes: a second
    // fit is bit-equal to the first.
    let again = fit();
    assert_eq!(again.iterations, model.iterations);
    assert_eq!(again.deviance.to_bits(), model.deviance.to_bits());
    let again_bits: Vec<u64> = again.coefficients.iter().map(|c| c.to_bits()).collect();
    assert_eq!(again_bits, bits);
}
