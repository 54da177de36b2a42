//! Property tests for the blocked *training* kernels: on arbitrary shapes
//! (including 0-row, 1-row, and non-tile-multiple row counts) the tiled
//! accumulators agree with the row-at-a-time reference implementations. The
//! IRLS accumulator is drawn up to 64 features wide — past the 48-feature
//! shape the benchmark's `loop_wide` trains — at row counts on both sides of
//! the 256-row tile and the 4-row lane boundary.
//!
//! K-means assignment counts must be exact (same strict-`<` tie-break as the
//! prediction kernels); the summed statistics get a 1e-9 relative tolerance
//! because blocking changes the floating-point accumulation order.

use proptest::prelude::*;
use vdr_ml::glm::{accumulate_rows, accumulate_rows_reference};
use vdr_ml::kmeans::{assign_partial, assign_partial_reference, assign_partition};
use vdr_ml::Family;

/// Row-major rows from a cheap deterministic generator.
fn rows(n: usize, d: usize, seed: u64, scale: f64) -> Vec<f64> {
    let mut v = seed | 1;
    let mut next = move || {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((v >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
    };
    (0..n * d).map(|_| next()).collect()
}

/// Row counts that cross the 256-row tile and the 4-row lane boundary.
const IRLS_ROW_COUNTS: [usize; 8] = [0, 1, 3, 255, 256, 257, 259, 1000];

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn blocked_irls_accumulator_matches_rowwise(
        nrow in (0..IRLS_ROW_COUNTS.len()).prop_map(|i| IRLS_ROW_COUNTS[i]),
        d in 1..=64usize,
        seed in any::<u64>(),
        fam in 0..3u8,
        intercept in any::<bool>(),
    ) {
        let family = match fam {
            0 => Family::Gaussian,
            1 => Family::Binomial,
            _ => Family::Poisson,
        };
        let x = rows(nrow, d, seed, 2.0);
        // Responses in [0, 1] keep all three families' deviances defined.
        let y: Vec<f64> = rows(nrow, 1, seed ^ 0x77, 0.5).iter().map(|v| v + 0.5).collect();
        let p = d + usize::from(intercept);
        // Coefficients shrink with the width so η stays in the links' sane
        // range (|η| ≲ 4) at every p.
        let beta = rows(p, 1, seed ^ 0xbe7a, 0.5 / (p as f64).sqrt());
        let blocked = accumulate_rows(&x, &y, d, &beta, family, intercept).unwrap();
        let reference = accumulate_rows_reference(&x, &y, d, &beta, family, intercept);
        prop_assert_eq!(blocked.rows, reference.rows);
        prop_assert!(close(blocked.deviance, reference.deviance));
        for (a, b) in blocked.xtwx.data.iter().zip(&reference.xtwx.data) {
            prop_assert!(close(*a, *b), "xtwx {} vs {}", a, b);
        }
        for (a, b) in blocked.xtwz.iter().zip(&reference.xtwz) {
            prop_assert!(close(*a, *b), "xtwz {} vs {}", a, b);
        }
    }

    #[test]
    fn flattened_kmeans_assignment_matches_nested(
        nrow in 0..600usize,
        d in 1..8usize,
        k in 1..9usize,
        seed in any::<u64>(),
    ) {
        let data = rows(nrow, d, seed, 10.0);
        let flat = rows(k, d, seed ^ 0xcc, 10.0);
        let nested: Vec<Vec<f64>> = flat.chunks_exact(d).map(<[f64]>::to_vec).collect();
        let blocked = assign_partial(&data, d, &flat);
        let reference = assign_partial_reference(&data, d, &nested);
        prop_assert_eq!(&blocked.counts, &reference.counts);
        prop_assert!(close(blocked.wss, reference.wss));
        for (a, b) in blocked.sums.iter().zip(&reference.sums) {
            prop_assert!(close(*a, *b), "sums {} vs {}", a, b);
        }
    }

    #[test]
    fn lane_split_is_deterministic_and_lossless(
        nrow in 0..2000usize,
        d in 1..5usize,
        k in 1..5usize,
        lanes in 1..6usize,
        seed in any::<u64>(),
    ) {
        let data = rows(nrow, d, seed, 5.0);
        let centers = rows(k, d, seed ^ 0x11, 5.0);
        let a = assign_partition(&data, d, &centers, lanes);
        let b = assign_partition(&data, d, &centers, lanes);
        // Fixed lane count ⇒ bit-identical reduction.
        prop_assert_eq!(&a.sums, &b.sums);
        prop_assert_eq!(&a.counts, &b.counts);
        // And no row is lost or duplicated by the tile-aligned chunking.
        prop_assert_eq!(a.counts.iter().sum::<u64>(), nrow as u64);
    }
}
