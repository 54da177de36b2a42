//! Deterministic blocking and reduction for the distributed trainers.
//!
//! Floating-point addition is not associative, so the shape of a reduction
//! tree is part of a trainer's contract: `hpdkmeans` promises bit-identical
//! centers for identical seeds, and the pipelined (train-while-loading) path
//! must reproduce the staged path. Everything here is therefore a pure
//! function of the input sizes — never of thread scheduling.

/// Rows per tile of the blocked training kernels. One tile of a wide-`p`
/// design matrix (column-major scratch) plus the η/w/z vectors stays inside
/// L2 while the syrk-style `XᵀWX` update sweeps it.
pub const TILE_ROWS: usize = 256;

/// Contiguous chunk size that splits `nrow` across `lanes` accumulators. Aligned to [`TILE_ROWS`] so lane boundaries coincide with
/// tile boundaries, and a pure function of `(nrow, lanes)` so the resulting
/// reduction is reproducible run to run.
pub fn lane_chunk(nrow: usize, lanes: usize) -> usize {
    let lanes = lanes.max(1);
    nrow.div_ceil(lanes).div_ceil(TILE_ROWS).max(1) * TILE_ROWS
}

/// Reduce `parts` by merging fixed pairs per round: `(p0+p1) + (p2+p3) …`.
/// The merge order depends only on the number and order of the inputs,
/// which keeps reductions of floating-point partials deterministic. Returns
/// `None` for an empty input.
pub fn tree_merge<T>(mut parts: Vec<T>, mut merge: impl FnMut(&mut T, T)) -> Option<T> {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                merge(&mut a, b);
            }
            next.push(a);
        }
        parts = next;
    }
    parts.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_merge_is_balanced_and_order_preserving() {
        let label = |parts: Vec<String>| {
            tree_merge(parts, |a, b| {
                *a = format!("({a}+{b})");
            })
        };
        assert_eq!(label(vec![]), None);
        assert_eq!(label(vec!["0".into()]).unwrap(), "0");
        let seven: Vec<String> = (0..7).map(|i| i.to_string()).collect();
        assert_eq!(
            label(seven).unwrap(),
            "(((0+1)+(2+3))+((4+5)+6))",
            "fixed pairwise rounds regardless of input count"
        );
    }

    #[test]
    fn lane_chunk_is_tile_aligned_and_covers_all_rows() {
        for nrow in [0usize, 1, 255, 256, 257, 1000, 4096, 100_000] {
            for lanes in [1usize, 2, 3, 8] {
                let c = lane_chunk(nrow, lanes);
                assert_eq!(c % TILE_ROWS, 0);
                assert!(c * lanes >= nrow, "chunk {c} × {lanes} lanes < {nrow}");
            }
        }
        // One lane never splits.
        assert!(lane_chunk(100_000, 1) >= 100_000);
    }
}
