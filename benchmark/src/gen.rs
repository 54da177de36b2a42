//! Seeded input generation. Everything a workload feeds the engine — table
//! contents, true coefficients, k-means starts, sample indices — derives
//! from `--seed`, and every generator also produces the expected answers the
//! result checks compare against (computed here by a plain pass over the
//! generated arrays, never by the engine).

use crate::shape::Shape;
use vertica_dr::columnar::{Batch, Column, DataType, Schema};
use vertica_dr::ml::Family;

/// SplitMix64: small, seedable, and the benchmark's own (the engine never
/// sees the generator, only the generated inputs).
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Bytes of user data in a batch: 8 per numeric value, the string's length
/// per VARCHAR value. The denominator of `stored_bytes_per_raw_byte`.
pub fn user_bytes(batch: &Batch) -> u64 {
    batch
        .columns()
        .iter()
        .map(|c| match c {
            Column::Varchar { data, .. } => data.iter().map(|s| s.len() as u64).sum(),
            Column::Bool { data, .. } => data.len() as u64,
            other => 8 * other.len() as u64,
        })
        .sum()
}

pub const TAGS: [&str; 7] = ["amber", "blue", "coral", "dune", "ember", "fern", "gold"];

/// The feature query's predicate: `WHERE x1 > FEATURE_CUT`.
pub const FEATURE_CUT: f64 = -0.5;

// ---------------------------------------------------------------- loop data

/// One generated table of the loop: `(id, [tag,] x1..xd, y)` in load-sized
/// batches. Row `id` lives in batch `id / batch_rows` at `id % batch_rows`,
/// which is how the result checks find the inputs of a scored row.
pub struct TableData {
    pub schema: Schema,
    pub batches: Vec<Batch>,
    pub rows: usize,
    batch_rows: usize,
    /// Index of `x1` in the schema (1, or 2 behind a `tag` column).
    x0: usize,
    d: usize,
}

impl TableData {
    /// Feature values of row `id`.
    pub fn features(&self, id: usize) -> Vec<f64> {
        let b = &self.batches[id / self.batch_rows];
        let r = id % self.batch_rows;
        (0..self.d)
            .map(|c| b.column(self.x0 + c).f64_data().expect("float feature")[r])
            .collect()
    }

    pub fn raw_bytes(&self) -> u64 {
        self.batches.iter().map(user_bytes).sum()
    }

    /// Visit `(features, y)` of every row.
    fn for_each_row(&self, mut f: impl FnMut(&[f64], f64)) {
        let mut row = vec![0.0; self.d];
        for b in &self.batches {
            let cols: Vec<&[f64]> = (0..self.d)
                .map(|c| b.column(self.x0 + c).f64_data().expect("float feature"))
                .collect();
            let y = b.column(self.x0 + self.d).f64_data().expect("float label");
            for r in 0..b.num_rows() {
                for (slot, col) in row.iter_mut().zip(&cols) {
                    *slot = col[r];
                }
                f(&row, y[r]);
            }
        }
    }
}

/// What the k-means fit must reproduce: started from `init`, Lloyd's
/// iterations end on the generator's own partition, whose within-cluster sum
/// of squares is `wss`.
pub struct KmeansTruth {
    pub k: usize,
    /// `k×d` row-major starting centers: one fitted row of each blob.
    pub init: Vec<f64>,
    pub wss: f64,
}

pub struct LoopInputs {
    pub d: usize,
    pub family: Family,
    pub feature_names: Vec<String>,
    pub train: TableData,
    /// Absent on `alt_paths`, which scores the training table itself.
    pub score: Option<TableData>,
    /// Intercept first.
    pub truth_beta: Vec<f64>,
    /// Rows the feature query keeps (`x1 > FEATURE_CUT`).
    pub feature_rows: u64,
    /// Whether models are fitted on the feature query's output (the loop
    /// workloads) or on the whole table (`alt_paths` trains while loading).
    pub fit_on_features: bool,
    pub kmeans: Option<KmeansTruth>,
    /// Output positions re-scored in process after every predict.
    pub sample_positions: Vec<u64>,
}

impl LoopInputs {
    /// Rows the models are fitted on.
    pub fn fit_rows(&self) -> u64 {
        if self.fit_on_features {
            self.feature_rows
        } else {
            self.train.rows as u64
        }
    }

    fn fitted(&self, features: &[f64]) -> bool {
        !self.fit_on_features || features[0] > FEATURE_CUT
    }

    /// Largest absolute component of the log-likelihood gradient per row at
    /// `beta`: zero at the maximum-likelihood fit, whatever path found it.
    pub fn score_equation_residual(&self, beta: &[f64]) -> f64 {
        let mut grad = vec![0.0; self.d + 1];
        let mut n = 0u64;
        self.train.for_each_row(|x, y| {
            if !self.fitted(x) {
                return;
            }
            let eta = beta[0] + x.iter().zip(&beta[1..]).map(|(a, b)| a * b).sum::<f64>();
            let resid = y - self.family.link_inverse(eta);
            grad[0] += resid;
            for (g, xv) in grad[1..].iter_mut().zip(x) {
                *g += resid * xv;
            }
            n += 1;
        });
        grad.iter().fold(0.0f64, |m, g| m.max(g.abs())) / n as f64
    }
}

/// Blob `j`'s center: one axis per blob, far enough apart that every row is
/// nearest its own blob's mean, with a seeded jitter on every coordinate —
/// except `x1`, which no blob uses as its axis and no jitter touches, so the
/// feature query's predicate on it keeps the same share of rows on any seed.
fn blob_centers(k: usize, d: usize, rng: &mut Rng) -> Vec<Vec<f64>> {
    assert!(k <= 2 * (d - 1), "one signed axis per blob, x1 excluded");
    (0..k)
        .map(|j| {
            let mut c: Vec<f64> = (0..d).map(|_| rng.range(-0.25, 0.25)).collect();
            c[0] = 0.0;
            let sign = if (j / (d - 1)).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            c[1 + j % (d - 1)] += 6.0 * sign;
            c
        })
        .collect()
}

/// Variance of each feature over all rows: the uniform noise plus, in a blob
/// table, the spread of the blobs' centers on that coordinate.
fn feature_variances(centers: Option<&[Vec<f64>]>, d: usize) -> Vec<f64> {
    let wide_noise = 16.0 / 12.0;
    let Some(centers) = centers else {
        return vec![wide_noise; d];
    };
    let k = centers.len() as f64;
    (0..d)
        .map(|c| {
            let mean = centers.iter().map(|ctr| ctr[c]).sum::<f64>() / k;
            let spread = centers
                .iter()
                .map(|ctr| (ctr[c] - mean).powi(2))
                .sum::<f64>()
                / k;
            spread + if c == 0 { wide_noise } else { 1.0 / 12.0 }
        })
        .collect()
}

fn loop_schema(with_tag: bool, names: &[String]) -> Schema {
    let mut fields = vec![("id", DataType::Int64)];
    if with_tag {
        fields.push(("tag", DataType::Varchar));
    }
    fields.extend(names.iter().map(|n| (n.as_str(), DataType::Float64)));
    fields.push(("y", DataType::Float64));
    Schema::of(&fields)
}

/// Generate `rows` rows as batches. Features are uniform on (-2, 2); when
/// `centers` is given, every feature but `x1` is blob `id % k`'s center plus
/// uniform (-0.5, 0.5) noise.
#[allow(clippy::too_many_arguments)]
fn gen_table(
    rows: usize,
    batch_rows: usize,
    with_tag: bool,
    names: &[String],
    centers: Option<&[Vec<f64>]>,
    beta: &[f64],
    family: Family,
    rng: &mut Rng,
) -> TableData {
    let d = names.len();
    let schema = loop_schema(with_tag, names);
    let mut batches = Vec::new();
    let mut lo = 0usize;
    while lo < rows {
        let hi = (lo + batch_rows).min(rows);
        let n = hi - lo;
        let mut xs: Vec<Vec<f64>> = (0..d).map(|_| Vec::with_capacity(n)).collect();
        let mut ys = Vec::with_capacity(n);
        for id in lo..hi {
            let mut eta = beta[0];
            for (c, col) in xs.iter_mut().enumerate() {
                let v = match centers {
                    Some(cs) if c > 0 => cs[id % cs.len()][c] + rng.range(-0.5, 0.5),
                    _ => rng.range(-2.0, 2.0),
                };
                eta += beta[c + 1] * v;
                col.push(v);
            }
            ys.push(match family {
                Family::Binomial => f64::from(rng.unit() < 1.0 / (1.0 + (-eta).exp())),
                _ => eta + rng.range(-0.01, 0.01),
            });
        }
        let mut cols = vec![Column::from_i64((lo as i64..hi as i64).collect())];
        if with_tag {
            cols.push(Column::from_strings(
                (lo..hi).map(|i| TAGS[i % TAGS.len()]).collect(),
            ));
        }
        cols.extend(xs.into_iter().map(Column::from_f64));
        cols.push(Column::from_f64(ys));
        batches.push(Batch::new(schema.clone(), cols).expect("generated batch is well formed"));
        lo = hi;
    }
    TableData {
        schema,
        batches,
        rows,
        batch_rows,
        x0: 1 + usize::from(with_tag),
        d,
    }
}

pub fn loop_inputs(shape: &Shape, seed: u64) -> LoopInputs {
    let d = shape.features;
    let mut rng = Rng::new(seed, 1);
    let feature_names: Vec<String> = (1..=d).map(|i| format!("x{i}")).collect();
    let blobs = shape.kmeans_k > 0;
    let centers = blobs.then(|| blob_centers(shape.kmeans_k, d, &mut rng));
    // Gaussian coefficients are recovered to well under 0.01 from this many
    // rows. Logistic ones get a seeded direction but a fixed strength — the
    // linear predictor has unit variance on every seed — so both labels
    // occur and IRLS needs the same number of iterations whatever the seed.
    let mut truth_beta: Vec<f64> = (0..=d).map(|_| rng.range(-3.0, 3.0)).collect();
    if shape.family == Family::Binomial {
        let variance: f64 = feature_variances(centers.as_deref(), d)
            .iter()
            .zip(&truth_beta[1..])
            .map(|(var, b)| b * b * var)
            .sum();
        for b in &mut truth_beta[1..] {
            *b /= variance.sqrt();
        }
        truth_beta[0] = truth_beta[0].signum() * 0.25;
    }
    let alt = shape.score_rows == 0;
    let train = gen_table(
        shape.train_rows,
        shape.batch_rows,
        alt,
        &feature_names,
        centers.as_deref(),
        &truth_beta,
        shape.family,
        &mut rng,
    );
    let score = (!alt).then(|| {
        gen_table(
            shape.score_rows,
            shape.batch_rows,
            false,
            &feature_names,
            centers.as_deref(),
            &truth_beta,
            shape.family,
            &mut Rng::new(seed, 2),
        )
    });

    let mut inputs = LoopInputs {
        d,
        family: shape.family,
        feature_names,
        train,
        score,
        truth_beta,
        feature_rows: 0,
        fit_on_features: !alt,
        kmeans: None,
        sample_positions: Vec::new(),
    };
    let mut feature_rows = 0u64;
    inputs
        .train
        .for_each_row(|x, _| feature_rows += u64::from(x[0] > FEATURE_CUT));
    inputs.feature_rows = feature_rows;
    if blobs {
        inputs.kmeans = Some(kmeans_truth(&inputs, shape.kmeans_k, seed));
    }
    let scored_rows = inputs.score.as_ref().map_or(inputs.train.rows, |s| s.rows) as u64;
    let mut srng = Rng::new(seed, 3);
    inputs.sample_positions = (0..100.min(scored_rows))
        .map(|_| srng.below(scored_rows))
        .collect();
    inputs
}

/// The generator's partition of the fitted rows (row `id` is in blob
/// `id % k`): its within-cluster sum of squares, and one seeded member row of
/// each blob as the starting centers.
fn kmeans_truth(inputs: &LoopInputs, k: usize, seed: u64) -> KmeansTruth {
    let d = inputs.d;
    let mut sums = vec![0.0; k * d];
    let mut counts = vec![0u64; k];
    let mut id = 0usize;
    inputs.train.for_each_row(|x, _| {
        if inputs.fitted(x) {
            let j = id % k;
            counts[j] += 1;
            for (s, v) in sums[j * d..(j + 1) * d].iter_mut().zip(x) {
                *s += v;
            }
        }
        id += 1;
    });
    let means: Vec<f64> = sums
        .iter()
        .enumerate()
        .map(|(i, s)| s / counts[i / d].max(1) as f64)
        .collect();
    let mut wss = 0.0;
    let mut id = 0usize;
    inputs.train.for_each_row(|x, _| {
        if inputs.fitted(x) {
            let j = id % k;
            wss += x
                .iter()
                .zip(&means[j * d..(j + 1) * d])
                .map(|(a, m)| (a - m) * (a - m))
                .sum::<f64>();
        }
        id += 1;
    });
    // Starting centers: for each blob, the first fitted member at or after a
    // seeded offset.
    let mut rng = Rng::new(seed, 4);
    let mut init = Vec::with_capacity(k * d);
    for j in 0..k {
        let members = inputs.train.rows / k;
        let start = rng.below(members as u64) as usize;
        let row = (0..members)
            .map(|m| ((start + m) % members) * k + j)
            .map(|id| inputs.train.features(id))
            .find(|x| inputs.fitted(x))
            .expect("every blob has a fitted row");
        init.extend(row);
    }
    KmeansTruth { k, init, wss }
}

// ----------------------------------------------------------------- SQL data

/// Expected answers of the ten statement classes (see `sqlmix.rs`).
pub struct SqlExpect {
    /// `count(*), sum(v) WHERE grp = 7`.
    pub filter_rle: (i64, f64),
    /// `count(*), sum(v) WHERE v < 250`.
    pub filter_plain: (i64, f64),
    /// Top ten `(v, k)` by `v DESC, k ASC`.
    pub topn: Vec<(f64, i64)>,
    /// Per tag, in tag order: `count(*), sum(v)`.
    pub gb_dict: Vec<(String, i64, f64)>,
    pub total_sum_v: f64,
    /// Σ over keys of the number of distinct tags the key occurs with.
    pub distinct_tags_total: i64,
    /// `sum(d.w)` over the key join.
    pub join_sum_w: f64,
    /// `sum(d.weight)` over the `grp` join with the 16-row dimension.
    pub join_small_sum_weight: f64,
    /// Rows with `grp = 3` (the CTAS class).
    pub ctas_rows: u64,
}

pub struct SqlInputs {
    pub rows: usize,
    pub keys: usize,
    pub fact_schema: Schema,
    pub fact_batches: Vec<Batch>,
    pub dim_schema: Schema,
    pub dim: Batch,
    pub dim_small_schema: Schema,
    pub dim_small: Batch,
    pub expect: SqlExpect,
}

impl SqlInputs {
    pub fn raw_bytes(&self) -> u64 {
        // Both fact tables and both key dimensions hold the same rows.
        2 * self.fact_batches.iter().map(user_bytes).sum::<u64>()
            + 2 * user_bytes(&self.dim)
            + user_bytes(&self.dim_small)
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `fact(k, grp, tag, v)`: `k` is a seed-rotated permutation of the key space
/// repeated `rows/keys` times (each key equally often), `grp` has 16 values
/// in runs of 512 (run-length encodes), `tag` cycles 7 strings (dictionary
/// encodes), and `v` is integer-valued so distributed sums are exact.
pub fn sql_inputs(shape: &Shape, seed: u64) -> SqlInputs {
    let n = shape.fact_rows;
    let keys = shape.dim_keys;
    assert!(
        n.is_multiple_of(8192) && n.is_multiple_of(keys),
        "fact rows must be whole runs and whole key cycles"
    );
    let mut rng = Rng::new(seed, 5);
    // The permutation's stride is the same on every seed (the first one
    // coprime to the key count at or above its golden section): it decides
    // how the key column delta-encodes and how joins and GROUP BYs walk
    // their hash tables, which must not vary with the seed. The seed rotates
    // where each cycle starts.
    let mult = (keys as u64 * 618 / 1000..)
        .find(|m| gcd(*m, keys as u64) == 1)
        .expect("some stride is coprime");
    let key_rot = rng.below(keys as u64);
    let v_off = rng.below(1000) as usize;
    let tag_rot = rng.below(7) as usize;
    let key_of = |i: usize| ((i as u64 * mult + key_rot) % keys as u64) as i64;
    let grp_of = |i: usize| ((i / 512) % 16) as i64;
    let tag_of = |i: usize| (i + tag_rot) % 7;
    let v_of = |i: usize| ((i * 7 + v_off) % 1000) as f64;
    let w_of = |k: usize| (k % 100) as f64;
    let weight_of = |g: usize| (g * g + 1) as f64;

    let fact_schema = Schema::of(&[
        ("k", DataType::Int64),
        ("grp", DataType::Int64),
        ("tag", DataType::Varchar),
        ("v", DataType::Float64),
    ]);
    let fact_batches = (0..n)
        .step_by(shape.fact_batch_rows)
        .map(|lo| {
            let hi = (lo + shape.fact_batch_rows).min(n);
            Batch::new(
                fact_schema.clone(),
                vec![
                    Column::from_i64((lo..hi).map(key_of).collect()),
                    Column::from_i64((lo..hi).map(grp_of).collect()),
                    Column::from_strings((lo..hi).map(|i| TAGS[tag_of(i)]).collect()),
                    Column::from_f64((lo..hi).map(v_of).collect()),
                ],
            )
            .expect("generated batch is well formed")
        })
        .collect();

    let dim_schema = Schema::of(&[
        ("k", DataType::Int64),
        ("name", DataType::Varchar),
        ("w", DataType::Float64),
    ]);
    let dim = Batch::new(
        dim_schema.clone(),
        vec![
            Column::from_i64((0..keys as i64).collect()),
            Column::from_strings((0..keys).map(|k| format!("n{}", k % 7)).collect()),
            Column::from_f64((0..keys).map(w_of).collect()),
        ],
    )
    .expect("generated batch is well formed");
    let dim_small_schema = Schema::of(&[
        ("grp", DataType::Int64),
        ("label", DataType::Varchar),
        ("weight", DataType::Float64),
    ]);
    let dim_small = Batch::new(
        dim_small_schema.clone(),
        vec![
            Column::from_i64((0..16).collect()),
            Column::from_strings((0..16).map(|g| format!("group-{g}")).collect()),
            Column::from_f64((0..16).map(weight_of).collect()),
        ],
    )
    .expect("generated batch is well formed");

    // Expected answers, by one plain pass over the same arithmetic.
    let mut filter_rle = (0i64, 0.0);
    let mut filter_plain = (0i64, 0.0);
    let mut gb = [(0i64, 0.0f64); 7];
    let mut tags_seen = vec![0u8; keys];
    let mut total_sum_v = 0.0;
    let mut join_sum_w = 0.0;
    let mut join_small_sum_weight = 0.0;
    let mut ctas_rows = 0u64;
    let mut top: Vec<(f64, i64)> = Vec::new();
    for i in 0..n {
        let (k, g, t, v) = (key_of(i), grp_of(i), tag_of(i), v_of(i));
        if g == 7 {
            filter_rle.0 += 1;
            filter_rle.1 += v;
        }
        if v < 250.0 {
            filter_plain.0 += 1;
            filter_plain.1 += v;
        }
        gb[t].0 += 1;
        gb[t].1 += v;
        tags_seen[k as usize] |= 1 << t;
        total_sum_v += v;
        join_sum_w += w_of(k as usize);
        join_small_sum_weight += weight_of(g as usize);
        ctas_rows += u64::from(g == 3);
        if v >= 990.0 {
            top.push((v, k));
        }
    }
    top.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    top.truncate(10);
    assert_eq!(top.len(), 10, "the top-ten candidates cover ten rows");
    let mut gb_dict: Vec<(String, i64, f64)> = gb
        .iter()
        .enumerate()
        .map(|(t, (c, s))| (TAGS[t].to_string(), *c, *s))
        .collect();
    gb_dict.sort_by(|a, b| a.0.cmp(&b.0));

    SqlInputs {
        rows: n,
        keys,
        fact_schema,
        fact_batches,
        dim_schema,
        dim,
        dim_small_schema,
        dim_small,
        expect: SqlExpect {
            filter_rle,
            filter_plain,
            topn: top,
            gb_dict,
            total_sum_v,
            distinct_tags_total: tags_seen.iter().map(|m| m.count_ones() as i64).sum(),
            join_sum_w,
            join_small_sum_weight,
            ctas_rows,
        },
    }
}
