//! The model serialization format: a deployed model is a few tables.
//!
//! "Internally, models are first serialized and then transferred to the
//! database … models are stored as binary blobs in Vertica's distributed
//! file system" (Section 5). As in MADlib, a model is ordinary [`Batch`]es in
//! the block codec — a one-row metadata block (`kind`, the `R_Models` type,
//! then the kind's scalars) and the kind's tables, named in the plans below —
//! framed as a `vdr_cluster::frame` stream (header `(0, block count)`) in
//! `"VMDL" | version u8 (2) | crc32 of the stream | stream`. Version 1, the
//! hand-written payload this replaced, has no reader: nothing persists blobs.

use crate::error::{CoreError, Result};
use bytes::Bytes;
use vdr_cluster::frame::{stream_chunks, FrameAssembler};
use vdr_columnar::checksum::crc32;
use vdr_columnar::encoding::Encoding::DeltaVarint;
use vdr_columnar::{decode_batch, encode_batch_with, Batch, Column, Field, Schema, Value};
use vdr_ml::models::{DecisionTree, TreeNode};
use vdr_ml::{Family, GlmModel, KmeansModel, RandomForestModel};

const MAGIC: &[u8; 4] = b"VMDL";
const VERSION: u8 = 2;
const HEADER_LEN: usize = 9;

/// Each kind's blocks by column names: the metadata row, then the k × d centers
/// row-major, the coefficients, or the forest's nodes and classes.
type Plan = &'static [&'static [&'static str]];
const KMEANS: Plan = &[&["kind", "k", "d", "iterations", "withinss"], &["value"]];
#[rustfmt::skip]
const GLM: Plan = &[
    &["kind", "family", "intercept", "converged", "iterations", "deviance"],
    &["coefficient"],
];
const FOREST: Plan = &[
    &["kind", "num_features", "trees"],
    &["tree", "feature", "threshold", "left", "right", "class"],
    &["class"],
];
/// The `feature` of a leaf row in the forest's nodes; children index the tree.
const LEAF: i64 = -1;

/// Any model the integrated product can deploy to the database.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    Kmeans(KmeansModel),
    Glm(GlmModel),
    RandomForest(RandomForestModel),
}

impl Model {
    /// The `type` column value in `R_Models` (Figure 10 shows "kmeans" and
    /// "regression").
    pub fn type_name(&self) -> &'static str {
        match self {
            Model::Kmeans(_) => "kmeans",
            Model::Glm(_) => "regression",
            Model::RandomForest(_) => "randomforest",
        }
    }

    /// Feature columns the model scores.
    pub fn num_features(&self) -> usize {
        match self {
            Model::Kmeans(m) => m.num_features(),
            Model::Glm(m) => m.num_features(),
            Model::RandomForest(m) => m.num_features,
        }
    }

    /// Serialize to the blob format.
    pub fn to_bytes(&self) -> Bytes {
        let int = |n: usize| Value::Int64(n as i64);
        let (plan, meta, tables) = match self {
            Model::Kmeans(m) => (
                KMEANS,
                vec![
                    int(m.k()),
                    int(m.num_features()),
                    int(m.iterations),
                    Value::Float64(m.total_withinss),
                ],
                vec![vec![Column::from_f64(m.centers.concat())]],
            ),
            Model::Glm(m) => (
                GLM,
                vec![
                    Value::Varchar(m.family.name().into()),
                    Value::Bool(m.intercept),
                    Value::Bool(m.converged),
                    int(m.iterations),
                    Value::Float64(m.deviance),
                ],
                vec![vec![Column::from_f64(m.coefficients.clone())]],
            ),
            Model::RandomForest(m) => {
                let (mut cols, mut th): ([Vec<i64>; 5], Vec<f64>) = Default::default();
                for (t, tree) in m.trees.iter().enumerate() {
                    for node in &tree.nodes {
                        let (row, threshold) = match *node {
                            TreeNode::Leaf { class } => ([t as i64, LEAF, 0, 0, class], 0.0),
                            TreeNode::Split {
                                feature: f,
                                threshold,
                                left: l,
                                right: r,
                            } => ([t as i64, f as i64, l as i64, r as i64, 0], threshold),
                        };
                        cols.iter_mut().zip(row).for_each(|(col, v)| col.push(v));
                        th.push(threshold);
                    }
                }
                let [tree, feature, left, right, class] = cols.map(Column::from_i64);
                let nodes = vec![tree, feature, Column::from_f64(th), left, right, class];
                let classes = vec![Column::from_i64(m.classes.clone())];
                let meta = vec![int(m.num_features), int(m.trees.len())];
                (FOREST, meta, vec![nodes, classes])
            }
        };
        let kind = Value::Varchar(self.type_name().into());
        let meta = std::iter::once(kind).chain(meta);
        let meta = meta.map(|v| Column::from_value(&v, 1)).collect();
        let blocks = std::iter::once(meta).chain(tables).zip(plan);
        seal(blocks.map(|(cols, names)| block(names, cols)).collect())
    }

    /// Deserialize from the blob format, refusing any block off its kind's plan
    /// and any model a scorer would panic or loop on (see `forest`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Model> {
        let blocks = open(bytes)?;
        let meta = blocks.first().filter(|meta| meta.num_rows() == 1);
        let meta = meta.map(|meta| meta.row(0)).unwrap_or_default();
        match meta.as_slice() {
            [Value::Varchar(kind), Value::Int64(k), Value::Int64(d), Value::Int64(iterations), Value::Float64(total_withinss)]
                if kind == "kmeans" =>
            {
                planned(&blocks, KMEANS)?;
                let (k, d, values) = (count(*k)?, count(*d)?, floats(&blocks[1], 0)?);
                let centers: Vec<Vec<f64>> = values.chunks(d.max(1)).map(<[f64]>::to_vec).collect();
                if centers.len() != k || k.checked_mul(d) != Some(values.len()) {
                    return Err(bad(format!("centers are not {k} × {d}")));
                }
                Ok(Model::Kmeans(KmeansModel {
                    centers,
                    iterations: count(*iterations)?,
                    total_withinss: *total_withinss,
                }))
            }
            [Value::Varchar(kind), Value::Varchar(family), Value::Bool(intercept), Value::Bool(converged), Value::Int64(iterations), Value::Float64(deviance)]
                if kind == "regression" =>
            {
                planned(&blocks, GLM)?;
                let families = [Family::Gaussian, Family::Binomial, Family::Poisson];
                let coefficients = floats(&blocks[1], 0)?.to_vec();
                let has_intercept = coefficients.len() >= usize::from(*intercept);
                let family = families.into_iter().find(|f| f.name() == family);
                let Some(family) = family.filter(|_| has_intercept) else {
                    return Err(bad("an unknown family, or a missing intercept"));
                };
                Ok(Model::Glm(GlmModel {
                    coefficients,
                    intercept: *intercept,
                    family,
                    deviance: *deviance,
                    iterations: count(*iterations)?,
                    converged: *converged,
                }))
            }
            [Value::Varchar(kind), Value::Int64(num_features), Value::Int64(trees)]
                if kind == "randomforest" =>
            {
                planned(&blocks, FOREST)?;
                let num_features = count(*num_features)?;
                Ok(Model::RandomForest(RandomForestModel {
                    trees: forest(&blocks[1], num_features, count(*trees)?)?,
                    num_features,
                    classes: ints(&blocks[2], 0)?.to_vec(),
                }))
            }
            _ => Err(bad(format!("no model kind has the metadata row {meta:?}"))),
        }
    }
}

fn bad(msg: impl Into<String>) -> CoreError {
    CoreError::Codec(msg.into())
}

/// Encode one block, integers as delta varints (ids, indices and classes sit
/// close together). `Batch::new` refuses only columns of unequal length,
/// which no caller builds; were it to, the blob would fail to decode.
fn block(names: &[&str], cols: Vec<Column>) -> Bytes {
    let field = |(n, c): (&&str, &Column)| Field::new(*n, c.data_type());
    let schema = Schema::new(names.iter().zip(&cols).map(field).collect());
    let encode = |batch| encode_batch_with(&batch, Some(DeltaVarint));
    Batch::new(schema, cols).map(encode).unwrap_or_default()
}

/// Frame the blocks and wrap the stream in the envelope.
fn seal(blocks: Vec<Bytes>) -> Bytes {
    let mut out = [&MAGIC[..], &[VERSION, 0, 0, 0, 0]].concat(); // crc patched below
    let stream = stream_chunks(Some((0, blocks.len() as u64)), blocks);
    stream.for_each(|chunk| out.extend_from_slice(&chunk));
    let crc = crc32(&out[HEADER_LEN..]);
    out[5..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    Bytes::from(out)
}

/// Check the envelope and decode every framed block.
fn open(bytes: &[u8]) -> Result<Vec<Batch>> {
    let Some((head, body)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(bad("blob too short"));
    };
    if head[..4] != MAGIC[..] || head[4] != VERSION {
        return Err(bad(format!("bad magic or unsupported version {}", head[4])));
    }
    if head[5..] != crc32(body).to_le_bytes() {
        return Err(bad("checksum mismatch"));
    }
    let mut frames = FrameAssembler::default();
    frames.push(Bytes::copy_from_slice(body));
    let mut blocks = Vec::new();
    while let Some(frame) = frames.next_frame() {
        blocks.push(decode_batch(&frame).map_err(|e| bad(e.to_string()))?);
    }
    if frames.finish().map_err(|e| bad(e.to_string()))? != (0, blocks.len() as u64) {
        return Err(bad("the stream header does not count its blocks"));
    }
    Ok(blocks)
}

/// One block per planned block, each with exactly its planned column names
/// ([`floats`] and [`ints`] check the types as they read).
fn planned(blocks: &[Batch], plan: &[&[&str]]) -> Result<()> {
    let names: Vec<Vec<&str>> = blocks.iter().map(|b| b.schema().names()).collect();
    if names != plan {
        return Err(bad(format!("blocks {names:?}, planned {plan:?}")));
    }
    Ok(())
}

fn floats(b: &Batch, i: usize) -> Result<&[f64]> {
    let col = b.column(i);
    col.as_f64_slice().ok_or_else(|| bad("NULL or not FLOAT"))
}

fn ints(b: &Batch, i: usize) -> Result<&[i64]> {
    let col = b.column(i);
    col.as_i64_slice().ok_or_else(|| bad("NULL or not INTEGER"))
}

fn count(v: i64) -> Result<usize> {
    usize::try_from(v).map_err(|_| bad(format!("negative count {v}")))
}

/// The trees of a node table, refusing any a scorer could not walk to a
/// leaf: rows are grouped by `tree` in order `0..trees`, every tree has
/// nodes, and a split reads a feature below `num_features` and points at
/// children stored after it in its own tree (so every walk ends).
fn forest(nodes: &Batch, num_features: usize, trees: usize) -> Result<Vec<DecisionTree>> {
    let (tree, feature, left) = (ints(nodes, 0)?, ints(nodes, 1)?, ints(nodes, 3)?);
    let (right, class, threshold) = (ints(nodes, 4)?, ints(nodes, 5)?, floats(nodes, 2)?);
    let mut out = Vec::new();
    let mut start = 0;
    for group in tree.chunk_by(|a, b| a == b) {
        let (len, t, first) = (group.len() as i64, out.len(), group[0]);
        let node = |r: usize| {
            let (i, f, children) = ((r - start) as i64, feature[r], [left[r], right[r]]);
            let walkable = (0..num_features as i64).contains(&f)
                && children.iter().all(|c| (i + 1..len).contains(c));
            match (f, walkable) {
                (LEAF, _) => Ok(TreeNode::Leaf { class: class[r] }),
                (_, true) => Ok(TreeNode::Split {
                    feature: f as usize,
                    threshold: threshold[r],
                    left: left[r] as usize,
                    right: right[r] as usize,
                }),
                _ => Err(bad(format!("tree {t} node {i} cannot be walked"))),
            }
        };
        if first != t as i64 {
            return Err(bad(format!("tree {first} stored where tree {t} belongs")));
        }
        let rows = start..start + group.len();
        let nodes = rows.map(node).collect::<Result<_>>()?;
        out.push(DecisionTree { nodes });
        start += group.len();
    }
    if out.len() != trees {
        return Err(bad(format!("{trees} trees planned, {} stored", out.len())));
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn kmeans_model() -> Model {
        Model::Kmeans(KmeansModel {
            centers: vec![vec![1.0, 2.0], vec![-3.5, f64::NAN]],
            iterations: 7,
            total_withinss: 42.5,
        })
    }

    fn glm_model() -> Model {
        Model::Glm(GlmModel {
            coefficients: vec![0.5, -1.25, 3.0],
            intercept: true,
            family: Family::Binomial,
            deviance: 123.4,
            iterations: 5,
            converged: true,
        })
    }

    fn rf_model() -> Model {
        Model::RandomForest(RandomForestModel {
            trees: vec![DecisionTree {
                nodes: vec![
                    TreeNode::Split {
                        feature: 1,
                        threshold: 0.25,
                        left: 1,
                        right: 2,
                    },
                    TreeNode::Leaf { class: -1 },
                    TreeNode::Leaf { class: 1 },
                ],
            }],
            num_features: 3,
            classes: vec![-1, 1],
        })
    }

    #[test]
    fn all_model_kinds_roundtrip() {
        for model in [kmeans_model(), glm_model(), rf_model()] {
            let blob = model.to_bytes();
            let back = Model::from_bytes(&blob).unwrap();
            match (&model, &back) {
                // NaN breaks PartialEq; compare kmeans bitwise.
                (Model::Kmeans(a), Model::Kmeans(b)) => {
                    assert_eq!(a.iterations, b.iterations);
                    assert_eq!(a.total_withinss, b.total_withinss);
                    for (ca, cb) in a.centers.iter().zip(&b.centers) {
                        for (x, y) in ca.iter().zip(cb) {
                            assert_eq!(x.to_bits(), y.to_bits());
                        }
                    }
                }
                _ => assert_eq!(model, back),
            }
        }
    }

    #[test]
    fn type_names_match_figure_10() {
        assert_eq!(kmeans_model().type_name(), "kmeans");
        assert_eq!(glm_model().type_name(), "regression");
        assert_eq!(rf_model().type_name(), "randomforest");
        assert_eq!(glm_model().num_features(), 2);
        assert_eq!(kmeans_model().num_features(), 2);
    }

    #[test]
    fn corruption_detected() {
        let blob = glm_model().to_bytes();
        let mut bad = blob.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(Model::from_bytes(&bad), Err(CoreError::Codec(_))));
        // Bad magic / version / truncation.
        let mut bad = blob.to_vec();
        bad[0] = b'X';
        assert!(Model::from_bytes(&bad).is_err());
        let mut bad = blob.to_vec();
        bad[4] = 9;
        assert!(Model::from_bytes(&bad).is_err());
        assert!(Model::from_bytes(&blob[..5]).is_err());
        assert!(Model::from_bytes(&[]).is_err());
    }

    #[test]
    fn rf_child_indices_validated() {
        // Hand-craft a forest blob with an out-of-range child pointer by
        // serializing a valid model and corrupting nothing — instead build
        // an invalid model directly and verify decode catches it.
        let bad = Model::RandomForest(RandomForestModel {
            trees: vec![DecisionTree {
                nodes: vec![TreeNode::Split {
                    feature: 0,
                    threshold: 0.0,
                    left: 5, // out of range
                    right: 0,
                }],
            }],
            num_features: 1,
            classes: vec![0, 1],
        });
        let blob = bad.to_bytes();
        assert!(Model::from_bytes(&blob).is_err());
    }

    /// `glm_model()` as the version-1 writer (the hand-written little-endian
    /// payload) wrote it at commit `fc6c0a0`. Never regenerate it.
    const GLM_V1: &[u8] = &[
        86, 77, 68, 76, 1, 199, 178, 95, 33, 1, 1, 1, 1, 5, 0, 0, 0, 0, 0, 0, 0, 154, 153, 153,
        153, 153, 217, 94, 64, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0,
        244, 191, 0, 0, 0, 0, 0, 0, 8, 64,
    ];

    fn is_codec_error(blob: &[u8]) -> bool {
        matches!(Model::from_bytes(blob), Err(CoreError::Codec(_)))
    }

    fn forest(nodes: Vec<TreeNode>) -> RandomForestModel {
        RandomForestModel {
            trees: vec![DecisionTree { nodes }],
            num_features: 1,
            classes: vec![0, 1],
        }
    }

    fn split(feature: usize, left: usize, right: usize) -> TreeNode {
        TreeNode::Split {
            feature,
            threshold: 0.5,
            left,
            right,
        }
    }

    #[test]
    fn models_a_scorer_would_panic_or_loop_on_are_refused() {
        let leaf = TreeNode::Leaf { class: 1 };
        let mut empty_second_tree = forest(vec![leaf.clone()]);
        empty_second_tree.trees.push(DecisionTree { nodes: vec![] });
        let crafted = [
            // rfPredict indexes feature 5 of a 1-feature row.
            Model::RandomForest(forest(vec![split(5, 1, 2), leaf.clone(), leaf.clone()])),
            // rfPredict indexes node 0 of a tree with none.
            Model::RandomForest(forest(vec![])),
            Model::RandomForest(empty_second_tree),
            // Children that are the split itself, or stored before it: a walk
            // that never ends.
            Model::RandomForest(forest(vec![split(0, 0, 0)])),
            Model::RandomForest(forest(vec![leaf.clone(), split(0, 0, 0)])),
            // `num_features` subtracts the intercept from no coefficients.
            Model::Glm(GlmModel {
                coefficients: vec![],
                intercept: true,
                family: Family::Gaussian,
                deviance: 0.0,
                iterations: 1,
                converged: true,
            }),
        ];
        for model in crafted {
            assert!(is_codec_error(&model.to_bytes()), "{model:?} decoded");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_every_kind_is_a_codec_error() {
        for model in [kmeans_model(), glm_model(), rf_model()] {
            let blob = model.to_bytes();
            for cut in 0..blob.len() {
                assert!(
                    is_codec_error(&blob[..cut]),
                    "{} cut at {cut}",
                    model.type_name()
                );
            }
            let mut flipped = blob.to_vec();
            for bit in 0..flipped.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(is_codec_error(&flipped), "{} bit {bit}", model.type_name());
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn crc_valid_blobs_off_the_plan_are_codec_errors() {
        let meta = |names: &[&str], values: &[Value]| {
            block(
                names,
                values.iter().map(|v| Column::from_value(v, 1)).collect(),
            )
        };
        let glm_meta = |kind: &str| {
            let values = [
                Value::Varchar(kind.into()),
                Value::Varchar("binomial".into()),
                Value::Bool(true),
                Value::Bool(true),
                Value::Int64(5),
                Value::Float64(1.5),
            ];
            meta(GLM[0], &values)
        };
        let coefficients = block(&["coefficient"], vec![Column::from_f64(vec![0.5, -1.0])]);
        let kmeans_meta = |k: i64, d: i64| {
            let values = [
                Value::Varchar("kmeans".into()),
                Value::Int64(k),
                Value::Int64(d),
                Value::Int64(3),
                Value::Float64(2.0),
            ];
            meta(KMEANS[0], &values)
        };
        let centers = block(&["value"], vec![Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])]);
        // The well-formed blobs these cases break decode.
        assert!(
            Model::from_bytes(&seal(vec![glm_meta("regression"), coefficients.clone()])).is_ok()
        );
        assert!(Model::from_bytes(&seal(vec![kmeans_meta(2, 2), centers.clone()])).is_ok());

        let nulls = Column::Float64 {
            data: vec![0.5, 0.0],
            validity: vdr_columnar::Bitmap::all_clear(2),
        };
        let cases: Vec<(&str, Vec<Bytes>)> = vec![
            ("no blocks", vec![]),
            ("a missing block", vec![glm_meta("regression")]),
            (
                "an extra block",
                vec![
                    glm_meta("regression"),
                    coefficients.clone(),
                    coefficients.clone(),
                ],
            ),
            (
                "GLM metadata under a k-means kind",
                vec![glm_meta("kmeans"), coefficients.clone()],
            ),
            (
                "an unknown kind",
                vec![glm_meta("svm"), coefficients.clone()],
            ),
            (
                "Int64 where Float64 is planned",
                vec![
                    glm_meta("regression"),
                    block(&["coefficient"], vec![Column::from_i64(vec![1, 2])]),
                ],
            ),
            (
                "a renamed column",
                vec![
                    glm_meta("regression"),
                    block(&["beta"], vec![Column::from_f64(vec![0.5])]),
                ],
            ),
            (
                "a NULL coefficient",
                vec![glm_meta("regression"), block(&["coefficient"], vec![nulls])],
            ),
            (
                "a frame that is not a block",
                vec![glm_meta("regression"), Bytes::from_static(b"junk")],
            ),
            (
                "centers that are not k x d",
                vec![kmeans_meta(3, 2), centers.clone()],
            ),
            (
                "a negative count",
                vec![kmeans_meta(-2, -2), centers.clone()],
            ),
            (
                "a two-row metadata block",
                vec![
                    block(
                        &["kind"],
                        vec![Column::from_strings(vec!["kmeans", "kmeans"])],
                    ),
                    centers.clone(),
                ],
            ),
        ];
        for (case, blocks) in cases {
            assert!(is_codec_error(&seal(blocks)), "{case} decoded");
        }
    }

    #[test]
    fn forest_trees_must_be_stored_in_order() {
        let blob = |tree: Vec<i64>| {
            let n = tree.len();
            let ints = |v: i64| Column::from_i64(vec![v; n]);
            let nodes = vec![
                Column::from_i64(tree),
                ints(LEAF),
                Column::from_f64(vec![0.0; n]),
                ints(0),
                ints(0),
                ints(1),
            ];
            let values = [
                Value::Varchar("randomforest".into()),
                Value::Int64(1),
                Value::Int64(2),
            ];
            let meta = block(
                FOREST[0],
                values.iter().map(|v| Column::from_value(v, 1)).collect(),
            );
            let classes = block(FOREST[2], vec![Column::from_i64(vec![0, 1])]);
            seal(vec![meta, block(FOREST[1], nodes), classes])
        };
        assert!(Model::from_bytes(&blob(vec![0, 1])).is_ok());
        for tree in [vec![1, 0], vec![0, 2], vec![0, 1, 0], vec![0, 0]] {
            assert!(
                is_codec_error(&blob(tree.clone())),
                "tree ids {tree:?} decoded"
            );
        }
    }

    #[test]
    fn version_1_blobs_are_an_unsupported_version() {
        match Model::from_bytes(GLM_V1) {
            Err(CoreError::Codec(m)) => assert!(m.contains("unsupported version 1"), "{m}"),
            other => panic!("a version-1 blob gave {other:?}"),
        }
    }
}
