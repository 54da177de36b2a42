//! Cross-crate property tests: model codec round-trips for arbitrary
//! models, transfer exactly-once under arbitrary shapes and policies, and
//! SQL robustness.

use proptest::prelude::*;
use std::sync::Arc;
use vertica_dr::cluster::{Ledger, SimCluster};
use vertica_dr::core::Model;
use vertica_dr::distr::DistributedR;
use vertica_dr::ml::models::{DecisionTree, GlmModel, KmeansModel, RandomForestModel, TreeNode};
use vertica_dr::ml::Family;
use vertica_dr::transfer::{install_export_function, TransferPolicy};
use vertica_dr::verticadb::{sql, Segmentation, VerticaDb};
use vertica_dr::workloads::transfer_table;

// ------------------------------------------------------------ model codec

fn glm_strategy() -> impl Strategy<Value = Model> {
    (
        prop::collection::vec(any::<f64>(), 1..40),
        any::<bool>(),
        0..3u8,
        any::<f64>(),
        0..100usize,
        any::<bool>(),
    )
        .prop_map(
            |(coefficients, intercept, fam, deviance, iterations, converged)| {
                Model::Glm(GlmModel {
                    coefficients,
                    intercept,
                    family: match fam {
                        0 => Family::Gaussian,
                        1 => Family::Binomial,
                        _ => Family::Poisson,
                    },
                    deviance,
                    iterations,
                    converged,
                })
            },
        )
}

fn kmeans_strategy() -> impl Strategy<Value = Model> {
    (1..8usize, 1..6usize, any::<u64>()).prop_map(|(k, d, seed)| {
        let mut v = seed;
        let mut next = || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            (v >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
        };
        Model::Kmeans(KmeansModel {
            centers: (0..k).map(|_| (0..d).map(|_| next()).collect()).collect(),
            iterations: (seed % 50) as usize,
            total_withinss: next().abs(),
        })
    })
}

fn forest_strategy() -> impl Strategy<Value = Model> {
    // Small random-but-valid forests: each tree is a root split with leaf
    // children, plus optional leaf-only trees.
    (1..6usize, prop::collection::vec(any::<i64>(), 2..5)).prop_map(|(ntrees, mut classes)| {
        classes.sort_unstable();
        classes.dedup();
        if classes.len() < 2 {
            classes = vec![0, 1];
        }
        let trees = (0..ntrees)
            .map(|t| {
                if t % 2 == 0 {
                    DecisionTree {
                        nodes: vec![
                            TreeNode::Split {
                                feature: t % 3,
                                threshold: t as f64 * 0.5,
                                left: 1,
                                right: 2,
                            },
                            TreeNode::Leaf { class: classes[0] },
                            TreeNode::Leaf {
                                class: classes[1 % classes.len()],
                            },
                        ],
                    }
                } else {
                    DecisionTree {
                        nodes: vec![TreeNode::Leaf { class: classes[0] }],
                    }
                }
            })
            .collect();
        Model::RandomForest(RandomForestModel {
            trees,
            num_features: 3,
            classes,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_glm_roundtrips_through_the_codec(model in glm_strategy()) {
        let blob = model.to_bytes();
        let back = Model::from_bytes(&blob).unwrap();
        // NaN-tolerant comparison via re-serialization.
        prop_assert_eq!(blob, back.to_bytes());
    }

    #[test]
    fn any_kmeans_roundtrips_through_the_codec(model in kmeans_strategy()) {
        let blob = model.to_bytes();
        prop_assert_eq!(&blob, &Model::from_bytes(&blob).unwrap().to_bytes());
    }

    #[test]
    fn any_forest_roundtrips_through_the_codec(model in forest_strategy()) {
        let blob = model.to_bytes();
        prop_assert_eq!(Model::from_bytes(&blob).unwrap(), model);
    }

    #[test]
    fn codec_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = Model::from_bytes(&data); // error or ok, never panic
    }

    #[test]
    fn truncated_model_blobs_error(model in glm_strategy(), cut_frac in 0.0f64..1.0) {
        let blob = model.to_bytes();
        let cut = ((blob.len() as f64) * cut_frac) as usize;
        if cut < blob.len() {
            prop_assert!(Model::from_bytes(&blob[..cut]).is_err());
        }
    }
}

// -------------------------------------------------------------- SQL parser

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sql_parser_never_panics(input in "[ -~]{0,120}") {
        let _ = sql::parse(&input); // arbitrary printable ASCII: error or ok
    }

    #[test]
    fn where_clauses_reparse_to_the_same_tree(
        col in "[a-c]",
        lo in -100i64..100,
        hi in -100i64..100,
        val in -100i64..100,
    ) {
        // Build a query, parse it, print the parsed predicate, re-parse the
        // printed form: the trees must agree (display/parse stability).
        let q = format!(
            "SELECT * FROM t WHERE ({col} BETWEEN {lo} AND {hi}) OR {col} IN ({val}, {lo}) \
             AND {col} IS NOT NULL"
        );
        let first = match sql::parse(&q).unwrap() {
            sql::Statement::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        };
        let q2 = format!("SELECT * FROM t WHERE {first}");
        let second = match sql::parse(&q2).unwrap() {
            sql::Statement::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        };
        prop_assert_eq!(first, second);
    }
}

// ------------------------------------------------- transfer exactly-once

proptest! {
    // Each case stands up a cluster and moves real data; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn vft_delivers_exactly_once_for_arbitrary_shapes(
        rows in 1usize..3000,
        nodes in 1usize..5,
        uniform in any::<bool>(),
        seg_choice in 0..3u8,
        instances in 1usize..5,
    ) {
        let cluster = SimCluster::for_tests(nodes);
        let db = VerticaDb::new(cluster.clone());
        let seg = match seg_choice {
            0 => Segmentation::RoundRobin,
            1 => Segmentation::Hash { column: "id".into() },
            _ => Segmentation::Skewed {
                weights: (0..nodes).map(|i| (i + 1) as f64).collect(),
            },
        };
        transfer_table(&db, "t", rows, seg, 7).unwrap();
        let dr = DistributedR::on_all_nodes(cluster, instances).unwrap();
        let vft = install_export_function(&db);
        let policy = if uniform {
            TransferPolicy::Uniform
        } else {
            TransferPolicy::Locality
        };
        let ledger = Ledger::new();
        let (arr, report) = vft
            .db2darray(&db, &dr, "t", &["id"], policy, &ledger)
            .unwrap();
        prop_assert_eq!(report.rows, rows as u64);
        let sums = arr
            .map_partitions(|_, p| p.data.iter().sum::<f64>())
            .unwrap();
        let total: f64 = sums.iter().sum();
        prop_assert_eq!(total, (rows as f64 - 1.0) * rows as f64 / 2.0);
        let _ = Arc::strong_count(&db);
    }
}

// ------------------------------------------------------ distributed exchange

/// Build identical fact/dim tables on an `n`-node and a 1-node database.
fn exchange_dbs(
    fact: &[(i64, i64)],
    dim_keys: &[i64],
    nodes: usize,
) -> (Arc<VerticaDb>, Arc<VerticaDb>) {
    use vertica_dr::columnar::{Batch, Column, DataType, Schema};
    let build = |n: usize| {
        let db = VerticaDb::new(SimCluster::for_tests(n));
        let fact_schema = Schema::of(&[("k", DataType::Int64), ("v", DataType::Int64)]);
        let dim_schema = Schema::of(&[("k", DataType::Int64), ("name", DataType::Varchar)]);
        db.create_table(vertica_dr::verticadb::TableDef {
            name: "fact".into(),
            schema: fact_schema.clone(),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
        db.create_table(vertica_dr::verticadb::TableDef {
            name: "dim".into(),
            schema: dim_schema.clone(),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
        let (ks, vs): (Vec<i64>, Vec<i64>) = fact.iter().copied().unzip();
        db.copy(
            "fact",
            vec![Batch::new(
                fact_schema,
                vec![Column::from_i64(ks), Column::from_i64(vs)],
            )
            .unwrap()],
        )
        .unwrap();
        let names: Vec<String> = dim_keys.iter().map(|k| format!("n{k}")).collect();
        db.copy(
            "dim",
            vec![Batch::new(
                dim_schema,
                vec![
                    Column::from_i64(dim_keys.to_vec()),
                    Column::from_strings(names),
                ],
            )
            .unwrap()],
        )
        .unwrap();
        db
    };
    (build(nodes), build(1))
}

fn sorted_rows(b: &vertica_dr::columnar::Batch) -> Vec<String> {
    let ncols = b.schema().fields().len();
    let mut rows: Vec<String> = (0..b.num_rows())
        .map(|i| {
            (0..ncols)
                .map(|c| format!("{:?}", b.column(c).get(i)))
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shuffled hash JOINs and shuffled two-phase GROUP BYs over arbitrary
    /// tables return exactly what a single-node executor returns.
    #[test]
    fn distributed_join_and_group_by_match_single_node(
        fact in prop::collection::vec((0i64..20, 0i64..100), 1..120),
        dim_keys in prop::collection::vec(0i64..20, 1..15),
        nodes in 2usize..5,
    ) {
        // Dim keys must be unique (it's the build side of the hash join).
        let mut dim_keys = dim_keys;
        dim_keys.sort_unstable();
        dim_keys.dedup();
        let (multi, single) = exchange_dbs(&fact, &dim_keys, nodes);
        for q in [
            "SELECT f.k, f.v, d.name FROM fact f JOIN dim d ON f.k = d.k",
            "SELECT f.k, f.v, d.name FROM fact f LEFT JOIN dim d ON f.k = d.k",
            "SELECT d.name, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k \
             GROUP BY d.name ORDER BY d.name",
            "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact GROUP BY k ORDER BY k",
        ] {
            let a = multi.query(q).unwrap().batch;
            let b = single.query(q).unwrap().batch;
            prop_assert_eq!(sorted_rows(&a), sorted_rows(&b));
        }
    }
}
