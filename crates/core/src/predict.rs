//! In-database prediction functions (Section 5, Figures 11, 15, 16).
//!
//! "When prediction functions are invoked, Vertica starts user-defined
//! functions that first retrieve the models from DFS, deserialize and load
//! them in R, and call the prediction function on the input data. The
//! Vertica query planner starts many parallel instances of user-defined
//! functions."
//!
//! Three functions are registered, matching the model families the paper
//! names (clustering, regression, randomforest); custom models can register
//! further ones through the same [`TransformFunction`] trait.

use crate::codec::Model;
use crate::modelcache::ModelCache;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use vdr_cluster::SimDuration;
use vdr_columnar::{Batch, Column, DataType, Schema};
use vdr_verticadb::{
    DbError, Result, SystemTableProvider, TransformFunction, UdxContext, VerticaDb,
};

/// SQL name of the K-means scorer (Figure 15's `KmeansPredict`).
pub const KMEANS_PREDICT: &str = "KmeansPredict";
/// SQL name of the GLM scorer (Figure 3 line 10 / Figure 16's `GlmPredict`).
/// Lookup is case-insensitive, so the paper's `GlmPredict` and Figure 3's
/// `glmPredict` spelling both resolve.
pub const GLM_PREDICT: &str = "GlmPredict";
/// SQL name of the random-forest scorer.
pub const RF_PREDICT: &str = "rfPredict";

/// Which model family a prediction function serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredictKind {
    Kmeans,
    Glm,
    Rf,
}

struct PredictFunction {
    sql_name: &'static str,
    kind: PredictKind,
    /// Node-local deserialized-model cache, shared by all three prediction
    /// functions and surviving re-registration (see
    /// [`register_prediction_functions`]).
    cache: Arc<ModelCache>,
}

impl PredictFunction {
    /// Resolve the `model` parameter through the node-local cache. Only a
    /// cold or stale entry pays the DFS read + deserialize (and charges the
    /// ledger for them): once per node per model version, no matter how
    /// many UDx instances or queries score with it.
    fn load_model(&self, ctx: &UdxContext<'_>) -> Result<Arc<Model>> {
        let name = ctx.param("model")?;
        let path = format!("models/{name}");
        let checksum = ctx.dfs.checksum_of(&path).ok_or_else(|| {
            DbError::Model(format!("model '{name}': blob '{path}' does not exist"))
        })?;
        // Fault tolerance is the DFS's job (Section 5): even with a warm
        // cache, refuse to serve a model whose every replica is down.
        if !ctx.dfs.is_readable(&path) {
            return Err(DbError::Model(format!(
                "model '{name}': all replicas of '{path}' are down"
            )));
        }
        let model = self.cache.get_or_load(ctx.node, &path, checksum, || {
            let blob = ctx
                .dfs
                .read(ctx.node, &path, ctx.rec)
                .map_err(|e| DbError::Model(format!("model '{name}': {e}")))?;
            ctx.rec.cpu_work(
                ctx.node,
                blob.len() as f64,
                ctx.cluster.profile().costs.model_deserialize_ns_per_byte,
            );
            Model::from_bytes(&blob).map_err(|e| DbError::Model(format!("model '{name}': {e}")))
        })?;
        let matches = matches!(
            (&*model, self.kind),
            (Model::Kmeans(_), PredictKind::Kmeans)
                | (Model::Glm(_), PredictKind::Glm)
                | (Model::RandomForest(_), PredictKind::Rf)
        );
        if !matches {
            return Err(DbError::Model(format!(
                "model '{name}' is a {} model; {} cannot apply it",
                model.type_name(),
                self.sql_name
            )));
        }
        Ok(model)
    }
}

impl TransformFunction for PredictFunction {
    fn name(&self) -> &str {
        self.sql_name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn output_schema(&self, input: &Schema, params: &BTreeMap<String, String>) -> Result<Schema> {
        let pred_field = match self.kind {
            PredictKind::Kmeans => ("cluster_id", DataType::Int64),
            PredictKind::Glm => ("prediction", DataType::Float64),
            PredictKind::Rf => ("predicted_class", DataType::Int64),
        };
        // Optional `id='col'` passthrough: the named argument column is
        // copied to the output so scores stay joinable to their rows (and a
        // `CREATE TABLE scores AS SELECT …` is useful).
        if let Some(id_col) = params.get("id") {
            let idx = input.index_of(id_col).map_err(|_| {
                DbError::Plan(format!("id column '{id_col}' is not among the arguments"))
            })?;
            Ok(Schema::new(vec![
                input.field(idx).clone(),
                vdr_columnar::Field::new(pred_field.0, pred_field.1),
            ]))
        } else {
            Ok(Schema::of(&[pred_field]))
        }
    }

    fn process_partition(
        &self,
        ctx: &UdxContext<'_>,
        input: Vec<Batch>,
        emit: &mut dyn FnMut(Batch),
    ) -> Result<()> {
        // Per-query startup (planning, model distribution): charged once per
        // node, by the first instance.
        let costs = &ctx.cluster.profile().costs;
        if ctx.instance == 0 {
            ctx.rec.fixed(
                ctx.node,
                SimDuration::from_secs(costs.indb_predict_startup_s),
            );
        }
        let model = self.load_model(ctx)?;

        for batch in input {
            let rows = batch.num_rows();
            if rows == 0 {
                continue;
            }
            // Optional id passthrough: that column is copied, not scored.
            let id_idx: Option<usize> = match ctx.params.get("id") {
                Some(name) => Some(batch.schema().index_of(name).map_err(|_| {
                    DbError::Plan(format!("id column '{name}' is not among the arguments"))
                })?),
                None => None,
            };
            let d = batch.num_columns() - usize::from(id_idx.is_some());
            if d != model.num_features() {
                return Err(DbError::Plan(format!(
                    "{} expects {} feature columns, got {d}",
                    self.sql_name,
                    model.num_features()
                )));
            }
            // Columnar feature access (id column excluded): NULL-free float
            // columns are borrowed zero-copy straight out of the batch; only
            // mixed/nullable types pay the `to_f64_vec` conversion.
            let cows: Vec<Cow<'_, [f64]>> = batch
                .columns()
                .iter()
                .enumerate()
                .filter(|(i, _)| Some(*i) != id_idx)
                .map(|(_, c)| c.to_f64_cow())
                .collect();
            let cols: Vec<&[f64]> = cows.iter().map(|c| &**c).collect();
            // Ledger: the per-row UDF overhead plus the model-specific math.
            let per_row = costs.indb_predict_row_overhead_ns
                + match &*model {
                    Model::Kmeans(m) => (m.k() * d) as f64 * costs.indb_kmeans_unit_ns,
                    Model::Glm(m) => m.coefficients.len() as f64 * costs.indb_glm_unit_ns,
                    // Tree walks average ~depth comparisons per tree.
                    Model::RandomForest(m) => (m.trees.len() * 8) as f64 * costs.indb_glm_unit_ns,
                };
            ctx.rec.cpu_work(ctx.node, rows as f64, per_row);

            let wrap = |pred_col: Column, name: &str, dtype: DataType| -> Result<Batch> {
                match id_idx {
                    Some(i) => {
                        let id_field = batch.schema().field(i).clone();
                        Batch::new(
                            Schema::new(vec![id_field, vdr_columnar::Field::new(name, dtype)]),
                            vec![batch.column(i).clone(), pred_col],
                        )
                        .map_err(DbError::from)
                    }
                    None => Batch::new(Schema::of(&[(name, dtype)]), vec![pred_col])
                        .map_err(DbError::from),
                }
            };
            // Batch scoring kernels (vdr-ml::kernels) over the columnar
            // block, timed so `trace_report()` can show per-kernel row
            // throughput.
            let started = std::time::Instant::now();
            let (out, kernel) = match &*model {
                Model::Kmeans(m) => {
                    let ids: Vec<i64> = m
                        .assign_batch(&cols)
                        .into_iter()
                        .map(|c| c as i64)
                        .collect();
                    (
                        wrap(Column::from_i64(ids), "cluster_id", DataType::Int64)?,
                        "kmeans",
                    )
                }
                Model::Glm(m) => (
                    wrap(
                        Column::from_f64(m.predict_batch(&cols)),
                        "prediction",
                        DataType::Float64,
                    )?,
                    "glm",
                ),
                Model::RandomForest(m) => (
                    wrap(
                        Column::from_i64(m.predict_batch(&cols)),
                        "predicted_class",
                        DataType::Int64,
                    )?,
                    "randomforest",
                ),
            };
            let elapsed_ns = started.elapsed().as_nanos() as f64;
            vdr_obs::counter_on("predict.rows", ctx.node.0, rows as u64);
            vdr_obs::observe_on(
                &format!("predict.kernel.{kernel}.ns_per_row"),
                ctx.node.0,
                elapsed_ns / rows as f64,
            );
            emit(out);
        }
        Ok(())
    }
}

/// `v_monitor.model_cache`: the deserialized-model cache's hit/miss/
/// invalidation counters and resident-entry count, as a system table
/// (alongside `v_monitor.block_cache`, which the database registers itself).
struct ModelCacheTable {
    cache: Arc<ModelCache>,
}

impl SystemTableProvider for ModelCacheTable {
    fn name(&self) -> &str {
        "model_cache"
    }

    fn batch(&self, _db: &VerticaDb) -> Result<Batch> {
        vdr_verticadb::monitor::cache_stats_batch(&[
            ("hits", None, self.cache.hits()),
            ("misses", None, self.cache.misses()),
            ("invalidations", None, self.cache.invalidations()),
            ("entries", None, self.cache.len() as u64),
        ])
    }
}

/// Register the three built-in prediction functions with a database.
///
/// Idempotent with respect to the model cache: if prediction functions are
/// already installed (e.g. a second `Session::connect` against the same
/// database), the existing node-local cache is shared by the fresh
/// registrations instead of being thrown away.
pub fn register_prediction_functions(db: &VerticaDb) {
    let cache = db
        .udx()
        .get(KMEANS_PREDICT)
        .ok()
        .and_then(|f| {
            f.as_any()
                .downcast_ref::<PredictFunction>()
                .map(|p| Arc::clone(&p.cache))
        })
        .unwrap_or_default();
    for (sql_name, kind) in [
        (KMEANS_PREDICT, PredictKind::Kmeans),
        (GLM_PREDICT, PredictKind::Glm),
        (RF_PREDICT, PredictKind::Rf),
    ] {
        db.register_transform(Arc::new(PredictFunction {
            sql_name,
            kind,
            cache: Arc::clone(&cache),
        }));
    }
    db.register_system_table(Arc::new(ModelCacheTable { cache }));
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_cluster::{NodeId, PhaseKind, PhaseRecorder, SimCluster};
    use vdr_ml::models::KmeansModel;
    use vdr_verticadb::{Segmentation, TableDef};

    fn setup() -> Arc<VerticaDb> {
        let cluster = SimCluster::for_tests(3);
        let db = VerticaDb::new(cluster);
        register_prediction_functions(&db);
        // A 2-feature table of points near (0,0) and (10,10).
        db.create_table(TableDef {
            name: "pts".into(),
            schema: Schema::of(&[("a", DataType::Float64), ("b", DataType::Float64)]),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
        let a: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.1 } else { 9.9 })
            .collect();
        let b = a.clone();
        let batch = Batch::new(
            Schema::of(&[("a", DataType::Float64), ("b", DataType::Float64)]),
            vec![Column::from_f64(a), Column::from_f64(b)],
        )
        .unwrap();
        db.copy("pts", vec![batch]).unwrap();
        db
    }

    fn deploy_kmeans(db: &VerticaDb, name: &str) {
        let model = Model::Kmeans(KmeansModel {
            centers: vec![vec![0.0, 0.0], vec![10.0, 10.0]],
            iterations: 3,
            total_withinss: 1.0,
        });
        let rec = PhaseRecorder::new("save", PhaseKind::Sequential, 3);
        db.models()
            .save(
                NodeId(0),
                name,
                "tester",
                "kmeans",
                "test",
                model.to_bytes(),
                &rec,
            )
            .unwrap();
    }

    #[test]
    fn kmeans_predict_over_partition_best() {
        let db = setup();
        deploy_kmeans(&db, "km");
        let out = db
            .query(
                "SELECT KmeansPredict(a, b USING PARAMETERS model='km') \
                 OVER (PARTITION BEST) FROM pts",
            )
            .unwrap();
        assert_eq!(out.batch.num_rows(), 100);
        // Half the points are near each center.
        let ids = out.batch.column(0);
        let ones = (0..100)
            .filter(|&i| ids.get(i) == vdr_columnar::Value::Int64(1))
            .count();
        assert_eq!(ones, 50);
        // In-database prediction takes simulated time (startup + rows).
        assert!(out.sim_time.as_secs() >= db.cluster().profile().costs.indb_predict_startup_s);
    }

    #[test]
    fn predict_with_where_clause_scores_subset() {
        let db = setup();
        deploy_kmeans(&db, "km");
        let out = db
            .query(
                "SELECT KmeansPredict(a, b USING PARAMETERS model='km') \
                 OVER (PARTITION BEST) FROM pts WHERE a < 1.0",
            )
            .unwrap();
        assert_eq!(out.batch.num_rows(), 50);
    }

    #[test]
    fn missing_model_and_wrong_family_error() {
        let db = setup();
        deploy_kmeans(&db, "km");
        let err = db
            .query(
                "SELECT KmeansPredict(a, b USING PARAMETERS model='ghost') \
                 OVER (PARTITION BEST) FROM pts",
            )
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
        // Applying the GLM scorer to a kmeans model is rejected.
        let err = db
            .query(
                "SELECT glmPredict(a, b USING PARAMETERS model='km') \
                 OVER (PARTITION BEST) FROM pts",
            )
            .unwrap_err();
        assert!(err.to_string().contains("kmeans"), "{err}");
        // Missing the model parameter entirely.
        assert!(db
            .query("SELECT KmeansPredict(a, b) OVER (PARTITION BEST) FROM pts")
            .is_err());
    }

    #[test]
    fn id_passthrough_keeps_scores_joinable() {
        let db = setup();
        deploy_kmeans(&db, "km");
        // `a` doubles as the row id here; it is passed through, and only `b`
        // would be scored — which mismatches the 2-feature model, so use a
        // fresh id column instead.
        db.query("CREATE TABLE pts2 (rowid INTEGER, a FLOAT, b FLOAT)")
            .unwrap();
        db.query("INSERT INTO pts2 VALUES (1, 0.1, 0.1), (2, 9.9, 9.9), (3, 0.2, 0.0)")
            .unwrap();
        let out = db
            .query(
                "SELECT KmeansPredict(rowid, a, b USING PARAMETERS model='km', id='rowid')                  OVER (PARTITION BEST) FROM pts2",
            )
            .unwrap()
            .batch;
        assert_eq!(out.schema().names(), vec!["rowid", "cluster_id"]);
        assert_eq!(out.num_rows(), 3);
        // Find row 2: it must be in cluster 1 (near (10,10)).
        let row2 = (0..3)
            .find(|&r| out.row(r)[0] == vdr_columnar::Value::Int64(2))
            .expect("row id 2 present");
        assert_eq!(out.row(row2)[1], vdr_columnar::Value::Int64(1));
        // Materialize scores in-database and query them back.
        db.query(
            "CREATE TABLE scores AS SELECT KmeansPredict(rowid, a, b              USING PARAMETERS model='km', id='rowid') OVER (PARTITION BEST) FROM pts2",
        )
        .unwrap();
        let back = db
            .query("SELECT count(*) FROM scores WHERE cluster_id = 0")
            .unwrap()
            .batch;
        assert_eq!(back.row(0)[0], vdr_columnar::Value::Int64(2));
        // Unknown id column errors cleanly.
        assert!(db
            .query(
                "SELECT KmeansPredict(a, b USING PARAMETERS model='km', id='ghost')                  OVER (PARTITION BEST) FROM pts2",
            )
            .is_err());
    }

    #[test]
    fn partition_by_routes_rows_and_scores_them_all() {
        // PARTITION BY hashes rows among local UDx instances instead of
        // slicing containers; every row must still be scored exactly once.
        let db = setup();
        deploy_kmeans(&db, "km");
        let best = db
            .query(
                "SELECT KmeansPredict(a, b USING PARAMETERS model='km')                  OVER (PARTITION BEST) FROM pts",
            )
            .unwrap()
            .batch;
        let by = db
            .query(
                "SELECT KmeansPredict(a, b USING PARAMETERS model='km')                  OVER (PARTITION BY a) FROM pts",
            )
            .unwrap()
            .batch;
        assert_eq!(by.num_rows(), best.num_rows());
        let count_ones = |b: &Batch| {
            (0..b.num_rows())
                .filter(|&r| b.row(r)[0] == vdr_columnar::Value::Int64(1))
                .count()
        };
        assert_eq!(count_ones(&by), count_ones(&best));
    }

    #[test]
    fn transform_names_resolve_case_insensitively() {
        // The paper writes `GlmPredict` in Section 5 but `glmPredict` in
        // Figure 3; both (and any other casing) must resolve.
        let db = setup();
        deploy_kmeans(&db, "km");
        for spelling in [
            "KmeansPredict",
            "KMEANSPREDICT",
            "kmeanspredict",
            "kMeAnSpReDiCt",
        ] {
            let out = db
                .query(&format!(
                    "SELECT {spelling}(a, b USING PARAMETERS model='km') \
                     OVER (PARTITION BEST) FROM pts"
                ))
                .unwrap();
            assert_eq!(out.batch.num_rows(), 100, "spelling {spelling}");
        }
        let glm = Model::Glm(vdr_ml::models::GlmModel {
            coefficients: vec![1.0, 2.0, 3.0],
            intercept: true,
            family: vdr_ml::Family::Gaussian,
            deviance: 0.0,
            iterations: 1,
            converged: true,
        });
        let rec = PhaseRecorder::new("save", PhaseKind::Sequential, 3);
        db.models()
            .save(NodeId(0), "g", "tester", "glm", "", glm.to_bytes(), &rec)
            .unwrap();
        for spelling in ["GlmPredict", "glmPredict", "GLMPREDICT", "glmpredict"] {
            let out = db
                .query(&format!(
                    "SELECT {spelling}(a, b USING PARAMETERS model='g') \
                     OVER (PARTITION BEST) FROM pts"
                ))
                .unwrap();
            assert_eq!(out.batch.num_rows(), 100, "spelling {spelling}");
        }
    }

    #[test]
    fn reregistration_shares_the_model_cache() {
        let db = setup();
        let cache_of = |name: &str| {
            let f = db.udx().get(name).unwrap();
            let p = f
                .as_any()
                .downcast_ref::<PredictFunction>()
                .expect("prediction function");
            Arc::clone(&p.cache)
        };
        let before = cache_of(KMEANS_PREDICT);
        // A second Session::connect against the same db re-registers; the
        // warm node-local cache must survive, shared by all three functions.
        register_prediction_functions(&db);
        assert!(Arc::ptr_eq(&before, &cache_of(KMEANS_PREDICT)));
        assert!(Arc::ptr_eq(&before, &cache_of(GLM_PREDICT)));
        assert!(Arc::ptr_eq(&before, &cache_of(RF_PREDICT)));
    }

    #[test]
    fn model_cache_loads_once_per_node_and_reuses_across_queries() {
        let db = setup();
        deploy_kmeans(&db, "km");
        let cache = db
            .udx()
            .get(KMEANS_PREDICT)
            .unwrap()
            .as_any()
            .downcast_ref::<PredictFunction>()
            .map(|p| Arc::clone(&p.cache))
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        let q = "SELECT KmeansPredict(a, b USING PARAMETERS model='km') \
                 OVER (PARTITION BEST) FROM pts";
        db.query(q).unwrap();
        // One miss per node (3-node test cluster), regardless of how many
        // UDx instances scored partitions.
        assert_eq!(cache.misses(), 3);
        let after_first = cache.hits();
        db.query(q).unwrap();
        assert_eq!(cache.misses(), 3, "second query is all cache hits");
        assert!(cache.hits() >= after_first + 3);
    }

    #[test]
    fn feature_arity_checked() {
        let db = setup();
        deploy_kmeans(&db, "km");
        let err = db
            .query(
                "SELECT KmeansPredict(a USING PARAMETERS model='km') \
                 OVER (PARTITION BEST) FROM pts",
            )
            .unwrap_err();
        assert!(err.to_string().contains("feature columns"), "{err}");
    }
}
