//! One workload's state and one iteration of the loop, driven from a single
//! thread in a closed loop: one statement, transfer or fit in flight. Only
//! public items of the `vertica_dr` umbrella crate are called.
//!
//! An iteration is seven stages — load, feature_sql, sql, transfer, train,
//! deploy, predict — each a span, with every call into a crate's public
//! function a child span. Every operation's result is checked off the clock
//! ([`Recorder::untimed`]); a failed check is a failed operation.

use crate::gen::{self, LoopInputs, SqlInputs, FEATURE_CUT};
use crate::shape::{Shape, Workload, NODES, R_INSTANCES_PER_NODE, THREADS_PER_NODE};
use crate::spans::Recorder;
use crate::sqlmix::{self, CLASSES};
use std::sync::Arc;
use std::time::Instant;
use vertica_dr::cluster::{HardwareProfile, KernelRegime, Ledger, SimCluster};
use vertica_dr::columnar::Batch;
use vertica_dr::core::{Model, Session, SessionOptions};
use vertica_dr::distr::DArray;
use vertica_dr::ml::costmodel::{glm_iteration, kmeans_iteration, KmeansEngine};
use vertica_dr::ml::{hpdglm, hpdkmeans, Family, GlmModel, GlmOptions, KmeansModel, KmeansOptions};
use vertica_dr::transfer::{
    glm_while_loading, install_export_function, kmeans_while_loading, FastTransfer, OdbcLoader,
    TransferPolicy, TransferReport,
};
use vertica_dr::verticadb::{Segmentation, TableDef, VerticaDb};

pub const GLM_MODEL: &str = "bench_glm";
pub const KMEANS_MODEL: &str = "bench_kmeans";
const KMEANS_MAX_ITERATIONS: usize = 15;

/// IRLS converges quadratically, so successive relative deviance changes
/// fall by whole orders of magnitude and a tolerance can land on one of the
/// steps: at the default 1e-8 (and at 1e-9 or 1e-12) the iteration count — and
/// with it `train_s` — flips between seeds. At 1e-7 both the plain and the
/// train-while-loading fit take the same count on every seed tried.
fn glm_options() -> GlmOptions {
    GlmOptions {
        tolerance: 1e-7,
        ..Default::default()
    }
}

/// One stage of the loop: its name in metric names, its span, and the sample
/// its ledger-modeled milliseconds are kept under.
pub struct Stage {
    pub name: &'static str,
    pub span: &'static str,
    pub sim: &'static str,
}

macro_rules! stage {
    ($name:literal) => {
        Stage {
            name: $name,
            span: concat!("loop.stage.", $name),
            sim: concat!("loop.stage.", $name, ".sim"),
        }
    };
}

/// The stages of one iteration, in execution order.
pub const STAGES: [Stage; 7] = [
    stage!("load"),
    stage!("feature_sql"),
    stage!("sql"),
    stage!("transfer"),
    stage!("train"),
    stage!("deploy"),
    stage!("predict"),
];
const LOAD: &Stage = &STAGES[0];
const FEATURE_SQL: &Stage = &STAGES[1];
const SQL: &Stage = &STAGES[2];
const TRANSFER: &Stage = &STAGES[3];
const TRAIN: &Stage = &STAGES[4];
const DEPLOY: &Stage = &STAGES[5];
const PREDICT: &Stage = &STAGES[6];

/// Operations attempted and failed. An operation is one call into the
/// engine together with the check of its result.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
}

impl Checks {
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what.to_string());
            }
        }
    }
}

/// Fitted models of one iteration.
struct Models {
    glm: GlmModel,
    kmeans: Option<KmeansModel>,
}

pub struct Bench {
    pub shape: Shape,
    pub inputs: LoopInputs,
    pub sql: SqlInputs,
    pub db: Arc<VerticaDb>,
    pub session: Session,
    vft: FastTransfer,
    pub checks: Checks,
    feature_ctas: String,
    glm_predict: String,
    kmeans_predict: String,
    /// The array the last iteration transferred, kept for the `distr` probes.
    pub last_array: Option<DArray>,
    /// Bytes `exchange.bytes` moved per class in the last traced iteration.
    pub exchange_bytes_by_class: Vec<u64>,
    iterations_run: usize,
}

fn names<'a>(inputs: &'a LoopInputs, extra: &[&'a str]) -> Vec<&'a str> {
    let mut v: Vec<&str> = inputs.feature_names.iter().map(String::as_str).collect();
    v.extend_from_slice(extra);
    v
}

impl Bench {
    /// Generate the inputs from `seed`, start the cluster, and load the
    /// persistent SQL tables.
    pub fn setup(shape: Shape, seed: u64) -> Bench {
        let inputs = gen::loop_inputs(&shape, seed);
        let sql = gen::sql_inputs(&shape, seed);
        let cluster = SimCluster::new(NODES, HardwareProfile::paper_testbed(), THREADS_PER_NODE);
        let db = VerticaDb::new(cluster);
        let session = Session::connect_colocated(
            Arc::clone(&db),
            SessionOptions {
                r_instances_per_node: R_INSTANCES_PER_NODE,
                ..Default::default()
            },
        )
        .expect("co-located session on a fresh database");
        let vft = install_export_function(&db);
        sqlmix::load_tables(&db, &sql);

        let alt = shape.workload == Workload::AltPaths;
        let xs = inputs.feature_names.join(", ");
        let feature_ctas = if alt {
            format!(
                "CREATE TABLE slice AS SELECT id, x1, y FROM mixed WHERE id < {}",
                shape.odbc_rows
            )
        } else {
            format!("CREATE TABLE feat AS SELECT id, {xs}, y FROM train WHERE x1 > {FEATURE_CUT}")
        };
        let scored = if alt { "mixed" } else { "score" };
        let predict = |function: &str, model: &str| {
            format!(
                "SELECT {function}(id, {xs} USING PARAMETERS model='{model}', id='id') \
                 OVER (PARTITION BEST) FROM {scored}"
            )
        };
        Bench {
            glm_predict: predict("glmPredict", GLM_MODEL),
            kmeans_predict: predict("kmeansPredict", KMEANS_MODEL),
            feature_ctas,
            shape,
            inputs,
            sql,
            db,
            session,
            vft,
            checks: Checks::default(),
            last_array: None,
            exchange_bytes_by_class: vec![0; CLASSES.len()],
            iterations_run: 0,
        }
    }

    fn alt(&self) -> bool {
        self.shape.workload == Workload::AltPaths
    }

    fn train_table(&self) -> &'static str {
        if self.alt() {
            "mixed"
        } else {
            "train"
        }
    }

    /// Modeled seconds both ledgers have accumulated since the last reset.
    fn sim_total(&self) -> f64 {
        self.db.ledger().total().as_secs() + self.session.ledger().total().as_secs()
    }

    fn sql(&self, text: &str) -> Batch {
        self.session
            .sql(text)
            .unwrap_or_else(|e| panic!("statement failed: {text}: {e}"))
            .batch
    }

    /// Run `f` as stage `stage`, recording its modeled time (ledger growth
    /// plus whatever `f` returns as modeled outside the ledgers) beside its
    /// wall time.
    fn stage<T>(
        &mut self,
        rec: &mut Recorder,
        stage: &'static Stage,
        f: impl FnOnce(&mut Bench, &mut Recorder) -> (T, f64),
    ) -> T {
        let sim_before = rec.untimed(|_| self.sim_total());
        let ((out, extra_sim_s), _) = rec.span(stage.span, |rec| f(self, rec));
        rec.untimed(|rec| {
            let sim_ms = (self.sim_total() - sim_before + extra_sim_s) * 1e3;
            rec.sample(stage.sim, sim_ms);
        });
        out
    }

    /// One whole iteration of the loop.
    pub fn iteration(&mut self, rec: &mut Recorder) {
        rec.begin_iteration();
        self.iterations_run += 1;
        rec.span("loop.iteration", |rec| {
            let copies = rec.untimed(|_| {
                self.db.ledger().reset();
                self.session.ledger().reset();
                (
                    self.inputs.train.batches.clone(),
                    self.inputs.score.as_ref().map(|s| s.batches.clone()),
                )
            });
            self.stage_load(rec, copies);
            self.stage_feature(rec);
            self.stage_sql(rec);
            let array = self.stage_transfer(rec);
            let models = self.stage_train(rec, array);
            self.stage_deploy(rec, &models);
            self.stage_predict(rec, &models);
        });
    }

    // ------------------------------------------------------------- load

    fn stage_load(&mut self, rec: &mut Recorder, copies: (Vec<Batch>, Option<Vec<Batch>>)) {
        self.stage(rec, LOAD, |b, rec| {
            let (train_batches, score_batches) = copies;
            let stale: &[&str] = if b.alt() {
                &["mixed", "slice"]
            } else {
                &["train", "score", "feat"]
            };
            for table in stale {
                b.sql(&format!("DROP TABLE IF EXISTS {table}"));
            }
            // `alt_paths` loads the other way: hash-segmented, with a
            // VARCHAR column.
            let segmentation = if b.alt() {
                Segmentation::Hash {
                    column: "id".into(),
                }
            } else {
                Segmentation::RoundRobin
            };
            let mut copy_ms = 0.0;
            let mut copy_sim_ms = 0.0;
            let mut load =
                |b: &mut Bench, rec: &mut Recorder, table: &str, schema, batches, rows| {
                    b.db.create_table(TableDef {
                        name: table.into(),
                        schema,
                        segmentation: segmentation.clone(),
                    })
                    .expect("table was just dropped");
                    let sim_before = rec.untimed(|_| b.db.ledger().total().as_secs());
                    let (loaded, ms) = rec.span("verticadb.copy", |_| b.db.copy(table, batches));
                    copy_ms += ms;
                    rec.untimed(|_| {
                        copy_sim_ms += (b.db.ledger().total().as_secs() - sim_before) * 1e3;
                        let stored = b.db.storage().total_rows(table);
                        b.checks.op(
                            "COPY row count",
                            loaded.as_ref().ok() == Some(&rows) && stored == rows,
                        );
                    });
                };
            let table = b.train_table();
            let schema = b.inputs.train.schema.clone();
            let rows = b.inputs.train.rows as u64;
            load(b, rec, table, schema, train_batches, rows);
            if let Some(batches) = score_batches {
                let score = b.inputs.score.as_ref().expect("copied from it");
                let (schema, rows) = (score.schema.clone(), score.rows as u64);
                load(b, rec, "score", schema, batches, rows);
            }
            rec.sample("iter.copy_ms", copy_ms);
            rec.sample("verticadb.copy.sim", copy_sim_ms);
            ((), 0.0)
        })
    }

    // ------------------------------------------------------ feature SQL

    fn stage_feature(&mut self, rec: &mut Recorder) {
        self.stage(rec, FEATURE_SQL, |b, rec| {
            let (out, _) = rec.span("verticadb.feature_ctas", |_| {
                b.session.sql(&b.feature_ctas).expect("feature CTAS")
            });
            rec.untimed(|rec| {
                rec.sample("verticadb.feature_ctas.sim", out.sim_time.as_millis());
                let (table, expect) = if b.alt() {
                    ("slice", b.shape.odbc_rows as u64)
                } else {
                    ("feat", b.inputs.feature_rows)
                };
                b.checks.op(
                    "feature CTAS row count",
                    b.db.storage().total_rows(table) == expect,
                );
            });
            ((), 0.0)
        })
    }

    // ---------------------------------------------------------- SQL mix

    fn exchange_bytes_now(&self) -> u64 {
        vertica_dr::obs::global()
            .metrics()
            .snapshot()
            .counter_total("exchange.bytes")
    }

    fn stage_sql(&mut self, rec: &mut Recorder) {
        self.stage(rec, SQL, |b, rec| {
            let db = Arc::clone(&b.db);
            let cache = db.storage().block_cache();
            let (hits, misses) = (cache.hits(), cache.misses());
            for (idx, class) in CLASSES.iter().enumerate() {
                // Counters only move while the engine records (traced
                // iterations), and a registry snapshot is too heavy otherwise.
                let recording = vertica_dr::obs::Verbosity::current().recording();
                let exchanged = rec.untimed(|_| recording.then(|| b.exchange_bytes_now()));
                let mut sim_ms = 0.0;
                let mut stored_rows = None;
                let (out, _) = rec.span(class.span, |rec| {
                    let mut last = None;
                    for text in class.sql {
                        let out = b.session.sql(text).expect("statement of the mix");
                        sim_ms += out.sim_time.as_millis();
                        if class.sql.len() > 1 && stored_rows.is_none() {
                            stored_rows =
                                Some(rec.untimed(|_| b.db.storage().total_rows("ctas_tmp")));
                        }
                        last = Some(out.batch);
                    }
                    last.expect("every class has a statement")
                });
                rec.untimed(|rec| {
                    rec.sample(class.sim, sim_ms);
                    let ok = match stored_rows {
                        Some(rows) => rows == b.sql.expect.ctas_rows,
                        None => sqlmix::verify(idx, &out, &b.sql),
                    };
                    b.checks.op(class.name, ok);
                    if let Some(before) = exchanged {
                        b.exchange_bytes_by_class[idx] = b.exchange_bytes_now() - before;
                    }
                });
            }
            rec.sample("blockcache.fits.hits", (cache.hits() - hits) as f64);
            rec.sample("blockcache.fits.misses", (cache.misses() - misses) as f64);
            ((), 0.0)
        })
    }

    /// Phase B: the block cache capped at a quarter of `fact_rr`'s decoded
    /// bytes per node, so every scan evicts. Runs the three scan-bound
    /// classes until `deadline` (and at least `min_rounds` times).
    pub fn capped_phase(&mut self, rec: &mut Recorder, deadline: Instant, min_rounds: usize) {
        let db = Arc::clone(&self.db);
        let cache = db.storage().block_cache();
        let decoded: u64 = self.sql.fact_batches.iter().map(Batch::byte_size).sum();
        cache.set_capacity_per_node(decoded / NODES as u64 / 4);
        cache.invalidate_prefix("tables/fact_rr/");
        let (hits, misses, evictions) = (cache.hits(), cache.misses(), cache.evictions());
        let mut rounds = 0;
        while rounds < min_rounds || Instant::now() < deadline {
            for idx in sqlmix::CAPPED {
                let class = &CLASSES[idx];
                let (out, _) = rec.span(class.capped_span, |_| self.sql(class.sql[0]));
                let ok = sqlmix::verify(idx, &out, &self.sql);
                self.checks.op(class.capped_span, ok);
            }
            rounds += 1;
        }
        rec.sample("blockcache.capped.hits", (cache.hits() - hits) as f64);
        rec.sample("blockcache.capped.misses", (cache.misses() - misses) as f64);
        rec.sample(
            "blockcache.capped.evictions",
            (cache.evictions() - evictions) as f64,
        );
    }

    // --------------------------------------------------------- transfer

    fn record_vft_report(rec: &mut Recorder, report: &TransferReport) {
        rec.sample("transfer.vft.db_sim", report.db_time.as_millis());
        rec.sample("transfer.vft.client_sim", report.client_time.as_millis());
        rec.sample("transfer.vft.queue_sim", report.queue_time.as_millis());
    }

    fn stage_transfer(&mut self, rec: &mut Recorder) -> Option<DArray> {
        self.stage(rec, TRANSFER, |b, rec| {
            let cols = names(&b.inputs, &["y"]);
            let width = cols.len() as u64;
            if !b.alt() {
                let ((array, report), ms) = rec.span("transfer.vft.locality", |_| {
                    b.session.db2darray("feat", &cols).expect("db2darray")
                });
                rec.sample("iter.transfer_ms", ms);
                rec.sample("iter.transfer_rows", report.rows as f64);
                let expect = b.inputs.feature_rows;
                rec.untimed(|rec| {
                    Self::record_vft_report(rec, &report);
                    b.checks.op(
                        "db2darray shape",
                        report.rows == expect && array.dim() == (expect, width),
                    );
                });
                return (Some(array), 0.0);
            }
            // The other uses of the transfer layer: the Uniform policy, a
            // typed data frame, and the parallel-ODBC baseline.
            let rows = b.inputs.train.rows as u64;
            let ((array, report), uniform_ms) = rec.span("transfer.vft.uniform", |_| {
                b.session
                    .db2darray_with_policy("mixed", &cols, TransferPolicy::Uniform)
                    .expect("db2darray (Uniform)")
            });
            rec.untimed(|rec| {
                Self::record_vft_report(rec, &report);
                b.checks.op(
                    "db2darray (Uniform) shape",
                    report.rows == rows && array.dim() == (rows, width),
                );
            });
            let ((frame, report), dframe_ms) = rec.span("transfer.vft.dframe", |_| {
                b.session
                    .db2dframe("mixed", &["id", "tag", "x1", "y"])
                    .expect("db2dframe")
            });
            rec.untimed(|_| {
                b.checks.op(
                    "db2dframe shape",
                    report.rows == rows && frame.dim() == (rows, 4),
                );
            });
            drop(frame);
            rec.sample("iter.transfer_ms", uniform_ms + dframe_ms);
            rec.sample("iter.transfer_rows", 2.0 * rows as f64);
            let ((odbc, report), _) = rec.span("transfer.odbc", |_| {
                OdbcLoader::load_parallel(
                    &b.db,
                    b.session.dr(),
                    "slice",
                    &["id", "x1", "y"],
                    "id",
                    b.session.ledger(),
                )
                .expect("parallel ODBC load")
            });
            rec.untimed(|_| {
                let slice = b.shape.odbc_rows as u64;
                b.checks.op(
                    "ODBC load shape",
                    report.rows == slice && odbc.dim() == (slice, 3),
                );
            });
            drop(odbc);
            (Some(array), 0.0)
        })
    }

    // ------------------------------------------------------------ train

    /// The k-means fit's options. `alt_paths` rotates the order of the
    /// starting centers by the iteration number: the fit and its cost are the
    /// same, but the redeployed model's bytes differ from the cached
    /// version's, so the predict that follows finds the node-local model
    /// cache stale (identical bytes would be served from it).
    fn kmeans_options(&self) -> Option<KmeansOptions> {
        self.inputs.kmeans.as_ref().map(|truth| {
            let mut init = truth.init.clone();
            if self.alt() {
                init.rotate_left(self.iterations_run % truth.k * self.inputs.d);
            }
            KmeansOptions {
                k: truth.k,
                max_iterations: KMEANS_MAX_ITERATIONS,
                initial_centers: Some(init),
                ..Default::default()
            }
        })
    }

    /// Modeled seconds of the fits' iterations (training charges no ledger).
    fn train_sim_s(&self, models: &Models) -> f64 {
        let profile = self.db.cluster().profile();
        let rows = self.inputs.fit_rows();
        let d = self.inputs.d;
        let glm = glm_iteration(
            profile,
            KernelRegime::Native,
            rows,
            d,
            NODES,
            R_INSTANCES_PER_NODE,
        )
        .as_secs()
            * models.glm.iterations as f64;
        let kmeans = models.kmeans.as_ref().map_or(0.0, |m| {
            kmeans_iteration(
                profile,
                KmeansEngine::DistributedR,
                KernelRegime::Native,
                rows,
                m.k(),
                d,
                NODES,
                R_INSTANCES_PER_NODE,
            )
            .as_secs()
                * m.iterations as f64
        });
        glm + kmeans
    }

    fn check_models(&mut self, models: &Models) {
        let glm = &models.glm;
        let ok = match self.inputs.family {
            // Closed form: the generator's coefficients, to 0.01.
            Family::Gaussian => glm
                .coefficients
                .iter()
                .zip(&self.inputs.truth_beta)
                .all(|(c, t)| (c - t).abs() < 0.01),
            // The maximum-likelihood fit zeroes the score equations,
            // whichever path found it.
            _ => glm.converged && self.inputs.score_equation_residual(&glm.coefficients) < 1e-5,
        };
        self.checks.op("glm fit quality", ok);
        if let (Some(model), Some(truth)) = (&models.kmeans, &self.inputs.kmeans) {
            let ok = model.k() == truth.k
                && model.iterations <= KMEANS_MAX_ITERATIONS
                && (model.total_withinss - truth.wss).abs() <= 1e-8 * truth.wss;
            self.checks.op("kmeans inertia", ok);
        }
    }

    fn stage_train(&mut self, rec: &mut Recorder, array: Option<DArray>) -> Models {
        let models = self.stage(rec, TRAIN, |b, rec| {
            let d = b.inputs.d;
            let mut train_ms = 0.0;
            let models = if b.alt() {
                // Train while loading: the fit starts inside the transfer.
                let xs = names(&b.inputs, &[]);
                let (fit, ms) = rec.span("ml.glm_wl.fit", |_| {
                    glm_while_loading(
                        &b.vft,
                        &b.db,
                        b.session.dr(),
                        "mixed",
                        &xs,
                        "y",
                        b.inputs.family,
                        &glm_options(),
                        TransferPolicy::Locality,
                        b.session.ledger(),
                    )
                    .expect("glm_while_loading")
                });
                train_ms += ms;
                let mut overlap_ns = fit.overlap_ns;
                let opts = b.kmeans_options().expect("alt_paths fits k-means");
                let (kfit, ms) = rec.span("ml.kmeans_wl.fit", |_| {
                    kmeans_while_loading(
                        &b.vft,
                        &b.db,
                        b.session.dr(),
                        "mixed",
                        &xs,
                        &opts,
                        TransferPolicy::Locality,
                        b.session.ledger(),
                    )
                    .expect("kmeans_while_loading")
                });
                train_ms += ms;
                overlap_ns += kfit.overlap_ns;
                rec.sample("ml.train.overlap", overlap_ns as f64 / 1e6);
                Models {
                    glm: fit.model,
                    kmeans: Some(kfit.model),
                }
            } else {
                let array = array.as_ref().expect("transfer stage produced the array");
                let feature_cols: Vec<usize> = (0..d).collect();
                let ((x, y), ms) = rec.span("distr.split_columns", |_| {
                    (
                        array.split_columns(&feature_cols).expect("split X"),
                        array.split_columns(&[d]).expect("split y"),
                    )
                });
                train_ms += ms;
                let (glm, ms) = rec.span("ml.glm.fit", |_| {
                    hpdglm(&x, &y, b.inputs.family, &glm_options()).expect("hpdglm")
                });
                train_ms += ms;
                let kmeans = b.kmeans_options().map(|opts| {
                    let (model, ms) = rec.span("ml.kmeans.fit", |_| {
                        hpdkmeans(&x, &opts).expect("hpdkmeans")
                    });
                    train_ms += ms;
                    model
                });
                Models { glm, kmeans }
            };
            rec.sample("iter.train_ms", train_ms);
            rec.sample("ml.glm.iterations", models.glm.iterations as f64);
            if let Some(m) = &models.kmeans {
                rec.sample("ml.kmeans.iterations", m.iterations as f64);
            }
            let sim = b.train_sim_s(&models);
            (models, sim)
        });
        rec.untimed(|_| {
            self.check_models(&models);
            self.last_array = array;
        });
        models
    }

    // ----------------------------------------------------------- deploy

    fn stage_deploy(&mut self, rec: &mut Recorder, models: &Models) {
        self.stage(rec, DEPLOY, |b, rec| {
            // Same names every iteration: a redeploy, so the first predict
            // after it finds the node-local model cache stale.
            let mut deploy = |name: &str, model: Model| {
                let (result, _) = rec.span("core.deploy", |_| {
                    b.session.deploy_model(&model, name, "benchmark")
                });
                b.checks
                    .op("deploy_model", result.is_ok() && b.db.models().exists(name));
            };
            deploy(GLM_MODEL, Model::Glm(models.glm.clone()));
            if let Some(m) = &models.kmeans {
                deploy(KMEANS_MODEL, Model::Kmeans(m.clone()));
            }
            ((), 0.0)
        })
    }

    // ---------------------------------------------------------- predict

    /// Re-score the sampled output rows in process with the model as the
    /// database stores it. `out` is `(id, prediction)`.
    fn check_predictions(&mut self, rec: &mut Recorder, what: &str, model: &str, out: &Batch) {
        let (reloaded, _) = rec.span("core.load_model", |_| self.session.load_model(model));
        let table = self.inputs.score.as_ref().unwrap_or(&self.inputs.train);
        let rescored = |pos: u64| -> Option<bool> {
            let id = out.column(0).get(pos as usize).as_i64()? as usize;
            let features = table.features(id);
            let got = out.column(1).get(pos as usize);
            Some(match reloaded.as_ref().ok()? {
                Model::Glm(m) => {
                    let expect = m.predict(&features);
                    (got.as_f64()? - expect).abs() <= 1e-9 * expect.abs().max(1.0)
                }
                Model::Kmeans(m) => got.as_i64()? == m.assign(&features) as i64,
                Model::RandomForest(_) => false,
            })
        };
        let ok = out.num_rows() == table.rows
            && out.num_columns() == 2
            && self
                .inputs
                .sample_positions
                .iter()
                .all(|&pos| rescored(pos) == Some(true));
        self.checks.op(what, ok);
    }

    fn stage_predict(&mut self, rec: &mut Recorder, models: &Models) {
        self.stage(rec, PREDICT, |b, rec| {
            let scored_rows = b
                .inputs
                .score
                .as_ref()
                .map_or(b.inputs.train.rows, |s| s.rows);
            let mut predict_ms = 0.0;
            let mut predicted_rows = 0usize;
            let mut sim_ms = 0.0;
            if !b.alt() {
                let (out, ms) = rec.span("core.predict.glm", |_| {
                    b.session.sql(&b.glm_predict).expect("glmPredict")
                });
                predict_ms += ms;
                predicted_rows += scored_rows;
                sim_ms += out.sim_time.as_millis();
                rec.untimed(|rec| b.check_predictions(rec, "glmPredict", GLM_MODEL, &out.batch));
            }
            if models.kmeans.is_some() {
                let (out, ms) = rec.span("core.predict.kmeans", |_| {
                    b.session.sql(&b.kmeans_predict).expect("kmeansPredict")
                });
                predict_ms += ms;
                predicted_rows += scored_rows;
                sim_ms += out.sim_time.as_millis();
                rec.untimed(|rec| {
                    b.check_predictions(rec, "kmeansPredict", KMEANS_MODEL, &out.batch)
                });
            }
            if b.alt() {
                // Predictions written back as a table, then dropped.
                let ctas = format!("CREATE TABLE preds AS {}", b.glm_predict);
                let ((), ms) = rec.span("core.predict.ctas", |rec| {
                    let out = b.session.sql(&ctas).expect("predict CTAS");
                    sim_ms += out.sim_time.as_millis();
                    rec.untimed(|rec| {
                        // Read back on a ledger of its own: the check's
                        // modeled time is not the stage's.
                        let stored =
                            b.db.query_on_ledger(
                                "SELECT id, prediction FROM preds",
                                &Ledger::new(),
                                None,
                            )
                            .expect("read back the stored predictions")
                            .batch;
                        b.check_predictions(rec, "predict CTAS", GLM_MODEL, &stored);
                    });
                    b.sql("DROP TABLE preds");
                });
                predict_ms += ms;
                predicted_rows += scored_rows;
            }
            rec.sample("iter.predict_ms", predict_ms);
            rec.sample("iter.predict_rows", predicted_rows as f64);
            rec.sample("core.predict.sim", sim_ms);
            ((), 0.0)
        })
    }
}
