//! User sessions: the `distributedR_start()` + connection object of
//! Figure 3, optionally with YARN-brokered resources (Section 6).

use crate::codec::Model;
use crate::error::Result;
use crate::predict::register_prediction_functions;
use crate::report::TraceReport;
use std::sync::Arc;
use vdr_cluster::{Ledger, NodeId, PhaseKind, PhaseRecorder, SimDuration};
use vdr_distr::{DArray, DFrame, DistributedR};
use vdr_transfer::{install_export_function, FastTransfer, TransferPolicy, TransferReport};
use vdr_verticadb::{QueryOutput, VerticaDb};
use vdr_yarn::{AppId, Lifetime, ResourceManager, ResourceRequest};

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// R instances per worker node ("Distributed R starts 24 R instances on
    /// each node").
    pub r_instances_per_node: usize,
    /// Default transfer policy for `db2darray` / `db2dframe`.
    pub policy: TransferPolicy,
    /// Database user (owner of deployed models).
    pub user: String,
    /// Per-worker memory cap for the runtime's memory manager.
    pub worker_mem_bytes: u64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            r_instances_per_node: 24,
            policy: TransferPolicy::Locality,
            user: "dbadmin".to_string(),
            worker_mem_bytes: u64::MAX,
        }
    }
}

/// A connected analytics session: database handle + Distributed R runtime +
/// fast-transfer machinery + a ledger of everything the session cost.
pub struct Session {
    db: Arc<VerticaDb>,
    dr: DistributedR,
    vft: FastTransfer,
    ledger: Arc<Ledger>,
    opts: SessionOptions,
    yarn: Option<(Arc<ResourceManager>, AppId)>,
    /// Span sequence watermark at connect: [`Session::trace_report`] only
    /// shows spans recorded after it.
    obs_base_seq: u64,
    /// Metrics levels at connect: [`Session::metrics`] diffs against it so
    /// counters read as "since this session connected".
    obs_base_metrics: vdr_obs::MetricsSnapshot,
    /// Event-log sequence watermark at connect: [`Session::export_trace`]
    /// only renders structured events recorded after it.
    obs_base_event_seq: u64,
}

/// The (span watermark, metric levels, event watermark) triple that scopes
/// a session's observability to "everything after this point".
fn obs_baseline() -> (u64, vdr_obs::MetricsSnapshot, u64) {
    let obs = vdr_obs::global();
    (
        obs.trace().current_seq(),
        obs.metrics().snapshot(),
        obs.events().current_seq(),
    )
}

impl Session {
    /// Connect with Distributed R workers on the given cluster nodes
    /// (co-located with the database when `worker_nodes` are the database
    /// nodes, remote otherwise — both deployments of Section 2).
    pub fn connect(
        db: Arc<VerticaDb>,
        worker_nodes: Vec<NodeId>,
        opts: SessionOptions,
    ) -> Result<Session> {
        let (obs_base_seq, obs_base_metrics, obs_base_event_seq) = obs_baseline();
        let dr = DistributedR::start(
            db.cluster().clone(),
            worker_nodes,
            opts.r_instances_per_node,
            opts.worker_mem_bytes,
        )?;
        let vft = install_export_function(&db);
        register_prediction_functions(&db);
        Ok(Session {
            db,
            dr,
            vft,
            ledger: Arc::new(Ledger::new()),
            opts,
            yarn: None,
            obs_base_seq,
            obs_base_metrics,
            obs_base_event_seq,
        })
    }

    /// Connect co-located on every database node.
    pub fn connect_colocated(db: Arc<VerticaDb>, opts: SessionOptions) -> Result<Session> {
        let nodes = db.cluster().node_ids();
        Session::connect(db, nodes, opts)
    }

    /// Connect through YARN: request one container per database node (with
    /// locality preference), place workers on the granted nodes, and release
    /// everything when the session drops. `vcores_per_worker` is also used
    /// as the R instance count.
    pub fn connect_with_yarn(
        db: Arc<VerticaDb>,
        rm: Arc<ResourceManager>,
        queue_app_name: &str,
        vcores_per_worker: u32,
        mem_mb_per_worker: u64,
        mut opts: SessionOptions,
    ) -> Result<Session> {
        // Baseline before the YARN negotiation so the container lifecycle
        // counters land inside this session's metrics window.
        let (obs_base_seq, obs_base_metrics, obs_base_event_seq) = obs_baseline();
        let app = rm.register(queue_app_name, "dr", Lifetime::Session)?;
        let preferred = db.cluster().node_ids();
        let granted = match rm.allocate(
            app.id,
            &ResourceRequest {
                vcores: vcores_per_worker,
                mem_mb: mem_mb_per_worker,
                count: preferred.len(),
                preferred_nodes: preferred,
            },
        ) {
            Ok(g) => g,
            Err(e) => {
                let _ = rm.unregister(app.id);
                return Err(e.into());
            }
        };
        let mut worker_nodes: Vec<NodeId> = granted.iter().map(|c| c.node).collect();
        worker_nodes.sort();
        worker_nodes.dedup();
        opts.r_instances_per_node = vcores_per_worker as usize;
        opts.worker_mem_bytes = mem_mb_per_worker << 20;
        let mut session = Session::connect(db, worker_nodes, opts)?;
        session.yarn = Some((rm, app.id));
        session.obs_base_seq = obs_base_seq;
        session.obs_base_metrics = obs_base_metrics;
        session.obs_base_event_seq = obs_base_event_seq;
        Ok(session)
    }

    pub fn db(&self) -> &Arc<VerticaDb> {
        &self.db
    }

    pub fn dr(&self) -> &DistributedR {
        &self.dr
    }

    /// Everything this session has cost, phase by phase.
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    pub fn options(&self) -> &SessionOptions {
        &self.opts
    }

    /// Figure 3 line 5: load numeric table columns into a distributed array
    /// via Vertica Fast Transfer.
    pub fn db2darray(&self, table: &str, features: &[&str]) -> Result<(DArray, TransferReport)> {
        self.db2darray_with_policy(table, features, self.opts.policy)
    }

    /// `db2darray` with an explicit distribution policy (Section 3.2).
    pub fn db2darray_with_policy(
        &self,
        table: &str,
        features: &[&str],
        policy: TransferPolicy,
    ) -> Result<(DArray, TransferReport)> {
        Ok(self
            .vft
            .db2darray(&self.db, &self.dr, table, features, policy, &self.ledger)?)
    }

    /// Load arbitrary columns as a distributed data frame.
    pub fn db2dframe(&self, table: &str, columns: &[&str]) -> Result<(DFrame, TransferReport)> {
        Ok(self.vft.db2dframe(
            &self.db,
            &self.dr,
            table,
            columns,
            self.opts.policy,
            &self.ledger,
        )?)
    }

    /// Figure 3 line 9 / Figure 11: `deploy.model(model, 'name')` — gather
    /// to the master, serialize, ship to a database node, store in the DFS,
    /// and record in `R_Models`.
    pub fn deploy_model(&self, model: &Model, name: &str, description: &str) -> Result<()> {
        let mut deploy_span = vdr_obs::span("session.deploy");
        deploy_span.record("model", name);
        deploy_span.record("type", model.type_name());
        let blob = model.to_bytes();
        let rec = PhaseRecorder::new(
            format!("deploy.model {name}"),
            PhaseKind::Sequential,
            self.db.cluster().num_nodes(),
        );
        // Master → database node hop (Figure 11 step: "sends them to one of
        // the Vertica nodes"), then replication inside the DFS.
        let master = self.dr.worker_node(0);
        let entry_node = NodeId(0);
        rec.net(master, entry_node, blob.len() as u64);
        rec.fixed(master, SimDuration::from_millis(5.0)); // serialize call overhead
        self.db.models().save(
            entry_node,
            name,
            &self.opts.user,
            model.type_name(),
            description,
            blob,
            &rec,
        )?;
        let report = rec.finish(self.db.cluster().profile());
        deploy_span.set_sim_time(report.duration().as_secs());
        self.ledger.push(report);
        Ok(())
    }

    /// Fetch a deployed model back (e.g. to inspect coefficients).
    pub fn load_model(&self, name: &str) -> Result<Model> {
        let mut load_span = vdr_obs::span("session.load_model");
        load_span.record("model", name);
        let rec = PhaseRecorder::new(
            format!("load model {name}"),
            PhaseKind::Sequential,
            self.db.cluster().num_nodes(),
        );
        let blob = self
            .db
            .models()
            .load(NodeId(0), name, &self.opts.user, &rec)?;
        let report = rec.finish(self.db.cluster().profile());
        load_span.set_sim_time(report.duration().as_secs());
        self.ledger.push(report);
        Model::from_bytes(&blob)
    }

    /// Run SQL (Figure 3 lines 10–11: predictions are plain queries). The
    /// statement is charged as a phase of the *session* ledger, so it shows
    /// up in [`Session::trace_report`] alongside transfers and deploys — and
    /// it is also recorded in the shared `v_monitor` query history with a
    /// fresh query id, so `SELECT … FROM v_monitor.execution_engine_profiles
    /// WHERE query_id = …` agrees with the session's own trace report.
    pub fn sql(&self, query: &str) -> Result<QueryOutput> {
        let mut sql_span = vdr_obs::span("session.sql");
        let verb = query
            .split_whitespace()
            .next()
            .unwrap_or("?")
            .to_uppercase();
        let output = self
            .db
            .query_on_ledger(query, &self.ledger, Some(format!("sql {verb}")))?;
        sql_span.record("stmt", &verb);
        sql_span.record("rows", output.batch.num_rows());
        sql_span.set_query_id(output.query_id);
        sql_span.set_sim_time(output.sim_time.as_secs());
        Ok(output)
    }

    /// Total simulated time this session has spent in transfers, deploys,
    /// and model loads.
    pub fn total_sim_time(&self) -> SimDuration {
        self.ledger.total()
    }

    /// Everything measured since this session connected: counters, gauges,
    /// and histograms from every instrumented layer (VFT, ODBC, SQL executor,
    /// DFS, Distributed R runtime, ML algorithms, YARN).
    pub fn metrics(&self) -> vdr_obs::MetricsSnapshot {
        vdr_obs::global()
            .metrics()
            .snapshot()
            .diff(&self.obs_base_metrics)
    }

    /// `EXPLAIN ANALYZE` for the session: the ledger's phase breakdown (the
    /// authoritative simulated-time accounting — phase durations sum to
    /// [`Session::total_sim_time`]) joined with the span tree recorded since
    /// connect, plus latency percentiles for every histogram the session's
    /// workload touched. Render with [`TraceReport::render`] or export with
    /// [`TraceReport::to_json`].
    pub fn trace_report(&self) -> TraceReport {
        let metrics = self.metrics();
        let mut histograms = Vec::new();
        for name in metrics.names() {
            if let Some(h) = metrics.histogram_total(name) {
                if h.count > 0 {
                    histograms.push((name.to_string(), h));
                }
            }
        }
        TraceReport::new(
            self.ledger.reports(),
            vdr_obs::global().trace().spans_since(self.obs_base_seq),
            self.ledger.total(),
        )
        .with_histograms(histograms)
    }

    /// Export every span recorded since this session connected as a Chrome
    /// trace-event JSON file (load it in `chrome://tracing` or Perfetto:
    /// one track per cluster node, one row per recording thread).
    /// Structured event-ring entries from the same window (`query.slow`,
    /// `cache.*`, `vft.receive.error`, …) render as instant events on the
    /// owning node's lane. Requires spans to have been recorded — i.e.
    /// `VDR_OBS=trace` or [`vdr_obs::set_verbosity`]`(Trace)` while the
    /// workload ran, or the workload ran under a query context that forces
    /// `Trace` (a `TRACE` statement records its own spans this way).
    pub fn export_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let obs = vdr_obs::global();
        let spans = obs.trace().spans_since(self.obs_base_seq);
        let events = obs.events().events_since(self.obs_base_event_seq);
        vdr_obs::export_chrome_trace_with_events(&spans, &events, path.as_ref())
    }

    /// The current metrics registry rendered in Prometheus text exposition
    /// format — the scrape/export surface. Unlike [`Session::metrics`] this
    /// is *not* diffed against the session baseline: an exporter reports
    /// absolute counter levels and lets the scraper compute rates, exactly
    /// as a real `/metrics` endpoint would.
    pub fn export_metrics(&self) -> String {
        vdr_obs::render_prometheus(&vdr_obs::global().metrics().snapshot())
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("user", &self.opts.user)
            .field("workers", &self.dr.num_workers())
            .field("yarn", &self.yarn.is_some())
            .finish()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some((rm, app)) = self.yarn.take() {
            // Session teardown returns YARN resources.
            let _ = rm.unregister(app);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use vdr_cluster::SimCluster;
    use vdr_columnar::{Batch, Column, DataType, Schema};
    use vdr_ml::models::KmeansModel;
    use vdr_verticadb::{Segmentation, TableDef};
    use vdr_yarn::SchedulingPolicy;

    fn db_with_table(nodes: usize) -> Arc<VerticaDb> {
        let cluster = SimCluster::for_tests(nodes);
        let db = VerticaDb::new(cluster);
        let schema = Schema::of(&[("x", DataType::Float64), ("y", DataType::Float64)]);
        db.create_table(TableDef {
            name: "samples".into(),
            schema: schema.clone(),
            segmentation: Segmentation::RoundRobin,
        })
        .unwrap();
        let xs: Vec<f64> = (0..600).map(|i| i as f64 / 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        db.copy(
            "samples",
            vec![Batch::new(schema, vec![Column::from_f64(xs), Column::from_f64(ys)]).unwrap()],
        )
        .unwrap();
        db
    }

    fn opts() -> SessionOptions {
        SessionOptions {
            r_instances_per_node: 4,
            ..Default::default()
        }
    }

    #[test]
    fn load_train_deploy_reload() {
        let db = db_with_table(3);
        let session = Session::connect_colocated(Arc::clone(&db), opts()).unwrap();
        let (data, report) = session.db2darray("samples", &["x", "y"]).unwrap();
        assert_eq!(report.rows, 600);
        assert_eq!(data.dim(), (600, 2));

        let model = Model::Kmeans(KmeansModel {
            centers: vec![vec![1.0, 3.0], vec![5.0, 11.0]],
            iterations: 2,
            total_withinss: 9.0,
        });
        session
            .deploy_model(&model, "clusters", "session test")
            .unwrap();
        // Visible in R_Models with the session user as owner.
        let rows = session
            .sql("SELECT owner, type FROM R_Models")
            .unwrap()
            .batch;
        assert_eq!(
            rows.row(0)[0],
            vdr_columnar::Value::Varchar("dbadmin".into())
        );
        assert_eq!(
            rows.row(0)[1],
            vdr_columnar::Value::Varchar("kmeans".into())
        );
        // Round-trips through the DFS.
        let back = session.load_model("clusters").unwrap();
        assert_eq!(back, model);
        assert!(session.total_sim_time().as_secs() > 0.0);
    }

    #[test]
    fn remote_workers_on_disjoint_nodes() {
        // 6-node cluster: database everywhere, workers on the top half only
        // (the "separate nodes" deployment).
        let db = db_with_table(6);
        let session = Session::connect(
            Arc::clone(&db),
            vec![NodeId(3), NodeId(4), NodeId(5)],
            opts(),
        )
        .unwrap();
        let (data, report) = session.db2darray("samples", &["x"]).unwrap();
        assert_eq!(report.rows, 600);
        assert_eq!(session.dr().num_workers(), 3);
        assert_eq!(data.npartitions(), 3);
    }

    #[test]
    fn yarn_brokered_session_releases_on_drop() {
        let db = db_with_table(2);
        let mut shares = std::collections::HashMap::new();
        shares.insert("vertica".into(), 0.5);
        shares.insert("dr".into(), 0.5);
        let rm = Arc::new(
            ResourceManager::new(db.cluster(), SchedulingPolicy::Capacity(shares)).unwrap(),
        );
        {
            let session = Session::connect_with_yarn(
                Arc::clone(&db),
                Arc::clone(&rm),
                "dr-session",
                4,
                1024,
                SessionOptions::default(),
            )
            .unwrap();
            assert_eq!(session.dr().num_workers(), 2);
            assert_eq!(rm.queue_usage("dr").0, 8); // 2 containers × 4 vcores
            let (_, report) = session.db2darray("samples", &["x", "y"]).unwrap();
            assert_eq!(report.rows, 600);
        }
        // Dropped session returned its containers.
        assert_eq!(rm.queue_usage("dr"), (0, 0));
    }

    #[test]
    fn yarn_denial_cleans_up_registration() {
        let db = db_with_table(2);
        let mut shares = std::collections::HashMap::new();
        shares.insert("dr".into(), 0.1); // tiny share: 4.8 vcores
        let rm = Arc::new(
            ResourceManager::new(db.cluster(), SchedulingPolicy::Capacity(shares)).unwrap(),
        );
        let err = Session::connect_with_yarn(
            Arc::clone(&db),
            Arc::clone(&rm),
            "dr-session",
            24,
            1024,
            SessionOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Yarn(_)));
    }

    #[test]
    fn trace_export_and_percentiles_cover_a_distributed_transfer() {
        let _v =
            vdr_obs::QueryScope::enter(vdr_obs::QueryContext::open(0, vdr_obs::Verbosity::Trace));
        let db = db_with_table(3);
        let session = Session::connect_colocated(Arc::clone(&db), opts()).unwrap();
        let (_, report) = session.db2darray("samples", &["x", "y"]).unwrap();
        assert_eq!(report.rows, 600);

        // The session report carries percentile rows for the histograms the
        // transfer touched.
        let trace = session.trace_report();
        assert!(
            !trace.histograms.is_empty(),
            "transfer should have populated at least one histogram"
        );
        let json = trace.to_json().to_string();
        assert!(json.contains("percentiles"), "report JSON: {json}");

        // The Chrome export holds spans from more than one node, all under
        // one query id (the distributed trace tree of a single transfer).
        let dir = std::env::temp_dir().join(format!("vdr_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.trace.json");
        session.export_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde_json::from_str(&text).expect("trace file must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(serde_json::Value::as_array)
            .expect("traceEvents array");
        let pids: std::collections::BTreeSet<i64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("X"))
            .filter_map(|e| e.get("pid").and_then(serde_json::Value::as_i64))
            .collect();
        assert!(
            pids.iter().filter(|&&p| p > 0).count() >= 2,
            "expected spans from >= 2 nodes, got pids {pids:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_permissions_flow_through_session_user() {
        let db = db_with_table(2);
        let alice = Session::connect_colocated(
            Arc::clone(&db),
            SessionOptions {
                user: "alice".into(),
                r_instances_per_node: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let model = Model::Kmeans(KmeansModel {
            centers: vec![vec![0.0, 0.0]],
            iterations: 1,
            total_withinss: 0.0,
        });
        alice.deploy_model(&model, "private", "alice's").unwrap();
        // Bob's session can't read alice's model.
        let bob = Session::connect_colocated(
            Arc::clone(&db),
            SessionOptions {
                user: "bob".into(),
                r_instances_per_node: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(bob.load_model("private").is_err());
        // Until granted.
        db.models().grant("private", "alice", "bob").unwrap();
        assert!(bob.load_model("private").is_ok());
    }
}
