//! The database façade: catalog + storage + DFS + models + UDx registry +
//! admission control, bound to a simulated cluster.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::admission::AdmissionController;
use crate::catalog::{Catalog, TableDef};
use crate::dfs::Dfs;
use crate::error::{DbError, Result};
use crate::exec;
use crate::models::ModelStore;
use crate::monitor::{Monitor, OperatorRecord, QueryRecord, QueryWindow, SystemTableProvider};
use crate::sql;
use crate::storage::SegmentStore;
use crate::udx::{TransformFunction, UdxRegistry};
use std::sync::Arc;
use vdr_cluster::{Ledger, PhaseKind, PhaseRecorder, SimCluster, SimDuration};
use vdr_columnar::Batch;

/// Result of one SQL statement: the rows, the statement's simulated
/// duration under the cluster's hardware profile, and the query id it was
/// attributed under (filter `v_monitor` tables by it).
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub batch: Batch,
    pub sim_time: SimDuration,
    pub query_id: u64,
}

/// A running database instance spanning all cluster nodes.
pub struct VerticaDb {
    cluster: SimCluster,
    catalog: Catalog,
    storage: SegmentStore,
    dfs: Arc<Dfs>,
    models: ModelStore,
    udx: UdxRegistry,
    admission: AdmissionController,
    ledger: Arc<Ledger>,
    monitor: Monitor,
}

impl VerticaDb {
    /// Start a database on `cluster`. DFS replication follows Vertica's
    /// K-safety style default: min(cluster size, 3) copies.
    pub fn new(cluster: SimCluster) -> Arc<Self> {
        let dfs = Arc::new(Dfs::new(cluster.clone(), cluster.num_nodes().min(3)));
        let max_q = cluster.profile().costs.db_max_concurrent_queries;
        Arc::new(VerticaDb {
            catalog: Catalog::new(),
            storage: SegmentStore::new(cluster.clone()),
            models: ModelStore::new(Arc::clone(&dfs)),
            dfs,
            udx: UdxRegistry::new(),
            admission: AdmissionController::new(max_q),
            ledger: Arc::new(Ledger::new()),
            monitor: Monitor::new(),
            cluster,
        })
    }

    /// Parse and execute one SQL statement, charging a ledger phase named
    /// after the statement.
    pub fn query(&self, sql_text: &str) -> Result<QueryOutput> {
        let stmt = sql::parse(sql_text)?;
        self.execute_tracked(&stmt, Some(sql_text), &self.ledger, None)
    }

    /// Execute a pre-parsed statement.
    pub fn execute(&self, stmt: &sql::Statement) -> Result<QueryOutput> {
        self.execute_tracked(stmt, None, &self.ledger, None)
    }

    /// Parse and execute, committing the phase to `target` instead of the
    /// database ledger (sessions account statements on their own ledgers),
    /// with an optional phase-label override. The query is still recorded
    /// into the shared `v_monitor` history either way.
    pub fn query_on_ledger(
        &self,
        sql_text: &str,
        target: &Ledger,
        label: Option<String>,
    ) -> Result<QueryOutput> {
        let stmt = sql::parse(sql_text)?;
        self.execute_tracked(&stmt, Some(sql_text), target, label)
    }

    /// The tracked execution path every SQL entry point funnels through:
    /// opens a [`QueryWindow`] (a query context scoped around execution,
    /// whose own metric sink is the statement's delta) and records the
    /// outcome in the query history. `PROFILE` and `TRACE` are intercepted
    /// here: the inner statement runs with recording forced for its own
    /// context only (`Summary`, or `Trace` for span rows), then the result
    /// batch is replaced by the profile or span rows.
    fn execute_tracked(
        &self,
        stmt: &sql::Statement,
        sql_text: Option<&str>,
        target: &Ledger,
        label: Option<String>,
    ) -> Result<QueryOutput> {
        use vdr_obs::Verbosity;
        match stmt {
            sql::Statement::Trace(inner) => {
                let seq = vdr_obs::global().trace().current_seq();
                let (output, _) =
                    self.run_tracked(inner, sql_text, target, label, Verbosity::Trace)?;
                let spans: Vec<_> = vdr_obs::global()
                    .trace()
                    .spans_since(seq)
                    .into_iter()
                    .filter(|s| s.query_id == output.query_id)
                    .collect();
                let batch = crate::monitor::trace_batch(&spans)?;
                Ok(QueryOutput { batch, ..output })
            }
            sql::Statement::Profile(inner) => {
                let (output, record) =
                    self.run_tracked(inner, sql_text, target, label, Verbosity::Summary)?;
                let batch = crate::monitor::profile_batch(&record)?;
                Ok(QueryOutput { batch, ..output })
            }
            _ => self
                .run_tracked(stmt, sql_text, target, label, Verbosity::Off)
                .map(|(output, _)| output),
        }
    }

    fn run_tracked(
        &self,
        stmt: &sql::Statement,
        sql_text: Option<&str>,
        target: &Ledger,
        label: Option<String>,
        force: vdr_obs::Verbosity,
    ) -> Result<(QueryOutput, QueryRecord)> {
        let window = QueryWindow::open(false, force);
        let query_id = window.id();
        let rec = Arc::new(PhaseRecorder::new(
            label.unwrap_or_else(|| statement_label(stmt)),
            PhaseKind::Pipelined,
            self.cluster.num_nodes(),
        ));
        rec.set_query_id(query_id);
        let mut operators = OperatorRecord::default();
        let result = {
            let _slot = self.admission.admit();
            exec::execute(self, stmt, &rec, &mut operators)
        };
        let stray = || DbError::Exec("a phase recorder outlived its statement".into());
        let report = Arc::into_inner(rec)
            .ok_or_else(stray)?
            .finish(self.cluster.profile());
        let sql = sql_text.map_or_else(|| report.name.clone(), str::to_string);
        let record = QueryRecord {
            operators,
            ..window.close("statement", sql)
        };
        match result {
            Ok(batch) => {
                let sim_time = report.duration();
                // A SELECT's answer is its plan root's output; any other
                // statement answers with a status.
                let select = matches!(stmt, sql::Statement::Select(_));
                let answer = select.then_some(&batch);
                debug_assert_eq!(
                    record.operators.check(&report, answer),
                    Ok(()),
                    "{}",
                    record.sql
                );
                let (rows, bytes) = if select {
                    record.operators.root_output()
                } else {
                    (batch.num_rows() as u64, batch.byte_size())
                };
                let record = QueryRecord {
                    sim_secs: sim_time.as_secs(),
                    rows,
                    bytes,
                    phases: vec![report.clone()],
                    ..record
                };
                target.push(report);
                let threshold = self.monitor.slow_threshold_ns();
                if record.wall_ns >= threshold {
                    self.monitor.record_slow(&record, threshold);
                    vdr_obs::event(
                        "query.slow",
                        format!(
                            "query_id={query_id} wall_ms={:.1} threshold_ms={:.1}",
                            record.wall_ns as f64 / 1e6,
                            threshold as f64 / 1e6
                        ),
                    );
                }
                self.monitor.history().record(record.clone());
                Ok((
                    QueryOutput {
                        batch,
                        sim_time,
                        query_id,
                    },
                    record,
                ))
            }
            Err(e) => {
                vdr_obs::event("query.error", format!("query_id={query_id} error={e}"));
                let status = format!("error: {e}");
                self.monitor
                    .history()
                    .record(QueryRecord { status, ..record });
                Err(e)
            }
        }
    }

    /// Execute a statement charging an externally owned phase recorder.
    /// Used by the transfer layer, which accounts a whole transfer (query +
    /// streams + client-side conversion) as one ledger phase of its own.
    pub fn execute_with(&self, stmt: &sql::Statement, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
        let _slot = self.admission.admit();
        exec::execute(self, stmt, rec, &mut OperatorRecord::default())
    }

    /// Parse and execute with an external recorder (see [`Self::execute_with`]).
    pub fn query_with(&self, sql_text: &str, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
        let stmt = sql::parse(sql_text)?;
        self.execute_with(&stmt, rec)
    }

    /// Bulk-load batches into an existing table (the ETL path customers use
    /// before analytics — Vertica's COPY). Returns rows loaded.
    pub fn copy(&self, table: &str, batches: impl IntoIterator<Item = Batch>) -> Result<u64> {
        let mut copy_span = vdr_obs::span("db.copy");
        copy_span.record("table", table);
        let def = self.catalog.get(table)?;
        let rec = PhaseRecorder::new(
            format!("COPY {table}"),
            PhaseKind::Pipelined,
            self.cluster.num_nodes(),
        );
        let rows = self.storage.load(&def, batches, &rec)?;
        let report = rec.finish(self.cluster.profile());
        copy_span.record("rows", rows);
        copy_span.set_sim_time(report.duration().as_secs());
        self.ledger.push(report);
        Ok(rows)
    }

    /// Create a table from a definition (programmatic alternative to DDL,
    /// needed for the skewed segmentation experiments which have no SQL
    /// spelling).
    pub fn create_table(&self, def: TableDef) -> Result<()> {
        self.catalog.create_table(def)
    }

    /// Register a user-defined transform function.
    pub fn register_transform(&self, f: Arc<dyn TransformFunction>) {
        self.udx.register(f);
    }

    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn storage(&self) -> &SegmentStore {
        &self.storage
    }

    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    pub fn models(&self) -> &ModelStore {
        &self.models
    }

    pub fn udx(&self) -> &UdxRegistry {
        &self.udx
    }

    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The database's cost ledger (all executed statements' phases).
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    /// The `v_monitor` registry and query history.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Expose extra state as a `v_monitor` table.
    pub fn register_system_table(&self, provider: Arc<dyn SystemTableProvider>) {
        self.monitor.register(provider);
    }
}

pub(crate) fn statement_label(stmt: &sql::Statement) -> String {
    match stmt {
        sql::Statement::Select(s) => match s.transform_item() {
            Some(sql::SelectItem::Transform { name, .. }) => format!("SELECT {name}(…) OVER"),
            _ => "SELECT".to_string(),
        },
        sql::Statement::CreateTable { name, .. } => format!("CREATE TABLE {name}"),
        sql::Statement::CreateTableAs { name, .. } => format!("CREATE TABLE {name} AS SELECT"),
        sql::Statement::Insert { table, .. } => format!("INSERT {table}"),
        sql::Statement::DropTable { name, .. } => format!("DROP TABLE {name}"),
        sql::Statement::Profile(inner) => format!("PROFILE {}", statement_label(inner)),
        sql::Statement::Trace(inner) => format!("TRACE {}", statement_label(inner)),
        sql::Statement::Explain(_) => "EXPLAIN SELECT".to_string(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_columnar::{Column, DataType, Schema, Value};

    #[test]
    fn copy_and_query_roundtrip() {
        let cluster = SimCluster::for_tests(4);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE m (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)")
            .unwrap();
        let schema = Schema::of(&[("id", DataType::Int64), ("v", DataType::Float64)]);
        let batch = Batch::new(
            schema,
            vec![
                Column::from_i64((0..1000).collect()),
                Column::from_f64((0..1000).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        assert_eq!(db.copy("m", vec![batch]).unwrap(), 1000);
        let out = db.query("SELECT count(*), sum(v) FROM m").unwrap();
        assert_eq!(out.batch.row(0)[0], Value::Int64(1000));
        assert_eq!(out.batch.row(0)[1], Value::Float64(999.0 * 500.0));
        assert!(out.sim_time.as_secs() > 0.0, "queries take simulated time");
        // Ledger accumulated phases for the DDL, the COPY, and the SELECTs.
        assert!(db.ledger().reports().len() >= 3);
    }

    #[test]
    fn r_models_table_is_queryable() {
        let cluster = SimCluster::for_tests(2);
        let db = VerticaDb::new(cluster.clone());
        let rec = PhaseRecorder::new("save", PhaseKind::Sequential, 2);
        db.models()
            .save(
                vdr_cluster::NodeId(0),
                "model1",
                "X",
                "kmeans",
                "clustering",
                bytes::Bytes::from_static(b"m"),
                &rec,
            )
            .unwrap();
        let out = db.query("SELECT * FROM R_Models").unwrap().batch;
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.row(0)[0], Value::Varchar("model1".into()));
        // And it filters like any table.
        let out = db
            .query("SELECT model FROM R_Models WHERE type = 'kmeans'")
            .unwrap()
            .batch;
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn admission_counts_queries() {
        let cluster = SimCluster::for_tests(1);
        let db = VerticaDb::new(cluster);
        db.query("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..5 {
            db.query(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        db.query("SELECT count(*) FROM t").unwrap();
        assert_eq!(db.admission().admitted(), 7);
    }
}
