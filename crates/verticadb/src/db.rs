//! The database façade: catalog + storage + DFS + models + UDx registry +
//! admission control, bound to a simulated cluster.

use crate::admission::AdmissionController;
use crate::catalog::{Catalog, TableDef};
use crate::dfs::Dfs;
use crate::error::Result;
use crate::exec;
use crate::models::ModelStore;
use crate::monitor::{Monitor, QueryRecord, SystemTableProvider};
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
    /// allocates a query id, scopes execution to it, diffs metrics around
    /// it, and records the outcome in the query history. `PROFILE` is
    /// intercepted here — its inner statement runs normally (with recording
    /// forced on if verbosity is `Off`), then the result batch is replaced
    /// by the profile rows.
    fn execute_tracked(
        &self,
        stmt: &sql::Statement,
        sql_text: Option<&str>,
        target: &Ledger,
        label: Option<String>,
    ) -> Result<QueryOutput> {
        if let sql::Statement::Trace(inner) = stmt {
            // Like PROFILE, but forces span recording and returns the span
            // rows of the inner statement's trace tree.
            let saved = vdr_obs::verbosity_override();
            let forced = vdr_obs::Verbosity::current() != vdr_obs::Verbosity::Trace;
            if forced {
                vdr_obs::set_verbosity(vdr_obs::Verbosity::Trace);
            }
            let seq = vdr_obs::global().trace().current_seq();
            let run = self.run_tracked(inner, sql_text, target, label);
            if forced {
                match saved {
                    Some(v) => vdr_obs::set_verbosity(v),
                    None => vdr_obs::reset_verbosity(),
                }
            }
            let (output, _record) = run?;
            let spans: Vec<_> = vdr_obs::global()
                .trace()
                .spans_since(seq)
                .into_iter()
                .filter(|s| s.query_id == output.query_id)
                .collect();
            let batch = crate::monitor::trace_batch(&spans)?;
            return Ok(QueryOutput { batch, ..output });
        }
        if let sql::Statement::Profile(inner) = stmt {
            let saved = vdr_obs::verbosity_override();
            let forced = !vdr_obs::Verbosity::current().recording();
            if forced {
                vdr_obs::set_verbosity(vdr_obs::Verbosity::Summary);
            }
            let run = self.run_tracked(inner, sql_text, target, label);
            if forced {
                match saved {
                    Some(v) => vdr_obs::set_verbosity(v),
                    None => vdr_obs::reset_verbosity(),
                }
            }
            let (output, record) = run?;
            let batch = crate::monitor::profile_batch(&record)?;
            return Ok(QueryOutput { batch, ..output });
        }
        self.run_tracked(stmt, sql_text, target, label)
            .map(|(output, _)| output)
    }

    fn run_tracked(
        &self,
        stmt: &sql::Statement,
        sql_text: Option<&str>,
        target: &Ledger,
        label: Option<String>,
    ) -> Result<(QueryOutput, QueryRecord)> {
        let query_id = vdr_obs::next_query_id();
        let _scope = vdr_obs::QueryScope::enter(query_id);
        // Per-query metric attribution costs two registry snapshots plus a
        // diff; with recording off nothing moves between them, so skip the
        // capture entirely and keep `VDR_OBS=off` a true zero-overhead path.
        let recording = vdr_obs::Verbosity::current().recording();
        let metrics_before = recording.then(|| vdr_obs::global().metrics().snapshot());
        let started = std::time::Instant::now();
        let rec = Arc::new(PhaseRecorder::new(
            label.unwrap_or_else(|| statement_label(stmt)),
            PhaseKind::Pipelined,
            self.cluster.num_nodes(),
        ));
        rec.set_query_id(query_id);
        let result = self.execute_with(stmt, &rec);
        let report = Arc::into_inner(rec)
            .expect("no stray phase references after execution")
            .finish(self.cluster.profile());
        let wall_ns = started.elapsed().as_nanos() as u64;
        // The latency observation must land *before* the after-snapshot so
        // the statement's own delta (and the DC tick it feeds) includes it.
        if recording {
            vdr_obs::observe("query.wall_us", wall_ns as f64 / 1e3);
        }
        let after = recording.then(|| vdr_obs::global().metrics().snapshot());
        let metrics_delta = match (&after, metrics_before) {
            (Some(after), Some(before)) => after.diff(&before),
            _ => Default::default(),
        };
        let latency = after
            .as_ref()
            .and_then(|snap| snap.histogram_total("query.wall_us"));
        let sql = sql_text.map_or_else(|| report.name.clone(), str::to_string);
        match result {
            Ok(batch) => {
                let sim_time = report.duration();
                let record = QueryRecord {
                    id: query_id,
                    sql,
                    status: "complete".to_string(),
                    sim_secs: sim_time.as_secs(),
                    wall_ns,
                    rows: batch.num_rows() as u64,
                    bytes: batch.byte_size(),
                    phases: vec![report.clone()],
                    metrics_delta,
                };
                self.dc_tick(&record, "statement", &report, latency);
                target.push(report);
                let threshold = self.monitor.slow_threshold_ns();
                if wall_ns >= threshold {
                    self.monitor.record_slow(&record, threshold);
                    vdr_obs::event(
                        "query.slow",
                        format!(
                            "query_id={query_id} wall_ms={:.1} threshold_ms={:.1}",
                            wall_ns as f64 / 1e6,
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
                let record = QueryRecord {
                    id: query_id,
                    sql,
                    status: format!("error: {e}"),
                    sim_secs: 0.0,
                    wall_ns,
                    rows: 0,
                    bytes: 0,
                    phases: Vec::new(),
                    metrics_delta,
                };
                self.dc_tick(&record, "statement", &report, latency);
                self.monitor.history().record(record);
                Err(e)
            }
        }
    }

    /// Advance the data collector one deterministic tick at a statement
    /// boundary: the statement's metric delta, its per-node ledger readings,
    /// and the rolling latency histogram become one ring sample per node
    /// plus one query rollup. (`vdr-transfer` ticks the same collector on
    /// VFT and train-pool completions.)
    fn dc_tick(
        &self,
        record: &QueryRecord,
        trigger: &'static str,
        report: &vdr_cluster::PhaseReport,
        latency: Option<vdr_obs::HistogramSnapshot>,
    ) {
        let dc = vdr_obs::global().dc();
        if !dc.sampling() {
            return;
        }
        let cache = self.storage.block_cache();
        let usage = report
            .nodes
            .iter()
            .map(|n| vdr_obs::TickUsage {
                node: n.node,
                sim_secs: n.duration_secs,
                cpu_core_ns: n.usage.cpu_core_ns,
                disk_read_bytes: n.usage.disk_read_bytes + n.usage.disk_cached_read_bytes,
                disk_write_bytes: n.usage.disk_write_bytes,
                net_in_bytes: n.usage.net_in_bytes,
                net_out_bytes: n.usage.net_out_bytes,
                cache_bytes: cache.bytes_on(vdr_cluster::NodeId(n.node)),
            })
            .collect();
        dc.tick(vdr_obs::TickContext {
            query_id: record.id,
            trigger,
            label: record.sql.clone(),
            status: record.status.clone(),
            rows: record.rows,
            bytes: record.bytes,
            sim_secs: record.sim_secs,
            wall_ns: record.wall_ns,
            delta: record.metrics_delta.clone(),
            latency,
            usage,
        });
    }

    /// Execute a statement charging an externally owned phase recorder.
    /// Used by the transfer layer, which accounts a whole transfer (query +
    /// streams + client-side conversion) as one ledger phase of its own.
    pub fn execute_with(&self, stmt: &sql::Statement, rec: &Arc<PhaseRecorder>) -> Result<Batch> {
        let _slot = self.admission.admit();
        exec::execute(self, stmt, rec)
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
        copy_span.set_sim_time(report.duration());
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
