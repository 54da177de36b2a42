//! The ODBC baseline (Section 1.1, Figure 1).
//!
//! A real row-oriented, text-encoded connector: the server renders result
//! rows as tab-separated text, ships them over a single stream through the
//! initiator node, and the client parses every value back — the overheads
//! the paper attributes to ODBC. Two loaders are built on it:
//!
//! * [`OdbcLoader::load_single`] — one R instance, one connection (the
//!   "single R" bar of Figure 1).
//! * [`OdbcLoader::load_parallel`] — one connection per R instance, each
//!   fetching `1/Cᵗʰ` of the rows with `ORDER BY … LIMIT/OFFSET`. Ordered
//!   range queries force every query to scan and sort, locality is
//!   destroyed, and the burst queues behind admission control.

use crate::report::TransferReport;
use crate::{check_features, exec, record_transfer, TransferPolicy};
use std::sync::Arc;
use vdr_cluster::{NodeId, PhaseKind, PhaseRecorder, SimDuration};
use vdr_columnar::{Batch, ColumnBuilder, DataType, Schema, Value};
use vdr_distr::{DArray, DistributedR};
use vdr_verticadb::{DbError, QueryWindow, Result, VerticaDb};

/// The node Vertica result rows flow through on their way to a client (the
/// query initiator).
const INITIATOR: NodeId = NodeId(0);

/// One ODBC connection from a client node to the database.
pub struct OdbcConnection {
    client: NodeId,
}

impl OdbcConnection {
    /// Open a connection, paying the handshake.
    pub fn connect(db: &VerticaDb, client: NodeId, rec: &PhaseRecorder) -> Self {
        rec.fixed(
            client,
            SimDuration::from_millis(db.cluster().profile().costs.odbc_connect_ms),
        );
        OdbcConnection { client }
    }

    pub fn client_node(&self) -> NodeId {
        self.client
    }

    /// Execute `sql` and fetch the full result set through the text
    /// protocol. Database-side work (execution, text encoding, the wire)
    /// charges `db_rec`; client-side parsing charges `client_rec` spread
    /// over `parse_lanes` (a single R instance parses on one core).
    pub fn fetch(
        &self,
        db: &VerticaDb,
        sql: &str,
        db_rec: &Arc<PhaseRecorder>,
        client_rec: &PhaseRecorder,
        parse_lanes: usize,
    ) -> Result<Batch> {
        let mut fetch_span = vdr_obs::span("odbc.fetch");
        fetch_span.set_node(self.client.0);
        let result = db.query_with(sql, db_rec)?;
        let schema = result.schema().clone();
        let values = result.num_values();
        let costs = &db.cluster().profile().costs;

        // Server side: render rows as text. The encode really happens (the
        // client parses these exact bytes).
        let text = render_rows(&result);
        db_rec.cpu_work(
            INITIATOR,
            values as f64,
            costs.odbc_server_encode_ns_per_value,
        );
        db_rec.net(INITIATOR, self.client, text.len() as u64);
        fetch_span.record("rows", result.num_rows());
        fetch_span.record("wire_bytes", text.len());

        // Client side: parse every value.
        client_rec.set_lanes(self.client, parse_lanes);
        client_rec.cpu_work(
            self.client,
            values as f64,
            costs.odbc_client_parse_ns_per_value,
        );
        parse_rows(&schema, &text)
    }
}

/// Tab-separated text rendering, one line per row — the ODBC wire format.
/// `\t`, `\n`, and `\\` inside strings are escaped.
pub fn render_rows(batch: &Batch) -> String {
    let mut out = String::with_capacity(batch.num_rows() * batch.num_columns() * 8);
    for r in 0..batch.num_rows() {
        for (c, v) in batch.row(r).iter().enumerate() {
            if c > 0 {
                out.push('\t');
            }
            match v {
                Value::Varchar(s) => {
                    for ch in s.chars() {
                        match ch {
                            '\t' => out.push_str("\\t"),
                            '\n' => out.push_str("\\n"),
                            '\\' => out.push_str("\\\\"),
                            other => out.push(other),
                        }
                    }
                }
                other => out.push_str(&other.to_string()),
            }
        }
        out.push('\n');
    }
    out
}

/// Parse text rows back into a typed batch using ODBC result metadata
/// (`schema`).
pub fn parse_rows(schema: &Schema, text: &str) -> Result<Batch> {
    let mut builders: Vec<ColumnBuilder> = schema
        .fields()
        .iter()
        .map(|f| ColumnBuilder::new(f.dtype))
        .collect();
    for (lineno, line) in text.lines().enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != schema.len() {
            return Err(DbError::Exec(format!(
                "row {lineno}: {} fields, expected {}",
                fields.len(),
                schema.len()
            )));
        }
        for ((b, f), raw) in builders.iter_mut().zip(schema.fields()).zip(fields) {
            let value = if raw == "NULL" && f.dtype != DataType::Varchar {
                Value::Null
            } else {
                match f.dtype {
                    DataType::Int64 => Value::Int64(raw.parse().map_err(|_| {
                        DbError::Exec(format!("row {lineno}: bad integer '{raw}'"))
                    })?),
                    DataType::Float64 => {
                        Value::Float64(raw.parse().map_err(|_| {
                            DbError::Exec(format!("row {lineno}: bad float '{raw}'"))
                        })?)
                    }
                    DataType::Bool => match raw {
                        "t" => Value::Bool(true),
                        "f" => Value::Bool(false),
                        _ => {
                            return Err(DbError::Exec(format!("row {lineno}: bad boolean '{raw}'")))
                        }
                    },
                    DataType::Varchar => {
                        let mut s = String::with_capacity(raw.len());
                        let mut chars = raw.chars();
                        while let Some(ch) = chars.next() {
                            if ch == '\\' {
                                match chars.next() {
                                    Some('t') => s.push('\t'),
                                    Some('n') => s.push('\n'),
                                    Some('\\') => s.push('\\'),
                                    other => {
                                        return Err(DbError::Exec(format!(
                                            "row {lineno}: bad escape '\\{other:?}'"
                                        )))
                                    }
                                }
                            } else {
                                s.push(ch);
                            }
                        }
                        Value::Varchar(s)
                    }
                }
            };
            b.push(value)?;
        }
    }
    Ok(Batch::new(
        schema.clone(),
        builders.into_iter().map(ColumnBuilder::finish).collect(),
    )?)
}

// ------------------------------------------------------------------ loaders

/// The ODBC-based table loaders the paper benchmarks against.
pub struct OdbcLoader;

impl OdbcLoader {
    /// Load `table` through ONE connection into a single-partition array on
    /// the master worker — the stock-R workflow of Figure 1 ("loading even
    /// 50 GB takes close to an hour").
    pub fn load_single(
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        features: &[&str],
        ledger: &vdr_cluster::Ledger,
    ) -> Result<(DArray, TransferReport)> {
        let def = db.catalog().get(table)?;
        check_features(&def.schema, features)?;
        // One query id and one history entry for the load, as for a VFT
        // transfer; a caller already inside a query keeps its id.
        let window = QueryWindow::open(true, vdr_obs::Verbosity::Off);
        let mut load_span = vdr_obs::span("odbc.load_single");
        load_span.record("table", table);
        let client_node = dr.worker_node(0);
        let n = db.cluster().num_nodes();
        let db_rec = Arc::new(PhaseRecorder::new("odbc-1 db", PhaseKind::Pipelined, n));
        let client_rec = PhaseRecorder::new("odbc-1 client", PhaseKind::Sequential, n);

        let conn = OdbcConnection::connect(db, client_node, &client_rec);
        let sql = format!("SELECT {} FROM {table}", features.join(", "));
        // A lone R process parses single-threaded.
        let batch = conn.fetch(db, &sql, &db_rec, &client_rec, 1)?;

        let rows = batch.num_rows() as u64;
        let values = batch.num_values();
        let array = dr.darray(1).map_err(exec)?;
        let cols = crate::f64_columns(&batch);
        array
            .fill_columns_on(0, 0, batch.num_rows(), cols)
            .map_err(exec)?;

        let profile = db.cluster().profile();
        let db_report = Arc::into_inner(db_rec)
            .ok_or_else(|| exec("the query still holds the recorder"))?
            .finish(profile);
        let client_report = client_rec.finish(profile);
        let report = TransferReport {
            rows,
            values,
            bytes: values * 8,
            db_time: db_report.duration(),
            client_time: client_report.duration(),
            queue_time: SimDuration::ZERO,
        };
        load_span.record("rows", rows);
        load_span.set_sim_time(report.total().as_secs());
        ledger.push(db_report.clone());
        ledger.push(client_report.clone());
        let label = format!("ODBC load_single {table}");
        record_transfer(
            db,
            &window,
            "odbc",
            label,
            &report,
            [db_report, client_report],
        );
        Ok((array, report))
    }

    /// Load `table` through one connection per R instance, each requesting
    /// its `1/Cᵗʰ` of the rows by `ORDER BY key LIMIT n OFFSET c·n` — the
    /// parallel-ODBC baseline of Figures 1, 12, 13. `key` must order the
    /// table deterministically (a unique id).
    pub fn load_parallel(
        db: &VerticaDb,
        dr: &DistributedR,
        table: &str,
        features: &[&str],
        key: &str,
        ledger: &vdr_cluster::Ledger,
    ) -> Result<(DArray, TransferReport)> {
        let def = db.catalog().get(table)?;
        check_features(&def.schema, features)?;
        def.schema.index_of(key)?;

        let window = QueryWindow::open(true, vdr_obs::Verbosity::Off);
        let mut load_span = vdr_obs::span("odbc.load_parallel");
        load_span.record("table", table);
        let load_span_id = load_span.id();
        let connections = dr.total_instances();
        let total_rows = db.storage().total_rows(table);
        let per_conn = total_rows.div_ceil(connections.max(1) as u64).max(1);
        let n = db.cluster().num_nodes();
        let db_rec = Arc::new(PhaseRecorder::new("odbc-N db", PhaseKind::Pipelined, n));
        let client_rec = Arc::new(PhaseRecorder::new(
            "odbc-N client",
            PhaseKind::Sequential,
            n,
        ));

        // "Data locality is destroyed": partitions land on workers by
        // connection index, unrelated to where the rows lived.
        let array = dr.darray(connections).map_err(exec)?;
        let instances_per_node = dr.workers().first().map_or(1, |w| w.instances);

        // The burst: all connections fetch concurrently; the admission
        // controller gates real concurrency just as the paper's resource
        // pools do. Each connection thread re-enters the load's query
        // context, so its spans and counters stay attributed.
        let query = &vdr_obs::query::current();
        #[allow(
            clippy::disallowed_methods,
            reason = "ODBC client connections, not node work"
        )]
        let results: Vec<Result<(usize, Batch)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    let db_rec = Arc::clone(&db_rec);
                    let client_rec = Arc::clone(&client_rec);
                    let sql = format!(
                        "SELECT {} FROM {table} ORDER BY {key} LIMIT {per_conn} OFFSET {}",
                        features.join(", "),
                        c as u64 * per_conn
                    );
                    let worker = c / instances_per_node.max(1) % dr.num_workers();
                    let client_node = dr.worker_node(worker);
                    scope.spawn(move || -> Result<(usize, Batch)> {
                        let _q = vdr_obs::QueryScope::enter(query.clone());
                        let mut conn_span =
                            vdr_obs::span_with_parent("odbc.connection", load_span_id);
                        conn_span.set_node(client_node.0);
                        conn_span.record("connection", c);
                        let conn = OdbcConnection::connect(db, client_node, &client_rec);
                        // Each R instance parses on its own core, but a
                        // node's instances share its physical cores — the
                        // recorder's lane cap models that.
                        client_rec.set_lanes(client_node, instances_per_node);
                        let batch =
                            conn.fetch(db, &sql, &db_rec, &client_rec, instances_per_node)?;
                        Ok((c, batch))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let joined = h.join().map_err(|_| exec("a connection thread panicked"));
                    joined.and_then(|r| r)
                })
                .collect()
        });

        let mut rows = 0u64;
        for r in results {
            let (c, batch) = r?;
            rows += batch.num_rows() as u64;
            let worker = c / instances_per_node.max(1) % dr.num_workers();
            let cols = crate::f64_columns(&batch);
            array
                .fill_columns_on(worker, c, batch.num_rows(), cols)
                .map_err(exec)?;
        }

        let profile = db.cluster().profile();
        let waves = db.admission().waves(connections);
        let queue_time = SimDuration::from_millis(waves as f64 * profile.costs.odbc_connect_ms);
        let db_report = Arc::into_inner(db_rec)
            .ok_or_else(|| exec("a query still holds the recorder"))?
            .finish(profile);
        let client_report = Arc::into_inner(client_rec)
            .ok_or_else(|| exec("a client still holds the recorder"))?
            .finish(profile);
        let values = rows * features.len() as u64;
        let report = TransferReport {
            rows,
            values,
            bytes: values * 8,
            db_time: db_report.duration(),
            client_time: client_report.duration(),
            queue_time,
        };
        load_span.record("connections", connections);
        load_span.record("rows", rows);
        load_span.set_sim_time(report.total().as_secs());
        ledger.push(db_report.clone());
        ledger.push(client_report.clone());
        let label = format!("ODBC load_parallel {table}");
        record_transfer(
            db,
            &window,
            "odbc",
            label,
            &report,
            [db_report, client_report],
        );
        ledger.push(vdr_cluster::PhaseReport::synthetic(
            "odbc-N queue",
            queue_time,
        ));
        Ok((array, report))
    }
}

/// The policy enum lives in `vft`; re-exported here for the loader docs.
#[allow(unused)]
fn _policy_doc(_: TransferPolicy) {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use vdr_cluster::{Ledger, SimCluster};
    use vdr_columnar::Column;
    use vdr_verticadb::{Segmentation, TableDef};

    fn setup(nodes: usize, rows: i64) -> (Arc<VerticaDb>, DistributedR, Ledger) {
        let cluster = SimCluster::for_tests(nodes);
        let db = VerticaDb::new(cluster.clone());
        let schema = Schema::of(&[
            ("id", DataType::Int64),
            ("a", DataType::Float64),
            ("b", DataType::Float64),
        ]);
        db.create_table(TableDef {
            name: "t".into(),
            schema: schema.clone(),
            segmentation: Segmentation::Hash {
                column: "id".into(),
            },
        })
        .unwrap();
        let ids: Vec<i64> = (0..rows).collect();
        let batch = Batch::new(
            schema,
            vec![
                Column::from_i64(ids.clone()),
                Column::from_f64(ids.iter().map(|&i| i as f64 * 0.5).collect()),
                Column::from_f64(ids.iter().map(|&i| i as f64 * 2.0).collect()),
            ],
        )
        .unwrap();
        db.copy("t", vec![batch]).unwrap();
        let dr = DistributedR::on_all_nodes(cluster, 3).unwrap();
        (db, dr, Ledger::new())
    }

    #[test]
    fn text_roundtrip_preserves_values() {
        let schema = Schema::of(&[
            ("i", DataType::Int64),
            ("f", DataType::Float64),
            ("b", DataType::Bool),
            ("s", DataType::Varchar),
        ]);
        let rows = vec![
            vec![
                Value::Int64(-5),
                Value::Float64(1.0 / 3.0),
                Value::Bool(true),
                Value::Varchar("tab\there\nand\\slash".into()),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Varchar("NULL".into()),
            ],
        ];
        let batch = Batch::from_rows(schema.clone(), &rows).unwrap();
        let text = render_rows(&batch);
        let back = parse_rows(&schema, &text).unwrap();
        assert_eq!(back.row(0), rows[0]);
        assert_eq!(back.row(1)[0], Value::Null);
        // Shortest-roundtrip float formatting keeps exact values.
        assert_eq!(back.row(0)[1], Value::Float64(1.0 / 3.0));
    }

    #[test]
    fn parse_rejects_malformed_rows() {
        let schema = Schema::of(&[("i", DataType::Int64)]);
        assert!(parse_rows(&schema, "abc\n").is_err());
        assert!(parse_rows(&schema, "1\t2\n").is_err());
        let schema = Schema::of(&[("b", DataType::Bool)]);
        assert!(parse_rows(&schema, "x\n").is_err());
    }

    #[test]
    fn single_connection_load_is_complete_and_single_threaded() {
        let (db, dr, ledger) = setup(3, 2000);
        let (arr, report) = OdbcLoader::load_single(&db, &dr, "t", &["id", "a"], &ledger).unwrap();
        assert_eq!(report.rows, 2000);
        assert_eq!(arr.npartitions(), 1);
        assert_eq!(arr.dim(), (2000, 2));
        let (_, _, data) = arr.gather().unwrap();
        let id_sum: f64 = data.chunks(2).map(|r| r[0]).sum();
        assert_eq!(id_sum, 1999.0 * 2000.0 / 2.0);
        assert!(report.client_time.as_secs() > 0.0);
    }

    #[test]
    fn parallel_load_fetches_disjoint_ranges_exactly_once() {
        let (db, dr, ledger) = setup(3, 3000);
        let (arr, report) =
            OdbcLoader::load_parallel(&db, &dr, "t", &["id", "b"], "id", &ledger).unwrap();
        assert_eq!(report.rows, 3000);
        assert_eq!(arr.npartitions(), dr.total_instances());
        // Every id exactly once despite 9 concurrent range queries.
        let sums = arr
            .map_partitions(|_, p| p.column(0).iter().sum::<f64>())
            .unwrap();
        assert_eq!(sums.iter().sum::<f64>(), 2999.0 * 3000.0 / 2.0);
        // The burst issued one query per instance.
        assert_eq!(db.admission().admitted() as usize, dr.total_instances());
        assert!(report.queue_time.as_secs() > 0.0);
    }

    #[test]
    fn parallel_odbc_rescans_the_table_per_connection() {
        // The pathology the paper calls out: C range queries re-scan the
        // table, so total DB I/O grows with C even though each client only
        // receives 1/C of the rows. Compare the ledgers' disk counters.
        let (db, dr, ledger) = setup(2, 2000);
        let (_, _) = OdbcLoader::load_parallel(&db, &dr, "t", &["a"], "id", &ledger).unwrap();
        let par_disk: u64 = ledger.reports().iter().map(|r| r.total_disk_read).sum();
        let single_ledger = Ledger::new();
        let (_, _) = OdbcLoader::load_single(&db, &dr, "t", &["a"], &single_ledger).unwrap();
        let single_disk: u64 = single_ledger
            .reports()
            .iter()
            .map(|r| r.total_disk_read)
            .sum();
        let conns = dr.total_instances() as u64;
        assert!(single_disk > 0);
        // Every one of the C ordered range queries scanned the whole table.
        assert_eq!(par_disk, single_disk * conns);
    }

    /// A parallel load is one `odbc` entry of the query history: its metric
    /// delta counts every connection's range query scanning the whole
    /// table, and every span recorded under the load carries its query id.
    #[test]
    fn a_parallel_load_is_one_history_entry_owning_its_spans() {
        let (db, dr, ledger) = setup(3, 600);
        let seq = vdr_obs::global().trace().current_seq();
        OdbcLoader::load_parallel(&db, &dr, "t", &["a"], "id", &ledger).unwrap();
        let history = db.monitor().history().snapshot();
        assert_eq!(history.len(), 1, "one entry for the whole load");
        let entry = &history[0];
        assert_eq!((entry.trigger, entry.phases.len()), ("odbc", 2));
        let conns = dr.total_instances() as u64;
        let scanned = entry.metrics_delta.counter_total("exec.scan.rows");
        assert_eq!(
            scanned,
            conns * 600,
            "each connection's query scans the table"
        );
        // The load's span and everything under it, across the connection
        // threads, by parent links.
        let spans = vdr_obs::global().trace().spans_since(seq);
        let load = spans
            .iter()
            .find(|s| s.name == "odbc.load_parallel" && s.query_id == entry.id)
            .expect("the load's span carries its id");
        let mut tree = vec![load.id];
        let mut grew = true;
        while grew {
            let more: Vec<u64> = spans
                .iter()
                .filter(|s| tree.contains(&s.parent) && !tree.contains(&s.id))
                .map(|s| s.id)
                .collect();
            grew = !more.is_empty();
            tree.extend(more);
        }
        let under: Vec<_> = spans.iter().filter(|s| tree.contains(&s.id)).collect();
        assert!(
            under.len() as u64 > 2 * conns,
            "connections and their queries"
        );
        for s in under {
            assert_eq!(s.query_id, entry.id, "{} carries the load's id", s.name);
        }
    }

    #[test]
    fn missing_key_or_feature_errors() {
        let (db, dr, ledger) = setup(2, 10);
        assert!(OdbcLoader::load_parallel(&db, &dr, "t", &["a"], "nope", &ledger).is_err());
        assert!(OdbcLoader::load_single(&db, &dr, "t", &["nope"], &ledger).is_err());
    }
}
