//! The `v_monitor` virtual schema: monitoring state exposed as tables.
//!
//! Vertica answers "what is the database doing?" with SQL — the `V_MONITOR`
//! schema and Data Collector tables the paper's evaluation reads its
//! per-operator statistics from. This module is that surface for our
//! engine: the executor resolves any `FROM v_monitor.<name>` through the
//! [`Monitor`] registry instead of the catalog, so the ordinary
//! `SELECT ... WHERE ... ORDER BY` machinery (predicate kernels,
//! projection, sorts) runs unchanged over telemetry.
//!
//! Built-in tables:
//!
//! | table                       | contents                                  |
//! |-----------------------------|-------------------------------------------|
//! | `query_requests`            | per-query history (ring of last 1024)     |
//! | `execution_engine_profiles` | per-query, per-node, per-phase counters   |
//! | `query_plan_profiles`       | per-query, per-operator (path id), per-   |
//! |                             | node rows in/out, bytes out, wall time,   |
//! |                             | `sim_us` (usage sums, time need not)      |
//! | `metrics`                   | live counter/gauge/histogram snapshot     |
//! |                             | (histograms with p50/p90/p99/p999)        |
//! | `spans`                     | the vdr-obs trace ring                    |
//! | `events`                    | the vdr-obs structured event log          |
//! | `slow_requests`             | statements over the slow-query threshold  |
//! | `storage_containers`        | ROS containers per table/node/column with |
//! |                             | encoding + encoded/decoded byte sizes     |
//! | `block_cache`               | block cache stats                         |
//! | `dfs_objects`               | DFS object store listing                  |
//! | `model_cache`               | prediction model cache stats (registered  |
//! |                             | by `vdr-core` alongside the UDx funcs)    |
//! | `dc_metrics_by_tick`        | each history entry's metric deltas        |
//! | `dc_resource_usage`         | each history entry's per-node ledger use  |
//! | `dc_query_summaries`        | each history entry with exact rolling     |
//! |                             | p50/p90/p99 wall latency                  |
//!
//! **One store.** The database's [`QueryHistory`] is the one record of what
//! ran: every SQL statement, VFT transfer, ODBC load and train-while-loading
//! run appends a [`QueryRecord`] — its trigger, metric delta, ledger phases
//! and, for a statement, its operator record — stamped with a per-database
//! sequence number. `query_requests`, `execution_engine_profiles`,
//! `query_plan_profiles`, `PROFILE` and the three `dc_*` tables are views
//! over it (`tick` is the sequence number), so two databases in one
//! process each see only their own work. A record's metric delta is the
//! sink of the query context its [`QueryWindow`] opens: only the unit's
//! own threads write into it.
//!
//! **One read path.** A system table is a per-node source of the plan:
//! [`SystemTableProvider::batch`] returns node *n*'s rows, the planner holds
//! one batch per node, each ending in a `node_name` column
//! (`Monitor::batches`), WHERE and projection run on every node, and the
//! plan's `Exchange gather` ships — and charges — only what survives. Like
//! Vertica's `v_monitor`, `SELECT node_name, ...` shows which node produced
//! each row. Node-labelled state (metrics, spans, events, phase rows,
//! containers, cache bytes) belongs to its node; unlabelled and
//! initiator-resident state (the history's own rows, slow requests, DFS
//! metadata, cache counters) to node 0, the other nodes answering with no
//! rows.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::db::VerticaDb;
use crate::error::{DbError, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vdr_cluster::{NodeId, NodePhase, NodeUsage, PhaseKind, PhaseRecorder, PhaseReport};
use vdr_columnar::{Batch, Column, ColumnBuilder, DataType, Field, Schema, Value};
use vdr_obs::metrics::MetricKey;
use vdr_obs::{MetricValue, MetricsSnapshot, SpanRecord};

/// The virtual schema name system tables live under.
pub const V_MONITOR_SCHEMA: &str = "v_monitor";

/// The default query-history ring capacity: the last N completed (or
/// failed) statements, transfers and train runs. Runtime-configurable via
/// [`QueryHistory::set_capacity`]; older entries are evicted, counted on
/// `obs.query_history.evicted`, and reported as `query.history.evicted`
/// structured events.
pub const QUERY_HISTORY_CAPACITY: usize = 1024;

/// The slow-request ring keeps the last N statements that crossed the
/// slow-query threshold.
pub const SLOW_REQUESTS_CAPACITY: usize = 256;

/// Default slow-query threshold: 25ms of real (wall) execution time. The
/// simulated clock is not used here — slow-query detection is about what
/// the *host* actually spent, which is what an operator tuning the
/// reproduction cares about.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 25_000_000;

/// The node that holds initiator-resident state.
const INITIATOR: NodeId = NodeId(0);

/// If `name` is `v_monitor.<table>` (case-insensitive), the bare table name.
pub fn v_monitor_table(name: &str) -> Option<&str> {
    let (schema, table) = name.split_once('.')?;
    schema
        .eq_ignore_ascii_case(V_MONITOR_SCHEMA)
        .then_some(table)
}

/// What one plan operator did on one node, its `usage` the ledger charges it
/// made there. A fused Scan → Filter → sink pipeline times itself once, on
/// its sink; an Exchange counts what the node received.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpActuals {
    pub node: usize,
    /// The operator's pre-order number in the plan, as `EXPLAIN` prints it.
    pub path_id: usize,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes_out: u64,
    /// Frames received (exchanges only).
    pub frames: u64,
    pub wall_ns: u64,
    pub usage: NodeUsage,
}

/// A statement's operators: per path id the `EXPLAIN` name and detail, and
/// what each did on each node, one entry per operator per node. Empty for
/// statements without a plan or a store.
#[derive(Debug, Clone, Default)]
pub struct OperatorRecord {
    pub plan: Vec<(&'static str, String)>,
    pub actuals: Vec<OpActuals>,
}

impl OperatorRecord {
    /// One row per operator per node, in path then node order, with the
    /// operator's `EXPLAIN` label: what `PROFILE` and `query_plan_profiles`
    /// show.
    pub(crate) fn rows(&self) -> Vec<(String, &OpActuals)> {
        let label = |a: &OpActuals| match self.plan.get(a.path_id) {
            Some((name, detail)) => format!("{name} {detail}").trim_end().to_string(),
            None => String::new(),
        };
        let mut rows: Vec<_> = self.actuals.iter().map(|a| (label(a), a)).collect();
        rows.sort_by_key(|(_, a)| (a.path_id, a.node));
        rows
    }

    /// The root operator's rows and bytes out, over every node.
    pub(crate) fn root_output(&self) -> (u64, u64) {
        let root = self.actuals.iter().filter(|a| a.path_id == 0);
        root.fold((0, 0), |(r, b), a| (r + a.rows_out, b + a.bytes_out))
    }

    /// Give operator `path`'s entries the usage its recorder `rec` holds,
    /// each its own node's; a node the operator charged without an entry
    /// (a gather's or a UDx's sending side) gets one of usage alone.
    pub(crate) fn settle(&mut self, path: usize, rec: &PhaseRecorder) {
        for (node, usage) in rec.usage().into_iter().enumerate() {
            let mine = |a: &&mut OpActuals| (a.path_id, a.node) == (path, node);
            match self.actuals.iter_mut().find(mine) {
                Some(a) => a.usage = usage,
                None if usage != NodeUsage::default() => self.actuals.push(OpActuals {
                    node,
                    path_id: path,
                    usage,
                    ..OpActuals::default()
                }),
                None => {}
            }
        }
    }

    /// Whether the record agrees with itself, the statement's ledger phase
    /// and its answer: per node, every pipeline operator takes in what its
    /// input put out (scan out = filter in, filter out = sink in); per node
    /// and per resource the operators' usage sums to the phase's — bytes
    /// exactly, CPU core-ns and fixed seconds to a relative 1e-9, as float
    /// sums in another order can differ in the last bits; the answer has the
    /// root's rows.
    pub(crate) fn check(
        &self,
        phase: &PhaseReport,
        answer: Option<&Batch>,
    ) -> std::result::Result<(), String> {
        let per_node = |path: usize, v: fn(&OpActuals) -> u64| {
            let mine = self.actuals.iter().filter(|a| a.path_id == path);
            mine.map(|a| (a.node, v(a))).collect::<BTreeMap<_, _>>()
        };
        let fail = |what: String| Err(format!("operator record: {what}"));
        for (path, (name, _)) in self.plan.iter().enumerate() {
            let pipelined = matches!(*name, "Filter" | "Project" | "PartialAgg" | "Transform");
            let fed = per_node(path + 1, |a| a.rows_out);
            let took = per_node(path, |a| a.rows_in);
            if pipelined && fed != took {
                return fail(format!("path {path} took {took:?}, its input gave {fed:?}"));
            }
        }
        let mut used = vec![NodeUsage::default(); phase.nodes.len()];
        for a in &self.actuals {
            if let Some(u) = used.get_mut(a.node) {
                u.merge(&a.usage);
            }
        }
        let near = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        for (ops, NodePhase { node, usage: u, .. }) in used.iter().zip(&phase.nodes) {
            // The byte counts, with the phase's floats and lanes.
            let mut bytes = ops.clone();
            (bytes.cpu_core_ns, bytes.fixed_secs, bytes.lanes) =
                (u.cpu_core_ns, u.fixed_secs, u.lanes);
            let floats = near(ops.cpu_core_ns, u.cpu_core_ns) && near(ops.fixed_secs, u.fixed_secs);
            if bytes != *u || !floats {
                return fail(format!("node {node}: operators {ops:?}, phase {u:?}"));
            }
        }
        let root = self.root_output().0;
        match answer.map(|b| b.num_rows() as u64) {
            Some(rows) if rows != root => fail(format!("the root put out {root} rows, not {rows}")),
            _ => Ok(()),
        }
    }
}

/// One completed unit of work in the query history.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// The query id allocated for the unit (see `vdr_obs::query`).
    pub id: u64,
    /// The history's sequence number, stamped by [`QueryHistory::record`]
    /// (0 before): the `tick` of the `dc_*` views.
    pub seq: u64,
    /// What ran: `statement`, `vft`, `odbc` or `train`.
    pub trigger: &'static str,
    /// SQL text, or the statement, transfer or train label.
    pub sql: String,
    /// `complete`, or `error: <message>`.
    pub status: String,
    /// Simulated execution time, seconds.
    pub sim_secs: f64,
    /// Real (host) execution time, nanoseconds.
    pub wall_ns: u64,
    /// Rows in the statement's result (a SELECT's: its plan root's output),
    /// or transferred, or trained on.
    pub rows: u64,
    /// Bytes in the statement's result (a SELECT's: its plan root's
    /// output), or transferred.
    pub bytes: u64,
    /// The ledger phases the unit produced.
    pub phases: Vec<PhaseReport>,
    /// What each operator of the statement's plan did on each node.
    pub operators: OperatorRecord,
    /// What the unit's own threads recorded (its query context's sink).
    pub metrics_delta: MetricsSnapshot,
}

/// One unit of work on its way into the history: its query context,
/// entered on this thread for the window's lifetime, and its start.
pub struct QueryWindow {
    ctx: vdr_obs::QueryContext,
    started: Instant,
    _scope: vdr_obs::QueryScope,
}

impl QueryWindow {
    /// Open a window under a fresh query id or, with `inherit`, under the
    /// one this thread already runs in (a transfer issued inside a tracked
    /// statement, or inside a train run, keeps that id), recording at
    /// `force` or above (`Off`: the process default).
    pub fn open(inherit: bool, force: vdr_obs::Verbosity) -> Self {
        let id = match vdr_obs::current_query_id() {
            id if inherit && id != 0 => id,
            _ => vdr_obs::next_query_id(),
        };
        let ctx = vdr_obs::QueryContext::open(id, force);
        QueryWindow {
            started: Instant::now(),
            _scope: vdr_obs::QueryScope::enter(ctx.clone()),
            ctx,
        }
    }

    pub fn id(&self) -> u64 {
        self.ctx.id()
    }

    /// The window's record so far: id, trigger, label, wall time and metric
    /// delta, status `complete`; the caller fills in rows, bytes, simulated
    /// time and phases. The `query.wall_us` observation lands before the
    /// sink is read, so the unit's own delta includes it.
    pub fn close(&self, trigger: &'static str, sql: String) -> QueryRecord {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        vdr_obs::observe("query.wall_us", wall_ns as f64 / 1e3);
        QueryRecord {
            id: self.id(),
            trigger,
            sql,
            status: "complete".to_string(),
            wall_ns,
            metrics_delta: self.ctx.metrics(),
            ..QueryRecord::default()
        }
    }
}

/// Bounded ring of recent [`QueryRecord`]s, in sequence order.
pub struct QueryHistory {
    entries: Mutex<VecDeque<QueryRecord>>,
    capacity: AtomicUsize,
    last_seq: AtomicU64,
}

impl QueryHistory {
    pub fn new() -> Self {
        QueryHistory::with_capacity(QUERY_HISTORY_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        QueryHistory {
            entries: Mutex::new(VecDeque::new()),
            capacity: AtomicUsize::new(capacity),
            last_seq: AtomicU64::new(0),
        }
    }

    /// The current retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Change the retention bound at runtime; an over-capacity ring is
    /// trimmed (and the trim counted) immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        let len = entries.len();
        Self::trim(&mut entries, capacity);
        drop(entries);
        if len > capacity {
            vdr_obs::event(
                "query.history.evicted",
                format!(
                    "trimmed {} records on set_capacity({capacity})",
                    len - capacity
                ),
            );
        }
    }

    fn trim(entries: &mut VecDeque<QueryRecord>, capacity: usize) {
        while entries.len() > capacity {
            entries.pop_front();
            vdr_obs::counter("obs.query_history.evicted", 1);
        }
    }

    /// Append a record under the next sequence number, evicting the oldest
    /// past capacity.
    pub fn record(&self, mut record: QueryRecord) {
        let capacity = self.capacity();
        let mut entries = self.entries.lock();
        record.seq = self.last_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let evicted_id = (entries.len() >= capacity)
            .then(|| entries.front().map(|r| r.id))
            .flatten();
        entries.push_back(record);
        Self::trim(&mut entries, capacity);
        drop(entries);
        if let Some(id) = evicted_id {
            vdr_obs::event(
                "query.history.evicted",
                format!("query_id={id} dropped from history ring (capacity {capacity})"),
            );
        }
    }

    pub fn snapshot(&self) -> Vec<QueryRecord> {
        self.entries.lock().iter().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

impl Default for QueryHistory {
    fn default() -> Self {
        QueryHistory::new()
    }
}

/// A virtual table. Providers must be cheap to call repeatedly and must not
/// execute SQL (the planner calls them mid-statement).
pub trait SystemTableProvider: Send + Sync {
    /// Bare table name under `v_monitor.` (lowercase).
    fn name(&self) -> &str;
    /// Node `node`'s rows of the table's current contents. Every node
    /// answers with the same columns; a node that holds none of the state
    /// answers with no rows.
    fn batch(&self, db: &VerticaDb, node: NodeId) -> Result<Batch>;
}

/// One statement that crossed the slow-query threshold.
#[derive(Debug, Clone)]
pub struct SlowRequest {
    pub id: u64,
    pub sql: String,
    /// Real (host) execution time, nanoseconds.
    pub wall_ns: u64,
    /// Simulated execution time, seconds.
    pub sim_secs: f64,
    /// The threshold in force when the statement was recorded.
    pub threshold_ns: u64,
}

/// The registry of system-table providers plus the query history.
pub struct Monitor {
    providers: RwLock<BTreeMap<String, Arc<dyn SystemTableProvider>>>,
    history: QueryHistory,
    slow_threshold_ns: AtomicU64,
    slow: Mutex<VecDeque<SlowRequest>>,
}

/// A built-in table: its name and the function building node *n*'s rows.
struct Builtin(&'static str, fn(&VerticaDb, NodeId) -> Result<Batch>);

impl SystemTableProvider for Builtin {
    fn name(&self) -> &str {
        self.0
    }

    fn batch(&self, db: &VerticaDb, node: NodeId) -> Result<Batch> {
        (self.1)(db, node)
    }
}

impl Monitor {
    /// A registry pre-loaded with the built-in providers.
    pub fn new() -> Self {
        let m = Monitor {
            providers: RwLock::new(BTreeMap::new()),
            history: QueryHistory::new(),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            slow: Mutex::new(VecDeque::new()),
        };
        let builtins: [Builtin; 13] = [
            Builtin("query_requests", query_requests),
            Builtin("execution_engine_profiles", execution_engine_profiles),
            Builtin("query_plan_profiles", query_plan_profiles),
            Builtin("metrics", metrics),
            Builtin("spans", spans),
            Builtin("events", events),
            Builtin("slow_requests", slow_requests),
            Builtin("storage_containers", storage_containers),
            Builtin("block_cache", block_cache),
            Builtin("dfs_objects", dfs_objects),
            Builtin("dc_metrics_by_tick", dc_metrics_by_tick),
            Builtin("dc_resource_usage", dc_resource_usage),
            Builtin("dc_query_summaries", dc_query_summaries),
        ];
        for b in builtins {
            m.register(Arc::new(b));
        }
        m
    }

    /// The wall-time threshold (nanoseconds) past which a statement is
    /// recorded into `v_monitor.slow_requests`.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Change the slow-query threshold (nanoseconds of wall time).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Record a statement that crossed the threshold (called by the tracked
    /// execution path in `db.rs`).
    pub fn record_slow(&self, record: &QueryRecord, threshold_ns: u64) {
        let mut slow = self.slow.lock();
        if slow.len() >= SLOW_REQUESTS_CAPACITY {
            slow.pop_front();
        }
        slow.push_back(SlowRequest {
            id: record.id,
            sql: record.sql.clone(),
            wall_ns: record.wall_ns,
            sim_secs: record.sim_secs,
            threshold_ns,
        });
    }

    /// The retained slow requests, oldest first.
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.slow.lock().iter().cloned().collect()
    }

    /// Add (or replace) a provider. Other crates hook their own state in
    /// this way — `vdr-core` registers `model_cache` when it installs the
    /// prediction functions.
    pub fn register(&self, provider: Arc<dyn SystemTableProvider>) {
        self.providers
            .write()
            .insert(provider.name().to_ascii_lowercase(), provider);
    }

    pub fn history(&self) -> &QueryHistory {
        &self.history
    }

    /// `v_monitor.<table>` as the plan's per-node source: node *n*'s rows at
    /// index *n*, each batch ending in a `node_name` column naming its node.
    pub(crate) fn batches(&self, table: &str, db: &VerticaDb) -> Result<Vec<Batch>> {
        let provider = self
            .providers
            .read()
            .get(&table.to_ascii_lowercase())
            .cloned();
        let provider = provider.ok_or_else(|| {
            DbError::Plan(format!("unknown system table '{V_MONITOR_SCHEMA}.{table}'"))
        })?;
        let mut out: Vec<Batch> = Vec::with_capacity(db.cluster().num_nodes());
        for node in db.cluster().node_ids() {
            let batch = with_node_name(provider.batch(db, node)?, node)?;
            if let Some(first) = out.first().filter(|f| f.schema() != batch.schema()) {
                let (want, got) = (first.schema().names(), batch.schema().names());
                return Err(DbError::Exec(format!(
                    "{V_MONITOR_SCHEMA}.{table}: node {node} answered columns {got:?}, not {want:?}"
                )));
            }
            out.push(batch);
        }
        Ok(out)
    }
}

/// The display name of a cluster node in `v_monitor` output, matching
/// Vertica's `v_<dbname>_nodeNNNN` convention.
pub fn node_name(node: usize) -> String {
    format!("v_vdr_node{:04}", node + 1)
}

/// `batch` with a trailing `node_name` Varchar column naming `node`.
fn with_node_name(batch: Batch, node: NodeId) -> Result<Batch> {
    let rows = batch.num_rows();
    let (schema, mut columns) = batch.into_parts();
    let mut fields = schema.fields().to_vec();
    fields.push(Field::new("node_name".to_string(), DataType::Varchar));
    columns.push(Column::from_strings(vec![node_name(node.0); rows]));
    Ok(Batch::new(Schema::new(fields), columns)?)
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}

/// Build a batch from `(name, type)` columns and rows of equal width — the
/// common shape of every table below.
struct Rows {
    fields: Vec<Field>,
    builders: Vec<ColumnBuilder>,
}

impl Rows {
    fn new(cols: &[(&str, DataType)]) -> Self {
        Rows {
            fields: cols
                .iter()
                .map(|(n, t)| Field::new(n.to_string(), *t))
                .collect(),
            builders: cols.iter().map(|(_, t)| ColumnBuilder::new(*t)).collect(),
        }
    }

    fn push(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.builders.len() {
            let (got, want) = (row.len(), self.builders.len());
            return Err(DbError::Exec(format!(
                "a system-table row has {got} values for {want} columns"
            )));
        }
        for (builder, value) in self.builders.iter_mut().zip(row) {
            match value {
                Value::Null => builder.push_null(),
                v => builder.push(v)?,
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Batch> {
        let columns = self.builders.into_iter().map(|b| b.finish()).collect();
        Ok(Batch::new(Schema::new(self.fields), columns)?)
    }
}

fn int(n: u64) -> Value {
    Value::Int64(n as i64)
}

/// Nanoseconds as a microsecond float.
fn us(ns: u64) -> Value {
    Value::Float64(ns as f64 / 1e3)
}

fn opt_node(node: Option<usize>) -> Value {
    node.map_or(Value::Null, |n| int(n as u64))
}

/// Whether an entry labelled `label` is node `node`'s: a node-labelled one
/// belongs to its node, an unlabelled (global, initiator-side) one to the
/// initiator.
fn owns(node: NodeId, label: Option<usize>) -> bool {
    label.map_or(node == INITIATOR, |l| l == node.0)
}

/// Initiator-resident state as node `node` serves it: all of it on the
/// initiator, none elsewhere.
fn initiator_only<T>(node: NodeId, state: impl FnOnce() -> Vec<T>) -> Vec<T> {
    match node {
        INITIATOR => state(),
        _ => Vec::new(),
    }
}

/// Each phase of `r` with `node`'s row of it.
fn node_phases(r: &QueryRecord, node: NodeId) -> impl Iterator<Item = (&PhaseReport, &NodePhase)> {
    let rows = r
        .phases
        .iter()
        .flat_map(|p| p.nodes.iter().map(move |n| (p, n)));
    rows.filter(move |(_, n)| n.node == node.0)
}

/// A metric's kind and scalar value (a histogram's count).
fn kind_value(value: &MetricValue) -> (&'static str, f64) {
    match value {
        MetricValue::Counter(c) => ("counter", *c as f64),
        MetricValue::Gauge(g) => ("gauge", *g),
        MetricValue::Histogram(h) => ("histogram", h.count as f64),
    }
}

/// The columns of one metric's row ([`metric_row`]).
const METRIC_COLS: [(&str, DataType); 8] = [
    ("name", DataType::Varchar),
    ("node", DataType::Int64),
    ("kind", DataType::Varchar),
    ("value", DataType::Float64),
    ("p50", DataType::Float64),
    ("p90", DataType::Float64),
    ("p99", DataType::Float64),
    ("p999", DataType::Float64),
];

/// One metric's row: name, node, kind, scalar value, then the
/// distribution's p50/p90/p99/p999 (NULL for counters and gauges).
fn metric_row(key: &MetricKey, value: &MetricValue) -> Vec<Value> {
    let (kind, v) = kind_value(value);
    let pct = |q: f64| match value {
        MetricValue::Histogram(h) => Value::Float64(h.percentile(q)),
        _ => Value::Null,
    };
    let mut row = vec![key.name.clone().into(), opt_node(key.node), kind.into()];
    row.extend([v.into(), pct(0.5), pct(0.9), pct(0.99), pct(0.999)]);
    row
}

/// The columns every `dc_*` view starts with.
const TICK_COLS: [(&str, DataType); 3] = [
    ("tick", DataType::Int64),
    ("query_id", DataType::Int64),
    ("trigger", DataType::Varchar),
];

fn tick_row(r: &QueryRecord) -> Vec<Value> {
    vec![int(r.seq), int(r.id), r.trigger.into()]
}

// ------------------------------------------------------ built-in providers

fn query_requests(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("query_id", DataType::Int64),
        ("sql", DataType::Varchar),
        ("status", DataType::Varchar),
        ("sim_us", DataType::Float64),
        ("wall_us", DataType::Float64),
        ("rows", DataType::Int64),
        ("bytes", DataType::Int64),
    ]);
    for r in initiator_only(node, || db.monitor().history().snapshot()) {
        rows.push(vec![
            int(r.id),
            r.sql.into(),
            r.status.into(),
            (r.sim_secs * 1e6).into(),
            us(r.wall_ns),
            int(r.rows),
            int(r.bytes),
        ])?;
    }
    rows.finish()
}

fn execution_engine_profiles(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("query_id", DataType::Int64),
        ("phase", DataType::Varchar),
        ("node", DataType::Int64),
        ("sim_us", DataType::Float64),
        ("disk_read_bytes", DataType::Int64),
        ("disk_cached_read_bytes", DataType::Int64),
        ("disk_write_bytes", DataType::Int64),
        ("net_in_bytes", DataType::Int64),
        ("net_out_bytes", DataType::Int64),
        ("cpu_core_ns", DataType::Float64),
    ]);
    for r in db.monitor().history().snapshot() {
        for (phase, n) in node_phases(&r, node) {
            // Phases recorded before attribution existed (or synthetic
            // ones) carry 0; fall back to the owning query's id.
            let qid = if phase.query_id != 0 {
                phase.query_id
            } else {
                r.id
            };
            let u = &n.usage;
            rows.push(vec![
                int(qid),
                phase.name.clone().into(),
                int(node.0 as u64),
                (n.duration_secs * 1e6).into(),
                int(u.disk_read_bytes),
                int(u.disk_cached_read_bytes),
                int(u.disk_write_bytes),
                int(u.net_in_bytes),
                int(u.net_out_bytes),
                u.cpu_core_ns.into(),
            ])?;
        }
    }
    rows.finish()
}

/// Each history entry's operators on the node: one row per operator, its
/// path id and `EXPLAIN` label, rows in and out, bytes out, wall time and
/// `sim_us`, its own usage's time under the statement phase's `Pipelined`
/// rule: the node's operators' usage sums to its phase's, their time need not.
fn query_plan_profiles(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let profile = db.cluster().profile();
    let mut rows = Rows::new(&[
        ("query_id", DataType::Int64),
        ("path_id", DataType::Int64),
        ("operator", DataType::Varchar),
        ("node", DataType::Int64),
        ("rows_in", DataType::Int64),
        ("rows_out", DataType::Int64),
        ("bytes_out", DataType::Int64),
        ("wall_us", DataType::Float64),
        ("sim_us", DataType::Float64),
    ]);
    for r in db.monitor().history().snapshot() {
        for (label, a) in r.operators.rows() {
            if a.node == node.0 {
                let sim = a.usage.duration(profile, PhaseKind::Pipelined);
                rows.push(vec![
                    int(r.id),
                    int(a.path_id as u64),
                    label.into(),
                    int(a.node as u64),
                    int(a.rows_in),
                    int(a.rows_out),
                    int(a.bytes_out),
                    us(a.wall_ns),
                    (sim.as_secs() * 1e6).into(),
                ])?;
            }
        }
    }
    rows.finish()
}

fn metrics(_db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&METRIC_COLS);
    for (key, value) in vdr_obs::global().metrics().snapshot().iter() {
        if owns(node, key.node) {
            rows.push(metric_row(key, value))?;
        }
    }
    rows.finish()
}

fn spans(_db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("span_id", DataType::Int64),
        ("parent_id", DataType::Int64),
        ("query_id", DataType::Int64),
        ("name", DataType::Varchar),
        ("node", DataType::Int64),
        ("start_seq", DataType::Int64),
        ("wall_ns", DataType::Int64),
        ("sim_us", DataType::Float64),
        ("fields", DataType::Varchar),
    ]);
    for s in vdr_obs::global().trace().snapshot() {
        if owns(node, s.node) {
            rows.push(vec![
                int(s.id),
                int(s.parent),
                int(s.query_id),
                s.name.as_str().into(),
                opt_node(s.node),
                int(s.start_seq),
                int(s.wall_ns),
                (s.sim_secs * 1e6).into(),
                span_fields(&s).into(),
            ])?;
        }
    }
    rows.finish()
}

/// A span's fields as `k=v` pairs, space-separated.
fn span_fields(s: &SpanRecord) -> String {
    let pairs = s.fields.iter().map(|(k, v)| format!("{k}={v}"));
    pairs.collect::<Vec<_>>().join(" ")
}

fn events(_db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("seq", DataType::Int64),
        ("ts_ms", DataType::Float64),
        ("kind", DataType::Varchar),
        ("node", DataType::Int64),
        ("query_id", DataType::Int64),
        ("detail", DataType::Varchar),
    ]);
    for e in vdr_obs::global().events().snapshot() {
        if owns(node, e.node) {
            rows.push(vec![
                int(e.seq),
                (e.ts_ns as f64 / 1e6).into(),
                e.kind.into(),
                opt_node(e.node),
                int(e.query_id),
                e.detail.into(),
            ])?;
        }
    }
    rows.finish()
}

fn slow_requests(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("query_id", DataType::Int64),
        ("sql", DataType::Varchar),
        ("wall_ms", DataType::Float64),
        ("sim_us", DataType::Float64),
        ("threshold_ms", DataType::Float64),
    ]);
    for r in initiator_only(node, || db.monitor().slow_requests()) {
        rows.push(vec![
            int(r.id),
            r.sql.into(),
            (r.wall_ns as f64 / 1e6).into(),
            (r.sim_secs * 1e6).into(),
            (r.threshold_ns as f64 / 1e6).into(),
        ])?;
    }
    rows.finish()
}

/// One row per container × column: per-column encoding choice and the
/// encoded-vs-decoded byte sizes make compression wins inspectable from
/// SQL. `bytes`/`crc32` describe the whole container block and repeat on
/// each of its column rows.
fn storage_containers(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("table_name", DataType::Varchar),
        ("node", DataType::Int64),
        ("path", DataType::Varchar),
        ("rows", DataType::Int64),
        ("column_name", DataType::Varchar),
        ("encoding", DataType::Varchar),
        ("encoded_bytes", DataType::Int64),
        ("decoded_bytes", DataType::Int64),
        ("bytes", DataType::Int64),
        ("crc32", DataType::Int64),
    ]);
    for table in db.catalog().table_names() {
        for c in db.storage().containers(&table, node) {
            for col in &c.columns {
                rows.push(vec![
                    table.as_str().into(),
                    int(node.0 as u64),
                    c.path.as_str().into(),
                    int(c.rows),
                    col.name.as_str().into(),
                    format!("{:?}", col.encoding).to_lowercase().into(),
                    int(col.encoded_bytes),
                    int(col.decoded_bytes),
                    int(c.bytes),
                    int(c.crc as u64),
                ])?;
            }
        }
    }
    rows.finish()
}

/// Stat-row shape shared by the cache tables: one `(stat, node, value)`
/// row per counter, with per-node rows where the cache tracks them.
pub fn cache_stats_batch(stats: &[(&str, Option<usize>, u64)]) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("stat", DataType::Varchar),
        ("node", DataType::Int64),
        ("value", DataType::Int64),
    ]);
    for (stat, node, value) in stats {
        rows.push(vec![(*stat).into(), opt_node(*node), int(*value)])?;
    }
    rows.finish()
}

/// The node's cache bytes; the process-wide counters ride on the initiator.
fn block_cache(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let cache = db.storage().block_cache();
    let mut stats: Vec<(&str, Option<usize>, u64)> = Vec::new();
    if node == INITIATOR {
        stats.extend([
            ("hits", None, cache.hits()),
            ("misses", None, cache.misses()),
            ("evictions", None, cache.evictions()),
            ("invalidations", None, cache.invalidations()),
            ("entries", None, cache.len() as u64),
        ]);
    }
    stats.push(("bytes", Some(node.0), cache.bytes_on(node)));
    cache_stats_batch(&stats)
}

fn dfs_objects(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let dfs = db.dfs();
    let mut rows = Rows::new(&[
        ("name", DataType::Varchar),
        ("bytes", DataType::Int64),
        ("crc32", DataType::Int64),
        ("replicas", DataType::Int64),
        ("readable", DataType::Bool),
    ]);
    for name in initiator_only(node, || dfs.list()) {
        rows.push(vec![
            name.as_str().into(),
            int(dfs.size_of(&name).unwrap_or(0)),
            int(dfs.checksum_of(&name).unwrap_or(0) as u64),
            int(dfs.replicas_of(&name).len() as u64),
            dfs.is_readable(&name).into(),
        ])?;
    }
    rows.finish()
}

// ------------------------------------------- data-collector views of history

/// Each history entry's metric deltas, on the node each belongs to:
/// `metrics`' row after the entry's tick, without p999.
fn dc_metrics_by_tick(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(&[&TICK_COLS[..], &METRIC_COLS[..7]].concat());
    for r in db.monitor().history().snapshot() {
        for (key, value) in r.metrics_delta.iter() {
            if owns(node, key.node) {
                let mut row = tick_row(&r);
                row.extend(metric_row(key, value).into_iter().take(7));
                rows.push(row)?;
            }
        }
    }
    rows.finish()
}

/// Each history entry's ledger readings on the node, summed over the
/// entry's phases (`vft db` and `vft r` for a transfer). Cache occupancy is
/// not here: `block_cache` reports it live.
fn dc_resource_usage(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(
        &[
            &TICK_COLS[..],
            &[
                ("node", DataType::Int64),
                ("sim_us", DataType::Float64),
                ("cpu_core_ns", DataType::Float64),
                ("disk_read_bytes", DataType::Int64),
                ("disk_write_bytes", DataType::Int64),
                ("net_in_bytes", DataType::Int64),
                ("net_out_bytes", DataType::Int64),
            ],
        ]
        .concat(),
    );
    for r in db.monitor().history().snapshot() {
        let (mut secs, mut u, mut ran) = (0.0, NodeUsage::default(), false);
        for (_, n) in node_phases(&r, node) {
            (secs, ran) = (secs + n.duration_secs, true);
            u.merge(&n.usage);
        }
        if ran {
            let mut row = tick_row(&r);
            row.extend([
                int(node.0 as u64),
                (secs * 1e6).into(),
                u.cpu_core_ns.into(),
                int(u.disk_read_bytes + u.disk_cached_read_bytes),
                int(u.disk_write_bytes),
                int(u.net_in_bytes),
                int(u.net_out_bytes),
            ]);
            rows.push(row)?;
        }
    }
    rows.finish()
}

/// Each history entry with the exact p50/p90/p99 of the wall times of the
/// retained entries up to it (nearest rank).
fn dc_query_summaries(db: &VerticaDb, node: NodeId) -> Result<Batch> {
    let mut rows = Rows::new(
        &[
            &TICK_COLS[..],
            &[
                ("label", DataType::Varchar),
                ("status", DataType::Varchar),
                ("rows", DataType::Int64),
                ("bytes", DataType::Int64),
                ("sim_us", DataType::Float64),
                ("wall_us", DataType::Float64),
                ("p50_us", DataType::Float64),
                ("p90_us", DataType::Float64),
                ("p99_us", DataType::Float64),
            ],
        ]
        .concat(),
    );
    let mut walls: Vec<u64> = Vec::new();
    for r in initiator_only(node, || db.monitor().history().snapshot()) {
        walls.insert(walls.partition_point(|&w| w < r.wall_ns), r.wall_ns);
        let rank = |q: f64| (q * walls.len() as f64).ceil() as usize;
        let pct = |q: f64| us(walls[rank(q).clamp(1, walls.len()) - 1]);
        let mut row = tick_row(&r);
        row.extend([
            r.sql.into(),
            r.status.into(),
            int(r.rows),
            int(r.bytes),
            (r.sim_secs * 1e6).into(),
            us(r.wall_ns),
            pct(0.5),
            pct(0.9),
            pct(0.99),
        ]);
        rows.push(row)?;
    }
    rows.finish()
}

// ----------------------------------------------------------------- PROFILE

/// The result batch of `PROFILE <statement>`: the inner statement's
/// per-node phase rows, its metric deltas, then its operator section — per
/// operator per node one row of each of rows in, rows out, bytes out and
/// wall µs, named `<path id> <EXPLAIN label>` (the six columns do not widen)
/// — every row stamped with the inner statement's query id.
pub fn profile_batch(record: &QueryRecord) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("query_id", DataType::Int64),
        ("section", DataType::Varchar),
        ("name", DataType::Varchar),
        ("node", DataType::Int64),
        ("value", DataType::Float64),
        ("unit", DataType::Varchar),
    ]);
    // One row of section `s`: what `name` measured on `node`, `v` in `u`.
    let qid = int(record.id);
    let row = |s: &str, name: &str, node: Value, v: f64, u: &str| {
        vec![qid.clone(), s.into(), name.into(), node, v.into(), u.into()]
    };
    for phase in &record.phases {
        for n in &phase.nodes {
            let (node, sim_us) = (int(n.node as u64), n.duration_secs * 1e6);
            rows.push(row("phase", &phase.name, node, sim_us, "sim_us"))?;
        }
    }
    for (key, value) in record.metrics_delta.iter() {
        let (section, v) = kind_value(value);
        let unit = match value {
            MetricValue::Counter(_) => "count",
            MetricValue::Gauge(_) => "level",
            MetricValue::Histogram(_) => "events",
        };
        rows.push(row(section, &key.name, opt_node(key.node), v, unit))?;
        // Histograms the query touched additionally report their tail: one
        // p50 and one p99 row each, extracted from the windowed delta (so
        // the percentiles describe *this* statement's observations only).
        if let MetricValue::Histogram(h) = value {
            for (unit, p) in [("p50", h.p50()), ("p99", h.p99())] {
                rows.push(row("percentile", &key.name, opt_node(key.node), p, unit))?;
            }
        }
    }
    for (label, a) in record.operators.rows() {
        let name = format!("{} {label}", a.path_id);
        let measures = [
            ("rows_in", a.rows_in as f64),
            ("rows_out", a.rows_out as f64),
            ("bytes_out", a.bytes_out as f64),
            ("wall_us", a.wall_ns as f64 / 1e3),
        ];
        for (unit, v) in measures {
            rows.push(row("operator", &name, int(a.node as u64), v, unit))?;
        }
    }
    rows.finish()
}

// ------------------------------------------------------------------- TRACE

/// The result batch of `TRACE <statement>`: one row per span the inner
/// statement's execution closed, in open order — the flattened trace tree
/// (`parent_id` links rows; `node` shows where the work ran).
pub fn trace_batch(spans: &[SpanRecord]) -> Result<Batch> {
    let mut rows = Rows::new(&[
        ("span_id", DataType::Int64),
        ("parent_id", DataType::Int64),
        ("query_id", DataType::Int64),
        ("name", DataType::Varchar),
        ("node", DataType::Int64),
        ("tid", DataType::Int64),
        ("start_ms", DataType::Float64),
        ("wall_ms", DataType::Float64),
        ("sim_us", DataType::Float64),
        ("fields", DataType::Varchar),
    ]);
    for s in spans {
        rows.push(vec![
            int(s.id),
            int(s.parent),
            int(s.query_id),
            s.name.as_str().into(),
            opt_node(s.node),
            int(s.tid),
            (s.start_ns as f64 / 1e6).into(),
            (s.wall_ns as f64 / 1e6).into(),
            (s.sim_secs * 1e6).into(),
            span_fields(s).into(),
        ])?;
    }
    rows.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn record(id: u64) -> QueryRecord {
        QueryRecord {
            id,
            trigger: "statement",
            sql: format!("SELECT {id}"),
            status: "complete".to_string(),
            rows: 1,
            bytes: 8,
            ..QueryRecord::default()
        }
    }

    #[test]
    fn schema_prefix_resolution() {
        assert_eq!(v_monitor_table("v_monitor.metrics"), Some("metrics"));
        assert_eq!(v_monitor_table("V_MONITOR.Spans"), Some("Spans"));
        assert_eq!(v_monitor_table("public.t"), None);
        assert_eq!(v_monitor_table("metrics"), None);
    }

    #[test]
    fn history_ring_evicts_and_counts() {
        let before = vdr_obs::global().metrics().snapshot();
        let h = QueryHistory::with_capacity(4);
        for i in 1..=10 {
            h.record(record(i));
        }
        assert_eq!(h.len(), 4);
        let ids: Vec<u64> = h.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10], "oldest evicted first");
        let seqs: Vec<u64> = h.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "record stamps the sequence");
        let diff = vdr_obs::global().metrics().snapshot().diff(&before);
        assert_eq!(diff.counter_total("obs.query_history.evicted"), 6);
    }

    #[test]
    fn a_row_of_the_wrong_width_is_an_error() {
        let mut rows = Rows::new(&[("a", DataType::Int64), ("b", DataType::Int64)]);
        rows.push(vec![int(1), int(2)]).unwrap();
        let err = rows.push(vec![int(3)]).unwrap_err();
        assert!(err.to_string().contains("1 values for 2 columns"), "{err}");
        assert_eq!(rows.finish().unwrap().num_rows(), 1);
    }

    #[test]
    fn profile_batch_stamps_query_id() {
        let mut r = record(77);
        r.metrics_delta
            .insert("scan.cache.miss", Some(1), MetricValue::Counter(3));
        let batch = profile_batch(&r).unwrap();
        assert_eq!(batch.num_rows(), 1);
        assert_eq!(batch.row(0)[0], Value::Int64(77));
        assert_eq!(batch.row(0)[2], Value::Varchar("scan.cache.miss".into()));
        assert_eq!(batch.row(0)[4], Value::Float64(3.0));
    }

    #[test]
    fn profile_batch_appends_percentile_rows_for_histograms() {
        let reg = vdr_obs::MetricsRegistry::new();
        for v in [1.0, 2.0, 4.0, 64.0] {
            reg.observe("exec.scan_ms", None, v);
        }
        let mut r = record(5);
        r.metrics_delta = reg.snapshot();
        let batch = profile_batch(&r).unwrap();
        // 1 histogram row + p50 + p99.
        assert_eq!(batch.num_rows(), 3);
        let units: Vec<Value> = (0..3).map(|i| batch.row(i)[5].clone()).collect();
        assert!(units.contains(&Value::Varchar("p50".into())));
        assert!(units.contains(&Value::Varchar("p99".into())));
        // The p99 estimate is near the max observation (within its bucket).
        let p99 = (0..3)
            .find(|&i| batch.row(i)[5] == Value::Varchar("p99".into()))
            .map(|i| batch.row(i)[4].clone())
            .unwrap();
        let Value::Float64(p99) = p99 else {
            panic!("p99 not a float")
        };
        assert!((60.0..=64.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn slow_requests_ring_records_over_threshold_statements() {
        let m = Monitor::new();
        assert_eq!(m.slow_threshold_ns(), DEFAULT_SLOW_THRESHOLD_NS);
        m.set_slow_threshold_ns(1);
        let mut r = record(9);
        r.wall_ns = 5_000_000;
        m.record_slow(&r, m.slow_threshold_ns());
        let slow = m.slow_requests();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].id, 9);
        assert_eq!(slow[0].threshold_ns, 1);
        // The ring is bounded.
        for i in 0..SLOW_REQUESTS_CAPACITY + 5 {
            m.record_slow(&record(i as u64 + 100), 1);
        }
        assert_eq!(m.slow_requests().len(), SLOW_REQUESTS_CAPACITY);
    }

    #[test]
    fn trace_batch_flattens_span_records() {
        let sink = vdr_obs::TraceSink::new();
        {
            let mut root = sink.span("exec.select");
            root.set_query_id(3);
            let mut child = sink.span("exec.scan");
            child.set_query_id(3);
            child.set_node(1);
            child.record("rows", 10);
        }
        let spans = sink.snapshot();
        let batch = trace_batch(&spans).unwrap();
        assert_eq!(batch.num_rows(), 2);
        // Rows are in open order: root first.
        assert_eq!(batch.row(0)[3], Value::Varchar("exec.select".into()));
        assert_eq!(batch.row(1)[3], Value::Varchar("exec.scan".into()));
        assert_eq!(batch.row(1)[4], Value::Int64(1));
        assert_eq!(batch.row(1)[1], batch.row(0)[0], "parent links to root");
        assert_eq!(batch.row(1)[9], Value::Varchar("rows=10".into()));
    }
}
