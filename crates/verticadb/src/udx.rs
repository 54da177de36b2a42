//! The user-defined transform function (UDx) framework.
//!
//! Vertica exposes extension points as UDxs running inside the query engine:
//! the paper implements `ExportToDistributedR` (Section 3.1) and the
//! prediction functions (`KmeansPredict`, `GlmPredict`, Section 5) this way.
//! "Vertica spawns multiple instances of user-defined functions (UDFs) to
//! extract data from its columnar storage. UDFs on each database node read a
//! unique segment of the table stored on that node."
//!
//! A [`TransformFunction`] sees one instance's share of a node's rows and
//! emits output batches: under `PARTITION BEST` whole batches (over a scan,
//! a strided share of the node's containers), under `PARTITION BY` the rows
//! whose routing column hashes to it. The planner (`plan.rs`) decides how
//! many instances to spawn per node (`PARTITION BEST` is resource-aware:
//! it uses the profile's export-lane count, bounded by available containers).

use crate::dfs::Dfs;
use crate::error::{DbError, Result};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vdr_cluster::{NodeId, PhaseRecorder, SimCluster};
use vdr_columnar::{Batch, Schema};

/// Execution context handed to each UDx instance.
pub struct UdxContext<'a> {
    /// The database node this instance runs on.
    pub node: NodeId,
    /// This instance's index on its node (`0..instances_per_node`).
    pub instance: usize,
    /// Number of instances spawned per node for this invocation.
    pub instances_per_node: usize,
    /// `USING PARAMETERS` key/value pairs (keys lowercased).
    pub params: &'a BTreeMap<String, String>,
    /// The database's distributed file system (model blobs live here).
    pub dfs: &'a Dfs,
    /// The cluster, for functions that open network streams (VFT export).
    pub cluster: &'a SimCluster,
    /// The active cost-ledger phase.
    pub rec: &'a Arc<PhaseRecorder>,
}

impl UdxContext<'_> {
    /// Fetch a required parameter.
    pub fn param(&self, key: &str) -> Result<&str> {
        self.params
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| DbError::Plan(format!("missing required parameter '{key}'")))
    }

    /// Fetch an optional parameter parsed as `T`.
    pub fn param_as<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>> {
        match self.params.get(key) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
                DbError::Plan(format!("parameter '{key}'='{raw}' has the wrong type"))
            }),
        }
    }
}

/// A user-defined transform function, invoked as
/// `SELECT f(cols USING PARAMETERS …) OVER (PARTITION …) FROM t`.
pub trait TransformFunction: Send + Sync {
    /// The SQL name this function registers under (matched
    /// case-insensitively).
    fn name(&self) -> &str;

    /// Output schema given the input (projected) schema and parameters.
    fn output_schema(&self, input: &Schema, params: &BTreeMap<String, String>) -> Result<Schema>;

    /// Process this instance's share of the data. `input` holds the
    /// evaluated arguments of the rows dealt to the instance, one batch per
    /// batch of the node's pipeline; emit zero or more output batches via
    /// `emit`.
    fn process_partition(
        &self,
        ctx: &UdxContext<'_>,
        input: Vec<Batch>,
        emit: &mut dyn FnMut(Batch),
    ) -> Result<()>;

    /// Downcasting hook: lets an installer detect that a function of this
    /// name is already registered and share its state (e.g. the export
    /// hub) instead of replacing it. Implement as `self`.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Case-insensitive name → function registry.
#[derive(Default)]
pub struct UdxRegistry {
    fns: RwLock<HashMap<String, Arc<dyn TransformFunction>>>,
}

impl UdxRegistry {
    pub fn new() -> Self {
        UdxRegistry::default()
    }

    /// Register a transform function. Re-registering a name replaces the
    /// previous implementation (Vertica's CREATE OR REPLACE FUNCTION).
    pub fn register(&self, f: Arc<dyn TransformFunction>) {
        self.fns.write().insert(f.name().to_ascii_lowercase(), f);
    }

    pub fn get(&self, name: &str) -> Result<Arc<dyn TransformFunction>> {
        self.fns
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::Plan(format!("unknown transform function '{name}'")))
    }

    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.fns.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdr_columnar::{Column, DataType};

    /// A toy transform that doubles an integer column.
    struct Doubler;

    impl TransformFunction for Doubler {
        fn name(&self) -> &str {
            "Doubler"
        }

        fn output_schema(
            &self,
            _input: &Schema,
            _params: &BTreeMap<String, String>,
        ) -> Result<Schema> {
            Ok(Schema::of(&[("doubled", DataType::Int64)]))
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn process_partition(
            &self,
            _ctx: &UdxContext<'_>,
            input: Vec<Batch>,
            emit: &mut dyn FnMut(Batch),
        ) -> Result<()> {
            for batch in input {
                let data: Vec<i64> = batch
                    .column(0)
                    .i64_data()
                    .ok_or_else(|| DbError::Exec("expected integers".into()))?
                    .iter()
                    .map(|v| v * 2)
                    .collect();
                emit(Batch::new(
                    Schema::of(&[("doubled", DataType::Int64)]),
                    vec![Column::from_i64(data)],
                )?);
            }
            Ok(())
        }
    }

    #[test]
    fn registry_lookup_is_case_insensitive() {
        let reg = UdxRegistry::new();
        reg.register(Arc::new(Doubler));
        assert!(reg.get("doubler").is_ok());
        assert!(reg.get("DOUBLER").is_ok());
        assert!(reg.get("nope").is_err());
        assert_eq!(reg.names(), vec!["doubler"]);
    }

    #[test]
    fn context_param_helpers() {
        let cluster = SimCluster::for_tests(1);
        let dfs = Dfs::new(cluster.clone(), 1);
        let rec = Arc::new(PhaseRecorder::new(
            "t",
            vdr_cluster::PhaseKind::Sequential,
            1,
        ));
        let mut params = BTreeMap::new();
        params.insert("model".to_string(), "m1".to_string());
        params.insert("k".to_string(), "5".to_string());
        let ctx = UdxContext {
            node: NodeId(0),
            instance: 0,
            instances_per_node: 1,
            params: &params,
            dfs: &dfs,
            cluster: &cluster,
            rec: &rec,
        };
        assert_eq!(ctx.param("model").unwrap(), "m1");
        assert!(ctx.param("missing").is_err());
        assert_eq!(ctx.param_as::<usize>("k").unwrap(), Some(5));
        assert_eq!(ctx.param_as::<usize>("absent").unwrap(), None);
        assert!(ctx.param_as::<usize>("model").is_err());
    }
}
