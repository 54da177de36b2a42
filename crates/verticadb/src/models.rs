//! The model store: serialized models in the DFS plus the `R_Models`
//! metadata table (Figure 10).
//!
//! "While models are stored in the DFS, meta-data related to the models are
//! stored in a database table called R_Models. … Models can be assigned
//! security permissions to grant access or modification rights to database
//! users." (Section 5)

use crate::dfs::Dfs;
use crate::error::{DbError, Result};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vdr_cluster::{NodeId, PhaseRecorder};
use vdr_columnar::{Batch, Column, DataType, Schema};

/// One row of `R_Models`.
struct ModelMeta {
    name: String,
    owner: String,
    /// Model family, e.g. "kmeans", "regression", "randomforest".
    model_type: String,
    /// Serialized size, bytes.
    size: u64,
    description: String,
    /// Users granted access (the owner always has access).
    grants: BTreeSet<String>,
}

/// Model blobs in the DFS + metadata + permissions.
pub struct ModelStore {
    dfs: Arc<Dfs>,
    meta: RwLock<BTreeMap<String, ModelMeta>>,
}

impl ModelStore {
    pub fn new(dfs: Arc<Dfs>) -> Self {
        ModelStore {
            dfs,
            meta: RwLock::new(BTreeMap::new()),
        }
    }

    fn blob_name(model: &str) -> String {
        format!("models/{model}")
    }

    /// Deploy (save) a model: write the blob to the DFS and the metadata row
    /// to `R_Models`. Overwrites an existing model only if `owner` owns it.
    #[allow(clippy::too_many_arguments)]
    pub fn save(
        &self,
        src: NodeId,
        name: &str,
        owner: &str,
        model_type: &str,
        description: &str,
        blob: bytes::Bytes,
        rec: &PhaseRecorder,
    ) -> Result<()> {
        {
            let meta = self.meta.read();
            if let Some(existing) = meta.get(name) {
                if existing.owner != owner {
                    return Err(DbError::Model(format!(
                        "model '{name}' is owned by '{}'",
                        existing.owner
                    )));
                }
            }
        }
        let size = blob.len() as u64;
        self.dfs.write(src, &Self::blob_name(name), blob, rec)?;
        self.meta.write().insert(
            name.to_string(),
            ModelMeta {
                name: name.to_string(),
                owner: owner.to_string(),
                model_type: model_type.to_string(),
                size,
                description: description.to_string(),
                grants: BTreeSet::new(),
            },
        );
        Ok(())
    }

    /// Fetch a model blob as seen from `reader_node` (prediction UDx
    /// instances call this on every node), enforcing permissions.
    pub fn load(
        &self,
        reader_node: NodeId,
        name: &str,
        user: &str,
        rec: &PhaseRecorder,
    ) -> Result<bytes::Bytes> {
        self.check_access(name, user)?;
        self.dfs.read(reader_node, &Self::blob_name(name), rec)
    }

    /// Grant `user` read access to `name` (owner-only operation).
    pub fn grant(&self, name: &str, owner: &str, user: &str) -> Result<()> {
        let mut meta = self.meta.write();
        let m = meta
            .get_mut(name)
            .ok_or_else(|| DbError::Model(format!("model '{name}' does not exist")))?;
        if m.owner != owner {
            return Err(DbError::Model(format!(
                "only owner '{}' may grant access to '{name}'",
                m.owner
            )));
        }
        m.grants.insert(user.to_string());
        Ok(())
    }

    fn check_access(&self, name: &str, user: &str) -> Result<()> {
        let meta = self.meta.read();
        let m = meta
            .get(name)
            .ok_or_else(|| DbError::Model(format!("model '{name}' does not exist")))?;
        if m.owner == user || m.grants.contains(user) || user == "dbadmin" {
            Ok(())
        } else {
            Err(DbError::Model(format!(
                "user '{user}' lacks access to model '{name}'"
            )))
        }
    }

    pub fn drop_model(&self, name: &str, user: &str) -> Result<()> {
        {
            let meta = self.meta.read();
            let m = meta
                .get(name)
                .ok_or_else(|| DbError::Model(format!("model '{name}' does not exist")))?;
            if m.owner != user && user != "dbadmin" {
                return Err(DbError::Model(format!(
                    "user '{user}' may not drop model '{name}'"
                )));
            }
        }
        self.dfs.delete(&Self::blob_name(name))?;
        self.meta.write().remove(name);
        Ok(())
    }

    pub fn exists(&self, name: &str) -> bool {
        self.meta.read().contains_key(name)
    }

    /// The `R_Models` table contents (Figure 10): model | owner | type |
    /// size | description.
    pub fn as_batch(&self) -> Batch {
        let meta = self.meta.read();
        let schema = Schema::of(&[
            ("model", DataType::Varchar),
            ("owner", DataType::Varchar),
            ("type", DataType::Varchar),
            ("size", DataType::Int64),
            ("description", DataType::Varchar),
        ]);
        let mut names = Vec::new();
        let mut owners = Vec::new();
        let mut types = Vec::new();
        let mut sizes = Vec::new();
        let mut descs = Vec::new();
        for m in meta.values() {
            names.push(m.name.clone());
            owners.push(m.owner.clone());
            types.push(m.model_type.clone());
            sizes.push(m.size as i64);
            descs.push(m.description.clone());
        }
        Batch::new(
            schema,
            vec![
                Column::from_strings(names),
                Column::from_strings(owners),
                Column::from_strings(types),
                Column::from_i64(sizes),
                Column::from_strings(descs),
            ],
        )
        .expect("columns constructed with equal lengths")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use vdr_cluster::{PhaseKind, SimCluster};
    use vdr_columnar::Value;

    /// `name`'s row of `R_Models`, read the way `SELECT * FROM R_Models` does.
    fn r_models_row(store: &ModelStore, name: &str) -> Vec<Value> {
        let table = store.as_batch();
        let mut rows = (0..table.num_rows()).map(|r| table.row(r));
        rows.find(|row| row[0] == Value::Varchar(name.into()))
            .expect("model listed in R_Models")
    }

    fn setup() -> (ModelStore, PhaseRecorder) {
        let cluster = SimCluster::for_tests(3);
        let dfs = Arc::new(Dfs::new(cluster, 2));
        (
            ModelStore::new(dfs),
            PhaseRecorder::new("t", PhaseKind::Sequential, 3),
        )
    }

    #[test]
    fn save_load_roundtrip_with_metadata() {
        let (store, rec) = setup();
        store
            .save(
                NodeId(0),
                "model1",
                "X",
                "kmeans",
                "clustering",
                Bytes::from_static(b"centers"),
                &rec,
            )
            .unwrap();
        let blob = store.load(NodeId(2), "model1", "X", &rec).unwrap();
        assert_eq!(blob, Bytes::from_static(b"centers"));
        let row = r_models_row(&store, "model1");
        assert_eq!(row[1], Value::Varchar("X".into()));
        assert_eq!(row[2], Value::Varchar("kmeans".into()));
        assert_eq!(row[3], Value::Int64(7));
    }

    #[test]
    fn permissions_enforced() {
        let (store, rec) = setup();
        store
            .save(
                NodeId(0),
                "m",
                "alice",
                "regression",
                "",
                Bytes::from_static(b"c"),
                &rec,
            )
            .unwrap();
        // Bob can't read, drop, or grant.
        assert!(store.load(NodeId(0), "m", "bob", &rec).is_err());
        assert!(store.drop_model("m", "bob").is_err());
        assert!(store.grant("m", "bob", "bob").is_err());
        // Until alice grants.
        store.grant("m", "alice", "bob").unwrap();
        assert!(store.load(NodeId(0), "m", "bob", &rec).is_ok());
        // dbadmin bypasses.
        assert!(store.load(NodeId(0), "m", "dbadmin", &rec).is_ok());
        // Ownership protects overwrite.
        assert!(store
            .save(
                NodeId(0),
                "m",
                "bob",
                "kmeans",
                "",
                Bytes::from_static(b"x"),
                &rec
            )
            .is_err());
    }

    #[test]
    fn r_models_table_matches_figure_10() {
        let (store, rec) = setup();
        store
            .save(
                NodeId(0),
                "model1",
                "X",
                "kmeans",
                "clustering",
                Bytes::from(vec![0; 100]),
                &rec,
            )
            .unwrap();
        store
            .save(
                NodeId(0),
                "model2",
                "Y",
                "regression",
                "forecasting",
                Bytes::from(vec![0; 20]),
                &rec,
            )
            .unwrap();
        let batch = store.as_batch();
        assert_eq!(
            batch.schema().names(),
            vec!["model", "owner", "type", "size", "description"]
        );
        assert_eq!(batch.num_rows(), 2);
        assert_eq!(
            batch.row(0)[0],
            vdr_columnar::Value::Varchar("model1".into())
        );
        assert_eq!(batch.row(0)[3], vdr_columnar::Value::Int64(100));
        assert_eq!(
            batch.row(1)[2],
            vdr_columnar::Value::Varchar("regression".into())
        );
    }

    #[test]
    fn drop_model_removes_blob_and_meta() {
        let (store, rec) = setup();
        store
            .save(
                NodeId(0),
                "m",
                "u",
                "kmeans",
                "",
                Bytes::from_static(b"b"),
                &rec,
            )
            .unwrap();
        store.drop_model("m", "u").unwrap();
        assert!(!store.exists("m"));
        assert!(store.load(NodeId(0), "m", "u", &rec).is_err());
        assert!(store.drop_model("m", "u").is_err());
    }

    #[test]
    fn owner_can_overwrite_own_model() {
        let (store, rec) = setup();
        store
            .save(
                NodeId(0),
                "m",
                "u",
                "kmeans",
                "v1",
                Bytes::from_static(b"1"),
                &rec,
            )
            .unwrap();
        store
            .save(
                NodeId(0),
                "m",
                "u",
                "kmeans",
                "v2",
                Bytes::from_static(b"22"),
                &rec,
            )
            .unwrap();
        let row = r_models_row(&store, "m");
        assert_eq!(row[3], Value::Int64(2));
        assert_eq!(row[4], Value::Varchar("v2".into()));
    }
}
