//! The polystore catalog: tables, knowledge bases, image stores, models.

use cx_embed::{EmbeddingModel, ModelRegistry};
use cx_kb::KnowledgeBase;
use cx_storage::{Error, Result, SystemTableSource, Table, TableStats};
use cx_vision::{ImageStore, ObjectDetector};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cap on sampled values kept per string column for semantic selectivity
/// estimation.
const SAMPLE_CAP: usize = 256;

/// The engine's source registry.
///
/// Knowledge bases and image stores register alongside plain tables: their
/// relational exports become scannable sources (`<name>` for the KB's
/// label/category relation, `<name>.meta` / `<name>.detections` for image
/// stores), which is how the engine realizes the paper's polystore view —
/// one declarative surface over heterogeneous sources.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    stats: RwLock<HashMap<String, TableStats>>,
    samples: RwLock<HashMap<(String, String), Vec<String>>>,
    kbs: RwLock<HashMap<String, Arc<KnowledgeBase>>>,
    image_stores: RwLock<HashMap<String, Arc<ImageStore>>>,
    system_tables: RwLock<HashMap<String, Arc<dyn SystemTableSource>>>,
    models: Arc<ModelRegistry>,
    /// Bumped on every registration (tables, KBs, images, models). Cached
    /// plans are valid only for the version they were built against:
    /// re-registering a table changes both its contents and its statistics,
    /// so a plan cache keyed on this version self-invalidates.
    version: AtomicU64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a relational table, computing statistics and string
    /// samples for the optimizer.
    pub fn register_table(&self, name: impl Into<String>, table: Table) -> Result<()> {
        let name = name.into();
        if cx_obs::is_reserved_name(&name) {
            return Err(Error::InvalidArgument(format!(
                "table name `{name}` is reserved for the cx system schema"
            )));
        }
        let stats = TableStats::compute(&table)?;
        let mut samples = Vec::new();
        for field in table.schema().fields() {
            if field.data_type == cx_storage::DataType::Utf8 {
                let col = table.column_by_name(&field.name)?;
                let values = col.utf8_values()?;
                let stride = ((values.len() / SAMPLE_CAP).max(1)) | 1;
                let sample: Vec<String> = values
                    .iter()
                    .step_by(stride)
                    .take(SAMPLE_CAP)
                    .cloned()
                    .collect();
                samples.push(((name.clone(), field.name.clone()), sample));
            }
        }
        self.stats.write().insert(name.clone(), stats);
        let mut sample_map = self.samples.write();
        for (key, sample) in samples {
            sample_map.insert(key, sample);
        }
        self.tables.write().insert(name, Arc::new(table));
        // Release pairs with the Acquire in `version()`: a reader that
        // observes the new version also observes the registration writes
        // above, so a plan tagged with a version can never have been built
        // from older catalog state than that version names.
        self.version.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// The catalog's change version (see the field docs). Acquire pairs
    /// with the Release bump in the registration paths.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Registers a knowledge base; its `(label, category)` export becomes
    /// the scannable relation `<name>`.
    pub fn register_kb(&self, name: impl Into<String>, kb: KnowledgeBase) -> Result<()> {
        let name = name.into();
        let export = kb.label_category_table()?;
        self.kbs.write().insert(name.clone(), Arc::new(kb));
        self.register_table(name, export)
    }

    /// Registers an image store: `<name>.meta` (metadata only, no model
    /// cost) and `<name>.detections` (runs `detector` over every image —
    /// the expensive path whose placement the optimizer is meant to avoid
    /// when a date filter exists; see the Figure 2 experiment).
    pub fn register_images(
        &self,
        name: impl Into<String>,
        store: ImageStore,
        detector: &ObjectDetector,
    ) -> Result<()> {
        let name = name.into();
        let meta = store.metadata_table()?;
        let detections = detector.detections_table(store.images())?;
        self.image_stores
            .write()
            .insert(name.clone(), Arc::new(store));
        self.register_table(format!("{name}.meta"), meta)?;
        self.register_table(format!("{name}.detections"), detections)
    }

    /// Registers a representation model.
    pub fn register_model(&self, model: Arc<dyn EmbeddingModel>) {
        self.models.register(model);
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Registers a live system-table source under the reserved `cx.*`
    /// schema. Re-registering the same name replaces the source (a new
    /// server over the same engine takes over its telemetry tables).
    pub fn register_system_table(&self, source: Arc<dyn SystemTableSource>) -> Result<()> {
        let name = source.name().to_string();
        if !name.starts_with("cx.") {
            return Err(Error::InvalidArgument(format!(
                "system table `{name}` must live in the reserved cx schema"
            )));
        }
        self.system_tables.write().insert(name, source);
        self.version.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Resolves a system-table source.
    pub fn system_table(&self, name: &str) -> Option<Arc<dyn SystemTableSource>> {
        self.system_tables.read().get(name).cloned()
    }

    /// Snapshot of all system-table sources (for the physical planner).
    pub fn system_tables_snapshot(&self) -> HashMap<String, Arc<dyn SystemTableSource>> {
        self.system_tables.read().clone()
    }

    /// Resolves a table.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).cloned()
    }

    /// Resolves a knowledge base.
    pub fn kb(&self, name: &str) -> Option<Arc<KnowledgeBase>> {
        self.kbs.read().get(name).cloned()
    }

    /// Resolves an image store.
    pub fn images(&self, name: &str) -> Option<Arc<ImageStore>> {
        self.image_stores.read().get(name).cloned()
    }

    /// The model registry.
    pub fn models(&self) -> &Arc<ModelRegistry> {
        &self.models
    }

    /// Statistics snapshot for the optimizer.
    pub fn stats_snapshot(&self) -> HashMap<String, TableStats> {
        self.stats.read().clone()
    }

    /// Sample snapshot for the optimizer.
    pub fn samples_snapshot(&self) -> HashMap<(String, String), Vec<String>> {
        self.samples.read().clone()
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot of all tables (for the physical planner).
    pub fn tables_snapshot(&self) -> HashMap<String, Arc<Table>> {
        self.tables.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_storage::{Column, DataType, Field, Schema};
    use cx_vision::{DetectorNoise, SyntheticImage};

    fn table() -> Table {
        Table::from_columns(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Column::from_i64(vec![1, 2]),
                Column::from_strings(["a", "b"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn register_table_collects_stats_and_samples() {
        let c = Catalog::new();
        c.register_table("t", table()).unwrap();
        assert!(c.table("t").is_some());
        let stats = c.stats_snapshot();
        assert_eq!(stats["t"].row_count, 2);
        let samples = c.samples_snapshot();
        assert_eq!(samples[&("t".to_string(), "name".to_string())].len(), 2);
        assert!(!samples.contains_key(&("t".to_string(), "id".to_string())));
    }

    #[test]
    fn version_bumps_on_every_registration() {
        let c = Catalog::new();
        assert_eq!(c.version(), 0);
        c.register_table("t", table()).unwrap();
        let v1 = c.version();
        assert!(v1 > 0);
        // Re-registering (contents/stats change) bumps again.
        c.register_table("t", table()).unwrap();
        assert!(c.version() > v1);
        let v2 = c.version();
        c.register_model(Arc::new(cx_embed::HashNGramModel::new(1)));
        assert!(c.version() > v2);
        let v3 = c.version();
        let mut kb = KnowledgeBase::new();
        kb.assert_is_a("boots", "shoes");
        c.register_kb("kb", kb).unwrap();
        assert!(c.version() > v3);
    }

    #[derive(Debug)]
    struct OneRow {
        schema: Arc<cx_storage::Schema>,
    }

    impl OneRow {
        fn new() -> Self {
            OneRow {
                schema: Arc::new(Schema::new(vec![Field::required("v", DataType::Int64)])),
            }
        }
    }

    impl SystemTableSource for OneRow {
        fn name(&self) -> &str {
            "cx.onerow"
        }
        fn schema(&self) -> Arc<cx_storage::Schema> {
            self.schema.clone()
        }
        fn snapshot(&self) -> Result<Vec<cx_storage::Chunk>> {
            Ok(vec![cx_storage::Chunk::new(
                self.schema.clone(),
                vec![Column::from_i64(vec![7])],
            )?])
        }
    }

    #[test]
    fn reserved_schema_is_enforced() {
        let c = Catalog::new();
        let err = c.register_table("cx.queries", table()).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
        assert!(c.register_system_table(Arc::new(OneRow::new())).is_ok());
        assert!(c.system_table("cx.onerow").is_some());
        // System tables live in their own namespace, not the user one.
        assert!(c.table("cx.onerow").is_none());
        // A source outside the reserved schema is rejected.
        #[derive(Debug)]
        struct BadName(Arc<cx_storage::Schema>);
        impl SystemTableSource for BadName {
            fn name(&self) -> &str {
                "products"
            }
            fn schema(&self) -> Arc<cx_storage::Schema> {
                self.0.clone()
            }
            fn snapshot(&self) -> Result<Vec<cx_storage::Chunk>> {
                Ok(vec![])
            }
        }
        let bad = BadName(Arc::new(Schema::new(vec![Field::required(
            "v",
            DataType::Int64,
        )])));
        assert!(c.register_system_table(Arc::new(bad)).is_err());
    }

    #[test]
    fn system_table_registration_bumps_version() {
        let c = Catalog::new();
        let v0 = c.version();
        c.register_system_table(Arc::new(OneRow::new())).unwrap();
        assert!(c.version() > v0);
    }

    #[test]
    fn register_kb_exposes_relation() {
        let c = Catalog::new();
        let mut kb = KnowledgeBase::new();
        kb.assert_is_a("boots", "shoes");
        c.register_kb("kb", kb).unwrap();
        assert!(c.kb("kb").is_some());
        let t = c.table("kb").unwrap();
        assert_eq!(t.schema().names(), vec!["label", "category"]);
    }

    #[test]
    fn register_images_exposes_meta_and_detections() {
        let c = Catalog::new();
        let mut store = ImageStore::new();
        store.add(SyntheticImage {
            id: 1,
            date_taken: 1000,
            source: "review".into(),
            latent_objects: vec!["boots".into()],
        });
        let det = ObjectDetector::with_noise(
            "d",
            1,
            DetectorNoise {
                miss_rate: 0.0,
                spurious_rate: 0.0,
            },
        );
        c.register_images("imgs", store, &det).unwrap();
        assert!(c.table("imgs.meta").is_some());
        let d = c.table("imgs.detections").unwrap();
        assert_eq!(d.num_rows(), 1);
        assert_eq!(det.invocations(), 1);
        assert_eq!(
            c.table_names(),
            vec!["imgs.detections".to_string(), "imgs.meta".to_string()]
        );
    }
}
