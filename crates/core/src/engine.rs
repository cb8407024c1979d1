//! The engine: statistics → optimization → physical planning → execution.

use crate::catalog::Catalog;
use crate::query::Query;
use cx_embed::{EmbeddingCache, EmbeddingModel};
use cx_exec::physical::display_physical;
use cx_exec::{collect_table, PhysicalOperator};
use cx_kb::KnowledgeBase;
use cx_optimizer::{
    create_physical_plan, estimate_cost, estimate_rows, Optimizer, OptimizerConfig,
    OptimizerContext, PhysicalPlannerEnv,
};
use cx_storage::{Result, Schema, Table};
use cx_vision::{ImageStore, ObjectDetector};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Optimizer feature switches (Figure 4's ladder toggles live here).
    pub optimizer: OptimizerConfig,
    /// Entry bound for the per-model embedding caches (`None` =
    /// unbounded, the experiment-friendly default). Long-lived servers set
    /// this so the caches CLOCK-evict instead of growing without limit.
    pub embedding_cache_capacity: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            optimizer: OptimizerConfig::all(),
            embedding_cache_capacity: None,
        }
    }
}

/// The outcome of executing a query.
pub struct QueryResult {
    /// Materialized result rows.
    pub table: Table,
    /// Wall time of optimize + plan + execute.
    pub elapsed: std::time::Duration,
    /// Names of optimizer rules that fired.
    pub rules_fired: Vec<String>,
    /// Optimizer's row estimate for the result (plan-quality signal).
    pub estimated_rows: f64,
    /// Optimizer's cost estimate for the executed plan (abstract ns).
    pub estimated_cost: f64,
}

/// An optimized logical plan plus the optimizer's by-products, ready to
/// lower with [`Engine::lower_plan`] — the unit a serving layer caches.
pub struct PlannedQuery {
    /// The optimized logical plan.
    pub plan: cx_exec::logical::LogicalPlan,
    /// Names of optimizer rules that fired.
    pub rules_fired: Vec<String>,
    /// Optimizer's row estimate for the result.
    pub estimated_rows: f64,
    /// Optimizer's cost estimate (abstract ns) — also the admission-control
    /// currency of `cx_serve`.
    pub estimated_cost: f64,
}

/// The context-rich analytical engine.
pub struct Engine {
    catalog: Catalog,
    config: EngineConfig,
    /// Embedding caches shared across queries (model name → cache), so the
    /// "prefetch/warm" state persists like a buffer pool would.
    caches: RwLock<HashMap<String, Arc<EmbeddingCache>>>,
    /// Planning snapshots, one per (catalog version, config) — see
    /// [`PlanningSnapshot`]. A small set (not a single slot) so sessions
    /// running different optimizer configs concurrently don't evict each
    /// other; stale versions are dropped when a newer one is built.
    snapshots: RwLock<Vec<Arc<PlanningSnapshot>>>,
}

/// Everything planning reads, captured once per (catalog version,
/// optimizer config): the optimizer context (stats, samples, the shared
/// embedding caches, the selectivity memo) and the tables lowering binds
/// scans to. Building one clones the catalog's stats and samples — fine
/// once per catalog version, wasteful per statement — so optimization,
/// re-costing and lowering all read the resident snapshot, and a
/// statement lowered on every execution pays only the tree walk.
struct PlanningSnapshot {
    version: u64,
    ctx: OptimizerContext,
    env: PhysicalPlannerEnv,
}

/// Most (catalog version, config) planning snapshots kept resident.
const SNAPSHOT_CAPACITY: usize = 8;

impl Engine {
    /// An engine with `config`.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            catalog: Catalog::new(),
            config,
            caches: RwLock::new(HashMap::new()),
            snapshots: RwLock::new(Vec::new()),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Replaces the optimizer configuration (between experiment runs).
    pub fn set_optimizer_config(&mut self, config: OptimizerConfig) {
        self.config.optimizer = config;
    }

    /// Registers a relational table.
    pub fn register_table(&self, name: impl Into<String>, table: Table) -> Result<()> {
        self.catalog.register_table(name, table)
    }

    /// Registers a knowledge base (exported as relation `<name>`).
    pub fn register_kb(&self, name: impl Into<String>, kb: KnowledgeBase) -> Result<()> {
        self.catalog.register_kb(name, kb)
    }

    /// Registers an image store (`<name>.meta`, `<name>.detections`).
    pub fn register_images(
        &self,
        name: impl Into<String>,
        store: ImageStore,
        detector: &ObjectDetector,
    ) -> Result<()> {
        self.catalog.register_images(name, store, detector)
    }

    /// Registers a representation model.
    pub fn register_model(&self, model: Arc<dyn EmbeddingModel>) {
        self.catalog.register_model(model);
    }

    /// Starts a query over table `name` (a registered user table or a
    /// reserved `cx.*` system table).
    pub fn table(&self, name: &str) -> Result<Query> {
        if let Some(table) = self.catalog.table(name) {
            let schema = Schema::new(table.schema().fields().to_vec());
            return Ok(Query::scan(name, schema));
        }
        if let Some(sys) = self.catalog.system_table(name) {
            let schema = Schema::new(sys.schema().fields().to_vec());
            return Ok(Query::scan(name, schema));
        }
        Err(cx_storage::Error::ColumnNotFound(format!("table {name}")))
    }

    /// The shared embedding cache for `model` (useful for prefetch
    /// experiments and hit-rate inspection).
    pub fn embedding_cache(&self, model: &str) -> Option<Arc<EmbeddingCache>> {
        if let Some(c) = self.caches.read().get(model) {
            return Some(c.clone());
        }
        let m = self.catalog.models().get(model)?;
        // Racing first lookups must all leave with the *resident* cache:
        // the loser of the creation race adopts the winner's instead of
        // overwriting it (an orphaned cache gets warmed but never read).
        let mut caches = self.caches.write();
        let cache = caches.entry(model.to_string()).or_insert_with(|| {
            Arc::new(match self.config.embedding_cache_capacity {
                Some(cap) => EmbeddingCache::with_capacity(m, cap),
                None => EmbeddingCache::new(m),
            })
        });
        Some(cache.clone())
    }

    /// The catalog's change version — bumped by every registration. Plans
    /// built against an older version are stale (see
    /// [`crate::Catalog::version`]).
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// The planning snapshot for the current catalog version under
    /// `config`, built on first use.
    fn snapshot(&self, config: OptimizerConfig) -> Arc<PlanningSnapshot> {
        // Read the version before building: a registration racing the
        // build leaves a snapshot at least as new as its label, never older.
        let version = self.catalog_version();
        if let Some(s) = self
            .snapshots
            .read()
            .iter()
            .find(|s| s.version == version && s.ctx.config == config)
        {
            return s.clone();
        }
        let mut ctx = OptimizerContext::new(self.catalog.models().clone(), config);
        ctx.stats = self.catalog.stats_snapshot();
        ctx.samples = self.catalog.samples_snapshot();
        // Pre-seed shared caches so execution reuses optimizer sampling
        // work and prior queries' embeddings.
        for name in self.catalog.models().names() {
            if let Some(cache) = self.embedding_cache(&name) {
                ctx.caches.insert(name, cache);
            }
        }
        let mut env = PhysicalPlannerEnv::new();
        for (name, table) in self.catalog.tables_snapshot() {
            env.register_table(name, table);
        }
        for (_, source) in self.catalog.system_tables_snapshot() {
            env.register_system_table(source);
        }
        let snapshot = Arc::new(PlanningSnapshot { version, ctx, env });
        let mut snapshots = self.snapshots.write();
        // Stale-version entries can never hit again; newest first.
        snapshots.retain(|s| s.version == version);
        snapshots.insert(0, snapshot.clone());
        snapshots.truncate(SNAPSHOT_CAPACITY);
        snapshot
    }

    /// Optimizes `query` without lowering or executing it. The returned
    /// [`PlannedQuery`] can be lowered with [`Self::lower_plan`] — a
    /// serving layer caches it and lowers it once per execution.
    pub fn optimize_query(&self, query: &Query) -> PlannedQuery {
        self.optimize_query_with(query, self.config.optimizer)
    }

    /// Like [`Self::optimize_query`], but under an explicit optimizer
    /// configuration — the hook per-session overrides (e.g. a session's
    /// own `parallelism`) use without forking the engine.
    pub fn optimize_query_with(&self, query: &Query, config: OptimizerConfig) -> PlannedQuery {
        let _span = cx_obs::span("optimize");
        let snapshot = self.snapshot(config);
        let ctx = &snapshot.ctx;
        let (plan, rules_fired) = Optimizer::new(ctx).optimize(query.plan(), ctx);
        let estimated_rows = estimate_rows(&plan, ctx);
        let estimated_cost = estimate_cost(&plan, ctx);
        PlannedQuery {
            plan,
            rules_fired,
            estimated_rows,
            estimated_cost,
        }
    }

    /// Estimates the execution cost (abstract ns) of an already-optimized
    /// plan, without re-running the optimizer. The prepared-statement path
    /// uses this at execute time: the template was optimized with
    /// placeholder slots (default selectivities), but admission control
    /// should weigh the plan with the *bound* literals, whose sampled
    /// selectivities can differ by orders of magnitude.
    pub fn estimate_plan_cost(
        &self,
        plan: &cx_exec::logical::LogicalPlan,
        config: OptimizerConfig,
    ) -> f64 {
        estimate_cost(plan, &self.snapshot(config).ctx)
    }

    /// Lowers an (optimized, parameter-free) logical plan into an
    /// executable operator tree. The tree is `Send + Sync` and
    /// re-executable: every `execute()` call re-runs it against the
    /// tables captured here.
    pub fn lower_plan(
        &self,
        plan: &cx_exec::logical::LogicalPlan,
    ) -> Result<Arc<dyn PhysicalOperator>> {
        self.lower_plan_with(plan, self.config.optimizer)
    }

    /// Like [`Self::lower_plan`], but under an explicit optimizer
    /// configuration (the one the plan was optimized with).
    pub fn lower_plan_with(
        &self,
        plan: &cx_exec::logical::LogicalPlan,
        config: OptimizerConfig,
    ) -> Result<Arc<dyn PhysicalOperator>> {
        let _span = cx_obs::span("lower");
        let snapshot = self.snapshot(config);
        create_physical_plan(plan, &snapshot.ctx, &snapshot.env)
    }

    /// Optimizes and builds the physical plan without executing (returns
    /// the operator tree plus the rule trace).
    pub fn plan(&self, query: &Query) -> Result<(Arc<dyn PhysicalOperator>, Vec<String>)> {
        let planned = self.optimize_query(query);
        Ok((self.lower_plan(&planned.plan)?, planned.rules_fired))
    }

    /// Executes `query` end to end.
    pub fn execute(&self, query: &Query) -> Result<QueryResult> {
        let start = Instant::now();
        let planned = self.optimize_query(query);
        let physical = self.lower_plan(&planned.plan)?;
        let table = collect_table(physical.as_ref())?;
        Ok(QueryResult {
            table,
            elapsed: start.elapsed(),
            rules_fired: planned.rules_fired,
            estimated_rows: planned.estimated_rows,
            estimated_cost: planned.estimated_cost,
        })
    }

    /// EXPLAIN: the logical plan, the optimized plan with the rule trace,
    /// estimates, and the physical operator tree.
    pub fn explain(&self, query: &Query) -> Result<String> {
        let planned = self.optimize_query(query);
        let physical = self.lower_plan(&planned.plan)?;
        let mut out = String::new();
        out.push_str("== logical plan ==\n");
        out.push_str(&query.plan().display_indent());
        out.push_str("== optimized plan ==\n");
        out.push_str(&planned.plan.display_indent());
        out.push_str(&format!(
            "rules fired: {}\n",
            planned.rules_fired.join(", ")
        ));
        out.push_str(&format!("estimated rows: {:.0}\n", planned.estimated_rows));
        out.push_str(&format!("estimated cost: {:.0}\n", planned.estimated_cost));
        out.push_str(&format!(
            "kernel dispatch: {}\n",
            cx_vector::simd::KernelDispatch::active().report()
        ));
        out.push_str("== physical plan ==\n");
        out.push_str(&display_physical(physical.as_ref()));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::{ClusteredTextModel, HashNGramModel};
    use cx_exec::logical::{AggFunc, AggSpec, JoinType};
    use cx_expr::{col, lit};
    use cx_storage::{Column, DataType, Field, Scalar};

    fn engine_with_data() -> Engine {
        let engine = Engine::new(EngineConfig::default());
        let specs = cx_datagen::table1_clusters();
        let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
        engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
        engine.register_model(Arc::new(HashNGramModel::new(42)));
        let products = Table::from_columns(
            Schema::new(vec![
                Field::new("product_id", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("price", DataType::Float64),
            ]),
            vec![
                Column::from_i64(vec![1, 2, 3, 4, 5]),
                Column::from_strings(["boots", "parka", "kitten", "sneakers", "coat"]),
                Column::from_f64(vec![30.0, 80.0, 10.0, 55.0, 25.0]),
            ],
        )
        .unwrap();
        engine.register_table("products", products).unwrap();

        let mut kb = KnowledgeBase::new();
        for item in ["boots", "sneakers", "oxfords"] {
            kb.assert_is_a(item, "shoes");
        }
        for item in ["parka", "coat", "windbreaker"] {
            kb.assert_is_a(item, "jacket");
        }
        kb.assert_is_a("shoes", "clothes");
        kb.assert_is_a("jacket", "clothes");
        kb.assert_is_a("kitten", "cat");
        engine.register_kb("kb", kb).unwrap();
        engine
    }

    #[test]
    fn relational_query_roundtrip() {
        let engine = engine_with_data();
        let q = engine
            .table("products")
            .unwrap()
            .filter(col("price").gt(lit(20.0)))
            .sort(&[("price", false)])
            .limit(2);
        let result = engine.execute(&q).unwrap();
        assert_eq!(result.table.num_rows(), 2);
        assert_eq!(result.table.row(0).unwrap()[1], Scalar::from("parka"));
    }

    #[test]
    fn semantic_filter_via_engine() {
        let engine = engine_with_data();
        let q = engine
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.75);
        let result = engine.execute(&q).unwrap();
        // kitten is not clothing.
        assert_eq!(result.table.num_rows(), 4);
    }

    #[test]
    fn motivating_semantic_join_with_pushdown() {
        let engine = engine_with_data();
        let kb = engine
            .table("kb")
            .unwrap()
            .filter(col("category").eq(lit("clothes")));
        let q = engine
            .table("products")
            .unwrap()
            .semantic_join(kb, "name", "label", "m", 0.9)
            .filter(col("price").gt(lit(20.0)));
        let result = engine.execute(&q).unwrap();
        assert!(result.rules_fired.iter().any(|r| r.contains("push_filter")));
        // Matching rows all satisfy the predicate and are clothing items.
        assert!(result.table.num_rows() >= 4);
        let prices = result.table.column_by_name("price").unwrap();
        for p in prices.f64_values().unwrap() {
            assert!(*p > 20.0);
        }
    }

    #[test]
    fn explain_includes_all_sections() {
        let engine = engine_with_data();
        let q = engine
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.8)
            .filter(col("price").gt(lit(20.0)));
        let s = engine.explain(&q).unwrap();
        assert!(s.contains("== logical plan =="));
        assert!(s.contains("== optimized plan =="));
        assert!(s.contains("== physical plan =="));
        assert!(s.contains("rules fired:"));
        // Pushdown moved the relational filter below the semantic one.
        let opt_section = s.split("== optimized plan ==").nth(1).unwrap();
        let filter_pos = opt_section.find("Filter: (price > 20)").unwrap();
        let sem_pos = opt_section.find("SemanticFilter").unwrap();
        assert!(
            sem_pos < filter_pos,
            "semantic filter should be above:\n{s}"
        );
    }

    #[test]
    fn aggregates_and_joins() {
        let engine = engine_with_data();
        let kb = engine.table("kb").unwrap();
        let q = engine
            .table("products")
            .unwrap()
            .join(kb, &[("name", "label")], JoinType::Inner)
            .aggregate(
                &["category"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::new(AggFunc::Avg, "price", "avg_price"),
                ],
            )
            .sort(&[("category", true)]);
        let result = engine.execute(&q).unwrap();
        assert!(result.table.num_rows() >= 2);
        assert_eq!(
            result.table.schema().names(),
            vec!["category", "n", "avg_price"]
        );
    }

    #[test]
    fn unoptimized_config_still_correct() {
        let mut engine = engine_with_data();
        let build = |engine: &Engine| {
            let kb = engine
                .table("kb")
                .unwrap()
                .filter(col("category").eq(lit("clothes")));
            engine
                .table("products")
                .unwrap()
                .semantic_join(kb, "name", "label", "m", 0.9)
                .filter(col("price").gt(lit(20.0)))
        };
        let optimized = engine.execute(&build(&engine)).unwrap();
        engine.set_optimizer_config(OptimizerConfig::none());
        let naive = engine.execute(&build(&engine)).unwrap();
        assert!(naive.rules_fired.is_empty());
        assert_eq!(optimized.table.num_rows(), naive.table.num_rows());
    }

    #[test]
    fn unknown_table_errors() {
        let engine = Engine::new(EngineConfig::default());
        assert!(engine.table("missing").is_err());
    }

    #[test]
    fn engine_is_send_sync() {
        // The serving layer shares one `Arc<Engine>` across worker
        // threads; this is the compile-time audit that everything the
        // engine holds (catalog, caches, model registry) stays shareable.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<crate::Catalog>();
        assert_send_sync::<QueryResult>();
        assert_send_sync::<PlannedQuery>();
    }

    #[test]
    fn optimize_then_lower_matches_execute() {
        let engine = engine_with_data();
        let q = engine
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.75)
            .sort(&[("product_id", true)]);
        let direct = engine.execute(&q).unwrap();
        let planned = engine.optimize_query(&q);
        assert_eq!(planned.rules_fired, direct.rules_fired);
        assert_eq!(planned.estimated_cost, direct.estimated_cost);
        let physical = engine.lower_plan(&planned.plan).unwrap();
        let table = cx_exec::collect_table(physical.as_ref()).unwrap();
        assert_eq!(table.num_rows(), direct.table.num_rows());
        // Lowered plans are re-executable: run it again.
        let again = cx_exec::collect_table(physical.as_ref()).unwrap();
        assert_eq!(again.num_rows(), direct.table.num_rows());
    }

    #[test]
    fn unbound_parameters_fail_at_lowering_naming_their_slot() {
        // Parameters bind in the logical plan only: a placeholder that
        // reaches lowering is an error naming its slot, whichever operator
        // holds it.
        let engine = engine_with_data();
        let products = || engine.table("products").unwrap();
        for (query, slot) in [
            (products().filter(col("price").gt(cx_expr::param(0))), "$0"),
            (products().semantic_filter_param("name", 1, "m", 0.8), "$1"),
            (products().limit_param(2), "$2"),
        ] {
            let planned = engine.optimize_query(&query);
            let err = engine
                .lower_plan(&planned.plan)
                .err()
                .expect("lowering must fail");
            assert!(
                matches!(err, cx_storage::Error::InvalidArgument(_)),
                "{err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains(slot) && msg.contains("unbound"), "{msg}");
            let executed = engine.execute(&query).err().expect("execution must fail");
            assert_eq!(executed.to_string(), msg);
        }
    }

    #[test]
    fn per_call_config_overrides_filter_pushdown() {
        // A session-level config override must flow through
        // optimize/lower without touching the engine's own config: the
        // same query lowers with the price filter pushed below the
        // semantic filter by default, and above it under the override.
        let engine = engine_with_data();
        let q = engine
            .table("products")
            .unwrap()
            .semantic_filter("name", "shoes", "m", 0.5)
            .filter(col("price").lt(lit(50.0)));
        let lowered = |config: OptimizerConfig| {
            let planned = engine.optimize_query_with(&q, config);
            let op = engine.lower_plan_with(&planned.plan, config).unwrap();
            (
                display_physical(op.as_ref()),
                collect_table(op.as_ref()).unwrap(),
            )
        };
        let mut unpushed = engine.config().optimizer;
        unpushed.filter_pushdown = false;
        let (pushed_tree, pushed) = lowered(engine.config().optimizer);
        let (unpushed_tree, out) = lowered(unpushed);
        assert!(pushed_tree.starts_with("SemanticFilter"), "{pushed_tree}");
        assert!(unpushed_tree.starts_with("Filter"), "{unpushed_tree}");
        assert_eq!(pushed.num_rows(), out.num_rows());
        // The engine's own config is untouched.
        assert!(engine.config().optimizer.filter_pushdown);
    }

    #[test]
    fn bounded_engine_caches_evict() {
        let config = EngineConfig {
            embedding_cache_capacity: Some(2),
            ..EngineConfig::default()
        };
        let engine = Engine::new(config);
        engine.register_model(Arc::new(HashNGramModel::new(42)));
        let cache = engine.embedding_cache("hash-ngram").unwrap();
        assert_eq!(cache.capacity(), Some(2));
        for t in ["a", "b", "c", "d"] {
            cache.get(t);
        }
        assert!(cache.len() <= 2);
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn racing_first_lookups_share_one_embedding_cache() {
        // Every caller must get the *same* cache for a model. Whoever held
        // the loser of the creation race (one of two concurrent first
        // statements, say) filled a cache no later operator read, and
        // every string was embedded twice — 30 model calls where 15
        // suffice.
        let threads = 8;
        for round in 0..200 {
            let engine = Engine::new(EngineConfig::default());
            engine.register_model(Arc::new(HashNGramModel::new(42)));
            let barrier = std::sync::Barrier::new(threads);
            let caches: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            engine.embedding_cache("hash-ngram").unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let resident = engine.embedding_cache("hash-ngram").unwrap();
            for c in &caches {
                assert!(
                    Arc::ptr_eq(c, &resident),
                    "round {round}: caller holds an orphaned cache"
                );
            }
        }
    }

    #[test]
    fn cache_shared_across_queries() {
        let engine = engine_with_data();
        let q = engine
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", 0.8);
        engine.execute(&q).unwrap();
        let cache = engine.embedding_cache("m").unwrap();
        let after_first = cache.model().stats().invocations();
        engine.execute(&q).unwrap();
        // Second run reuses every embedding.
        assert_eq!(cache.model().stats().invocations(), after_first);
    }
}
