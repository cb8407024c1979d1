//! Optimizer context: statistics, samples, models, and configuration.

use cx_embed::{EmbeddingCache, ModelRegistry};
use cx_storage::TableStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Feature switches for the optimizer.
///
/// Each flag maps to one of the optimizations the paper's Figure 4 ablates
/// additively; experiments toggle them to reproduce the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Constant folding in predicates and projections.
    pub constant_folding: bool,
    /// Filter pushdown through projections, joins and semantic operators.
    pub filter_pushdown: bool,
    /// Split conjunctions into cascades ordered by estimated selectivity.
    pub predicate_cascade: bool,
    /// Column pruning (insert projections above scans).
    pub projection_pruning: bool,
    /// Rewrite CrossJoin+Filter into equi-joins.
    pub equijoin_extraction: bool,
    /// Transitive (data-induced) predicates across equi-joins.
    pub data_induced_predicates: bool,
    /// Angular-relaxed semantic filters across semantic joins.
    pub semantic_dip: bool,
    /// Probe-side parallelism for semantic joins (1 = serial).
    pub parallelism: usize,
}

impl OptimizerConfig {
    /// Everything on (default parallelism = available cores).
    pub fn all() -> Self {
        OptimizerConfig {
            constant_folding: true,
            filter_pushdown: true,
            predicate_cascade: true,
            projection_pruning: true,
            equijoin_extraction: true,
            data_induced_predicates: true,
            semantic_dip: true,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Everything off (the naive pipeline of Figure 4's left-most bar).
    pub fn none() -> Self {
        OptimizerConfig {
            constant_folding: false,
            filter_pushdown: false,
            predicate_cascade: false,
            projection_pruning: false,
            equijoin_extraction: false,
            data_induced_predicates: false,
            semantic_dip: false,
            parallelism: 1,
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self::all()
    }
}

/// Most sampling-probe results memoized per context (~16 bytes each).
pub const SELECTIVITY_MEMO_CAP: usize = 65_536;

/// Everything the optimizer may consult while rewriting and costing.
pub struct OptimizerContext {
    /// Per-source table statistics.
    pub stats: HashMap<String, TableStats>,
    /// `(source, column)` → sampled string values, for semantic
    /// selectivity estimation.
    pub samples: HashMap<(String, String), Vec<String>>,
    /// Named embedding models.
    pub models: Arc<ModelRegistry>,
    /// Shared per-model embedding caches (also used at execution time, so
    /// optimizer sampling warms execution).
    pub caches: HashMap<String, Arc<EmbeddingCache>>,
    /// Feature switches.
    pub config: OptimizerConfig,
    /// Memo for sampling-based selectivity probes: cardinality and cost
    /// estimation revisit the same semantic operators many times per
    /// optimization pass, and each probe embeds/compares a sample — memoize
    /// by a caller-provided key so each distinct probe runs once.
    selectivity_memo: Mutex<HashMap<u64, f64>>,
}

impl OptimizerContext {
    /// A context with no statistics and the given config, holding a fresh
    /// embedding cache for every model registered in `models` (callers
    /// with shared caches replace them in [`Self::caches`]).
    pub fn new(models: Arc<ModelRegistry>, config: OptimizerConfig) -> Self {
        let caches = models
            .names()
            .into_iter()
            .filter_map(|name| {
                let model = models.get(&name)?;
                Some((name, Arc::new(EmbeddingCache::new(model))))
            })
            .collect();
        OptimizerContext {
            stats: HashMap::new(),
            samples: HashMap::new(),
            models,
            caches,
            config,
            selectivity_memo: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the memoized value for `key`, computing it once via
    /// `compute` on first use.
    ///
    /// The memo is bounded: past [`SELECTIVITY_MEMO_CAP`] entries new keys
    /// are computed but not stored. One optimization pass never gets near
    /// the cap; the bound exists for long-lived contexts (the engine's
    /// per-catalog-version planning snapshot), where a prepared
    /// storm of millions of distinct probe literals would otherwise grow
    /// the map without limit.
    pub fn memoized_selectivity(&self, key: u64, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(v) = self.selectivity_memo.lock().get(&key) {
            return *v;
        }
        let v = compute();
        let mut memo = self.selectivity_memo.lock();
        if memo.len() < SELECTIVITY_MEMO_CAP {
            memo.insert(key, v);
        }
        v
    }

    /// Stats for `source`, if collected.
    pub fn table_stats(&self, source: &str) -> Option<&TableStats> {
        self.stats.get(source)
    }

    /// Sampled values of `(source, column)`.
    pub fn sample(&self, source: &str, column: &str) -> Option<&[String]> {
        self.samples
            .get(&(source.to_string(), column.to_string()))
            .map(|v| v.as_slice())
    }

    /// The shared cache for `model` (`None` for a model unknown when the
    /// context was built).
    pub fn cache_for(&self, model: &str) -> Option<Arc<EmbeddingCache>> {
        self.caches.get(model).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::HashNGramModel;

    #[test]
    fn config_presets() {
        let all = OptimizerConfig::all();
        assert!(all.filter_pushdown && all.semantic_dip);
        assert!(all.parallelism >= 1);
        let none = OptimizerConfig::none();
        assert!(!none.filter_pushdown && !none.constant_folding);
        assert_eq!(none.parallelism, 1);
    }

    #[test]
    fn selectivity_memo_is_bounded() {
        let ctx = OptimizerContext::new(Arc::new(ModelRegistry::new()), OptimizerConfig::all());
        for key in 0..(SELECTIVITY_MEMO_CAP as u64 + 100) {
            ctx.memoized_selectivity(key, || 0.5);
        }
        assert_eq!(ctx.selectivity_memo.lock().len(), SELECTIVITY_MEMO_CAP);
        // Keys past the cap still compute correctly, just unmemoized.
        assert_eq!(ctx.memoized_selectivity(u64::MAX, || 0.25), 0.25);
        // Memoized keys still hit.
        assert_eq!(ctx.memoized_selectivity(0, || panic!("memo miss")), 0.5);
    }

    #[test]
    fn cache_for_resolves_and_memoizes() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(Arc::new(HashNGramModel::with_params("m", 8, 1, 3, 3, 64)));
        let ctx = OptimizerContext::new(registry, OptimizerConfig::all());
        let a = ctx.cache_for("m").unwrap();
        let b = ctx.cache_for("m").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(ctx.cache_for("missing").is_none());
    }
}
