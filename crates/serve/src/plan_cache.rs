//! The plan cache: optimized logical plans keyed by query fingerprint.
//!
//! Optimization is real work for context-rich queries — rule rewrites to
//! fixpoint plus sampling-based selectivity probes that *embed sample
//! values*. A server replaying the same (or parameterized-identical)
//! queries should pay that once. Entries are keyed by
//! [`LogicalPlan::fingerprint`] ⊕ a fingerprint of the
//! [`OptimizerConfig`], and each entry pins the catalog version it was
//! built against: any registration (table, KB, image store, model) bumps
//! the version and lazily invalidates every older entry on its next
//! lookup.
//!
//! The cached unit is the optimized *logical* plan plus the optimizer
//! by-products, so a hit skips optimization. Every execution binds its
//! parameters into that plan and lowers the bound plan into an operator
//! tree of its own — cheap, because lowering reads the engine's planning
//! snapshot — so nothing executable is ever shared between executions.
//!
//! [`LogicalPlan::fingerprint`]: cx_exec::logical::LogicalPlan::fingerprint

use cx_exec::logical::LogicalPlan;
use cx_optimizer::OptimizerConfig;
use cx_storage::{Scalar, Table};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Most distinct binding vectors memoized per cached plan. Past this the
/// per-binding memo stops growing (new bindings execute normally); it is a
/// replay accelerator, not a completeness guarantee.
pub const MAX_BOUND_RESULTS: usize = 1024;

/// A hashable, bit-exact key for one prepared-statement binding vector.
///
/// Scalars are encoded with type tags and length prefixes, so two binding
/// vectors key equal iff they are identical value-for-value (floats by
/// bit pattern — the same discipline as `LogicalPlan::fingerprint`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BindingKey(Vec<u8>);

impl BindingKey {
    /// Whether this keys the empty binding vector (a statement with no
    /// parameters, memoized at the plan level).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Encodes `params` into a key.
    pub fn new(params: &[Scalar]) -> Self {
        let mut out = Vec::with_capacity(params.len() * 9);
        for p in params {
            match p {
                Scalar::Null => out.push(0),
                Scalar::Bool(b) => {
                    out.push(1);
                    out.push(*b as u8);
                }
                Scalar::Int64(v) => {
                    out.push(2);
                    out.extend(v.to_le_bytes());
                }
                Scalar::Float64(v) => {
                    out.push(3);
                    out.extend(v.to_bits().to_le_bytes());
                }
                Scalar::Utf8(s) => {
                    out.push(4);
                    out.extend((s.len() as u64).to_le_bytes());
                    out.extend(s.as_bytes());
                }
                Scalar::Timestamp(v) => {
                    out.push(5);
                    out.extend(v.to_le_bytes());
                }
            }
        }
        BindingKey(out)
    }
}

/// One cached, optimized plan.
pub struct CachedPlan {
    /// The optimized logical plan — a template when the statement has
    /// parameters. Each execution binds it (`LogicalPlan::bind_params`),
    /// re-costs the bound plan for admission, and lowers it.
    pub optimized: LogicalPlan,
    /// Optimizer rule trace.
    pub rules_fired: Vec<String>,
    /// Optimizer row estimate.
    pub estimated_rows: f64,
    /// Optimizer cost estimate (admission-control weight).
    pub estimated_cost: f64,
    /// Catalog version this plan was built against.
    pub catalog_version: u64,
    /// The exact [`LogicalPlan::fingerprint`] of the template this entry
    /// was built from. The cache key is this hash ⊕ the config
    /// fingerprint, so two (template, config) pairs can collide on a key;
    /// a hit is validated against this field before reuse.
    pub exact_fingerprint: u64,
    /// Memoized result of executing this plan. Sound because the engine is
    /// deterministic and the plan is pinned to one catalog version: the
    /// same fingerprint over the same catalog produces the same table, so
    /// replayed traffic is served without re-executing. Lives and dies
    /// with the plan entry (LRU eviction, version invalidation). `None`
    /// until the first execution completes, or always when the server
    /// disables result caching.
    pub result: Mutex<Option<Arc<Table>>>,
    /// Per-binding result memo for prepared executions: binding vector →
    /// memoized table, under the same soundness argument as `result`
    /// (determinism ⊕ catalog pinning — the binding vector simply joins
    /// the key). Bounded to [`MAX_BOUND_RESULTS`] distinct bindings.
    pub bound_results: Mutex<HashMap<BindingKey, Arc<Table>>>,
    /// True when the plan scans any reserved `cx.*` system table. The
    /// determinism argument behind `result` / `bound_results` does not
    /// hold for such plans — their scans observe live state that changes
    /// without a catalog-version bump — so the serving layer must never
    /// read *or* write the result memo for a volatile plan. (Caching the
    /// plan itself stays sound: only the data is live, not the shape.)
    pub volatile: bool,
}

impl CachedPlan {
    /// Memoizes `table` for `binding`, respecting the size bound (replays
    /// of already-memoized bindings always update).
    pub fn memoize_binding(&self, binding: &BindingKey, table: Arc<Table>) {
        let mut map = self.bound_results.lock();
        if map.len() < MAX_BOUND_RESULTS || map.contains_key(binding) {
            map.insert(binding.clone(), table);
        }
    }
}

cx_obs::metric_family! {
    /// Counter snapshot of a [`PlanCache`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PlanCacheStats, counters PlanCacheCounters {
        /// Lookups that returned a current-version entry.
        hits: counter "cx_serve_plan_cache_hits_total" "Plan cache hits",
        /// Lookups that found nothing usable.
        misses: counter "cx_serve_plan_cache_misses_total" "Plan cache misses",
        /// Entries dropped because the catalog moved past them.
        invalidations: counter "cx_serve_plan_cache_invalidations_total"
            "Plans invalidated by catalog changes",
        /// Entries dropped by the capacity bound.
        evictions: counter "cx_serve_plan_cache_evictions_total" "Plans evicted by capacity",
    }
    supplied {
        /// Entries currently cached.
        len: usize => gauge "cx_serve_plan_cache_len" "Plans currently cached",
    }
    derived { hit_rate: gauge "cx_serve_plan_cache_hit_rate" "Plan cache hit rate", }
}

impl PlanCacheStats {
    /// Hits over lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Slot {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

/// One row of the `cx.plan_cache` introspection snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntryInfo {
    /// The cache key (`fingerprint ^ config_fingerprint`).
    pub key: u64,
    /// Catalog version the plan was built against.
    pub catalog_version: u64,
    /// Optimizer row estimate.
    pub estimated_rows: f64,
    /// Optimizer cost estimate.
    pub estimated_cost: f64,
    /// Number of optimizer rules that fired.
    pub rules_fired: usize,
    /// Whether the plan scans live `cx.*` state (result memo disabled).
    pub volatile: bool,
    /// Whether a memoized result is pinned.
    pub has_result: bool,
    /// Number of memoized prepared bindings.
    pub bound_results: usize,
    /// LRU tick of the last use (higher = more recent).
    pub last_used: u64,
}

/// A bounded, version-checked map from plan fingerprints to cached plans.
pub struct PlanCache {
    capacity: usize,
    state: Mutex<(HashMap<u64, Slot>, u64)>,
    counters: PlanCacheCounters,
}

impl PlanCache {
    /// A cache bounded to `capacity` plans (clamped to at least 1);
    /// least-recently-used plans are evicted past that.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            state: Mutex::new((HashMap::new(), 0)),
            counters: PlanCacheCounters::default(),
        }
    }

    /// Looks up `key`, treating entries from a catalog version other than
    /// `catalog_version` as stale (dropped and counted as invalidations).
    pub fn get(&self, key: u64, catalog_version: u64) -> Option<Arc<CachedPlan>> {
        let mut state = self.state.lock();
        let (map, tick) = &mut *state;
        match map.get_mut(&key) {
            Some(slot) if slot.plan.catalog_version == catalog_version => {
                *tick += 1;
                slot.last_used = *tick;
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.plan.clone())
            }
            Some(_) => {
                map.remove(&key);
                self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) the plan under `key`, evicting the
    /// least-recently-used entry if full. Concurrent misses may race to
    /// insert the same key; last writer wins, which is harmless — both
    /// plans are equivalent by construction.
    pub fn insert(&self, key: u64, plan: Arc<CachedPlan>) {
        let mut state = self.state.lock();
        let (map, tick) = &mut *state;
        *tick += 1;
        let replaced = map
            .insert(
                key,
                Slot {
                    plan,
                    last_used: *tick,
                },
            )
            .is_some();
        if !replaced && map.len() > self.capacity {
            // O(len) victim scan: plan caches hold dozens-to-hundreds of
            // entries and eviction only runs when full, so a linked-list
            // LRU would be complexity without a win.
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                map.remove(&victim);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Per-entry snapshot for introspection (`cx.plan_cache`). Collects
    /// the entry list under the state lock, then reads each entry's memo
    /// size with no other lock held — system-table lock discipline.
    pub fn entries(&self) -> Vec<PlanEntryInfo> {
        let entries: Vec<(u64, u64, Arc<CachedPlan>)> = {
            let state = self.state.lock();
            state
                .0
                .iter()
                .map(|(k, s)| (*k, s.last_used, s.plan.clone()))
                .collect()
        };
        entries
            .into_iter()
            .map(|(key, last_used, plan)| PlanEntryInfo {
                key,
                catalog_version: plan.catalog_version,
                estimated_rows: plan.estimated_rows,
                estimated_cost: plan.estimated_cost,
                rules_fired: plan.rules_fired.len(),
                volatile: plan.volatile,
                has_result: plan.result.lock().is_some(),
                bound_results: plan.bound_results.lock().len(),
                last_used,
            })
            .collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        self.counters.snapshot(self.state.lock().0.len())
    }
}

/// A stable fingerprint of the optimizer configuration. Two engines whose
/// configs fingerprint equal produce the same plan for the same query, so
/// the plan-cache key is `plan.fingerprint() ^ config_fingerprint(...)`.
pub fn config_fingerprint(config: &OptimizerConfig) -> u64 {
    // FNV-1a over the feature switches and numeric knobs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let flags = [
        config.constant_folding,
        config.filter_pushdown,
        config.predicate_cascade,
        config.projection_pruning,
        config.equijoin_extraction,
        config.data_induced_predicates,
        config.semantic_dip,
    ];
    let mut packed = 0u64;
    for (i, f) in flags.iter().enumerate() {
        packed |= (*f as u64) << i;
    }
    eat(packed);
    eat(config.parallelism as u64);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_storage::{Column, DataType, Field, Schema, Table};

    fn plan(version: u64) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            optimized: LogicalPlan::Scan {
                source: "t".into(),
                schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)])),
            },
            rules_fired: vec![],
            estimated_rows: 1.0,
            estimated_cost: 2.0,
            catalog_version: version,
            exact_fingerprint: 0,
            result: Mutex::new(None),
            bound_results: Mutex::new(HashMap::new()),
            volatile: false,
        })
    }

    #[test]
    fn hit_miss_and_version_invalidation() {
        let cache = PlanCache::new(8);
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, plan(0));
        assert!(cache.get(1, 0).is_some());
        // Catalog moved: the entry is stale.
        assert!(cache.get(1, 1).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
        assert_eq!(s.len, 0);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_past_capacity() {
        let cache = PlanCache::new(2);
        cache.insert(1, plan(0));
        cache.insert(2, plan(0));
        cache.get(1, 0); // 1 is now more recently used than 2
        cache.insert(3, plan(0));
        assert!(cache.get(1, 0).is_some());
        assert!(cache.get(2, 0).is_none(), "LRU entry should be the victim");
        assert!(cache.get(3, 0).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn entries_snapshot_reflects_state() {
        let cache = PlanCache::new(8);
        cache.insert(1, plan(3));
        cache.insert(2, plan(3));
        cache.get(2, 3);
        let mut entries = cache.entries();
        entries.sort_by_key(|e| e.key);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].catalog_version, 3);
        assert!(!entries[0].volatile);
        assert!(!entries[0].has_result);
        assert!(
            entries[1].last_used > entries[0].last_used,
            "key 2 used more recently"
        );
    }

    #[test]
    fn binding_keys_are_bit_exact() {
        use cx_storage::Scalar;
        let a = BindingKey::new(&[Scalar::from("boots"), Scalar::Int64(2)]);
        let b = BindingKey::new(&[Scalar::from("boots"), Scalar::Int64(2)]);
        assert_eq!(a, b);
        // Value, type, and split differences all separate keys.
        assert_ne!(
            a,
            BindingKey::new(&[Scalar::from("boots"), Scalar::Int64(3)])
        );
        assert_ne!(
            a,
            BindingKey::new(&[Scalar::from("boots"), Scalar::Float64(2.0)])
        );
        assert_ne!(
            BindingKey::new(&[Scalar::from("ab"), Scalar::from("c")]),
            BindingKey::new(&[Scalar::from("a"), Scalar::from("bc")])
        );
    }

    #[test]
    fn bound_memo_respects_capacity() {
        use cx_storage::Scalar;
        let p = plan(0);
        let table = Arc::new(
            Table::from_columns(
                Schema::new(vec![Field::new("x", DataType::Int64)]),
                vec![Column::from_i64(vec![1])],
            )
            .unwrap(),
        );
        for i in 0..(MAX_BOUND_RESULTS as i64 + 10) {
            p.memoize_binding(&BindingKey::new(&[Scalar::Int64(i)]), table.clone());
        }
        assert_eq!(p.bound_results.lock().len(), MAX_BOUND_RESULTS);
        // An already-memoized binding still updates at capacity.
        p.memoize_binding(&BindingKey::new(&[Scalar::Int64(0)]), table.clone());
        assert_eq!(p.bound_results.lock().len(), MAX_BOUND_RESULTS);
    }

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let all = OptimizerConfig::all();
        let none = OptimizerConfig::none();
        assert_eq!(config_fingerprint(&all), config_fingerprint(&all));
        assert_ne!(config_fingerprint(&all), config_fingerprint(&none));
        let mut serial = all;
        serial.parallelism = all.parallelism + 1;
        assert_ne!(config_fingerprint(&all), config_fingerprint(&serial));
    }
}
