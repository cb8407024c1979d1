//! Cross-query embedding batch scheduler.
//!
//! Concurrent queries over overlapping corpora each need embeddings for
//! their distinct key values. Left alone, every query pushes its own texts
//! through the model; the paper's batched/caching design wants N
//! overlapping requests to pay one model pass. [`EmbedBatcher`] provides
//! that as a client of the serving layer's one coalescing primitive
//! ([`crate::coalesce`]): a query submits the texts its model cache does
//! not hold yet with [`EmbedBatcher::warm`], weighed by their count; the
//! first submitter leads, and once the group seals — on **size**
//! (`max_batch` texts) or **deadline** (`linger` after the leader
//! arrived) — the leader deduplicates the texts across all members,
//! embeds them with batched [`EmbeddingCache::get_batch_into`] passes of
//! at most `max_batch` texts on its own thread, and wakes everyone. There
//! is no background thread.
//!
//! Drains of one batcher are serialized and filter through
//! [`EmbeddingCache::contains`] when they start, so a text that a sealed
//! group is embedding is never embedded again by the group behind it.
//!
//! How a plan's embedding working set is collected and submitted lives
//! here too, as the server's `warm_embeddings`.

use crate::coalesce::{Clock, Coalescer, SystemClock};
use crate::faults::FaultSite;
use crate::server::Server;
use cx_embed::EmbeddingCache;
use cx_exec::logical::LogicalPlan;
use cx_storage::Result;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Cap on distinct values warmed per semantic column per query (warming is
/// best-effort; values past the cap embed inside the operator).
const WARM_LIMIT: usize = 65_536;

/// Flush policy for an [`EmbedBatcher`].
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Pending-text count that triggers an immediate flush (also the batch
    /// size cap).
    pub max_batch: usize,
    /// Longest a pending text waits before a deadline flush.
    pub linger: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 256,
            linger: Duration::from_micros(500),
        }
    }
}

cx_obs::metric_family! {
    /// Counter snapshot of a batcher (all totals since construction).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct BatcherStats, counters BatcherCounters {
        /// `warm` calls.
        requests: counter "cx_serve_batcher_requests_total" "Warm requests submitted",
        /// Texts across all `warm` calls (pre-dedup).
        texts_requested: counter "cx_serve_batcher_texts_requested_total"
            "Texts requested for warming",
        /// Texts a drain found nobody had embedded yet (first requester).
        texts_enqueued: counter "cx_serve_batcher_texts_enqueued_total"
            "Texts enqueued for embedding",
        /// Texts skipped because the cache already held them.
        texts_already_cached: counter "cx_serve_batcher_texts_already_cached_total"
            "Texts skipped as already cached",
        /// Texts that piggybacked on another request in their group, or on
        /// the drain ahead of it — the cross-query sharing this scheduler
        /// exists for.
        texts_coalesced: counter "cx_serve_batcher_texts_coalesced_total"
            "Texts coalesced with concurrent requests",
        /// Batched `get_batch_into` calls issued.
        batches: counter "cx_serve_batcher_batches_total" "Batches flushed",
        /// Texts embedded across all batches.
        batched_texts: counter "cx_serve_batcher_batched_texts_total"
            "Texts embedded through batches",
        /// Batches flushed for a group of ≥ 2 distinct `warm` calls.
        coalesced_batches: counter "cx_serve_batcher_coalesced_batches_total"
            "Batches serving more than one submitter",
        /// Largest single batch.
        max_batch_size: gauge "cx_serve_batcher_max_batch_size" "Largest batch flushed",
        /// Most distinct `warm` calls served by one batch.
        max_batch_submitters: gauge "cx_serve_batcher_max_batch_submitters"
            "Most submitters served by one batch",
        /// Batches whose embedding pass panicked (the batch was abandoned;
        /// its waiters proceeded and embed inline in their own queries).
        failed_batches: counter "cx_serve_batcher_failed_batches_total"
            "Batches that failed to embed",
    }
}

/// A batching front-end over one model's [`EmbeddingCache`].
pub struct EmbedBatcher {
    cache: Arc<EmbeddingCache>,
    max_batch: usize,
    /// Each member is one `warm` call's uncached texts; one group
    /// collects at a time.
    pub(crate) groups: Coalescer<Vec<String>, ()>,
    /// Held across a drain: the next group's drain starts only after this
    /// one has published its embeddings to the cache.
    draining: Mutex<()>,
    counters: BatcherCounters,
}

impl EmbedBatcher {
    /// A batcher over `cache` on the real clock.
    pub fn new(cache: Arc<EmbeddingCache>, config: BatcherConfig) -> Self {
        Self::with_clock(cache, config, Arc::new(SystemClock))
    }

    /// A batcher whose linger is measured on `clock`.
    pub(crate) fn with_clock(
        cache: Arc<EmbeddingCache>,
        config: BatcherConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let max_batch = config.max_batch.max(1);
        EmbedBatcher {
            cache,
            max_batch,
            groups: Coalescer::new(max_batch, config.linger, clock, || ()),
            draining: Mutex::new(()),
            counters: BatcherCounters::default(),
        }
    }

    /// The cache this batcher fills.
    pub fn cache(&self) -> &Arc<EmbeddingCache> {
        &self.cache
    }

    /// Ensures every text in `texts` is embedded in the cache, batching the
    /// misses with every other in-flight `warm` call. Blocks until done;
    /// returns the number of texts this call actually waited on (0 = all
    /// were already cached).
    pub fn warm<S: AsRef<str>>(&self, texts: &[S]) -> usize {
        let mut seen = HashSet::new();
        let uncached = texts
            .iter()
            .map(AsRef::as_ref)
            .filter(|t| seen.insert(*t) && self.is_uncached(t))
            .map(str::to_string)
            .collect();
        self.warm_uncached(texts.len(), uncached)
    }

    /// The one cached-ness probe of a warm-up, taken outside every lock:
    /// whether `text` still needs embedding (`texts_already_cached`
    /// counts the ones that do not).
    pub(crate) fn is_uncached(&self, text: &str) -> bool {
        let uncached = !self.cache.contains(text);
        if !uncached {
            self.counters
                .texts_already_cached
                .fetch_add(1, Ordering::Relaxed);
        }
        uncached
    }

    /// [`warm`](Self::warm) for a caller that already put its `requested`
    /// texts through [`is_uncached`](Self::is_uncached) and kept these.
    pub(crate) fn warm_uncached(&self, requested: usize, uncached: Vec<String>) -> usize {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .texts_requested
            .fetch_add(requested as u64, Ordering::Relaxed);
        let waited = uncached.len();
        if waited > 0 {
            // A lone warm-up waits out the linger, in case a concurrent
            // query's warm-up is a moment behind.
            self.groups
                .submit(uncached, waited, |members| self.drain(members));
        }
        waited
    }

    /// One group's model work, on its leader's thread. A model panic on a
    /// pathological input costs that one pass, not the server: the
    /// group's waiters proceed, the texts stay uncached and embed inline
    /// in the operator, where the panic surfaces in the failing query's
    /// own thread.
    fn drain(&self, members: Vec<Vec<String>>) -> Vec<()> {
        let _serial = self.draining.lock();
        let c = &self.counters;
        let submitted: usize = members.iter().map(Vec::len).sum();
        let mut seen = HashSet::new();
        let texts: Vec<&str> = members
            .iter()
            .flatten()
            .map(String::as_str)
            .filter(|t| seen.insert(*t) && !self.cache.contains(t))
            .collect();
        c.texts_enqueued
            .fetch_add(texts.len() as u64, Ordering::Relaxed);
        c.texts_coalesced
            .fetch_add((submitted - texts.len()) as u64, Ordering::Relaxed);
        let dim = self.cache.dim();
        let mut buf = vec![0.0f32; texts.len().min(self.max_batch) * dim];
        for batch in texts.chunks(self.max_batch) {
            let embed = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.cache.get_batch_into(batch, dim, &mut buf);
            }));
            if embed.is_err() {
                c.failed_batches.fetch_add(1, Ordering::Relaxed);
            }
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.batched_texts
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            c.max_batch_size
                .fetch_max(batch.len() as u64, Ordering::Relaxed);
            c.max_batch_submitters
                .fetch_max(members.len() as u64, Ordering::Relaxed);
            if members.len() >= 2 {
                c.coalesced_batches.fetch_add(1, Ordering::Relaxed);
            }
        }
        vec![(); members.len()]
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatcherStats {
        self.counters.snapshot()
    }
}

impl Server {
    /// Submits every semantic operator's embedding working set to the
    /// per-model batchers and blocks until the cache holds it. Best-effort
    /// and purely a performance hint — except under an installed fault
    /// plan, whose [`FaultSite::Embed`] strikes fire here (per model
    /// batch) on the query thread. Anything missed (renamed columns,
    /// post-filter subsets, capped columns) embeds inside the operator
    /// exactly as before.
    pub(crate) fn warm_embeddings(&self, plan: &LogicalPlan) -> Result<()> {
        let mut warm_span = cx_obs::span("embed_warm");
        let fault = self.fault_plan();
        let mut requests: BTreeMap<String, Vec<String>> = BTreeMap::new();
        self.collect_warm_requests(plan, &mut requests);
        let mut warmed = 0usize;
        for (model, texts) in requests {
            if let Some(batcher) = self.batcher(&model) {
                if let Some(plan) = &fault {
                    if let Err(e) = plan.strike(FaultSite::Embed) {
                        cx_obs::event("fault", || "embed".into());
                        return Err(e);
                    }
                }
                warmed += batcher.warm_uncached(texts.len(), texts);
            }
        }
        warm_span.set_detail(format!("{warmed} texts"));
        Ok(())
    }

    /// Walks `plan` collecting, per model, the texts its semantic
    /// operators will embed and the model's cache does not hold yet.
    fn collect_warm_requests(&self, plan: &LogicalPlan, out: &mut BTreeMap<String, Vec<String>>) {
        match plan {
            LogicalPlan::SemanticFilter {
                input,
                column,
                target,
                model,
                ..
            } => {
                let dst = out.entry(model.clone()).or_default();
                // A parameterized probe has no text to warm; the bound value
                // embeds through the cache at execute time.
                if let (Some(text), Some(batcher)) = (target.text(), self.batcher(model)) {
                    if batcher.is_uncached(text) {
                        dst.push(text.to_string());
                    }
                }
                self.column_values(input, column, model, dst);
            }
            LogicalPlan::SemanticJoin { left, right, spec } => {
                let dst = out.entry(spec.model.clone()).or_default();
                self.column_values(left, &spec.left_column, &spec.model, dst);
                self.column_values(right, &spec.right_column, &spec.model, dst);
            }
            LogicalPlan::SemanticGroupBy {
                input,
                column,
                model,
                ..
            } => {
                let dst = out.entry(model.clone()).or_default();
                self.column_values(input, column, model, dst);
            }
            _ => {}
        }
        for child in plan.children() {
            self.collect_warm_requests(child, out);
        }
    }

    /// Distinct string values of `column` across the base tables scanned
    /// under `plan` that the `model`'s cache does not already hold — a
    /// (superset) estimate of what a semantic operator on `column` will
    /// still need to embed. Probing cached-ness here, at collection time
    /// and once, keeps a warm server from re-cloning a table's whole
    /// distinct set on every plan-cache miss just to learn it was all
    /// cached. [`WARM_LIMIT`] budgets each call separately (`cap` is
    /// absolute: the `out` length this call may grow to), so one huge
    /// column cannot consume a later column's budget.
    fn column_values(&self, plan: &LogicalPlan, column: &str, model: &str, out: &mut Vec<String>) {
        let Some(batcher) = self.batcher(model) else {
            return;
        };
        let cap = out.len().saturating_add(WARM_LIMIT);
        self.column_values_capped(plan, column, &batcher, cap, out);
    }

    fn column_values_capped(
        &self,
        plan: &LogicalPlan,
        column: &str,
        batcher: &EmbedBatcher,
        cap: usize,
        out: &mut Vec<String>,
    ) {
        if let LogicalPlan::Scan { source, schema } = plan {
            let is_utf8 = schema
                .field(column)
                .map(|f| f.data_type == cx_storage::DataType::Utf8)
                .unwrap_or(false);
            if is_utf8 {
                if let Some(table) = self.engine.catalog().table(source) {
                    if let Ok(col) = table.column_by_name(column) {
                        if let Ok(values) = col.utf8_values() {
                            let mut seen: HashSet<&str> = HashSet::new();
                            for v in values {
                                if out.len() >= cap {
                                    break;
                                }
                                if seen.insert(v.as_str()) && batcher.is_uncached(v) {
                                    out.push(v.clone());
                                }
                            }
                        }
                    }
                }
            }
        }
        for child in plan.children() {
            if out.len() >= cap {
                break;
            }
            self.column_values_capped(child, column, batcher, cap, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::testing::{spin_until, ManualClock};
    use cx_embed::{EmbeddingModel, HashNGramModel, ModelStats};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// Never passes by itself: the clock only moves when a test says so.
    const LINGER: Duration = Duration::from_secs(60);

    fn batcher(max_batch: usize) -> (EmbedBatcher, Arc<ManualClock>) {
        let clock = ManualClock::new();
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(7))));
        let config = BatcherConfig {
            max_batch,
            linger: LINGER,
        };
        (
            EmbedBatcher::with_clock(cache, config, clock.clone()),
            clock,
        )
    }

    /// A model whose first embedding stops at a gate until the test lets
    /// it through: holds one drain open for as long as a test needs.
    struct GatedModel {
        inner: HashNGramModel,
        armed: AtomicBool,
        entered: Barrier,
        release: Barrier,
    }

    impl EmbeddingModel for GatedModel {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn embed_into(&self, text: &str, out: &mut [f32]) {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.entered.wait();
                self.release.wait();
            }
            self.inner.embed_into(text, out);
        }
        fn stats(&self) -> &ModelStats {
            self.inner.stats()
        }
    }

    #[test]
    fn warm_fills_cache_in_one_batch() {
        let (b, _clock) = batcher(3);
        let waited = b.warm(&["a", "b", "c", "a"]); // 3 distinct: size seal
        assert_eq!(waited, 3);
        for t in ["a", "b", "c"] {
            assert!(b.cache().contains(t));
        }
        let s = b.stats();
        assert_eq!(s.texts_requested, 4);
        assert_eq!(s.texts_enqueued, 3);
        assert_eq!(s.batches, 1, "expected one batched flush, got {s:?}");
        assert_eq!(s.batched_texts, 3);
        // Second warm is a pure cache hit: no group, no new batch.
        assert_eq!(b.warm(&["a", "b"]), 0);
        let s = b.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.texts_already_cached, 2);
    }

    #[test]
    fn linger_flushes_a_lone_request() {
        let (b, clock) = batcher(64);
        std::thread::scope(|s| {
            let lone = s.spawn(|| b.warm(&["x", "y"]));
            spin_until("the request parks", || b.groups.parked() == 1);
            assert_eq!(b.stats().batches, 0, "flushed before the linger passed");
            clock.advance(LINGER);
            assert_eq!(lone.join().unwrap(), 2);
        });
        assert_eq!(b.stats().batches, 1);
    }

    #[test]
    fn oversized_request_embeds_in_max_batch_passes() {
        let (b, _clock) = batcher(2);
        assert_eq!(b.warm(&["p", "q", "r", "s", "t"]), 5);
        let s = b.stats();
        assert_eq!((s.batches, s.batched_texts, s.max_batch_size), (3, 5, 2));
    }

    #[test]
    fn concurrent_warms_coalesce_into_one_model_pass() {
        // Four requests of 32 texts against a limit of 128: the group
        // seals exactly when the fourth joins, never on time.
        let threads = 4;
        let (b, _clock) = batcher(threads * 32);
        let texts: Vec<String> = (0..32).map(|i| format!("word{i}")).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| b.warm(&texts));
            }
        });
        let s = b.stats();
        // The 32 distinct texts were embedded once; the other three
        // requests piggybacked.
        assert_eq!(s.texts_enqueued, 32);
        assert_eq!(s.batched_texts, 32);
        assert_eq!(b.cache().model().stats().invocations(), 32);
        assert_eq!(s.texts_coalesced, 96, "stats {s:?}");
        assert_eq!(s.max_batch_submitters, 4, "stats {s:?}");
        assert_eq!((s.batches, s.coalesced_batches), (1, 1), "stats {s:?}");
    }

    #[test]
    fn texts_in_a_sealed_group_are_not_re_embedded_by_the_next_group() {
        let model = Arc::new(GatedModel {
            inner: HashNGramModel::new(7),
            armed: AtomicBool::new(true),
            entered: Barrier::new(2),
            release: Barrier::new(2),
        });
        let clock = ManualClock::new();
        let b = EmbedBatcher::with_clock(
            Arc::new(EmbeddingCache::new(model.clone())),
            BatcherConfig {
                max_batch: 3,
                linger: LINGER,
            },
            clock.clone(),
        );
        std::thread::scope(|s| {
            // The first group seals on size; its drain stops inside the
            // model with nothing published yet.
            let first = s.spawn(|| b.warm(&["x", "y", "z"]));
            model.entered.wait();
            // A second request for texts that drain is embedding: the
            // probe says "not cached", so it opens the next group.
            let second = s.spawn(|| b.warm(&["x", "y"]));
            spin_until("the second request parks", || b.groups.parked() == 1);
            // It seals while the first drain is still open, and must wait
            // its turn: by then everything it asked for is published.
            clock.advance(LINGER);
            model.release.wait();
            assert_eq!(first.join().unwrap(), 3);
            assert_eq!(second.join().unwrap(), 2);
        });
        assert_eq!(model.stats().invocations(), 3, "a text was embedded twice");
        let s = b.stats();
        assert_eq!(
            (s.batches, s.texts_enqueued, s.texts_coalesced),
            (1, 3, 2),
            "{s:?}"
        );
    }

    #[test]
    fn model_panic_costs_one_batch_and_wedges_nobody() {
        struct Exploding(ModelStats);
        impl EmbeddingModel for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn dim(&self) -> usize {
                4
            }
            fn embed_into(&self, _: &str, _: &mut [f32]) {
                panic!("model blew up");
            }
            fn stats(&self) -> &ModelStats {
                &self.0
            }
        }
        let cache = Arc::new(EmbeddingCache::new(Arc::new(Exploding(
            ModelStats::default(),
        ))));
        let config = BatcherConfig {
            max_batch: 1,
            linger: LINGER,
        };
        let b = EmbedBatcher::with_clock(cache, config, ManualClock::new());
        assert_eq!(b.warm(&["boom"]), 1);
        assert_eq!(
            b.warm(&["boom"]),
            1,
            "still uncached, and the batcher still serves"
        );
        assert_eq!(b.stats().failed_batches, 2);
    }
}
