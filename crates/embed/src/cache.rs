//! Memoizing embedding cache with prefetch and optional bounded capacity.
//!
//! Semantic operators repeatedly embed the same strings (join keys repeat,
//! group-by values repeat). The cache turns repeated inference into a hash
//! lookup and exposes hit/miss counters so experiments can attribute
//! speedups. Prefetching the working set before a join is exactly the
//! "optimize the amount of data access by prefetching" rung of Figure 4.
//!
//! By default the cache is unbounded (experiment runs want every embedding
//! resident). A long-lived server instead constructs it with
//! [`EmbeddingCache::with_capacity`]: past `capacity` entries, inserts
//! evict via the CLOCK (second-chance) policy — each hit sets a referenced
//! bit, eviction sweeps a ring of keys and reclaims the first entry whose
//! bit is clear — which approximates LRU at O(1) amortized cost without a
//! linked list in the hit path. Evictions are counted next to hits/misses.

use crate::model::EmbeddingModel;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One cached embedding plus its CLOCK referenced bit.
struct CacheEntry {
    vec: Arc<Vec<f32>>,
    /// Set on every hit; cleared (once) by the eviction sweep before the
    /// entry becomes a victim — the "second chance".
    referenced: AtomicBool,
}

/// A thread-safe memoization layer over an [`EmbeddingModel`].
pub struct EmbeddingCache {
    model: Arc<dyn EmbeddingModel>,
    entries: RwLock<HashMap<String, CacheEntry>>,
    /// CLOCK ring of insertion keys; only maintained when bounded.
    ring: Mutex<VecDeque<String>>,
    /// `None` = unbounded (the historical behavior).
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EmbeddingCache {
    /// Wraps `model` with an empty, unbounded cache.
    pub fn new(model: Arc<dyn EmbeddingModel>) -> Self {
        Self::build(model, None)
    }

    /// Wraps `model` with a cache bounded to at most `capacity` entries
    /// (CLOCK eviction past that). `capacity` is clamped to at least 1.
    pub fn with_capacity(model: Arc<dyn EmbeddingModel>, capacity: usize) -> Self {
        Self::build(model, Some(capacity.max(1)))
    }

    fn build(model: Arc<dyn EmbeddingModel>, capacity: Option<usize>) -> Self {
        EmbeddingCache {
            model,
            entries: RwLock::new(HashMap::new()),
            ring: Mutex::new(VecDeque::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<dyn EmbeddingModel> {
        &self.model
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The configured entry bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Whether `text` is currently cached (does not touch the referenced
    /// bit, so probing membership never perturbs eviction order).
    pub fn contains(&self, text: &str) -> bool {
        self.entries.read().contains_key(text)
    }

    /// The embedding for `text`, computing and caching on first use.
    pub fn get(&self, text: &str) -> Arc<Vec<f32>> {
        if let Some(e) = self.entries.read().get(text) {
            e.referenced.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return e.vec.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(self.model.embed(text));
        self.insert(text, v)
    }

    /// Inserts `vec` under `text`, evicting if bounded; returns the winner
    /// under racing inserts (first writer wins, later computes are dropped).
    fn insert(&self, text: &str, vec: Arc<Vec<f32>>) -> Arc<Vec<f32>> {
        let mut entries = self.entries.write();
        let len_before = entries.len();
        let out = entries
            .entry(text.to_string())
            .or_insert_with(|| CacheEntry {
                vec,
                referenced: AtomicBool::new(false),
            })
            .vec
            .clone();
        // A losing racer (entry already present) must NOT add a ring slot:
        // a duplicate slot would burn the entry's second chance on the
        // first sweep and evict it on the second, ahead of colder entries.
        let inserted = entries.len() > len_before;
        if !inserted {
            return out;
        }
        if let Some(cap) = self.capacity {
            let mut ring = self.ring.lock();
            ring.push_back(text.to_string());
            // Sweep the clock hand until the map is back under capacity.
            // Bounded: each lap clears referenced bits, so a second lap
            // always finds a victim; stale ring keys (evicted or cleared
            // entries) are dropped as they surface.
            while entries.len() > cap {
                let Some(key) = ring.pop_front() else { break };
                match entries.get(&key) {
                    None => continue, // stale ring slot
                    Some(e) if e.referenced.swap(false, Ordering::Relaxed) => {
                        ring.push_back(key); // second chance
                    }
                    Some(_) => {
                        entries.remove(&key);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        out
    }

    /// Warms the cache for every distinct string in `texts`.
    pub fn prefetch<S: AsRef<str>>(&self, texts: impl IntoIterator<Item = S>) {
        for t in texts {
            let t = t.as_ref();
            if !self.entries.read().contains_key(t) {
                let v = Arc::new(self.model.embed(t));
                self.insert(t, v);
            }
        }
    }

    /// Embeds a batch directly into a caller-provided row-major buffer:
    /// text `i` lands at `out[i * stride .. i * stride + dim]`. Padding
    /// lanes (`dim..stride`) are left untouched.
    ///
    /// This is the arena fill path for blocked similarity kernels: cache
    /// hits copy straight from the cached entry and misses embed into the
    /// destination row, so the batch never materializes a per-string
    /// `Arc<Vec<f32>>` on the way out.
    ///
    /// # Panics
    /// Panics if `stride < dim` or `out` is shorter than
    /// `texts.len() * stride`.
    pub fn get_batch_into<S: AsRef<str>>(&self, texts: &[S], stride: usize, out: &mut [f32]) {
        let dim = self.dim();
        assert!(stride >= dim, "stride {stride} shorter than dim {dim}");
        assert!(
            out.len() >= texts.len() * stride,
            "buffer of {} floats too short for {} rows at stride {stride}",
            out.len(),
            texts.len()
        );
        for (text, row) in texts.iter().zip(out.chunks_exact_mut(stride)) {
            let text = text.as_ref();
            // Hit fast path: copy straight out of the cached entry under
            // the read lock, no Arc traffic. Misses delegate to `get` so
            // counter and insertion semantics stay defined in one place.
            if let Some(e) = self.entries.read().get(text) {
                e.referenced.store(true, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                row[..dim].copy_from_slice(&e.vec);
                continue;
            }
            row[..dim].copy_from_slice(&self.get(text));
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound so far (always 0 when
    /// unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Drops all entries and resets counters.
    pub fn clear(&self) {
        self.entries.write().clear();
        self.ring.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_ngram::HashNGramModel;

    fn cache() -> EmbeddingCache {
        EmbeddingCache::new(Arc::new(HashNGramModel::new(1)))
    }

    fn bounded(cap: usize) -> EmbeddingCache {
        EmbeddingCache::with_capacity(Arc::new(HashNGramModel::new(1)), cap)
    }

    #[test]
    fn caches_and_counts() {
        let c = cache();
        let a = c.get("dog");
        let b = c.get("dog");
        assert_eq!(a, b);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
        assert!(c.contains("dog"));
        assert!(!c.contains("cat"));
        // The model was only invoked once.
        assert_eq!(c.model().stats().invocations(), 1);
    }

    #[test]
    fn prefetch_avoids_miss_counting() {
        let c = cache();
        c.prefetch(["a", "b", "a"]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.misses(), 0);
        c.get("a");
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn batch_through_cache() {
        let c = cache();
        let dim = c.dim();
        let mut out = vec![0.0f32; 3 * dim];
        c.get_batch_into(&["x", "y", "x"], dim, &mut out);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 1);
        // Rows 0 and 2 are identical.
        assert_eq!(out[0..dim], out[2 * dim..3 * dim]);
    }

    #[test]
    fn batch_into_strided_buffer() {
        let c = cache();
        let dim = c.dim();
        let stride = dim + 3;
        let mut out = vec![f32::NAN; 3 * stride];
        c.get_batch_into(&["x", "y", "x"], stride, &mut out);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 1);
        for (i, t) in ["x", "y", "x"].iter().enumerate() {
            assert_eq!(out[i * stride..i * stride + dim], c.get(t)[..], "row {i}");
            // Padding lanes untouched.
            assert!(out[i * stride + dim..(i + 1) * stride]
                .iter()
                .all(|x| x.is_nan()));
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn batch_into_short_buffer_panics() {
        let c = cache();
        let mut out = vec![0.0f32; c.dim()];
        c.get_batch_into(&["a", "b"], c.dim(), &mut out);
    }

    #[test]
    fn clear_resets() {
        let c = cache();
        c.get("x");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits() + c.misses(), 0);
    }

    #[test]
    fn bounded_cache_holds_its_bound() {
        let c = bounded(4);
        assert_eq!(c.capacity(), Some(4));
        for i in 0..20 {
            c.get(&format!("t{i}"));
            assert!(c.len() <= 4, "len {} exceeded capacity", c.len());
        }
        assert_eq!(c.evictions(), 16);
        // Unbounded cache never evicts.
        let u = cache();
        for i in 0..20 {
            u.get(&format!("t{i}"));
        }
        assert_eq!(u.evictions(), 0);
        assert_eq!(u.len(), 20);
    }

    #[test]
    fn clock_gives_hit_entries_a_second_chance() {
        let c = bounded(2);
        c.get("a");
        c.get("b");
        // Touch "a": its referenced bit protects it from the next sweep.
        c.get("a");
        c.get("c");
        assert!(c.contains("a"), "recently used entry was evicted");
        assert!(!c.contains("b"), "cold entry should have been the victim");
        assert!(c.contains("c"));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn evicted_entries_recompute_on_next_get() {
        let c = bounded(1);
        c.get("a");
        c.get("b"); // evicts "a"
        assert_eq!(c.evictions(), 1);
        let before = c.model().stats().invocations();
        c.get("a"); // recompute
        assert_eq!(c.model().stats().invocations(), before + 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn bounded_batch_path_evicts_too() {
        let c = bounded(3);
        let texts: Vec<String> = (0..8).map(|i| format!("w{i}")).collect();
        let mut out = vec![0.0f32; texts.len() * c.dim()];
        c.get_batch_into(&texts, c.dim(), &mut out);
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 5);
        // clear() resets eviction accounting and the ring.
        c.clear();
        assert_eq!(c.evictions(), 0);
        assert!(c.is_empty());
    }
}
