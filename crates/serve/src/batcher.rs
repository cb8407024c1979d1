//! Cross-query embedding batch scheduler.
//!
//! Concurrent queries over overlapping corpora each need embeddings for
//! their distinct key values. Left alone, every query pushes its own texts
//! through the model; the paper's batched/caching design wants N
//! overlapping requests to pay one model pass. [`EmbedBatcher`] provides
//! that: queries submit their text sets with [`EmbedBatcher::warm`], the
//! scheduler deduplicates them into one pending queue (a text requested by
//! five queries is embedded once and all five block on the same slot), and
//! a flusher thread drains the queue with a single
//! [`EmbeddingCache::get_batch_into`] call per batch.
//!
//! Flushes trigger on **size** (`max_batch` pending texts) or **deadline**
//! (`linger` after the oldest pending text arrived), so a lone query is
//! delayed at most one linger interval while bursts fill whole batches.
//! The queue is bounded by the size trigger: it cannot sit above
//! `max_batch` for longer than one flush.

use cx_embed::EmbeddingCache;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
        BatcherConfig { max_batch: 256, linger: Duration::from_micros(500) }
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
        /// Texts that entered the pending queue (first requester).
        texts_enqueued: counter "cx_serve_batcher_texts_enqueued_total"
            "Texts enqueued for embedding",
        /// Texts skipped because the cache already held them.
        texts_already_cached: counter "cx_serve_batcher_texts_already_cached_total"
            "Texts skipped as already cached",
        /// Texts that piggybacked on another request's pending/in-flight slot —
        /// the cross-query sharing this scheduler exists for.
        texts_coalesced: counter "cx_serve_batcher_texts_coalesced_total"
            "Texts coalesced with concurrent requests",
        /// Batched `get_batch_into` calls issued.
        batches: counter "cx_serve_batcher_batches_total" "Batches flushed",
        /// Texts embedded across all batches.
        batched_texts: counter "cx_serve_batcher_batched_texts_total"
            "Texts embedded through batches",
        /// Batches whose texts came from ≥ 2 distinct `warm` calls.
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

struct State {
    /// text → tickets of the `warm` calls waiting on it.
    pending: HashMap<String, Vec<u64>>,
    /// FIFO of pending texts (flush order); keys may go stale if the map
    /// entry was already drained — stale keys are skipped.
    order: VecDeque<String>,
    /// Texts currently being embedded by the flusher.
    inflight: HashSet<String>,
    /// Deadline of the oldest pending text, if any.
    deadline: Option<Instant>,
    shutdown: bool,
}

struct Shared {
    cache: Arc<EmbeddingCache>,
    config: BatcherConfig,
    state: Mutex<State>,
    /// Wakes the flusher (new work / shutdown).
    work: Condvar,
    /// Wakes waiters (batch finished).
    done: Condvar,
    next_ticket: AtomicU64,
    counters: BatcherCounters,
}

/// A batching front-end over one model's [`EmbeddingCache`].
pub struct EmbedBatcher {
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl EmbedBatcher {
    /// Starts a batcher (and its flusher thread) over `cache`.
    pub fn new(cache: Arc<EmbeddingCache>, config: BatcherConfig) -> Self {
        let shared = Arc::new(Shared {
            cache,
            config: BatcherConfig { max_batch: config.max_batch.max(1), ..config },
            state: Mutex::new(State {
                pending: HashMap::new(),
                order: VecDeque::new(),
                inflight: HashSet::new(),
                deadline: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next_ticket: AtomicU64::new(0),
            counters: BatcherCounters::default(),
        });
        let worker = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("cx-serve-embed-batcher".into())
                .spawn(move || flusher(&shared))
                .expect("spawn embed batcher thread")
        };
        EmbedBatcher { shared, worker: Mutex::new(Some(worker)) }
    }

    /// The cache this batcher fills.
    pub fn cache(&self) -> &Arc<EmbeddingCache> {
        &self.shared.cache
    }

    /// Ensures every text in `texts` is embedded in the cache, batching the
    /// misses with every other in-flight `warm` call. Blocks until done;
    /// returns the number of texts this call actually waited on (0 = all
    /// were already cached).
    pub fn warm<S: AsRef<str>>(&self, texts: &[S]) -> usize {
        let sh = &*self.shared;
        sh.counters.requests.fetch_add(1, Ordering::Relaxed);
        sh.counters.texts_requested.fetch_add(texts.len() as u64, Ordering::Relaxed);
        if texts.is_empty() {
            return 0;
        }
        let ticket = sh.next_ticket.fetch_add(1, Ordering::Relaxed);
        // Texts this call must see flushed before returning.
        let mut waiting: Vec<String> = Vec::new();
        let waited;
        {
            let mut seen = HashSet::new();
            let mut state = sh.state.lock();
            for t in texts {
                let t = t.as_ref();
                if !seen.insert(t) {
                    continue; // intra-request duplicate
                }
                if let Some(tickets) = state.pending.get_mut(t) {
                    tickets.push(ticket);
                    sh.counters.texts_coalesced.fetch_add(1, Ordering::Relaxed);
                    waiting.push(t.to_string());
                } else if state.inflight.contains(t) {
                    sh.counters.texts_coalesced.fetch_add(1, Ordering::Relaxed);
                    waiting.push(t.to_string());
                } else if sh.cache.contains(t) {
                    sh.counters.texts_already_cached.fetch_add(1, Ordering::Relaxed);
                } else {
                    state.pending.insert(t.to_string(), vec![ticket]);
                    state.order.push_back(t.to_string());
                    if state.deadline.is_none() {
                        state.deadline = Some(Instant::now() + sh.config.linger);
                    }
                    sh.counters.texts_enqueued.fetch_add(1, Ordering::Relaxed);
                    waiting.push(t.to_string());
                }
            }
            if waiting.is_empty() {
                return 0;
            }
            waited = waiting.len();
            sh.work.notify_one();
            // Wait until none of our texts is pending or in flight. The
            // flush itself populated the cache; checking the queues (not
            // cache membership) keeps bounded caches from wedging a waiter
            // whose entry was already evicted again.
            loop {
                waiting.retain(|t| state.pending.contains_key(t) || state.inflight.contains(t));
                if waiting.is_empty() {
                    break;
                }
                state = sh.done.wait(state);
            }
        }
        waited
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BatcherStats {
        self.shared.counters.snapshot()
    }
}

impl Drop for EmbedBatcher {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

/// The flusher loop: sleep until size/deadline/shutdown, drain one batch,
/// embed it with a single batched cache call, repeat. Drains remaining
/// work before exiting on shutdown.
fn flusher(sh: &Shared) {
    loop {
        // Phase 1: decide what to flush (under the lock).
        let batch: Vec<(String, Vec<u64>)> = {
            let mut state = sh.state.lock();
            loop {
                if state.shutdown {
                    break; // drain whatever is left, then exit below
                }
                if state.pending.len() >= sh.config.max_batch {
                    break;
                }
                match state.deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        state = sh.work.wait_timeout(state, deadline - now).0;
                    }
                    None => state = sh.work.wait(state),
                }
            }
            let mut batch = Vec::new();
            while batch.len() < sh.config.max_batch {
                let Some(key) = state.order.pop_front() else { break };
                if let Some(tickets) = state.pending.remove(&key) {
                    state.inflight.insert(key.clone());
                    batch.push((key, tickets));
                }
                // else: stale order slot, skip.
            }
            state.deadline = if state.order.is_empty() {
                None
            } else {
                // Conservative: restart the linger window for what remains
                // (at most one extra linger of delay for overflow texts).
                Some(Instant::now() + sh.config.linger)
            };
            if batch.is_empty() && state.shutdown {
                return;
            }
            batch
        };
        if batch.is_empty() {
            continue;
        }

        // Phase 2: one batched embedding pass, outside the lock, so new
        // submissions keep queueing (and coalescing) while the model runs.
        // A model panic on a pathological input must cost one batch, not
        // the server: catch it, let the waiters proceed (their texts stay
        // uncached and embed inline in the operator, where the panic
        // surfaces in the failing query's own thread instead of wedging
        // every future `warm` on a dead inflight slot).
        let embed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let texts: Vec<&str> = batch.iter().map(|(t, _)| t.as_str()).collect();
            let dim = sh.cache.dim();
            let mut buf = vec![0.0f32; texts.len() * dim];
            sh.cache.get_batch_into(&texts, dim, &mut buf);
        }));
        if embed.is_err() {
            sh.counters.failed_batches.fetch_add(1, Ordering::Relaxed);
        }

        sh.counters.batches.fetch_add(1, Ordering::Relaxed);
        sh.counters.batched_texts.fetch_add(batch.len() as u64, Ordering::Relaxed);
        sh.counters.max_batch_size.fetch_max(batch.len() as u64, Ordering::Relaxed);
        let submitters: HashSet<u64> =
            batch.iter().flat_map(|(_, tickets)| tickets.iter().copied()).collect();
        sh.counters.max_batch_submitters.fetch_max(submitters.len() as u64, Ordering::Relaxed);
        if submitters.len() >= 2 {
            sh.counters.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        }

        // Phase 3: mark done, wake waiters.
        let mut state = sh.state.lock();
        for (t, _) in &batch {
            state.inflight.remove(t);
        }
        drop(state);
        sh.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cx_embed::HashNGramModel;
    use std::sync::Barrier;

    fn batcher(config: BatcherConfig) -> EmbedBatcher {
        let cache = Arc::new(EmbeddingCache::new(Arc::new(HashNGramModel::new(7))));
        EmbedBatcher::new(cache, config)
    }

    #[test]
    fn warm_fills_cache_in_one_batch() {
        let b = batcher(BatcherConfig { max_batch: 64, linger: Duration::from_millis(1) });
        let waited = b.warm(&["a", "b", "c", "a"]);
        assert_eq!(waited, 3);
        for t in ["a", "b", "c"] {
            assert!(b.cache().contains(t));
        }
        let s = b.stats();
        assert_eq!(s.texts_enqueued, 3);
        assert_eq!(s.batches, 1, "expected one batched flush, got {s:?}");
        assert_eq!(s.batched_texts, 3);
        // Second warm is a pure cache hit: no new batch.
        assert_eq!(b.warm(&["a", "b"]), 0);
        let s = b.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.texts_already_cached, 2);
    }

    #[test]
    fn size_trigger_flushes_before_linger() {
        let b = batcher(BatcherConfig { max_batch: 2, linger: Duration::from_secs(60) });
        let start = Instant::now();
        b.warm(&["x", "y"]); // hits the size trigger immediately
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(b.stats().batches, 1);
    }

    #[test]
    fn concurrent_warms_coalesce_into_one_model_pass() {
        let b = Arc::new(batcher(BatcherConfig {
            max_batch: 1024,
            linger: Duration::from_millis(100),
        }));
        let threads = 4;
        let barrier = Arc::new(Barrier::new(threads));
        let texts: Vec<String> = (0..32).map(|i| format!("word{i}")).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let b = b.clone();
                let barrier = barrier.clone();
                let texts = texts.clone();
                s.spawn(move || {
                    barrier.wait();
                    b.warm(&texts);
                });
            }
        });
        let s = b.stats();
        // All four requests landed inside one linger window: the 32
        // distinct texts were enqueued once, embedded once, and the other
        // three requests piggybacked.
        assert_eq!(s.texts_enqueued, 32);
        assert_eq!(s.batched_texts, 32);
        assert_eq!(b.cache().model().stats().invocations(), 32);
        assert!(s.texts_coalesced >= 32, "stats {s:?}");
        assert!(s.max_batch_submitters >= 2, "stats {s:?}");
        assert!(s.coalesced_batches >= 1, "stats {s:?}");
    }

    #[test]
    fn drop_joins_flusher_cleanly() {
        let b = batcher(BatcherConfig { max_batch: 8, linger: Duration::from_millis(1) });
        assert_eq!(b.warm(&["p", "q"]), 2);
        drop(b); // must join the flusher thread without hanging
    }
}
