//! The scan queue: groups concurrently queued queries for shared sweeps.
//!
//! Queries whose cached plans expose equal shared-scan group keys (see
//! `cx_exec::shared`) are held here for a short window so they can be
//! answered by one `cx_mqo::SharedScanExec` sweep instead of one sweep
//! each. The discipline mirrors [`crate::batcher::EmbedBatcher`] —
//! mutex + condvar, size/linger flush — but with a
//! **leader/follower** twist instead of a dedicated flusher thread: the
//! first query to arrive for a key becomes the group's leader, lingers
//! for co-runners (up to `group_max` of them, at most `linger` long),
//! then drains the whole group on its own thread while followers block
//! for their results. No background thread, nothing to shut down; an
//! idle server pays nothing — and an *uncontended* query pays nothing
//! either: the caller passes a contention signal, and a leader that is
//! provably alone seals and sweeps immediately instead of lingering.
//!
//! The queue owns grouping and hand-off only; what a "drain" does is the
//! caller's closure (the server sweeps shared panels there). A drain
//! panic is contained: every member of the group gets an error instead
//! of a wedged condvar.

use crate::server::{ExecUnit, ServeResult};
use cx_exec::{PhysicalOperator, ScanSignature};
use cx_storage::{Error, QueryError, Result};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Grouping policy.
#[derive(Debug, Clone, Copy)]
pub struct ScanQueueConfig {
    /// Most queries merged into one shared sweep.
    pub group_max: usize,
    /// Longest the group's first query waits for co-runners.
    pub linger: Duration,
}

/// One query waiting for (or leading) a shared sweep.
pub struct GroupEntry {
    /// The query's execution unit: resolved plan, the tree to run (the
    /// cached tree for ad-hoc queries, a parameter-bound copy for
    /// prepared executions), memo slot, and admission weight.
    pub unit: ExecUnit,
    /// The shareable scan node inside the unit's executable tree.
    pub node: Arc<dyn PhysicalOperator>,
    /// Its scan signature (per-query probe/threshold included).
    pub signature: ScanSignature,
    /// When the query entered the scan queue — the start of its
    /// `scan_queue_wait` trace span and group queue-wait accounting.
    pub queued_at: Instant,
}

cx_obs::metric_family! {
    /// Counter snapshot of a [`ScanQueue`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ScanQueueStats, counters ScanQueueCounters {
        /// Queries that entered the queue.
        submitted: counter "cx_serve_scan_submitted_total" "Queries entering the scan queue",
        /// Groups drained (singletons included).
        groups: counter "cx_serve_scan_groups_total" "Scan groups drained",
        /// Queries drained through groups.
        grouped_queries: counter "cx_serve_scan_grouped_queries_total"
            "Queries drained through groups",
        /// Groups that actually coalesced (≥ 2 members).
        shared_groups: counter "cx_serve_scan_shared_groups_total"
            "Groups that actually coalesced",
        /// Queries answered by a genuinely shared sweep.
        shared_queries: counter "cx_serve_scan_shared_queries_total"
            "Queries answered by a shared sweep",
        /// Largest group drained.
        max_group: gauge "cx_serve_scan_max_group" "Largest group drained",
        /// Candidate-panel row materializations avoided versus solo runs.
        panel_rows_saved: counter "cx_serve_scan_panel_rows_saved_total"
            "Panel row materializations avoided by sharing",
        /// Similarity pairs avoided by cross-query probe deduplication.
        pairs_saved: counter "cx_serve_scan_pairs_saved_total"
            "Similarity pairs deduplicated across queries",
        /// Groups whose shared sweep failed and fell back to solo execution.
        sweep_fallbacks: counter "cx_serve_scan_sweep_fallbacks_total"
            "Shared sweeps that fell back to solo execution",
    }
}

struct GroupState {
    /// Entries in arrival order; taken (`None`) by the leader at drain.
    entries: Vec<Option<GroupEntry>>,
    /// Per-entry result slots, filled by the leader.
    results: Vec<Option<Result<ServeResult>>>,
    /// Set when the size trigger fires (wakes the lingering leader).
    full: bool,
    /// Set once the leader seals the group; late arrivals start fresh.
    closed: bool,
}

struct GroupCell {
    state: Mutex<GroupState>,
    cv: Condvar,
}

/// Leader/follower group former (see module docs).
pub struct ScanQueue {
    config: ScanQueueConfig,
    groups: Mutex<HashMap<u64, Arc<GroupCell>>>,
    counters: ScanQueueCounters,
}

impl ScanQueue {
    /// A queue under `config` (group size clamped to at least 1).
    pub fn new(config: ScanQueueConfig) -> Self {
        ScanQueue {
            config: ScanQueueConfig { group_max: config.group_max.max(1), ..config },
            groups: Mutex::new(HashMap::new()),
            counters: ScanQueueCounters::default(),
        }
    }

    /// Joins (or starts) the group under `key` and blocks until this
    /// query's result is ready. The first arrival leads: it lingers for
    /// co-runners, then runs `drain` over the whole group (entries in
    /// arrival order; the leader's own entry first) and distributes the
    /// returned results, which must be index-aligned with the entries.
    /// Followers never invoke `drain`.
    ///
    /// `contended` is the caller's signal that other queries are in
    /// flight and might join: when `false`, a leader seals and drains
    /// immediately instead of lingering — an uncontended query pays no
    /// grouping latency at all.
    pub fn submit(
        &self,
        key: u64,
        entry: GroupEntry,
        contended: bool,
        drain: impl FnOnce(Vec<GroupEntry>) -> Vec<Result<ServeResult>>,
    ) -> Result<ServeResult> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        loop {
            let cell = {
                let mut map = self.groups.lock();
                map.entry(key)
                    .or_insert_with(|| {
                        Arc::new(GroupCell {
                            state: Mutex::new(GroupState {
                                entries: Vec::new(),
                                results: Vec::new(),
                                full: false,
                                closed: false,
                            }),
                            cv: Condvar::new(),
                        })
                    })
                    .clone()
            };
            let mut state = cell.state.lock();
            if state.closed || state.entries.len() >= self.config.group_max {
                // The leader sealed this group between our map lookup and
                // now — or the size trigger fired but the leader has not
                // reacquired the lock yet (`group_max` binds at join time,
                // not just at seal time). Either way: detach the stale
                // slot and start a fresh group.
                drop(state);
                self.detach(key, &cell);
                continue;
            }
            let index = state.entries.len();
            state.entries.push(Some(entry));
            state.results.push(None);
            if index + 1 >= self.config.group_max {
                state.full = true;
                cell.cv.notify_all();
            }
            if index == 0 {
                return self.lead(key, &cell, state, contended, drain);
            }
            // Follower: the leader will post our result.
            loop {
                if let Some(result) = state.results[index].take() {
                    return result;
                }
                state = cell.cv.wait(state);
            }
        }
    }

    /// Leader path: linger, seal, drain, distribute.
    fn lead(
        &self,
        key: u64,
        cell: &Arc<GroupCell>,
        mut state: MutexGuard<'_, GroupState>,
        contended: bool,
        drain: impl FnOnce(Vec<GroupEntry>) -> Vec<Result<ServeResult>>,
    ) -> Result<ServeResult> {
        let deadline = Instant::now() + self.config.linger;
        while contended && !state.full {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            state = cell.cv.wait_timeout(state, deadline - now).0;
        }
        state.closed = true;
        let entries: Vec<GroupEntry> =
            state.entries.iter_mut().map(|e| e.take().expect("entry taken once")).collect();
        drop(state);
        self.detach(key, cell);

        let k = entries.len();
        self.counters.groups.fetch_add(1, Ordering::Relaxed);
        self.counters.grouped_queries.fetch_add(k as u64, Ordering::Relaxed);
        self.counters.max_group.fetch_max(k as u64, Ordering::Relaxed);
        if k >= 2 {
            self.counters.shared_groups.fetch_add(1, Ordering::Relaxed);
            self.counters.shared_queries.fetch_add(k as u64, Ordering::Relaxed);
        }

        // A panicking drain must cost this group, not the server: turn it
        // into per-member *transient* errors — no follower wedges on the
        // condvar, and every member retries once, solo, under the
        // server's transient-failure policy.
        let mut results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drain(entries)))
            .unwrap_or_default();
        while results.len() < k {
            results.push(Err(Error::Query(QueryError::Transient(
                "shared-scan drain failed to produce a result".into(),
            ))));
        }
        results.truncate(k);

        let mut state = cell.state.lock();
        let mut mine = None;
        for (i, r) in results.into_iter().enumerate() {
            if i == 0 {
                mine = Some(r);
            } else {
                state.results[i] = Some(r);
            }
        }
        drop(state);
        cell.cv.notify_all();
        mine.expect("leader result present")
    }

    /// Removes `cell` from the map if it is still the group under `key`.
    fn detach(&self, key: u64, cell: &Arc<GroupCell>) {
        let mut map = self.groups.lock();
        if map.get(&key).is_some_and(|current| Arc::ptr_eq(current, cell)) {
            map.remove(&key);
        }
    }

    /// Folds one shared sweep's savings into the counters (called by the
    /// drain).
    pub fn record_sweep(&self, panel_rows_saved: u64, pairs_saved: u64) {
        self.counters.panel_rows_saved.fetch_add(panel_rows_saved, Ordering::Relaxed);
        self.counters.pairs_saved.fetch_add(pairs_saved, Ordering::Relaxed);
    }

    /// Counts a group whose sweep failed and fell back to solo runs.
    pub fn record_fallback(&self) {
        self.counters.sweep_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ScanQueueStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poisons `mutex` by unwinding through a held guard.
    fn poison<T>(mutex: &Mutex<T>) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock();
            panic!("poison");
        }));
        assert!(mutex.is_poisoned(), "mutex should be poisoned");
    }

    #[test]
    fn poisoned_group_map_recovers() {
        // A peer thread panicking while holding the group map must not
        // brick grouping for every later query: lock acquisitions recover
        // from poisoning instead of unwrapping.
        let queue = ScanQueue::new(ScanQueueConfig {
            group_max: 4,
            linger: Duration::from_millis(1),
        });
        poison(&queue.groups);
        let cell = Arc::new(GroupCell {
            state: Mutex::new(GroupState {
                entries: Vec::new(),
                results: Vec::new(),
                full: false,
                closed: false,
            }),
            cv: Condvar::new(),
        });
        // Both map users must survive the poisoned lock.
        queue.detach(7, &cell);
        {
            let mut map = queue.groups.lock();
            map.insert(9, cell.clone());
        }
        queue.detach(9, &cell);
        assert!(queue.groups.lock().is_empty());
    }

    #[test]
    fn poisoned_group_state_recovers() {
        // Same for a group cell's own state lock.
        let cell = GroupCell {
            state: Mutex::new(GroupState {
                entries: Vec::new(),
                results: Vec::new(),
                full: false,
                closed: false,
            }),
            cv: Condvar::new(),
        };
        poison(&cell.state);
        let mut state = cell.state.lock();
        state.closed = true;
        assert!(state.closed);
    }
}
