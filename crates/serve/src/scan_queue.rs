//! Multi-query scan sharing: how a group of queries is formed, admitted,
//! swept and unwound.
//!
//! Queries whose cached plans expose equal shared-scan group keys (see
//! `cx_exec::shared`) are held for a short window so they can be answered
//! by one `cx_mqo::SharedScanExec` sweep instead of one sweep each.
//! [`ScanQueue`] forms the groups as a client of the serving layer's one
//! coalescing primitive ([`crate::coalesce`]): the first query to arrive
//! for a key leads, lingers for co-runners (up to `group_max` of them, at
//! most `linger` long), then drains the whole group on its own thread
//! while followers block for their results. An *uncontended* query pays
//! nothing: the caller passes a contention signal, and a leader that is
//! provably alone seals and sweeps immediately instead of lingering. A
//! drain panic is contained: every member gets a transient error (and
//! retries solo) instead of a wedged condvar.
//!
//! What a drain does lives here too, as the server's `dispatch` and
//! `drain_group`: one group admission, one shared sweep, each member's
//! own epilogue, and the solo fallbacks when any of that fails.

use crate::coalesce::{Clock, Coalescer, SystemClock};
use crate::faults::FaultSite;
use crate::server::{ExecUnit, ServeResult, Server};
use cx_exec::{find_shared_scan, PhysicalOperator, ScanSignature};
use cx_mqo::SharedScanExec;
use cx_obs::QueryTrace;
use cx_optimizer::shared_scan_cost;
use cx_storage::{Error, QueryContext, QueryError, Result};
use std::panic::AssertUnwindSafe;
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
    /// The query's execution unit: resolved plan, the tree to run (lowered
    /// for this execution alone), memo slot, and admission weight.
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

/// Leader/follower group former (see module docs).
pub struct ScanQueue {
    pub(crate) groups: Coalescer<GroupEntry, Result<ServeResult>>,
    clock: Arc<dyn Clock>,
    counters: ScanQueueCounters,
}

impl ScanQueue {
    /// A queue under `config` (group size clamped to at least 1) on the
    /// real clock.
    pub fn new(config: ScanQueueConfig) -> Self {
        Self::with_clock(config, Arc::new(SystemClock))
    }

    /// A queue whose linger is measured on `clock`.
    pub(crate) fn with_clock(config: ScanQueueConfig, clock: Arc<dyn Clock>) -> Self {
        // A failed drain reports *transient* errors, so every member
        // retries once, solo, under the server's transient-failure policy.
        let failed = || {
            Err(Error::Query(QueryError::Transient(
                "shared-scan drain failed to produce a result".into(),
            )))
        };
        ScanQueue {
            groups: Coalescer::new(config.group_max, config.linger, clock.clone(), failed),
            clock,
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
        let c = &self.counters;
        c.submitted.fetch_add(1, Ordering::Relaxed);
        self.groups.submit(key, entry, 1, contended, |entries| {
            let k = entries.len() as u64;
            c.groups.fetch_add(1, Ordering::Relaxed);
            c.grouped_queries.fetch_add(k, Ordering::Relaxed);
            c.max_group.fetch_max(k, Ordering::Relaxed);
            if k >= 2 {
                c.shared_groups.fetch_add(1, Ordering::Relaxed);
                c.shared_queries.fetch_add(k, Ordering::Relaxed);
            }
            drain(entries)
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ScanQueueStats {
        self.counters.snapshot()
    }
}

/// The traced members of a group, with their positions in it.
fn traced(entries: &[GroupEntry]) -> impl Iterator<Item = (usize, &GroupEntry, &QueryTrace)> {
    entries.iter().enumerate().filter_map(|(i, e)| Some((i, e, e.unit.trace.as_ref()?)))
}

/// The context a group's shared sweep runs under: deadline = the *latest*
/// member deadline (any member with no deadline makes the sweep
/// unbounded). Per-member deadlines are enforced at the epilogues; the
/// sweep itself only dies when it can no longer serve anyone.
fn group_context(entries: &[GroupEntry]) -> QueryContext {
    let deadlines: Option<Vec<Instant>> = entries.iter().map(|e| e.unit.ctx.deadline()).collect();
    match deadlines.and_then(|d| d.into_iter().max()) {
        Some(latest) => QueryContext::unbounded().with_deadline(latest),
        None => QueryContext::unbounded(),
    }
}

impl Server {
    /// Routes a resolved execution unit whose result memo missed:
    /// multi-query scan sharing, then solo execution.
    pub(crate) fn dispatch(&self, unit: ExecUnit, cfg_fp: u64) -> Result<ServeResult> {
        // Multi-query scan sharing: plans with a shareable sweep queue up
        // by group key — the scan signature's key ⊕ the config fingerprint
        // (configs change how subtrees lower) ⊕ the catalog version (never
        // group across registrations). Every execution lowers its own
        // bound tree, so the candidate fingerprint is that of the subtree
        // actually scanned; the group key excludes per-query probes, so
        // bound sweeps join ad-hoc groups freely.
        if self.config.mqo {
            if let Some((node, sig)) = find_shared_scan(&unit.root) {
                let group_key = sig.group_key()
                    ^ cfg_fp
                    ^ unit.cached.catalog_version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let queued_at = self.scan_queue.clock.now();
                let entry = GroupEntry { unit, node, signature: sig, queued_at };
                // A query with no other query in flight cannot be joined
                // by anyone: skip the linger and sweep immediately.
                let contended = self.in_flight.load(Ordering::Relaxed) > 1;
                return self
                    .scan_queue
                    .submit(group_key, entry, contended, |entries| self.drain_group(entries));
            }
        }

        self.execute_solo(&unit)
    }

    /// Drains one scan-queue group: one shared sweep, then every member's
    /// own epilogue. Runs on the group leader's thread.
    ///
    /// Failure domains, narrowest first: an expired/cancelled **member**
    /// exits alone at its epilogue (the group survives); a failed or
    /// panicked **sweep** falls back to solo execution per member; a
    /// panicked **drain** is contained by the scan queue and every member
    /// retries solo via the transient policy. Non-faulted members always
    /// get bit-identical-to-solo results.
    fn drain_group(&self, entries: Vec<GroupEntry>) -> Vec<Result<ServeResult>> {
        let clock = &self.scan_queue.clock;
        let fault = self.fault_plan();
        let k = entries.len();
        let drain_started = clock.now();
        // Attribute the linger to every traced member: how long each
        // query sat in the scan queue before its group drained. The
        // leader waited the whole linger; late joiners waited less.
        for (i, e, trace) in traced(&entries) {
            let role = if i == 0 { "leader" } else { "follower" };
            let waited = drain_started.saturating_duration_since(e.queued_at);
            trace.add_span("scan_queue_wait", format!("{role} k={k}"), e.queued_at, waited, 0, false);
        }
        if let Some(plan) = &fault {
            // An injected drain *panic* deliberately propagates into the
            // scan queue's containment (every member gets a transient
            // error); an injected transient error is reported per member
            // directly.
            if plan.strike(FaultSite::Drain).is_err() {
                for (_, _, trace) in traced(&entries) {
                    trace.add_event("fault", "drain");
                }
                return entries
                    .iter()
                    .map(|_| Err(QueryError::Transient("injected fault at drain".into()).into()))
                    .collect();
            }
        }

        if k == 1 {
            // Nobody joined inside the linger window: plain solo
            // execution, no sweep overhead beyond the wait itself.
            return vec![self.execute_solo(&entries[0].unit)];
        }

        // Build the shared plan. Any failure here (unknown model, a
        // malformed group) falls back to solo execution per member —
        // sharing is an optimization, never a correctness dependency.
        let model = &entries[0].signature.model;
        let shared = self
            .engine
            .embedding_cache(model)
            .ok_or_else(|| Error::InvalidArgument(format!("unknown model: {model}")))
            .and_then(|cache| {
                let members: Vec<(Arc<dyn PhysicalOperator>, ScanSignature)> =
                    entries.iter().map(|e| (e.node.clone(), e.signature.clone())).collect();
                SharedScanExec::from_group(&members, cache)
            });

        // One admission permit covers the whole group; each member is
        // charged its shared weight (sweep split k ways, epilogue whole),
        // so coalesced queries admit cheaper than k solo queries would.
        // The wait honors the group deadline: if even the latest member
        // deadline passes while queued, nobody is left to serve.
        let group_ctx = group_context(&entries);
        let weight: f64 = entries.iter().map(|e| shared_scan_cost(e.unit.cost, k)).sum();
        let admit_started = clock.now();
        let admitted = self.gate.acquire_ctx(weight, &group_ctx, 0);
        let admit_dur = clock.now().saturating_duration_since(admit_started);
        self.queue_wait_hist.record_duration(admit_dur);
        // One group permit covers everyone: the wait is shared work,
        // attributed to every traced member.
        for (_, _, trace) in traced(&entries) {
            trace.add_span("admission", "group", admit_started, admit_dur, 0, true);
        }
        let permit = match admitted {
            Ok(permit) => permit,
            Err(_) => {
                // The group deadline is the max over members, so every
                // member's own deadline has passed too; report each with
                // its own typed error.
                return entries
                    .iter()
                    .map(|e| match e.unit.ctx.check() {
                        Err(err) => Err(err),
                        Ok(()) => Err(QueryError::DeadlineExceeded.into()),
                    })
                    .collect();
            }
        };

        let states = shared.and_then(|shared| {
            if let Some(plan) = &fault {
                // A sweep fault (transient) takes the solo-fallback path
                // below; a sweep panic propagates to the scan queue's
                // containment.
                if let Err(e) = plan.strike(FaultSite::Sweep) {
                    for (_, _, trace) in traced(&entries) {
                        trace.add_event("fault", "sweep");
                    }
                    return Err(e);
                }
            }
            // The sweep is no operator in any member's tree; record it
            // into the operator metrics by hand so reports show SharedScan
            // rows (its hits) and time.
            // It runs under the *group* context: member deadlines are
            // enforced at the epilogues, not mid-sweep.
            let sweep_started = clock.now();
            let outcome = {
                // The leader's trace hosts the live span so the sweep's
                // internal spans (candidate scan, probe gather, panel
                // sweep) nest beneath it; every other member gets the
                // same interval attributed below, tagged shared — the
                // sweep ran once but served them all.
                let _scope = cx_obs::install_trace(entries[0].unit.trace.as_ref());
                let _sweep_span =
                    cx_obs::span_with("shared_sweep", || format!("leader k={k} model={model}"))
                        .shared();
                group_ctx.scope(|| shared.sweep())?
            };
            let sweep_dur = clock.now().saturating_duration_since(sweep_started);
            self.sweep_hist.record_duration(sweep_dur);
            for (_, _, trace) in traced(&entries).filter(|(i, ..)| *i > 0) {
                let detail = format!("follower k={k}");
                trace.add_span("shared_sweep", detail, sweep_started, sweep_dur, 0, true);
            }
            self.metrics.handle("SharedScan").record(outcome.hits.len() as u64, 1, sweep_dur);
            let saved = &self.scan_queue.counters;
            saved.panel_rows_saved.fetch_add(outcome.stats.panel_rows_saved, Ordering::Relaxed);
            saved.pairs_saved.fetch_add(outcome.stats.pairs_saved, Ordering::Relaxed);
            shared.member_states()
        });
        let states = match states {
            Ok(states) => states,
            Err(_) => {
                // Shared sweep failed: fall back to solo execution. The
                // group permit was sized for a *shared* sweep; solo runs
                // do full work, so hand it back and let every member
                // re-admit at its full cost.
                self.scan_queue.counters.sweep_fallbacks.fetch_add(1, Ordering::Relaxed);
                drop(permit);
                return entries.iter().map(|e| self.execute_solo(&e.unit)).collect();
            }
        };

        // Epilogues run sequentially on this (leader) thread; followers
        // later in line spend that time waiting, which their traces show
        // as `epilogue_wait` so per-member span sums still cover the
        // member's wall clock.
        let epilogues_base = clock.now();
        entries
            .iter()
            .zip(states)
            .enumerate()
            .map(|(i, (e, state))| {
                // A member whose result got memoized since it queued (an
                // identical query in this very group, say) skips
                // execution — memo hits never re-execute.
                let u = &e.unit;
                if let Some(result) =
                    self.try_result_memo(&u.cached, &u.binding, u.cost, u.plan_cache_hit, u.started)
                {
                    return Ok(result);
                }
                if i > 0 {
                    if let Some(trace) = &e.unit.trace {
                        let waited = clock.now().saturating_duration_since(epilogues_base);
                        let detail = format!("behind {i} sibling epilogue(s)");
                        trace.add_span("epilogue_wait", detail, epilogues_base, waited, 0, false);
                    }
                }
                // Per-member blast radius: a panicking epilogue (injected
                // or genuine) costs this member a transient error — its
                // siblings' epilogues still run off the same sweep. A
                // member past its deadline (or cancelled, or over budget)
                // exits here without killing the group.
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let _scope = cx_obs::install_trace(e.unit.trace.as_ref());
                    let _epi = cx_obs::span_with("epilogue", || format!("member {i}/{k}"));
                    if let Some(plan) = &fault {
                        if let Err(err) = plan.strike(FaultSite::Epilogue) {
                            cx_obs::event("fault", || "epilogue".into());
                            return Err(err);
                        }
                    }
                    e.unit.ctx.check()?;
                    // Injection failing (operator refuses the state) is
                    // fine: the member simply runs its solo scan inside
                    // the same execution.
                    e.node.inject_shared_scan(state);
                    self.run_unit(&e.unit, true)
                }));
                outcome.unwrap_or_else(|_| {
                    self.lifecycle.contained_panics.fetch_add(1, Ordering::Relaxed);
                    Err(QueryError::Transient("epilogue panicked (contained)".into()).into())
                })
            })
            .collect()
    }
}
