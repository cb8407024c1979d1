//! The concurrent query server: one shared engine, many sessions.
//!
//! [`Server`] wraps an `Arc<Engine>` and serves from any number of
//! threads. Every entry point — [`Server::execute`] and its variants,
//! [`Session::execute`], [`Session::explain_analyze`],
//! [`Prepared::execute`], [`Session::sql`] — is a thin caller of one
//! function that owns the statement's whole lifecycle; an ad-hoc query is
//! the zero-parameter case of a prepared statement. Per statement it:
//!
//! 1. **resolves the plan** — a [`PlanCache`] lookup on the template's
//!    `LogicalPlan::fingerprint() ⊕ config_fingerprint(...)`, validated
//!    against the catalog version; a miss optimizes once and caches the
//!    optimized logical plan; a replayed (template, binding vector) is
//!    then served from the entry's result memo, and anything else binds
//!    its parameters into the optimized plan and lowers the bound plan
//!    into an operator tree of its own (from the engine's planning
//!    snapshot, so lowering is a tree walk). There is no warm-up: what
//!    the optimizer's sampling and the execution embed goes through the
//!    engine's shared embedding cache on the statement's own thread,
//! 2. **admits** — [`CostGate::acquire_ctx`] on the optimizer's cost
//!    estimate bounds the total estimated cost executing at once, sheds
//!    with [`QueryError::QueueFull`] past [`ServeConfig::max_queued`]
//!    waiters, and lets queued queries honor their deadlines,
//! 3. **executes** — the execution's own physical tree runs wrapped in
//!    [`InstrumentedExec`] under the query's [`QueryContext`] scope, so
//!    deadline/cancellation/budget checks reach every chunk and kernel
//!    tile, and per-operator rows/time accumulate into the server-level
//!    [`ExecMetrics`] report.
//!
//! # Query lifecycle
//!
//! Every query runs under a [`QueryContext`] — deadline, cooperative
//! cancellation token, memory budget — built from [`QueryOptions`] (per
//! query) over [`ServeConfig`] defaults. Failures surface as typed
//! [`QueryError`]s. Policy on top of the mechanism:
//!
//! * a **transient failure retries once** — injected faults and
//!   contained panics map to [`QueryError::Transient`]; the retry runs
//!   the whole statement again, admission included;
//! * a **panic is contained at the query boundary** — the server
//!   converts it to `Transient` instead of unwinding the caller's
//!   thread, and keeps serving.
//!
//! A deterministic chaos harness ([`crate::faults`]) can be installed
//! with [`Server::set_fault_plan`] to strike these paths on purpose.

use crate::admission::{AdmissionStats, CostGate};
use crate::faults::{FaultPlan, FaultSite, FaultStats};
use crate::plan_cache::{BindingKey, CachedPlan, PlanCache, PlanCacheStats};
use crate::prepared::{Prepared, Statement};
use crate::watchdog::{WatchdogConfig, WatchdogHandle};
use context_engine::{Engine, Query};
use cx_exec::logical::LogicalPlan;
use cx_exec::metrics::InstrumentedExec;
use cx_exec::{collect_table, ExecMetrics, PhysicalOperator};
use cx_obs::{Histogram, IncidentLog, ProfileSpan, QueryProfile, QueryTrace, TraceRing};
use cx_optimizer::OptimizerConfig;
use cx_storage::{
    CancelToken, Error, MemoryBudget, QueryContext, QueryError, Result, Scalar, Table,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving-layer knobs (the engine keeps its own [`EngineConfig`]).
///
/// [`EngineConfig`]: context_engine::EngineConfig
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Plans kept by the plan cache (LRU past this).
    pub plan_cache_capacity: usize,
    /// Total estimated cost (abstract ns) admitted to execute at once.
    /// Non-finite or ≤ 0 disables admission control.
    pub admission_capacity: f64,
    /// Memoize each cached plan's result table and serve replays from it.
    /// Sound under the same invariant as the plan cache itself (the engine
    /// is deterministic; results are pinned to a catalog version and
    /// invalidated with the plan). Disable for workloads whose result
    /// tables are too large to keep `plan_cache_capacity` of them
    /// resident.
    pub cache_results: bool,
    /// Default per-query deadline, applied when [`QueryOptions::timeout`]
    /// is unset (`None` = no deadline). A query past its deadline stops
    /// at the next chunk/tile boundary with
    /// [`QueryError::DeadlineExceeded`].
    pub default_timeout: Option<Duration>,
    /// Default per-query memory budget in bytes, applied when
    /// [`QueryOptions::memory_budget`] is unset (0 = unlimited). Charged
    /// by arena panels and materialized chunks; a query over budget
    /// stops at the next cooperative check with
    /// [`QueryError::MemoryBudget`].
    pub default_memory_budget: u64,
    /// Most queries allowed to *wait* at the admission gate. One more
    /// would-block query is refused immediately with
    /// [`QueryError::QueueFull`] instead of queueing (0 = unbounded).
    pub max_queued: usize,
    /// Record a per-query [`QueryTrace`] of lifecycle spans (plan cache,
    /// optimize, admission wait, execution and the operator spans
    /// beneath it) for every query. Off by default: a span site records
    /// only on a thread this server installed a trace on, and costs one
    /// thread-local load everywhere else — other servers in the process
    /// included. Latency histograms are always on regardless (they are
    /// counter-cheap).
    pub tracing: bool,
    /// Finished traces retained in the in-memory ring
    /// ([`Server::traces`] / [`Server::last_trace`]); 0 disables
    /// retention. Only meaningful with [`ServeConfig::tracing`] on.
    pub trace_ring_capacity: usize,
    /// Queries slower than this get their rendered span tree appended to
    /// the slow-query log ([`Server::slow_queries`], bounded). `None`
    /// (the default) disables the slow log. Only meaningful with
    /// [`ServeConfig::tracing`] on.
    pub slow_query_threshold: Option<Duration>,
    /// Per-query resource profiles: thread CPU time, allocation
    /// count/bytes (through [`cx_obs::CountingAlloc`], when installed as
    /// the global allocator), kernel pairs/tiles, and bytes charged
    /// against the memory budget — attached to traces, surfaced in
    /// `cx.queries`, and aggregated into [`Server::profile_totals`]. Off
    /// by default: the allocator and kernel hooks count only on a thread
    /// with this server's profile window open, and cost one thread-local
    /// load everywhere else.
    pub profiling: bool,
    /// Self-watchdog (`None` = no background thread). When set, a
    /// sampler wakes every [`WatchdogConfig::interval`], diffs the
    /// latency histogram and serving counters against its previous tick,
    /// and appends structured incidents (p99 regressions, queue
    /// saturation, shed/fault bursts) to the bounded log behind
    /// `cx.incidents`.
    pub watchdog: Option<WatchdogConfig>,
    /// Auto-parameterize ad-hoc SQL ([`Session::sql`]): literals are
    /// lifted into parameter slots, so every statement with the same
    /// *shape* resolves to one prepared plan-cache entry regardless of
    /// its literal values — ad-hoc text gets prepared-statement
    /// throughput. Results are bit-identical to exact planning (binding
    /// re-infers types per value). Statements with nothing to lift fall
    /// back to exact planning. Off routes every statement through the
    /// exact-fingerprint plan cache instead.
    pub sql_auto_param: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            plan_cache_capacity: 128,
            admission_capacity: 1e9,
            cache_results: true,
            default_timeout: None,
            default_memory_budget: 0,
            max_queued: 0,
            tracing: false,
            trace_ring_capacity: 64,
            slow_query_threshold: None,
            profiling: false,
            watchdog: None,
            sql_auto_param: true,
        }
    }
}

/// Per-query lifecycle options (everything unset falls back to the
/// [`ServeConfig`] defaults).
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Deadline for this query, measured from entry into the server.
    pub timeout: Option<Duration>,
    /// Memory budget in bytes for this query (`Some(0)` = explicitly
    /// unlimited, overriding a server default).
    pub memory_budget: Option<u64>,
    /// Cancellation token to observe; keep a clone and call
    /// [`CancelToken::cancel`] from any thread to stop the query at its
    /// next cooperative check.
    pub cancel: Option<CancelToken>,
}

/// The outcome of one served query.
#[derive(Debug)]
pub struct ServeResult {
    /// Materialized result rows. `Arc`-shared with the plan's result memo
    /// so replays are zero-copy (`Arc<Table>` derefs to `Table`; clone the
    /// inner table only if you need to mutate it).
    pub table: Arc<Table>,
    /// Wall time inside the server (plan + admit + execute).
    pub elapsed: Duration,
    /// Optimizer rule trace (from the cached plan on hits).
    pub rules_fired: Vec<String>,
    /// Optimizer row estimate.
    pub estimated_rows: f64,
    /// Optimizer cost estimate (the admission weight used).
    pub estimated_cost: f64,
    /// Whether the plan came from the plan cache.
    pub plan_cache_hit: bool,
    /// Whether the result came from the plan's result memo (execution and
    /// admission were skipped entirely).
    pub result_cache_hit: bool,
    /// The query's lifecycle trace, when [`ServeConfig::tracing`] is on
    /// (`None` otherwise). The same trace is pushed into the server's
    /// trace ring; render it with [`QueryTrace::render`].
    pub trace: Option<QueryTrace>,
}

cx_obs::metric_family! {
    /// Lifecycle-policy counters: how queries died early and how the server
    /// recovered (see the module docs for the policies themselves).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LifecycleStats, counters pub(crate) LifecycleCounters {
        /// Queries that returned [`QueryError::DeadlineExceeded`].
        deadline_exceeded: counter "cx_serve_deadline_exceeded_total"
            "Queries past their deadline",
        /// Queries that returned [`QueryError::Cancelled`].
        cancelled: counter "cx_serve_cancelled_total" "Queries cancelled",
        /// Queries that returned [`QueryError::MemoryBudget`].
        budget_exceeded: counter "cx_serve_budget_exceeded_total" "Queries over memory budget",
        /// Queries that (after any retry) returned [`QueryError::Transient`].
        transient_failures: counter "cx_serve_transient_failures_total"
            "Queries that failed transiently (after any retry)",
        /// Retries taken after a transient first attempt.
        retries: counter "cx_serve_retries_total" "Retries after transient failures",
        /// Panics contained at the query boundary (converted to
        /// [`QueryError::Transient`] instead of unwinding the caller).
        contained_panics: counter "cx_serve_contained_panics_total"
            "Panics contained at the query boundary",
    }
}

cx_obs::metric_family! {
    /// Aggregate server counters: the serving family's own four, then every
    /// other family's snapshot taken at the same moment.
    #[derive(Debug, Clone)]
    pub struct ServerStats, counters ServingCounters {
        /// Queries served.
        queries: counter "cx_serve_queries_total" "Queries served",
        /// Sessions opened.
        sessions: counter "cx_serve_sessions_total" "Sessions opened",
        /// Parameter-bound executions among `queries` (prepared statements +
        /// auto-parameterized SQL).
        prepared_queries: counter "cx_serve_prepared_queries_total"
            "Parameter-bound executions (prepared statements + auto-parameterized SQL)",
        /// Queries answered from a cached plan's result memo (per-binding
        /// memo hits included).
        result_cache_hits: counter "cx_serve_result_cache_hits_total"
            "Queries answered from a result memo",
    }
    supplied {
        /// Plan-cache counters.
        plan_cache: PlanCacheStats,
        /// Admission counters.
        admission: AdmissionStats,
        /// Multi-query scan-sharing counters: always zero, since every
        /// statement runs solo, and not exported.
        scan_sharing: ScanSharingStats,
        /// Lifecycle-policy counters (deadlines, cancels, budgets, retries,
        /// contained panics).
        lifecycle: LifecycleStats,
        /// SQL front-end counters ([`Session::sql`]).
        sql: crate::sql::SqlStats,
        /// The resolved SIMD kernel dispatch serving every similarity sweep
        /// (e.g. `f32=avx512`).
        simd: String,
    }
}

/// The fields multi-query scan sharing used to count. Statements never
/// share a sweep, so a snapshot's fields are all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSharingStats {
    /// Groups drained.
    pub groups: u64,
    /// Queries drained through groups.
    pub grouped_queries: u64,
    /// Queries answered by a shared sweep.
    pub shared_queries: u64,
}

/// A concurrent query-serving layer over one shared [`Engine`].
pub struct Server {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServeConfig,
    plan_cache: PlanCache,
    pub(crate) gate: CostGate,
    pub(crate) metrics: ExecMetrics,
    serving: ServingCounters,
    pub(crate) lifecycle: LifecycleCounters,
    /// The installed chaos schedule, if any (see [`crate::faults`]).
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Finished traces, newest last (tracing on; capacity from config).
    pub(crate) trace_ring: TraceRing,
    /// Rendered span trees of queries past the slow-query threshold,
    /// newest last, bounded.
    pub(crate) slow_log: Mutex<VecDeque<String>>,
    /// End-to-end serve latency (memo hits included). Always on.
    latency_hist: Histogram,
    /// Time spent waiting at the admission gate. Always on.
    pub(crate) queue_wait_hist: Histogram,
    /// Structured incidents appended by the watchdog, queryable as
    /// `cx.incidents`. Present even without a watchdog so the table
    /// always resolves (empty).
    incidents: Arc<IncidentLog>,
    /// The background watchdog sampler, when configured.
    watchdog: Mutex<Option<WatchdogHandle>>,
    /// Monotonic sequence stamped onto every metrics snapshot, so two
    /// diffed exports are orderable even under a frozen test clock.
    pub(crate) snapshot_seq: AtomicU64,
    /// Injectable millisecond timestamp source for snapshot stamps and
    /// incident records (`None` = wall clock since the Unix epoch).
    timestamp_source: RwLock<Option<Arc<dyn Fn() -> u64 + Send + Sync>>>,
    /// SQL front-end counters ([`Session::sql`]).
    pub(crate) sql: crate::sql::SqlCounters,
    /// Server-wide totals across profiled queries.
    profile_totals: ProfileTotals,
}

cx_obs::metric_family! {
    /// Aggregated resource usage across every profiled query (see
    /// [`ServeConfig::profiling`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProfileTotalsStats, counters ProfileTotals {
        /// Queries that ran with a profile attached.
        profiled_queries: counter "cx_serve_profiled_queries_total"
            "Queries that ran with a resource profile",
        /// Total thread CPU time, in nanoseconds.
        cpu_ns: counter "cx_serve_profile_cpu_ns_total"
            "Thread CPU time across profiled queries (ns)",
        /// Total heap allocations observed by the counting allocator.
        alloc_count: counter "cx_serve_profile_allocs_total"
            "Heap allocations across profiled queries",
        /// Total bytes requested from the counting allocator.
        alloc_bytes: counter "cx_serve_profile_alloc_bytes_total"
            "Heap bytes requested across profiled queries",
        /// Total candidate×probe pairs scored by similarity kernels.
        pairs_scored: counter "cx_serve_profile_pairs_scored_total"
            "Similarity pairs scored across profiled queries",
        /// Total build tiles of `TILE` (64) panel rows touched by panel
        /// sweeps.
        panel_tiles: counter "cx_serve_profile_panel_tiles_total"
            "Build tiles of 64 panel rows touched across profiled queries",
        /// Total bytes charged against per-query memory budgets.
        bytes_charged: counter "cx_serve_profile_bytes_charged_total"
            "Bytes charged against memory budgets across profiled queries",
    }
}

impl ProfileTotals {
    fn add(&self, p: &QueryProfile) {
        self.profiled_queries.fetch_add(1, Ordering::Relaxed);
        self.cpu_ns.fetch_add(p.cpu_ns, Ordering::Relaxed);
        self.alloc_count.fetch_add(p.alloc_count, Ordering::Relaxed);
        self.alloc_bytes.fetch_add(p.alloc_bytes, Ordering::Relaxed);
        self.pairs_scored
            .fetch_add(p.pairs_scored, Ordering::Relaxed);
        self.panel_tiles.fetch_add(p.panel_tiles, Ordering::Relaxed);
        self.bytes_charged
            .fetch_add(p.bytes_charged, Ordering::Relaxed);
    }
}

/// Most rendered slow-query traces retained.
const SLOW_LOG_CAPACITY: usize = 32;

/// Incident-log capacity when no watchdog is configured (manual appends
/// and future watchdog reconfiguration still land somewhere bounded).
const DEFAULT_INCIDENT_CAPACITY: usize = 256;

impl Drop for Server {
    fn drop(&mut self) {
        // Stop (and usually join) the watchdog. When the last `Arc` drops
        // on the watchdog's own thread — its tick held the final strong
        // handle — the handle detaches instead of self-joining.
        if let Some(handle) = self.watchdog.lock().take() {
            handle.stop();
        }
    }
}

impl Server {
    /// Wraps `engine` for concurrent serving under `config`.
    pub fn new(engine: Arc<Engine>, config: ServeConfig) -> Arc<Self> {
        // Log the resolved kernel dispatch once per process, not per
        // server: which ISA paths serve the sweeps is global state.
        static SIMD_BANNER: std::sync::Once = std::sync::Once::new();
        SIMD_BANNER.call_once(|| {
            eprintln!(
                "cx-serve: simd kernels {}",
                cx_simd::KernelDispatch::active().report()
            );
        });
        let metrics = ExecMetrics::new();
        metrics.set_environment(format!(
            "simd {}",
            cx_simd::KernelDispatch::active().report()
        ));
        let server = Arc::new(Server {
            plan_cache: PlanCache::new(config.plan_cache_capacity),
            gate: CostGate::new(config.admission_capacity),
            engine,
            config,
            metrics,
            serving: ServingCounters::default(),
            lifecycle: LifecycleCounters::default(),
            fault_plan: RwLock::new(None),
            trace_ring: TraceRing::new(if config.tracing {
                config.trace_ring_capacity
            } else {
                0
            }),
            slow_log: Mutex::new(VecDeque::new()),
            latency_hist: Histogram::new(),
            queue_wait_hist: Histogram::new(),
            incidents: Arc::new(IncidentLog::new(
                config
                    .watchdog
                    .map_or(DEFAULT_INCIDENT_CAPACITY, |w| w.incident_capacity),
            )),
            watchdog: Mutex::new(None),
            snapshot_seq: AtomicU64::new(0),
            timestamp_source: RwLock::new(None),
            sql: crate::sql::SqlCounters::default(),
            profile_totals: ProfileTotals::default(),
        });
        // The engine can now query the server: every telemetry surface
        // registers as a live `cx.*` system table holding a Weak handle
        // (a dropped server scans as empty, never dangles). A second
        // server over the same engine replaces the registrations — last
        // server wins its engine's telemetry tables.
        crate::systab::register_all(&server);
        if let Some(wd) = config.watchdog {
            *server.watchdog.lock() = Some(crate::watchdog::spawn(Arc::downgrade(&server), wd));
        }
        server
    }

    /// The shared engine (register tables/models through it as usual; the
    /// catalog version check keeps cached plans honest).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The serving configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// Installs (or, with `None`, removes) a deterministic fault-injection
    /// plan. While installed, the serving hot path consults it at the
    /// [`FaultSite`] boundaries and injects panics, delays, or transient
    /// errors per the plan's seeded schedule — the chaos harness the
    /// robustness tests drive, one seed after another on one server. Takes
    /// effect for queries entering after the call.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.fault_plan.write() = plan;
    }

    /// The installed fault plan's injection counters (`None` when no plan
    /// is installed).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault_plan.read().as_ref().map(|p| p.stats())
    }

    pub(crate) fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan.read().clone()
    }

    /// Draws `site` from the installed fault plan, if any, recording a
    /// `fault` event on the statement's trace when it strikes.
    fn strike(&self, site: FaultSite) -> Result<()> {
        let Some(plan) = self.fault_plan() else {
            return Ok(());
        };
        plan.strike(site)
            .inspect_err(|_| cx_obs::event("fault", || site.label().into()))
    }

    /// Opens a session handle. Sessions are cheap tagged views over the
    /// shared server; one per client connection.
    pub fn session(self: &Arc<Self>) -> Session {
        let id = self.serving.sessions.fetch_add(1, Ordering::Relaxed);
        Session {
            server: self.clone(),
            id,
            queries: AtomicU64::new(0),
            config: Mutex::new(None),
            statements: Mutex::new(HashMap::new()),
        }
    }

    /// Starts a query over table `name` (same surface as
    /// [`Engine::table`]).
    pub fn table(&self, name: &str) -> Result<Query> {
        self.engine.table(name)
    }

    /// Serves one query; safe to call from any number of threads.
    pub fn execute(&self, query: &Query) -> Result<ServeResult> {
        self.execute_with_options(query, &QueryOptions::default())
    }

    /// Serves one query under explicit lifecycle options (deadline,
    /// cancellation token, memory budget).
    pub fn execute_with_options(
        &self,
        query: &Query,
        options: &QueryOptions,
    ) -> Result<ServeResult> {
        let stmt = Statement::adhoc(query, self.engine.config().optimizer);
        self.serve_statement(&stmt, &[], options, false)
    }

    /// The one serving path. Every entry point — [`Server::execute`] and
    /// its variants, [`Session::execute`], [`Session::explain_analyze`],
    /// [`Prepared::execute`], [`Session::sql`] — describes its statement
    /// as a [`Statement`] plus a binding vector (empty for an ad-hoc
    /// query) and calls this. In order: lifecycle context, trace +
    /// profile window, then per attempt (panics contained, one retry on a
    /// transient failure) plan resolution through the shared plan cache,
    /// the result-memo probe, parameter binding into the optimized plan
    /// with admission re-weighed over the *bound* plan, lowering,
    /// admission and execution; finally the outcome lands in the
    /// lifecycle counters and the trace is sealed.
    ///
    /// `trace_this` records a [`QueryTrace`] for this statement even when
    /// [`ServeConfig::tracing`] is off (`EXPLAIN ANALYZE`). The trace is
    /// attached to the result; with tracing off the ring has capacity 0,
    /// so nothing is retained server-side, and since span sites record
    /// only on threads the trace is installed on, no other query pays a
    /// thing.
    pub(crate) fn serve_statement(
        &self,
        stmt: &Statement<'_>,
        params: &[Scalar],
        options: &QueryOptions,
        trace_this: bool,
    ) -> Result<ServeResult> {
        if params.len() != stmt.param_count {
            return Err(Error::InvalidArgument(format!(
                "prepared statement expects {} parameter(s), got {}",
                stmt.param_count,
                params.len()
            )));
        }
        let start = Instant::now();
        let ctx = self.make_ctx(options);
        let trace = (self.config.tracing || trace_this).then(|| {
            let exact = stmt.exact_fingerprint;
            QueryTrace::new(if params.is_empty() {
                format!("query#{exact:016x}")
            } else {
                format!("prepared#{exact:016x}({} params)", params.len())
            })
        });
        let profile_span = self.config.profiling.then(ProfileSpan::start);

        let attempt = || -> Result<ServeResult> {
            let _scope = cx_obs::install_trace(trace.as_ref());
            let version = self.engine.catalog_version();
            let mut pc_span = cx_obs::span("plan_cache");
            let (cached, hit) = self.resolve_plan(stmt, version)?;
            pc_span.set_detail(if hit { "hit" } else { "miss" });
            drop(pc_span);

            // Memo first: a replay skips binding, lowering, cost
            // estimation and admission outright (memoized replays must
            // never re-enter the cost gate) — on the retry too, where a
            // result memoized since the first attempt still counts.
            let binding = BindingKey::new(params);
            if let Some(result) =
                self.try_result_memo(&cached, &binding, cached.estimated_cost, hit, start)
            {
                return Ok(result);
            }

            // Bind the optimized plan and lower it into this execution's
            // own tree. With parameters, re-cost the bound plan too — the
            // template was optimized with placeholder slots and default
            // selectivities, but admission should weigh the real query.
            let bind_span = cx_obs::span("bind_params");
            let (root, cost) = if params.is_empty() {
                let root = self
                    .engine
                    .lower_plan_with(&cached.optimized, stmt.config)?;
                (root, cached.estimated_cost)
            } else {
                let bound = cached.optimized.bind_params(params)?;
                let root = self.engine.lower_plan_with(&bound, stmt.config)?;
                (root, self.engine.estimate_plan_cost(&bound, stmt.config))
            };
            drop(bind_span);
            let table = self.execute_solo(&cached, root, &binding, cost, &ctx)?;
            Ok(ServeResult {
                table,
                elapsed: start.elapsed(),
                rules_fired: cached.rules_fired.clone(),
                estimated_rows: cached.estimated_rows,
                estimated_cost: cost,
                plan_cache_hit: hit,
                result_cache_hit: false,
                trace: None,
            })
        };

        let mut result = self.run_with_recovery(trace.as_ref(), attempt);
        if result.is_ok() && !params.is_empty() {
            self.serving
                .prepared_queries
                .fetch_add(1, Ordering::Relaxed);
        }
        self.record_outcome(&result);
        let profile = profile_span.map(|p| p.finish(ctx.budget().map_or(0, |b| b.allocated())));
        self.finish_query(trace, start, &mut result, profile);
        result
    }

    /// Seals a query's observability record: the end-to-end latency lands
    /// in the histogram (always), a resource profile (profiling on) folds
    /// into the server totals and onto the trace, and a traced query's
    /// trace is finished with the outcome, pushed into the ring, rendered
    /// into the slow log if over threshold, and attached to a successful
    /// result.
    fn finish_query(
        &self,
        trace: Option<QueryTrace>,
        start: Instant,
        result: &mut Result<ServeResult>,
        profile: Option<QueryProfile>,
    ) {
        let elapsed = start.elapsed();
        self.latency_hist.record_duration(elapsed);
        if let Some(p) = profile {
            self.profile_totals.add(&p);
            if let Some(trace) = &trace {
                trace.set_profile(p);
            }
        }
        let Some(trace) = trace else { return };
        let outcome = match &*result {
            Ok(r) if r.result_cache_hit => "ok (result memo)".to_string(),
            Ok(_) => "ok".to_string(),
            Err(e) => format!("error: {e}"),
        };
        trace.finish(outcome);
        if let Some(threshold) = self.config.slow_query_threshold {
            if elapsed >= threshold {
                let mut log = self.slow_log.lock();
                if log.len() >= SLOW_LOG_CAPACITY {
                    log.pop_front();
                }
                log.push_back(trace.render());
            }
        }
        self.trace_ring.push(trace.clone());
        if let Ok(r) = result {
            r.trace = Some(trace);
        }
    }

    /// Builds a query's lifecycle context from its options over the
    /// server defaults.
    fn make_ctx(&self, options: &QueryOptions) -> QueryContext {
        let mut ctx = QueryContext::unbounded();
        if let Some(timeout) = options.timeout.or(self.config.default_timeout) {
            ctx = ctx.with_timeout(timeout);
        }
        let budget = options
            .memory_budget
            .unwrap_or(self.config.default_memory_budget);
        if budget > 0 {
            ctx = ctx.with_budget(Arc::new(MemoryBudget::new(budget)));
        } else if self.config.profiling {
            // Limit 0 = unlimited: charges are recorded but never trip,
            // which is exactly what the profiler's `bytes_charged` needs
            // when the query runs without a real budget.
            ctx = ctx.with_budget(Arc::new(MemoryBudget::new(0)));
        }
        if let Some(token) = &options.cancel {
            ctx = ctx.with_cancel(token.clone());
        }
        ctx
    }

    /// Runs `attempt` with panics contained at this boundary; on a
    /// transient failure (injected fault, contained panic) records a
    /// `retry` event on `trace` and runs it once more.
    fn run_with_recovery(
        &self,
        trace: Option<&QueryTrace>,
        attempt: impl Fn() -> Result<ServeResult>,
    ) -> Result<ServeResult> {
        match self.contain(&attempt) {
            Err(e) if e.is_transient() => {
                self.lifecycle.retries.fetch_add(1, Ordering::Relaxed);
                if let Some(trace) = trace {
                    trace.add_event("retry", format!("after {e}"));
                }
                self.contain(&attempt)
            }
            other => other,
        }
    }

    /// Contains panics at the query boundary: the caller gets
    /// [`QueryError::Transient`] instead of an unwinding thread, and the
    /// server keeps serving. Every lock the serving path holds across
    /// potentially-panicking code either recovers from poisoning or is
    /// released before that code runs, so containment is safe here.
    fn contain(&self, f: impl FnOnce() -> Result<ServeResult>) -> Result<ServeResult> {
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(result) => result,
            Err(_) => {
                self.lifecycle
                    .contained_panics
                    .fetch_add(1, Ordering::Relaxed);
                Err(QueryError::Transient("query execution panicked (contained)".into()).into())
            }
        }
    }

    /// Folds a query's final outcome into the lifecycle counters.
    fn record_outcome(&self, result: &Result<ServeResult>) {
        let Err(e) = result else { return };
        let counter = match e.as_query() {
            Some(QueryError::DeadlineExceeded) => &self.lifecycle.deadline_exceeded,
            Some(QueryError::Cancelled) => &self.lifecycle.cancelled,
            Some(QueryError::MemoryBudget { .. }) => &self.lifecycle.budget_exceeded,
            Some(QueryError::Transient(_)) => &self.lifecycle.transient_failures,
            // QueueFull is counted by the admission gate itself.
            Some(QueryError::QueueFull { .. }) | None => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a statement's cached plan: a keyed lookup validated
    /// against the template's exact fingerprint, rebuilding (and
    /// replacing) the entry on miss, staleness, or a key collision with a
    /// different template.
    pub(crate) fn resolve_plan(
        &self,
        stmt: &Statement<'_>,
        version: u64,
    ) -> Result<(Arc<CachedPlan>, bool)> {
        let key = stmt.cache_key();
        if let Some(cached) = self.plan_cache.get(key, version) {
            if cached.exact_fingerprint == stmt.exact_fingerprint {
                return Ok((cached, true));
            }
        }
        let cached =
            self.build_plan(stmt.template, stmt.config, stmt.exact_fingerprint, version)?;
        self.plan_cache.insert(key, cached.clone());
        Ok((cached, false))
    }

    /// First sight of a plan: optimizes it. The optimizer's selectivity
    /// sampling is where a plan build embeds, so a plan with a semantic
    /// operator first draws the installed fault plan's
    /// [`FaultSite::Embed`] site.
    fn build_plan(
        &self,
        query: &Query,
        opt_config: OptimizerConfig,
        exact_fingerprint: u64,
        version: u64,
    ) -> Result<Arc<CachedPlan>> {
        if plan_has_semantic_operator(query.plan()) {
            self.strike(FaultSite::Embed)?;
        }
        let planned = self.engine.optimize_query_with(query, opt_config);
        Ok(Arc::new(CachedPlan {
            volatile: plan_scans_system_table(&planned.plan),
            optimized: planned.plan,
            rules_fired: planned.rules_fired,
            estimated_rows: planned.estimated_rows,
            estimated_cost: planned.estimated_cost,
            catalog_version: version,
            exact_fingerprint,
            result: parking_lot::Mutex::new(None),
            bound_results: parking_lot::Mutex::new(HashMap::new()),
        }))
    }

    /// Serves `binding` of `cached` from the result memo if enabled and
    /// populated — the plan-level memo with no parameters, the
    /// per-binding memo otherwise. `cost`, `plan_cache_hit` and `started`
    /// describe the serving statement for its [`ServeResult`].
    pub(crate) fn try_result_memo(
        &self,
        cached: &CachedPlan,
        binding: &BindingKey,
        cost: f64,
        plan_cache_hit: bool,
        started: Instant,
    ) -> Option<ServeResult> {
        // Volatile plans scan live `cx.*` state: the *plan* stays cached
        // (lowering is as deterministic as ever) but the data is a
        // point-in-time snapshot, so the memo is never read or written.
        if !self.config.cache_results || cached.volatile {
            return None;
        }
        let table = if binding.is_empty() {
            cached.result.lock().clone()?
        } else {
            cached.bound_results.lock().get(binding).cloned()?
        };
        self.serving.queries.fetch_add(1, Ordering::Relaxed);
        self.serving
            .result_cache_hits
            .fetch_add(1, Ordering::Relaxed);
        Some(ServeResult {
            table,
            elapsed: started.elapsed(),
            rules_fired: cached.rules_fired.clone(),
            estimated_rows: cached.estimated_rows,
            estimated_cost: cost,
            plan_cache_hit,
            result_cache_hit: true,
            trace: None,
        })
    }

    /// Runs a statement whose result memo missed: lifecycle-aware
    /// admission at `cost` (deadline-aware waiting, `max_queued`
    /// shedding), then `root`, the execution's own tree (instrumented),
    /// under its lifecycle context `ctx`; memoizes the result into
    /// `cached`'s slot for `binding` (empty: the plan-level memo). Spans
    /// record into the trace the caller installed on this thread.
    pub(crate) fn execute_solo(
        &self,
        cached: &CachedPlan,
        root: Arc<dyn PhysicalOperator>,
        binding: &BindingKey,
        cost: f64,
        ctx: &QueryContext,
    ) -> Result<Arc<Table>> {
        self.strike(FaultSite::Admission)?;
        let wait_started = Instant::now();
        let _span = cx_obs::span("admission");
        let _permit = self.gate.acquire_ctx(cost, ctx, self.config.max_queued)?;
        drop(_span);
        self.queue_wait_hist.record_duration(wait_started.elapsed());
        let root = InstrumentedExec::new(root, &self.metrics);
        let exec_span = cx_obs::span("execute");
        let table = Arc::new(ctx.scope(|| collect_table(&root))?);
        drop(exec_span);
        if self.config.cache_results && !cached.volatile {
            if binding.is_empty() {
                *cached.result.lock() = Some(table.clone());
            } else {
                cached.memoize_binding(binding, table.clone());
            }
        }
        self.serving.queries.fetch_add(1, Ordering::Relaxed);
        Ok(table)
    }

    /// Plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.gate.stats()
    }

    /// Lifecycle-policy counters.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        self.lifecycle.snapshot()
    }

    /// Full counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.serving.snapshot(
            self.plan_cache.stats(),
            self.gate.stats(),
            ScanSharingStats::default(),
            self.lifecycle.snapshot(),
            self.sql.snapshot(),
            cx_simd::KernelDispatch::active().report(),
        )
    }

    /// Recent finished traces, oldest first (empty unless
    /// [`ServeConfig::tracing`] is on).
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.trace_ring.recent()
    }

    /// The most recently finished trace, if any.
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.trace_ring.last()
    }

    /// Rendered span trees of queries that exceeded
    /// [`ServeConfig::slow_query_threshold`], oldest first, bounded.
    pub fn slow_queries(&self) -> Vec<String> {
        self.slow_log.lock().iter().cloned().collect()
    }

    /// End-to-end serve latency distribution (always recorded).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Admission queue-wait distribution (always recorded).
    pub fn queue_wait_histogram(&self) -> &Histogram {
        &self.queue_wait_hist
    }

    /// The structured incident log the watchdog appends to (queryable as
    /// `cx.incidents`; empty when no watchdog is configured and nothing
    /// was appended manually).
    pub fn incidents(&self) -> &Arc<IncidentLog> {
        &self.incidents
    }

    /// The server-level per-operator execution metrics (backs
    /// `cx.histograms` operator rows and the report's operator table).
    pub fn exec_metrics(&self) -> &ExecMetrics {
        &self.metrics
    }

    /// Per-entry plan-cache introspection (backs `cx.plan_cache`).
    pub fn plan_cache_entries(&self) -> Vec<crate::plan_cache::PlanEntryInfo> {
        self.plan_cache.entries()
    }

    /// Aggregated resource usage across profiled queries (all zeros
    /// unless [`ServeConfig::profiling`] is on).
    pub fn profile_totals(&self) -> ProfileTotalsStats {
        self.profile_totals.snapshot()
    }

    /// Installs (or, with `None`, removes) an injectable millisecond
    /// timestamp source used for metrics-snapshot stamps and watchdog
    /// incident times. Tests inject a frozen or stepped clock so diffed
    /// exports are deterministic; production leaves the wall clock.
    pub fn set_timestamp_source(&self, source: Option<Arc<dyn Fn() -> u64 + Send + Sync>>) {
        *self.timestamp_source.write() = source;
    }

    /// The current timestamp in milliseconds from the installed source
    /// (wall clock since the Unix epoch by default).
    pub fn now_ms(&self) -> u64 {
        if let Some(source) = self.timestamp_source.read().as_ref() {
            return source();
        }
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64)
    }
}

/// True when any scan under `plan` reads a live `cx.*` system table —
/// such plans must never serve from or populate the result memo.
fn plan_scans_system_table(plan: &LogicalPlan) -> bool {
    if let LogicalPlan::Scan { source, .. } = plan {
        if cx_obs::is_reserved_name(source) {
            return true;
        }
    }
    plan.children().into_iter().any(plan_scans_system_table)
}

/// True when `plan` holds an operator that embeds text: a semantic filter,
/// join or group-by.
fn plan_has_semantic_operator(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::SemanticFilter { .. }
            | LogicalPlan::SemanticJoin { .. }
            | LogicalPlan::SemanticGroupBy { .. }
    ) || plan.children().into_iter().any(plan_has_semantic_operator)
}

/// A per-client handle onto a shared [`Server`].
pub struct Session {
    server: Arc<Server>,
    id: u64,
    pub(crate) queries: AtomicU64,
    /// Per-session optimizer override (`None` = the engine's config).
    config: Mutex<Option<OptimizerConfig>>,
    /// Named prepared statements (`PREPARE name AS ...` through
    /// [`Session::sql`]); session-scoped, like any SQL client's.
    pub(crate) statements: Mutex<HashMap<String, Arc<Prepared>>>,
}

impl Session {
    /// This session's id (assigned in open order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The server this session talks to.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Starts a query over table `name`.
    pub fn table(&self, name: &str) -> Result<Query> {
        self.server.table(name)
    }

    /// The optimizer configuration this session's queries run under.
    pub fn optimizer_config(&self) -> OptimizerConfig {
        self.config
            .lock()
            .unwrap_or(self.server.engine().config().optimizer)
    }

    /// Replaces this session's whole optimizer configuration without
    /// touching other sessions or the engine. The override flows into the
    /// plan-cache key through the config fingerprint, so sessions under
    /// different configs partition the cache naturally — no forking, no
    /// cross-talk.
    pub fn set_optimizer_config(&self, config: OptimizerConfig) {
        *self.config.lock() = Some(config);
    }

    /// Drops any per-session override, returning to the engine's config.
    pub fn reset_optimizer_config(&self) {
        *self.config.lock() = None;
    }

    /// Serves one query through the shared server, under this session's
    /// optimizer configuration.
    pub fn execute(&self, query: &Query) -> Result<ServeResult> {
        self.execute_with_options(query, &QueryOptions::default())
    }

    /// Serves one query under explicit lifecycle options (deadline,
    /// cancellation token, memory budget) and this session's optimizer
    /// configuration.
    pub fn execute_with_options(
        &self,
        query: &Query,
        options: &QueryOptions,
    ) -> Result<ServeResult> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::adhoc(query, self.optimizer_config());
        self.server.serve_statement(&stmt, &[], options, false)
    }

    /// Prepares a query template for repeated execution with different
    /// parameter bindings: optimizes it once (the optimized plan enters
    /// the server's plan cache keyed by the template's *shape*), and
    /// returns a handle whose [`Prepared::execute`] binds values into the
    /// cached plan and lowers the bound plan from the engine's planning
    /// snapshot — no re-optimization, results memoized per binding vector.
    ///
    /// The handle snapshots this session's optimizer configuration;
    /// re-prepare after [`Session::set_optimizer_config`] to pick up a
    /// new one. Stale handles are safe: a catalog registration after
    /// `prepare` makes the next `execute` transparently re-optimize.
    ///
    /// ```
    /// use context_engine::{Engine, EngineConfig};
    /// use cx_embed::HashNGramModel;
    /// use cx_serve::{ServeConfig, Server};
    /// use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
    /// use std::sync::Arc;
    ///
    /// let engine = Arc::new(Engine::new(EngineConfig::default()));
    /// engine.register_model(Arc::new(HashNGramModel::new(42)));
    /// let names = Table::from_columns(
    ///     Schema::new(vec![Field::new("name", DataType::Utf8)]),
    ///     vec![Column::from_strings(["boots", "mug", "boots"])],
    /// ).unwrap();
    /// engine.register_table("products", names).unwrap();
    ///
    /// let server = Server::new(engine, ServeConfig::default());
    /// let session = server.session();
    /// let template = session.table("products").unwrap()
    ///     .semantic_filter_param("name", 0, "hash-ngram", 0.99);
    /// let prepared = session.prepare(&template).unwrap();
    /// let boots = prepared.execute(&[Scalar::from("boots")]).unwrap();
    /// let mugs = prepared.execute(&[Scalar::from("mug")]).unwrap();
    /// assert_eq!(boots.table.num_rows(), 2);
    /// assert_eq!(mugs.table.num_rows(), 1);
    /// // The second execution reused the cached plan shape.
    /// assert!(mugs.plan_cache_hit);
    /// ```
    pub fn prepare(&self, query: &Query) -> Result<Prepared> {
        Prepared::new(self.server.clone(), query.clone(), self.optimizer_config())
    }

    /// Executes `query` traced — *this one query*, whatever
    /// [`ServeConfig::tracing`] says — and returns its rendered span tree:
    /// `EXPLAIN ANALYZE` for the serving layer. The trace lives only as
    /// long as this call (with tracing off the server's ring has capacity
    /// 0, so nothing is retained) and arms only the threads it is
    /// installed on, so concurrent queries pay nothing. The query executes
    /// for real, through the one serving path.
    ///
    /// ```
    /// use context_engine::{Engine, EngineConfig};
    /// use cx_embed::HashNGramModel;
    /// use cx_serve::{ServeConfig, Server};
    /// use cx_storage::{Column, DataType, Field, Schema, Table};
    /// use std::sync::Arc;
    ///
    /// let engine = Arc::new(Engine::new(EngineConfig::default()));
    /// engine.register_model(Arc::new(HashNGramModel::new(42)));
    /// let names = Table::from_columns(
    ///     Schema::new(vec![Field::new("name", DataType::Utf8)]),
    ///     vec![Column::from_strings(["boots", "mug", "boots"])],
    /// ).unwrap();
    /// engine.register_table("products", names).unwrap();
    ///
    /// // Tracing stays OFF server-wide; the analyze call traces anyway.
    /// let server = Server::new(engine, ServeConfig::default());
    /// let session = server.session();
    /// let query = session.table("products").unwrap()
    ///     .semantic_filter("name", "boots", "hash-ngram", 0.99);
    /// let rendered = session.explain_analyze(&query).unwrap();
    /// assert!(rendered.contains("plan_cache"), "{rendered}");
    /// assert!(rendered.contains("execute"), "{rendered}");
    /// assert!(session.last_trace().is_none(), "nothing retained");
    /// ```
    pub fn explain_analyze(&self, query: &Query) -> Result<String> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let stmt = Statement::adhoc(query, self.optimizer_config());
        let result = self
            .server
            .serve_statement(&stmt, &[], &QueryOptions::default(), true)?;
        Ok(result.trace.map(|t| t.render()).unwrap_or_default())
    }

    /// Queries served through this session.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// The most recently finished query trace on the shared server
    /// (`None` unless the server was configured with
    /// [`ServeConfig::tracing`]). The trace is also attached to the
    /// [`ServeResult`] itself; this accessor serves clients that only
    /// kept the table.
    ///
    /// ```
    /// use context_engine::{Engine, EngineConfig};
    /// use cx_embed::HashNGramModel;
    /// use cx_serve::{ServeConfig, Server};
    /// use cx_storage::{Column, DataType, Field, Schema, Table};
    /// use std::sync::Arc;
    ///
    /// let engine = Arc::new(Engine::new(EngineConfig::default()));
    /// engine.register_model(Arc::new(HashNGramModel::new(42)));
    /// let names = Table::from_columns(
    ///     Schema::new(vec![Field::new("name", DataType::Utf8)]),
    ///     vec![Column::from_strings(["boots", "mug", "boots"])],
    /// ).unwrap();
    /// engine.register_table("products", names).unwrap();
    ///
    /// let config = ServeConfig { tracing: true, ..ServeConfig::default() };
    /// let server = Server::new(engine, config);
    /// let session = server.session();
    /// let query = session.table("products").unwrap()
    ///     .semantic_filter("name", "boots", "hash-ngram", 0.99);
    /// let result = session.execute(&query).unwrap();
    ///
    /// let trace = session.last_trace().expect("tracing is on");
    /// let rendered = trace.render();
    /// assert!(rendered.contains("plan_cache"), "{rendered}");
    /// assert!(rendered.contains("execute"), "{rendered}");
    /// assert_eq!(result.trace.as_ref().unwrap().outcome().as_deref(), Some("ok"));
    /// ```
    pub fn last_trace(&self) -> Option<QueryTrace> {
        self.server.last_trace()
    }
}
