//! The concurrent query server: one shared engine, many sessions.
//!
//! [`Server`] wraps an `Arc<Engine>` and serves from any number of
//! threads. Every entry point — [`Server::execute`] and its variants,
//! [`Session::execute`], [`Session::explain_analyze`],
//! [`Prepared::execute`], [`Session::sql`] — is a thin caller of one
//! function that owns the statement's whole lifecycle; an ad-hoc query is
//! the zero-parameter case of a prepared statement. Per statement it:
//!
//! 1. **warms embeddings** — the raw plan's semantic operators name the
//!    (model, column) pairs the query will embed; their distinct values
//!    are submitted to the per-model [`EmbedBatcher`], which coalesces
//!    overlapping requests from concurrent queries into single batched
//!    cache fills (warming runs *before* optimization so the optimizer's
//!    sampling probes hit the cache too),
//! 2. **resolves the plan** — a [`PlanCache`] lookup on the template's
//!    `LogicalPlan::fingerprint() ⊕ config_fingerprint(...)`, validated
//!    against the catalog version; a miss optimizes + lowers once and
//!    caches the re-executable operator tree; a replayed (template,
//!    binding vector) is then served from the entry's result memo, and
//!    anything else binds its parameters into a copy of the cached tree,
//! 3. **admits** — [`CostGate::acquire_ctx`] on the optimizer's cost
//!    estimate bounds the total estimated cost executing at once, sheds
//!    with [`QueryError::QueueFull`] past [`ServeConfig::max_queued`]
//!    waiters, and lets queued queries honor their deadlines,
//! 4. **executes** — the cached physical tree runs wrapped in
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
//! * a **deadline-expired member of a shared-scan group exits alone** —
//!   its epilogue is skipped and it gets [`QueryError::DeadlineExceeded`];
//!   the sweep and the surviving members are untouched (their results
//!   stay bit-identical to solo execution);
//! * a **transient failure retries once, solo** — injected faults,
//!   contained panics, and failed group drains map to
//!   [`QueryError::Transient`]; the retry skips scan sharing and pays
//!   full solo admission cost;
//! * a **panic is contained at the query boundary** — the server
//!   converts it to `Transient` instead of unwinding the caller's
//!   thread, and keeps serving.
//!
//! A deterministic chaos harness ([`crate::faults`]) can be installed
//! with [`Server::set_fault_plan`] to strike these paths on purpose.

use crate::admission::{AdmissionStats, CostGate};
use crate::batcher::{BatcherConfig, BatcherStats, EmbedBatcher};
use crate::coalesce::{Clock, SystemClock};
use crate::faults::{FaultPlan, FaultSite, FaultStats};
use crate::plan_cache::{BindingKey, CachedPlan, PlanCache, PlanCacheStats};
use crate::prepared::{Prepared, Statement};
use crate::scan_queue::{ScanQueue, ScanQueueConfig, ScanQueueStats};
use context_engine::{Engine, Query};
use cx_exec::logical::LogicalPlan;
use cx_exec::metrics::InstrumentedExec;
use cx_exec::{bind_physical, collect_table, find_shared_scan, ExecMetrics, PhysicalOperator};
use crate::watchdog::{WatchdogConfig, WatchdogHandle};
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
    /// Embed-batcher flush size.
    pub batch_max: usize,
    /// Embed-batcher flush deadline.
    pub batch_linger: Duration,
    /// Memoize each cached plan's result table and serve replays from it.
    /// Sound under the same invariant as the plan cache itself (the engine
    /// is deterministic; results are pinned to a catalog version and
    /// invalidated with the plan). Disable for workloads whose result
    /// tables are too large to keep `plan_cache_capacity` of them
    /// resident.
    pub cache_results: bool,
    /// Multi-query scan sharing (`cx_mqo`): queue queries whose plans
    /// sweep the same candidate panel and answer each group with one
    /// shared sweep. Results are bit-identical to solo execution; only
    /// the schedule changes.
    pub mqo: bool,
    /// Most queries merged into one shared sweep.
    pub scan_group_max: usize,
    /// How long a group's first query lingers for co-runners before
    /// sweeping alone. Bounds the latency cost of sharing: a query with
    /// no co-runners is delayed at most this long — and not at all when
    /// no other query is in flight server-wide. On a busy server the
    /// signal is deliberately coarse (another in-flight query *might*
    /// merge; its group key is unknowable before it finishes planning),
    /// so shareable first-sight queries pay up to one linger; size this
    /// accordingly (adaptive linger is a roadmap rung).
    pub scan_linger: Duration,
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
    /// embed warm, queue waits, shared sweeps, epilogues) for every
    /// query. Off by default: a span site records only on a thread this
    /// server installed a trace on, and costs one thread-local load
    /// everywhere else — other servers in the process included. Latency
    /// histograms are always on regardless (they are counter-cheap).
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
            batch_max: 256,
            batch_linger: Duration::from_micros(500),
            cache_results: true,
            mqo: true,
            scan_group_max: 16,
            scan_linger: Duration::from_millis(2),
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
    /// Wall time inside the server (warm + plan + admit + execute).
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
    /// Whether this query's panel sweep was answered by a shared
    /// multi-query scan (`cx_mqo`) rather than a solo sweep.
    pub shared_scan: bool,
    /// The query's lifecycle trace, when [`ServeConfig::tracing`] is on
    /// (`None` otherwise). The same trace is pushed into the server's
    /// trace ring; render it with [`QueryTrace::render`].
    pub trace: Option<QueryTrace>,
}

/// One statement's execution state as it flows through result
/// memoization, scan grouping, admission and execution. With no
/// parameters (an ad-hoc query) it executes the cached tree itself and
/// memoizes at the plan level; with parameters it runs a bound copy and
/// memoizes per binding vector.
#[derive(Clone)]
pub struct ExecUnit {
    /// The resolved plan-cache entry.
    pub cached: Arc<CachedPlan>,
    /// The tree to execute: the cached tree itself, or its
    /// parameter-bound copy when the statement has parameters.
    pub root: Arc<dyn PhysicalOperator>,
    /// The binding vector's memo key (empty = no parameters; the
    /// plan-level result memo applies instead of the per-binding one).
    pub binding: BindingKey,
    /// Admission weight — the bound-literal cost estimate when there are
    /// parameters, the cached estimate otherwise.
    pub cost: f64,
    /// Whether plan resolution hit the plan cache.
    pub plan_cache_hit: bool,
    /// When the server started serving this query.
    pub started: Instant,
    /// The query's lifecycle context (deadline, cancellation, budget) —
    /// installed around its execution, consulted at admission, and
    /// checked per member inside shared-scan groups.
    pub ctx: QueryContext,
    /// The query's trace, when it is traced. Carried inside the unit so
    /// the group leader's thread can attribute shared-sweep and epilogue
    /// spans to *every* member's trace, not just its own.
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
        /// Solo retries taken after a transient first attempt.
        retries: counter "cx_serve_retries_total" "Solo retries after transient failures",
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
        /// Multi-query scan-sharing counters.
        scan_sharing: ScanQueueStats,
        /// Lifecycle-policy counters (deadlines, cancels, budgets, retries,
        /// contained panics).
        lifecycle: LifecycleStats,
        /// SQL front-end counters ([`Session::sql`]).
        sql: crate::sql::SqlStats,
        /// Per-model embed-batcher counters, sorted by model name.
        batchers: Vec<(String, BatcherStats)>,
        /// The resolved SIMD kernel dispatch serving every similarity sweep
        /// (e.g. `f32=avx512 f16=f16c+avx512 int8=vnni512`).
        simd: String,
    }
}

/// A concurrent query-serving layer over one shared [`Engine`].
pub struct Server {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServeConfig,
    plan_cache: PlanCache,
    pub(crate) gate: CostGate,
    pub(crate) scan_queue: ScanQueue,
    batchers: RwLock<HashMap<String, Arc<EmbedBatcher>>>,
    /// What every coalescing linger and admission wait is timed on.
    clock: Arc<dyn Clock>,
    pub(crate) metrics: ExecMetrics,
    serving: ServingCounters,
    pub(crate) lifecycle: LifecycleCounters,
    /// The installed chaos schedule, if any (see [`crate::faults`]).
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    /// Queries currently inside the server — the scan queue's
    /// contention signal: a query that is provably alone skips the
    /// group-forming linger (nobody exists who could join it).
    pub(crate) in_flight: AtomicU64,
    /// Finished traces, newest last (tracing on; capacity from config).
    pub(crate) trace_ring: TraceRing,
    /// Rendered span trees of queries past the slow-query threshold,
    /// newest last, bounded.
    pub(crate) slow_log: Mutex<VecDeque<String>>,
    /// End-to-end serve latency (memo hits included). Always on.
    latency_hist: Histogram,
    /// Time spent waiting at the admission gate (solo and group
    /// acquisitions). Always on.
    pub(crate) queue_wait_hist: Histogram,
    /// Shared-sweep duration per drained group. Always on.
    pub(crate) sweep_hist: Histogram,
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
        self.pairs_scored.fetch_add(p.pairs_scored, Ordering::Relaxed);
        self.panel_tiles.fetch_add(p.panel_tiles, Ordering::Relaxed);
        self.bytes_charged.fetch_add(p.bytes_charged, Ordering::Relaxed);
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

/// RAII decrement for [`Server::in_flight`].
struct InFlightGuard<'a>(&'a AtomicU64);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Server {
    /// Wraps `engine` for concurrent serving under `config`.
    pub fn new(engine: Arc<Engine>, config: ServeConfig) -> Arc<Self> {
        Self::with_clock(engine, config, Arc::new(SystemClock))
    }

    /// [`Server::new`] with every linger and admission wait timed on
    /// `clock`.
    pub(crate) fn with_clock(
        engine: Arc<Engine>,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
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
            gate: CostGate::with_clock(config.admission_capacity, clock.clone()),
            scan_queue: ScanQueue::with_clock(
                ScanQueueConfig { group_max: config.scan_group_max, linger: config.scan_linger },
                clock.clone(),
            ),
            engine,
            config,
            batchers: RwLock::new(HashMap::new()),
            clock,
            metrics,
            serving: ServingCounters::default(),
            lifecycle: LifecycleCounters::default(),
            fault_plan: RwLock::new(None),
            in_flight: AtomicU64::new(0),
            trace_ring: TraceRing::new(if config.tracing {
                config.trace_ring_capacity
            } else {
                0
            }),
            slow_log: Mutex::new(VecDeque::new()),
            latency_hist: Histogram::new(),
            queue_wait_hist: Histogram::new(),
            sweep_hist: Histogram::new(),
            incidents: Arc::new(IncidentLog::new(
                config.watchdog.map_or(DEFAULT_INCIDENT_CAPACITY, |w| w.incident_capacity),
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
            *server.watchdog.lock() =
                Some(crate::watchdog::spawn(Arc::downgrade(&server), wd));
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
    /// query) and calls this. In order: in-flight accounting, lifecycle
    /// context, trace + profile window, then per attempt (panics
    /// contained, one solo retry on a transient failure) plan resolution
    /// through the shared plan cache, the result-memo probe, parameter
    /// binding into a copy of the cached tree with admission re-weighed
    /// over the *bound* plan, and dispatch (scan sharing → solo); finally
    /// the outcome lands in the lifecycle counters and the trace is
    /// sealed.
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
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let _in_flight = InFlightGuard(&self.in_flight);
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

        let attempt = |solo: bool| -> Result<ServeResult> {
            let _scope = cx_obs::install_trace(trace.as_ref());
            if solo {
                cx_obs::event("retry", || "solo (no scan sharing)".into());
            }
            let version = self.engine.catalog_version();
            let mut pc_span = cx_obs::span("plan_cache");
            let (cached, hit) = self.resolve_plan(stmt, version)?;
            pc_span.set_detail(if hit { "hit" } else { "miss" });
            drop(pc_span);

            // Memo first: a replay skips parameter rebinding, cost
            // estimation, grouping and admission outright (memoized
            // replays must never re-enter the cost gate) — on the solo
            // retry too, where a result memoized since the first attempt
            // still counts.
            let mut unit = ExecUnit {
                root: cached.physical.clone(),
                binding: BindingKey::new(params),
                cost: cached.estimated_cost,
                cached,
                plan_cache_hit: hit,
                started: start,
                ctx: ctx.clone(),
                trace: trace.clone(),
            };
            if let Some(result) = self.try_result_memo(&unit) {
                return Ok(result);
            }

            if !params.is_empty() {
                // Bind the physical tree (subtrees without parameters
                // stay shared) and re-cost the plan with the bound
                // literals — the template was optimized with placeholder
                // slots and default selectivities, but admission should
                // weigh the real query.
                let _bind_span = cx_obs::span("bind_params");
                unit.root = bind_physical(&unit.cached.physical, params)?;
                unit.cost = self
                    .engine
                    .estimate_plan_cost(&unit.cached.optimized.bind_params(params)?, stmt.config);
            }
            if solo {
                self.execute_solo(&unit)
            } else {
                self.dispatch(unit, stmt.config_fingerprint)
            }
        };

        let mut result = self.run_with_recovery(attempt);
        if result.is_ok() && !params.is_empty() {
            self.serving.prepared_queries.fetch_add(1, Ordering::Relaxed);
        }
        self.record_outcome(&result);
        let profile =
            profile_span.map(|p| p.finish(ctx.budget().map_or(0, |b| b.allocated())));
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
            Ok(r) => {
                if r.result_cache_hit {
                    "ok (result memo)".to_string()
                } else if r.shared_scan {
                    "ok (shared scan)".to_string()
                } else {
                    "ok".to_string()
                }
            }
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
        let budget = options.memory_budget.unwrap_or(self.config.default_memory_budget);
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

    /// Runs `attempt(false)` with panics contained at this boundary; on a
    /// transient failure (injected fault, contained panic, failed group
    /// drain) retries once with `attempt(true)` — the solo path.
    fn run_with_recovery(
        &self,
        attempt: impl Fn(bool) -> Result<ServeResult>,
    ) -> Result<ServeResult> {
        let first = self.contain(|| attempt(false));
        match first {
            Err(e) if e.is_transient() => {
                self.lifecycle.retries.fetch_add(1, Ordering::Relaxed);
                self.contain(|| attempt(true))
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
                self.lifecycle.contained_panics.fetch_add(1, Ordering::Relaxed);
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

    /// First sight of a plan: warms its embedding working set through the
    /// batcher *before* optimizing, so the optimizer's sampling probes
    /// and the execution both hit the cache — and so concurrent
    /// first-timers coalesce into shared batches — then optimizes and
    /// lowers. Plan-cache hits skip all of this: their working set was
    /// warmed when the plan was first built, and execution re-embeds
    /// strays through the cache anyway.
    fn build_plan(
        &self,
        query: &Query,
        opt_config: OptimizerConfig,
        exact_fingerprint: u64,
        version: u64,
    ) -> Result<Arc<CachedPlan>> {
        self.warm_embeddings(query.plan())?;
        let planned = self.engine.optimize_query_with(query, opt_config);
        let physical = self.engine.lower_plan_with(&planned.plan, opt_config)?;
        Ok(Arc::new(CachedPlan {
            shared_scan: find_shared_scan(&physical),
            physical,
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

    /// Serves `unit` from its result memo if enabled and populated — the
    /// plan-level memo with no parameters, the per-binding memo
    /// otherwise.
    pub(crate) fn try_result_memo(&self, unit: &ExecUnit) -> Option<ServeResult> {
        // Volatile plans scan live `cx.*` state: the *plan* stays cached
        // (lowering is as deterministic as ever) but the data is a
        // point-in-time snapshot, so the memo is never read or written.
        if !self.config.cache_results || unit.cached.volatile {
            return None;
        }
        let table = if unit.binding.is_empty() {
            unit.cached.result.lock().clone()?
        } else {
            unit.cached.bound_results.lock().get(&unit.binding).cloned()?
        };
        self.serving.queries.fetch_add(1, Ordering::Relaxed);
        self.serving.result_cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(ServeResult {
            table,
            elapsed: unit.started.elapsed(),
            rules_fired: unit.cached.rules_fired.clone(),
            estimated_rows: unit.cached.estimated_rows,
            estimated_cost: unit.cost,
            plan_cache_hit: unit.plan_cache_hit,
            result_cache_hit: true,
            shared_scan: false,
            trace: None,
        })
    }

    /// Solo path: full-cost lifecycle-aware admission (deadline-aware
    /// waiting, `max_queued` shedding), then execution.
    pub(crate) fn execute_solo(&self, unit: &ExecUnit) -> Result<ServeResult> {
        // Installed explicitly (not inherited from the caller's thread):
        // a group leader running a solo fallback for a *foreign* member
        // must attribute this wait to that member's trace, not its own.
        let _scope = cx_obs::install_trace(unit.trace.as_ref());
        if let Some(plan) = self.fault_plan() {
            if let Err(e) = plan.strike(FaultSite::Admission) {
                cx_obs::event("fault", || "admission".into());
                return Err(e);
            }
        }
        let wait_started = Instant::now();
        let _span = cx_obs::span("admission");
        let _permit = self.gate.acquire_ctx(unit.cost, &unit.ctx, self.config.max_queued)?;
        drop(_span);
        self.queue_wait_hist.record_duration(wait_started.elapsed());
        self.run_unit(unit, false)
    }

    /// Executes the unit's tree (instrumented) under its lifecycle
    /// context, memoizes, and assembles the result. Admission is the
    /// caller's business: solo queries acquire their own permit, shared
    /// groups hold one group permit across all members.
    /// Tracing: callers install the unit's trace before calling (the
    /// solo path installs it at [`Server::execute_solo`], the group path
    /// around each epilogue), so the `execute` span here nests under
    /// whatever stage span the caller holds open.
    pub(crate) fn run_unit(&self, unit: &ExecUnit, shared_scan: bool) -> Result<ServeResult> {
        let root = InstrumentedExec::new(unit.root.clone(), &self.metrics);
        let exec_span = cx_obs::span("execute");
        let table = Arc::new(unit.ctx.scope(|| collect_table(&root))?);
        drop(exec_span);
        if self.config.cache_results && !unit.cached.volatile {
            if unit.binding.is_empty() {
                *unit.cached.result.lock() = Some(table.clone());
            } else {
                unit.cached.memoize_binding(&unit.binding, table.clone());
            }
        }
        self.serving.queries.fetch_add(1, Ordering::Relaxed);
        Ok(ServeResult {
            table,
            elapsed: unit.started.elapsed(),
            rules_fired: unit.cached.rules_fired.clone(),
            estimated_rows: unit.cached.estimated_rows,
            estimated_cost: unit.cost,
            plan_cache_hit: unit.plan_cache_hit,
            result_cache_hit: false,
            shared_scan,
            trace: None,
        })
    }

    /// The batcher for `model` (created on first use), or `None` for
    /// models the engine does not know.
    pub fn batcher(&self, model: &str) -> Option<Arc<EmbedBatcher>> {
        if let Some(b) = self.batchers.read().get(model) {
            return Some(b.clone());
        }
        let cache = self.engine.embedding_cache(model)?;
        let mut map = self.batchers.write();
        Some(
            map.entry(model.to_string())
                .or_insert_with(|| {
                    let config = BatcherConfig {
                        max_batch: self.config.batch_max,
                        linger: self.config.batch_linger,
                    };
                    Arc::new(EmbedBatcher::with_clock(cache, config, self.clock.clone()))
                })
                .clone(),
        )
    }

    /// Plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.gate.stats()
    }

    /// Multi-query scan-sharing counters.
    pub fn scan_sharing_stats(&self) -> ScanQueueStats {
        self.scan_queue.stats()
    }

    /// Lifecycle-policy counters.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        self.lifecycle.snapshot()
    }

    /// Full counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let mut batchers: Vec<(String, BatcherStats)> = self
            .batchers
            .read()
            .iter()
            .map(|(name, b)| (name.clone(), b.stats()))
            .collect();
        batchers.sort_by(|a, b| a.0.cmp(&b.0));
        self.serving.snapshot(
            self.plan_cache.stats(),
            self.gate.stats(),
            self.scan_queue.stats(),
            self.lifecycle.snapshot(),
            self.sql.snapshot(),
            batchers,
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

    /// Shared-sweep duration distribution (always recorded).
    pub fn sweep_histogram(&self) -> &Histogram {
        &self.sweep_hist
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

    /// Lets this session trade recall for latency without touching other
    /// sessions or the engine: raises (or clears, with `0.0`) the
    /// session's quantization `recall_tolerance`. The override flows
    /// into the plan-cache key through the config fingerprint, so
    /// sessions at different tolerances partition the cache naturally —
    /// no forking, no cross-talk — and likewise never share a scan
    /// group with sessions at other configurations.
    pub fn set_recall_tolerance(&self, tolerance: f64) {
        let mut config = self.optimizer_config();
        config.recall_tolerance = tolerance;
        *self.config.lock() = Some(config);
    }

    /// Replaces this session's whole optimizer configuration.
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
    /// parameter bindings: optimizes and lowers it once (the plan enters
    /// the server's plan cache keyed by the template's *shape*), and
    /// returns a handle whose [`Prepared::execute`] binds values into the
    /// cached physical plan — no re-optimization, no re-lowering, results
    /// memoized per binding vector.
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
        let result = self.server.serve_statement(&stmt, &[], &QueryOptions::default(), true)?;
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
