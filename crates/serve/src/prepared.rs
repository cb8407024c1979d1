//! Prepared statements: optimize a parameterized template once, bind
//! values and lower per execution.
//!
//! The common shape of heavy traffic is *one query template, many
//! literals*: `name ~ $0` for a million different users' search strings.
//! The plain plan cache cannot help — every distinct literal is a distinct
//! [`LogicalPlan::fingerprint`], so every request re-optimizes (including
//! sampling-based selectivity probes). A [`Prepared`] handle
//! moves that to `prepare` time:
//!
//! 1. **Prepare** — the template (built with [`cx_expr::param`],
//!    `Query::semantic_filter_param`, `Query::limit_param`) is optimized
//!    once; the optimized plan lands in the server's shared plan cache
//!    under the template's [`LogicalPlan::fingerprint`] — parameter slots
//!    hash by slot, so the hash is the same for every binding, while
//!    same-shape templates that differ in an unparameterized literal stay
//!    apart — ⊕ the session's config fingerprint, pinned to the catalog
//!    version. Every binding of one template — and every re-prepare of an
//!    equivalent template — resolves to this one entry.
//! 2. **Execute** — the binding vector is substituted into the optimized
//!    plan (`LogicalPlan::bind_params`), admission is weighted with a cost
//!    estimate over that *bound* plan (the template was costed with
//!    placeholder defaults), and the bound plan is lowered from the
//!    engine's planning snapshot into a tree this execution alone runs —
//!    so each physical choice (a bounded sort's limit, say) is made
//!    for the bound literals, exactly as ad-hoc execution makes it. The
//!    result is memoized per binding vector.
//! 3. **Invalidation** — entries are pinned to the catalog version;
//!    executing a stale handle transparently re-optimizes.
//!    Nothing is ever served from a plan (or memo) built against an older
//!    catalog.
//!
//! There is one key space and one serving path: an ad-hoc query is the
//! zero-parameter case. Every entry point describes what it wants served
//! as a `Statement` — the fields of a [`Prepared`] handle, or built on
//! the stack around the caller's [`Query`] — and hands it to
//! `Server::serve_statement` with a binding vector (empty for ad hoc).
//!
//! [`LogicalPlan::fingerprint`]: cx_exec::logical::LogicalPlan::fingerprint

use crate::plan_cache::config_fingerprint;
use crate::server::{QueryOptions, ServeResult, Server};
use context_engine::Query;
use cx_optimizer::OptimizerConfig;
use cx_storage::{Result, Scalar};
use std::sync::Arc;

/// What the server serves: a query template, the optimizer configuration
/// it runs under, and the fingerprints that key its plan-cache entry —
/// what a [`Prepared`] handle carries, minus the server.
pub(crate) struct Statement<'a> {
    pub(crate) template: &'a Query,
    pub(crate) config: OptimizerConfig,
    /// Binding values every execution must supply (0 = ad-hoc query).
    pub(crate) param_count: usize,
    /// [`LogicalPlan::fingerprint`] of the template; validates cache hits.
    pub(crate) exact_fingerprint: u64,
    /// [`config_fingerprint`] of `config`.
    pub(crate) config_fingerprint: u64,
}

impl<'a> Statement<'a> {
    /// Fingerprints `template` under `config`. `param_count` is the
    /// caller's to get right: [`Prepared::new`] validates it, auto-param
    /// SQL lifted exactly that many literals.
    pub(crate) fn new(template: &'a Query, config: OptimizerConfig, param_count: usize) -> Self {
        Statement {
            template,
            config,
            param_count,
            exact_fingerprint: template.plan().fingerprint(),
            config_fingerprint: config_fingerprint(&config),
        }
    }

    /// An ad-hoc query: the zero-parameter statement.
    pub(crate) fn adhoc(query: &'a Query, config: OptimizerConfig) -> Self {
        Statement::new(query, config, 0)
    }

    /// The plan-cache key: the template's exact fingerprint ⊕ the config
    /// fingerprint.
    pub(crate) fn cache_key(&self) -> u64 {
        self.exact_fingerprint ^ self.config_fingerprint
    }
}

/// A prepared statement: a query template optimized once, executable any
/// number of times with different parameter bindings (each execution
/// binds the optimized plan and lowers it from the planning snapshot).
///
/// Obtain one from [`crate::Session::prepare`]; see the [module
/// docs](self) for the lifecycle. Handles are `Send + Sync` and cheap to
/// clone-free share behind an `Arc`; every method takes `&self`.
///
/// ```
/// use context_engine::{Engine, EngineConfig};
/// use cx_embed::HashNGramModel;
/// use cx_expr::{col, param};
/// use cx_serve::{ServeConfig, Server};
/// use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
/// use std::sync::Arc;
///
/// let engine = Arc::new(Engine::new(EngineConfig::default()));
/// engine.register_model(Arc::new(HashNGramModel::new(42)));
/// let products = Table::from_columns(
///     Schema::new(vec![
///         Field::new("name", DataType::Utf8),
///         Field::new("price", DataType::Float64),
///     ]),
///     vec![
///         Column::from_strings(["boots", "mug", "parka"]),
///         Column::from_f64(vec![30.0, 8.0, 80.0]),
///     ],
/// ).unwrap();
/// engine.register_table("products", products).unwrap();
///
/// let server = Server::new(engine, ServeConfig::default());
/// let session = server.session();
/// // One template, two parameters: a comparison literal and a limit.
/// let template = session.table("products").unwrap()
///     .filter(col("price").gt(param(0)))
///     .sort(&[("price", true)])
///     .limit_param(1);
/// let prepared = session.prepare(&template).unwrap();
/// assert_eq!(prepared.param_count(), 2);
/// let cheap = prepared.execute(&[Scalar::Float64(5.0), Scalar::Int64(1)]).unwrap();
/// assert_eq!(cheap.table.num_rows(), 1); // mug
/// let all = prepared.execute(&[Scalar::Float64(5.0), Scalar::Int64(10)]).unwrap();
/// assert_eq!(all.table.num_rows(), 3);
/// ```
pub struct Prepared {
    server: Arc<Server>,
    template: Query,
    config: OptimizerConfig,
    param_count: usize,
    exact_fingerprint: u64,
    config_fingerprint: u64,
    shape_cache_hit: bool,
}

impl Prepared {
    /// Validates the template (parameter slots must be contiguous from
    /// `$0`), optimizes it eagerly so the first `execute` already hits the
    /// cached plan, and returns the handle.
    pub(crate) fn new(
        server: Arc<Server>,
        template: Query,
        config: OptimizerConfig,
    ) -> Result<Prepared> {
        let param_count = template.plan().required_params()?;
        let stmt = Statement::new(&template, config, param_count);
        let (_, shape_cache_hit) = server.resolve_plan(&stmt, server.engine().catalog_version())?;
        let Statement {
            exact_fingerprint,
            config_fingerprint,
            ..
        } = stmt;
        Ok(Prepared {
            server,
            template,
            config,
            param_count,
            exact_fingerprint,
            config_fingerprint,
            shape_cache_hit,
        })
    }

    /// Whether prepare time resolved an already-cached plan for this
    /// template (an equivalent template was prepared — or an equivalent
    /// statement auto-parameterized — before), rather than optimizing
    /// fresh.
    pub fn shape_cache_hit(&self) -> bool {
        self.shape_cache_hit
    }

    /// Executes the template with `params` bound (slot `i` takes
    /// `params[i]`). The binding vector's length must equal
    /// [`Self::param_count`]. Results are bit-identical to executing the
    /// equivalent literal query ad hoc.
    pub fn execute(&self, params: &[Scalar]) -> Result<ServeResult> {
        let stmt = Statement {
            template: &self.template,
            config: self.config,
            param_count: self.param_count,
            exact_fingerprint: self.exact_fingerprint,
            config_fingerprint: self.config_fingerprint,
        };
        self.server
            .serve_statement(&stmt, params, &QueryOptions::default(), false)
    }

    /// The number of binding values every `execute` call must provide.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The template this handle was prepared from.
    pub fn template(&self) -> &Query {
        &self.template
    }

    /// The optimizer configuration snapshotted at prepare time.
    pub fn config(&self) -> OptimizerConfig {
        self.config
    }

    /// The template's shape fingerprint
    /// ([`cx_exec::logical::LogicalPlan::shape_fingerprint`]): equal for
    /// templates that differ only in literal values.
    pub fn shape_fingerprint(&self) -> u64 {
        self.template.plan().shape_fingerprint()
    }
}
