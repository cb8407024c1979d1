//! Live `cx.*` system tables: the server's telemetry as scannable
//! relations.
//!
//! Each provider here implements [`cx_storage::SystemTableSource`] over a
//! `Weak<Server>` and registers into the engine's catalog at
//! [`Server::new`], so normal relational operators (filter, project,
//! sort, aggregate, join) run over the server's own state:
//!
//! | table           | contents                                          |
//! |-----------------|---------------------------------------------------|
//! | `cx.queries`    | one row per retained trace: outcome, latency, queue wait, plan-cache verdict, SIMD path, resource profile |
//! | `cx.spans`      | every span of every retained trace, flattened      |
//! | `cx.histograms` | nonzero buckets of every server histogram          |
//! | `cx.metrics`    | the full metrics snapshot as rows                  |
//! | `cx.plan_cache` | one row per cached plan                            |
//! | `cx.incidents`  | the watchdog's structured incident log             |
//!
//! **Lock discipline** (what makes a traced query scanning `cx.*` safe):
//! every snapshot takes at most one internal lock at a time, clones out
//! quickly, and never calls back into a serving path. The scanning
//! query's own trace is not yet in the ring (traces land at
//! `finish_query`, after execution), so no provider ever locks state the
//! scan is concurrently writing. A dropped server scans as empty rather
//! than dangling.

use crate::server::Server;
use cx_storage::{Chunk, Column, DataType, Field, Result, Schema, SystemTableSource};
use std::sync::{Arc, Weak};

/// Registers all six providers into the server's engine catalog.
/// Re-registration replaces: the last server constructed over an engine
/// owns its telemetry tables.
pub(crate) fn register_all(server: &Arc<Server>) {
    let catalog = server.engine().catalog();
    let weak = || Arc::downgrade(server);
    let sources: Vec<Arc<dyn SystemTableSource>> = vec![
        Arc::new(QueriesTable::new(weak())),
        Arc::new(SpansTable::new(weak())),
        Arc::new(HistogramsTable::new(weak())),
        Arc::new(MetricsTable::new(weak())),
        Arc::new(PlanCacheTable::new(weak())),
        Arc::new(IncidentsTable::new(weak())),
    ];
    for source in sources {
        // Cannot fail: every name below lives in the reserved schema.
        let _ = catalog.register_system_table(source);
    }
}

/// Column vectors under construction for one snapshot chunk.
fn chunk_from(schema: &Arc<Schema>, columns: Vec<Column>) -> Result<Vec<Chunk>> {
    if columns.first().is_none_or(|c| c.is_empty()) {
        return Ok(vec![]);
    }
    Ok(vec![Chunk::new(schema.clone(), columns)?])
}

/// `cx.queries`: one row per trace retained in the ring.
#[derive(Debug)]
struct QueriesTable {
    server: Weak<Server>,
    schema: Arc<Schema>,
}

impl QueriesTable {
    fn new(server: Weak<Server>) -> Self {
        QueriesTable {
            server,
            schema: Arc::new(Schema::new(vec![
                Field::required("query", DataType::Utf8),
                Field::required("outcome", DataType::Utf8),
                Field::required("total_ms", DataType::Float64),
                Field::required("queue_wait_ms", DataType::Float64),
                Field::required("plan_cache", DataType::Utf8),
                Field::required("simd", DataType::Utf8),
                Field::required("cpu_ms", DataType::Float64),
                Field::required("alloc_count", DataType::Int64),
                Field::required("alloc_bytes", DataType::Int64),
                Field::required("pairs_scored", DataType::Int64),
                Field::required("panel_tiles", DataType::Int64),
                Field::required("bytes_charged", DataType::Int64),
            ])),
        }
    }
}

impl SystemTableSource for QueriesTable {
    fn name(&self) -> &str {
        "cx.queries"
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn snapshot(&self) -> Result<Vec<Chunk>> {
        let Some(server) = self.server.upgrade() else {
            return Ok(vec![]);
        };
        let traces = server.traces();
        let mut query = Vec::new();
        let mut outcome = Vec::new();
        let mut total_ms = Vec::new();
        let mut queue_wait_ms = Vec::new();
        let mut plan_cache = Vec::new();
        let mut simd = Vec::new();
        let mut cpu_ms = Vec::new();
        let mut alloc_count = Vec::new();
        let mut alloc_bytes = Vec::new();
        let mut pairs_scored = Vec::new();
        let mut panel_tiles = Vec::new();
        let mut bytes_charged = Vec::new();
        for t in traces {
            query.push(t.label());
            outcome.push(t.outcome().unwrap_or_default());
            total_ms.push(t.total_ns() as f64 / 1e6);
            let spans = t.spans();
            let admission = spans.iter().filter(|s| s.name == "admission");
            queue_wait_ms.push(admission.map(|s| s.dur_ns).sum::<u64>() as f64 / 1e6);
            plan_cache.push(
                spans
                    .iter()
                    .find(|s| s.name == "plan_cache")
                    .map(|s| s.detail.clone())
                    .unwrap_or_default(),
            );
            let panel = spans.iter().find(|s| s.name == "panel_sweep");
            simd.push(
                panel
                    .and_then(|s| s.detail.split_once("simd=").map(|(_, rest)| rest))
                    .unwrap_or_default()
                    .to_string(),
            );
            let p = t.profile().unwrap_or_default();
            cpu_ms.push(p.cpu_ns as f64 / 1e6);
            alloc_count.push(p.alloc_count as i64);
            alloc_bytes.push(p.alloc_bytes as i64);
            pairs_scored.push(p.pairs_scored as i64);
            panel_tiles.push(p.panel_tiles as i64);
            bytes_charged.push(p.bytes_charged as i64);
        }
        chunk_from(
            &self.schema,
            vec![
                Column::from_strings(query),
                Column::from_strings(outcome),
                Column::from_f64(total_ms),
                Column::from_f64(queue_wait_ms),
                Column::from_strings(plan_cache),
                Column::from_strings(simd),
                Column::from_f64(cpu_ms),
                Column::from_i64(alloc_count),
                Column::from_i64(alloc_bytes),
                Column::from_i64(pairs_scored),
                Column::from_i64(panel_tiles),
                Column::from_i64(bytes_charged),
            ],
        )
    }
}

/// `cx.spans`: every span of every retained trace, flattened.
#[derive(Debug)]
struct SpansTable {
    server: Weak<Server>,
    schema: Arc<Schema>,
}

impl SpansTable {
    fn new(server: Weak<Server>) -> Self {
        SpansTable {
            server,
            schema: Arc::new(Schema::new(vec![
                Field::required("query", DataType::Utf8),
                Field::required("span", DataType::Utf8),
                Field::required("detail", DataType::Utf8),
                Field::required("start_ms", DataType::Float64),
                Field::required("dur_ms", DataType::Float64),
                Field::required("depth", DataType::Int64),
            ])),
        }
    }
}

impl SystemTableSource for SpansTable {
    fn name(&self) -> &str {
        "cx.spans"
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn snapshot(&self) -> Result<Vec<Chunk>> {
        let Some(server) = self.server.upgrade() else {
            return Ok(vec![]);
        };
        let mut query = Vec::new();
        let mut span = Vec::new();
        let mut detail = Vec::new();
        let mut start_ms = Vec::new();
        let mut dur_ms = Vec::new();
        let mut depth = Vec::new();
        for t in server.traces() {
            let label = t.label();
            for s in t.spans() {
                query.push(label.clone());
                span.push(s.name.to_string());
                detail.push(s.detail);
                start_ms.push(s.start_ns as f64 / 1e6);
                dur_ms.push(s.dur_ns as f64 / 1e6);
                depth.push(s.depth as i64);
            }
        }
        chunk_from(
            &self.schema,
            vec![
                Column::from_strings(query),
                Column::from_strings(span),
                Column::from_strings(detail),
                Column::from_f64(start_ms),
                Column::from_f64(dur_ms),
                Column::from_i64(depth),
            ],
        )
    }
}

/// `cx.histograms`: nonzero buckets of every server histogram (the two
/// always-on serving histograms plus one per instrumented operator).
#[derive(Debug)]
struct HistogramsTable {
    server: Weak<Server>,
    schema: Arc<Schema>,
}

impl HistogramsTable {
    fn new(server: Weak<Server>) -> Self {
        HistogramsTable {
            server,
            schema: Arc::new(Schema::new(vec![
                Field::required("histogram", DataType::Utf8),
                Field::required("bucket_low", DataType::Int64),
                Field::required("bucket_mid", DataType::Int64),
                Field::required("count", DataType::Int64),
            ])),
        }
    }
}

impl SystemTableSource for HistogramsTable {
    fn name(&self) -> &str {
        "cx.histograms"
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn snapshot(&self) -> Result<Vec<Chunk>> {
        let Some(server) = self.server.upgrade() else {
            return Ok(vec![]);
        };
        let mut name = Vec::new();
        let mut low = Vec::new();
        let mut mid = Vec::new();
        let mut count = Vec::new();
        let mut push = |hist_name: &str, buckets: Vec<cx_obs::BucketCount>| {
            for b in buckets {
                name.push(hist_name.to_string());
                low.push(b.low as i64);
                mid.push(b.mid as i64);
                count.push(b.count as i64);
            }
        };
        push("latency", server.latency_histogram().nonzero_buckets());
        push(
            "queue_wait",
            server.queue_wait_histogram().nonzero_buckets(),
        );
        for (op, h) in server.exec_metrics().handles() {
            push(&format!("operator:{op}"), h.latency().nonzero_buckets());
        }
        chunk_from(
            &self.schema,
            vec![
                Column::from_strings(name),
                Column::from_i64(low),
                Column::from_i64(mid),
                Column::from_i64(count),
            ],
        )
    }
}

/// `cx.metrics`: the full [`Server::metrics_snapshot`] flattened to rows
/// (summaries expand to one row per quantile plus `_sum` / `_count`).
#[derive(Debug)]
struct MetricsTable {
    server: Weak<Server>,
    schema: Arc<Schema>,
}

impl MetricsTable {
    fn new(server: Weak<Server>) -> Self {
        MetricsTable {
            server,
            schema: Arc::new(Schema::new(vec![
                Field::required("name", DataType::Utf8),
                Field::required("labels", DataType::Utf8),
                Field::required("kind", DataType::Utf8),
                Field::required("value", DataType::Float64),
            ])),
        }
    }
}

impl SystemTableSource for MetricsTable {
    fn name(&self) -> &str {
        "cx.metrics"
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn snapshot(&self) -> Result<Vec<Chunk>> {
        let Some(server) = self.server.upgrade() else {
            return Ok(vec![]);
        };
        let snap = server.metrics_snapshot();
        let mut name = Vec::new();
        let mut labels = Vec::new();
        let mut kind = Vec::new();
        let mut value = Vec::new();
        let mut row = |n: String, l: String, k: &str, v: f64| {
            name.push(n);
            labels.push(l);
            kind.push(k.to_string());
            value.push(v);
        };
        if let (Some(ts), Some(seq)) = (snap.timestamp_ms(), snap.sequence()) {
            for (d, v) in [(cx_obs::STAMP_MS, ts), (cx_obs::STAMP_SEQUENCE, seq)] {
                row(d.name.into(), String::new(), d.kind.as_str(), v as f64);
            }
        }
        for m in snap.metrics() {
            let rendered = m
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            match &m.value {
                cx_obs::MetricValue::Counter(v) => {
                    row(m.name.clone(), rendered, "counter", *v as f64)
                }
                cx_obs::MetricValue::Gauge(v) => row(m.name.clone(), rendered, "gauge", *v),
                cx_obs::MetricValue::Summary {
                    quantiles,
                    count,
                    sum,
                } => {
                    for (q, v) in quantiles {
                        let ql = if rendered.is_empty() {
                            format!("quantile={q}")
                        } else {
                            format!("{rendered},quantile={q}")
                        };
                        row(m.name.clone(), ql, "summary", *v);
                    }
                    row(format!("{}_sum", m.name), rendered.clone(), "summary", *sum);
                    row(
                        format!("{}_count", m.name),
                        rendered,
                        "summary",
                        *count as f64,
                    );
                }
            }
        }
        chunk_from(
            &self.schema,
            vec![
                Column::from_strings(name),
                Column::from_strings(labels),
                Column::from_strings(kind),
                Column::from_f64(value),
            ],
        )
    }
}

/// `cx.plan_cache`: one row per cached plan.
#[derive(Debug)]
struct PlanCacheTable {
    server: Weak<Server>,
    schema: Arc<Schema>,
}

impl PlanCacheTable {
    fn new(server: Weak<Server>) -> Self {
        PlanCacheTable {
            server,
            schema: Arc::new(Schema::new(vec![
                Field::required("key", DataType::Utf8),
                Field::required("catalog_version", DataType::Int64),
                Field::required("estimated_rows", DataType::Float64),
                Field::required("estimated_cost", DataType::Float64),
                Field::required("rules_fired", DataType::Int64),
                Field::required("volatile", DataType::Bool),
                Field::required("has_result", DataType::Bool),
                Field::required("bound_results", DataType::Int64),
                Field::required("last_used", DataType::Int64),
            ])),
        }
    }
}

impl SystemTableSource for PlanCacheTable {
    fn name(&self) -> &str {
        "cx.plan_cache"
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn snapshot(&self) -> Result<Vec<Chunk>> {
        let Some(server) = self.server.upgrade() else {
            return Ok(vec![]);
        };
        let mut entries = server.plan_cache_entries();
        entries.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        chunk_from(
            &self.schema,
            vec![
                Column::from_strings(
                    entries
                        .iter()
                        .map(|e| format!("{:016x}", e.key))
                        .collect::<Vec<_>>(),
                ),
                Column::from_i64(entries.iter().map(|e| e.catalog_version as i64).collect()),
                Column::from_f64(entries.iter().map(|e| e.estimated_rows).collect()),
                Column::from_f64(entries.iter().map(|e| e.estimated_cost).collect()),
                Column::from_i64(entries.iter().map(|e| e.rules_fired as i64).collect()),
                Column::from_bools(entries.iter().map(|e| e.volatile).collect()),
                Column::from_bools(entries.iter().map(|e| e.has_result).collect()),
                Column::from_i64(entries.iter().map(|e| e.bound_results as i64).collect()),
                Column::from_i64(entries.iter().map(|e| e.last_used as i64).collect()),
            ],
        )
    }
}

/// `cx.incidents`: the watchdog's structured incident log, oldest first.
#[derive(Debug)]
struct IncidentsTable {
    server: Weak<Server>,
    schema: Arc<Schema>,
}

impl IncidentsTable {
    fn new(server: Weak<Server>) -> Self {
        IncidentsTable {
            server,
            schema: Arc::new(Schema::new(vec![
                Field::required("seq", DataType::Int64),
                Field::required("at_ms", DataType::Int64),
                Field::required("kind", DataType::Utf8),
                Field::required("detail", DataType::Utf8),
                Field::required("value", DataType::Float64),
                Field::required("threshold", DataType::Float64),
            ])),
        }
    }
}

impl SystemTableSource for IncidentsTable {
    fn name(&self) -> &str {
        "cx.incidents"
    }

    fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn snapshot(&self) -> Result<Vec<Chunk>> {
        let Some(server) = self.server.upgrade() else {
            return Ok(vec![]);
        };
        let records = server.incidents().recent();
        chunk_from(
            &self.schema,
            vec![
                Column::from_i64(records.iter().map(|r| r.seq as i64).collect()),
                Column::from_i64(records.iter().map(|r| r.at_ms as i64).collect()),
                Column::from_strings(records.iter().map(|r| r.kind).collect::<Vec<_>>()),
                Column::from_strings(records.iter().map(|r| r.detail.clone()).collect::<Vec<_>>()),
                Column::from_f64(records.iter().map(|r| r.value).collect()),
                Column::from_f64(records.iter().map(|r| r.threshold).collect()),
            ],
        )
    }
}
