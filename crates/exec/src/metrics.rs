//! Per-operator execution metrics (EXPLAIN ANALYZE-style reporting).

use crate::physical::{ChunkStream, PhysicalOperator};
use cx_obs::Histogram;
use cx_storage::{Chunk, Result, Schema};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters for one operator.
#[derive(Debug, Default)]
pub struct OperatorMetrics {
    rows_out: AtomicU64,
    chunks_out: AtomicU64,
    elapsed_ns: AtomicU64,
    executions: AtomicU64,
    /// Per-execution wall-time distribution (setup + chunk production),
    /// recorded once per `execute()` when its stream is dropped.
    latency: Histogram,
}

impl OperatorMetrics {
    /// Rows emitted.
    pub fn rows_out(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed)
    }

    /// Chunks emitted.
    pub fn chunks_out(&self) -> u64 {
        self.chunks_out.load(Ordering::Relaxed)
    }

    /// Wall time spent producing output, in nanoseconds.
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed_ns.load(Ordering::Relaxed)
    }

    /// Number of `execute()` calls.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Per-execution wall-time distribution. Quantiles are approximate
    /// (log-linear buckets, ≤ ~3.2% relative error); count/sum/max exact.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }
}

/// A registry of operator metrics keyed by operator kind: the label up to
/// its first ` [` (`Filter [(price > 41.5)]` and `Filter [(price > 7)]`
/// share the `Filter` entry). Labels carry bound literals, so keying by
/// the whole label would add a histogram, an exported series and report
/// rows per distinct literal, without bound.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    operators: RwLock<BTreeMap<String, Arc<OperatorMetrics>>>,
    /// Free-form execution-environment annotation (e.g. the resolved SIMD
    /// kernel dispatch), printed at the top of [`ExecMetrics::report`] so
    /// recorded numbers are self-describing.
    environment: RwLock<Option<String>>,
}

impl ExecMetrics {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics handle for `label`'s operator kind, created on first
    /// use.
    pub fn handle(&self, label: &str) -> Arc<OperatorMetrics> {
        let kind = label.split_once(" [").map_or(label, |(kind, _)| kind);
        if let Some(m) = self.operators.read().get(kind) {
            return m.clone();
        }
        self.operators
            .write()
            .entry(kind.to_string())
            .or_default()
            .clone()
    }

    /// Annotates this registry with the execution environment the numbers
    /// were recorded under (e.g. `simd f32=avx512`). Shown as the first
    /// line of [`ExecMetrics::report`].
    pub fn set_environment(&self, env: impl Into<String>) {
        *self.environment.write() = Some(env.into());
    }

    /// The environment annotation, if one was set.
    pub fn environment(&self) -> Option<String> {
        self.environment.read().clone()
    }

    /// Snapshot of `(kind, rows_out, elapsed_ns)` sorted by kind.
    pub fn snapshot(&self) -> Vec<(String, u64, u64)> {
        self.operators
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.rows_out(), v.elapsed_ns()))
            .collect()
    }

    /// All `(kind, metrics)` handles sorted by kind — for exporters
    /// that need the full counters and latency histograms.
    pub fn handles(&self) -> Vec<(String, Arc<OperatorMetrics>)> {
        self.operators
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Human-readable report with per-execution latency quantiles.
    pub fn report(&self) -> String {
        let mut out = String::new();
        if let Some(env) = self.environment() {
            out.push_str(&format!("environment: {env}\n"));
        }
        out.push_str("operator | rows_out | time_ms | p50_ms | p95_ms | p99_ms | max_ms\n");
        for (label, m) in self.handles() {
            let lat = m.latency().snapshot();
            out.push_str(&format!(
                "{label} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3}\n",
                m.rows_out(),
                m.elapsed_ns() as f64 / 1e6,
                lat.p50 as f64 / 1e6,
                lat.p95 as f64 / 1e6,
                lat.p99 as f64 / 1e6,
                lat.max as f64 / 1e6,
            ));
        }
        out
    }
}

/// Wraps an operator, recording produced rows and wall time into a shared
/// [`OperatorMetrics`].
pub struct InstrumentedExec {
    inner: Arc<dyn PhysicalOperator>,
    metrics: Arc<OperatorMetrics>,
}

impl InstrumentedExec {
    /// Instruments `inner`, registering under its `name()`'s kind in
    /// `registry`.
    pub fn new(inner: Arc<dyn PhysicalOperator>, registry: &ExecMetrics) -> Self {
        let metrics = registry.handle(&inner.name());
        InstrumentedExec { inner, metrics }
    }
}

impl PhysicalOperator for InstrumentedExec {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schema(&self) -> Arc<Schema> {
        self.inner.schema()
    }

    fn children(&self) -> Vec<Arc<dyn PhysicalOperator>> {
        self.inner.children()
    }

    fn execute(&self) -> Result<ChunkStream> {
        self.metrics.executions.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let stream = self.inner.execute()?;
        // Setup cost (eager operators do all work here) is charged upfront.
        let setup_ns = start.elapsed().as_nanos() as u64;
        self.metrics
            .elapsed_ns
            .fetch_add(setup_ns, Ordering::Relaxed);
        Ok(Box::new(InstrumentedStream {
            inner: stream,
            metrics: self.metrics.clone(),
            execution_ns: setup_ns,
        }))
    }
}

/// Wraps one execution's chunk stream: accumulates per-chunk wall time
/// into the shared counters as chunks are pulled, and records the
/// execution's total wall time (setup + production) into the operator's
/// latency histogram when the stream is dropped.
struct InstrumentedStream {
    inner: ChunkStream,
    metrics: Arc<OperatorMetrics>,
    execution_ns: u64,
}

impl Iterator for InstrumentedStream {
    type Item = Result<Chunk>;

    fn next(&mut self) -> Option<Result<Chunk>> {
        let t = Instant::now();
        let item = self.inner.next()?;
        let ns = t.elapsed().as_nanos() as u64;
        self.execution_ns += ns;
        self.metrics.elapsed_ns.fetch_add(ns, Ordering::Relaxed);
        if let Ok(chunk) = &item {
            self.metrics
                .rows_out
                .fetch_add(chunk.num_rows() as u64, Ordering::Relaxed);
            self.metrics.chunks_out.fetch_add(1, Ordering::Relaxed);
        }
        Some(item)
    }
}

impl Drop for InstrumentedStream {
    fn drop(&mut self) {
        self.metrics.latency.record(self.execution_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::TableScanExec;
    use crate::physical::collect_table;
    use cx_storage::{Column, Field, Table};

    fn scan() -> Arc<dyn PhysicalOperator> {
        let table = Table::from_columns(
            Schema::new(vec![Field::new("x", cx_storage::DataType::Int64)]),
            vec![Column::from_i64((0..100).collect())],
        )
        .unwrap();
        Arc::new(TableScanExec::new(Arc::new(table)))
    }

    #[test]
    fn instrumented_counts_rows() {
        let registry = ExecMetrics::new();
        let op = InstrumentedExec::new(scan(), &registry);
        collect_table(&op).unwrap();
        let m = registry.handle(&op.name());
        assert_eq!(m.rows_out(), 100);
        assert_eq!(m.chunks_out(), 1);
        assert_eq!(m.executions(), 1);
        // Second execution accumulates.
        collect_table(&op).unwrap();
        assert_eq!(m.rows_out(), 200);
        assert_eq!(m.executions(), 2);
    }

    #[test]
    fn report_contains_labels() {
        let registry = ExecMetrics::new();
        let op = InstrumentedExec::new(scan(), &registry);
        collect_table(&op).unwrap();
        let report = registry.report();
        assert!(report.contains("TableScan"));
        assert!(report.contains("100"));
    }

    #[test]
    fn latency_histogram_records_per_execution() {
        let registry = ExecMetrics::new();
        let op = InstrumentedExec::new(scan(), &registry);
        collect_table(&op).unwrap();
        collect_table(&op).unwrap();
        let m = registry.handle(&op.name());
        assert_eq!(m.latency().count(), 2);
        assert!(m.latency().max() > 0);
        let report = registry.report();
        assert!(report.contains("p99_ms"), "{report}");
    }

    #[test]
    fn handle_is_shared() {
        let registry = ExecMetrics::new();
        let a = registry.handle("op");
        let b = registry.handle("op");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.snapshot().len(), 1);
    }

    #[test]
    fn labels_differing_only_in_literals_share_one_kind() {
        let registry = ExecMetrics::new();
        let a = registry.handle("Filter [(price > 41.5)]");
        let b = registry.handle("Filter [(price > 7)]");
        assert!(Arc::ptr_eq(&a, &b));
        registry.handle("Limit [7]");
        registry.handle("Distinct");
        let kinds: Vec<String> = registry.snapshot().into_iter().map(|(k, ..)| k).collect();
        assert_eq!(kinds, ["Distinct", "Filter", "Limit"]);
    }
}
