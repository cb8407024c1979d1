//! The server's metric surface: [`Server::metrics_snapshot`] (behind
//! Prometheus text, JSON and `cx.metrics`) and [`Server::report`].
//!
//! **Declare-once rule.** A metric's name, help and kind are written in
//! exactly one place. Counter families are
//! [`cx_obs::metric_family!`] tables next to the code that bumps them —
//! the table generates the atomics, the public `*Stats` snapshot struct,
//! `snapshot()` and the [`MetricFamily`] export — and the few metrics
//! sampled from live structures (histograms, per-operator handles, the
//! fault plan, the trace ring, the incident log) are the
//! [`cx_obs::metric_descs!`] table below. Both functions here only
//! iterate those declarations, and [`metric_inventory`] hands the same
//! list to the tests that check the exposition, `cx.metrics` and
//! `docs/ARCHITECTURE.md` against it.
//! Label keys are the one thing written twice — where a sample is
//! emitted and in the inventory — and those tests compare the two.

use crate::admission::AdmissionStats;
use crate::faults::FaultSite;
use crate::plan_cache::PlanCacheStats;
use crate::server::{LifecycleStats, ProfileTotalsStats, Server, ServerStats};
use crate::sql::SqlStats;
use cx_obs::{HistSnapshot, Histogram, MetricDesc, MetricFamily, MetricsSnapshot};
use std::sync::atomic::Ordering;

cx_obs::metric_descs! {
    FAULTS: counter "cx_serve_faults_injected_total"
        "Faults injected by the installed plan, by site",
    LATENCY: summary "cx_serve_query_latency_ns" "End-to-end serve latency (ns)",
    QUEUE_WAIT: summary "cx_serve_queue_wait_ns" "Admission queue wait (ns)",
    OPERATOR_ROWS: counter "cx_exec_operator_rows_total" "Rows emitted per operator",
    OPERATOR_LATENCY: summary "cx_exec_operator_latency_ns"
        "Per-execution operator latency (ns)",
    TRACE_RING_LEN: gauge "cx_obs_trace_ring_len" "Finished traces retained",
    INCIDENTS_TOTAL: counter "cx_obs_incidents_total"
        "Watchdog incidents recorded since startup",
    INCIDENTS_RETAINED: gauge "cx_obs_incidents_retained"
        "Watchdog incidents currently retained",
    /// The sample's help line carries the resolved dispatch after this text.
    SIMD_INFO: gauge "cx_serve_simd_info" "Resolved SIMD dispatch",
}

/// One row group of the metric inventory: the metrics a family (or a
/// live-sampled source) emits and the label keys every sample of them
/// carries. A summary descriptor also covers its `quantile` label and
/// its `_sum`, `_count` and `_max` series.
#[derive(Debug, Clone, Copy)]
pub struct MetricGroup {
    /// Heading the group is documented under.
    pub title: &'static str,
    /// Label keys on every sample.
    pub labels: &'static [&'static str],
    /// The metrics, in emission order.
    pub metrics: &'static [MetricDesc],
}

/// Every metric a [`Server`] can emit, grouped as
/// `docs/ARCHITECTURE.md`'s inventory table presents them, in emission
/// order.
pub fn metric_inventory() -> Vec<MetricGroup> {
    let group = |title, labels, metrics| MetricGroup {
        title,
        labels,
        metrics,
    };
    vec![
        group(
            "snapshot stamp",
            &[],
            &[cx_obs::STAMP_MS, cx_obs::STAMP_SEQUENCE],
        ),
        group("serving", &[], ServerStats::DESCRIPTORS),
        group("plan cache", &[], PlanCacheStats::DESCRIPTORS),
        group("admission", &[], AdmissionStats::DESCRIPTORS),
        group("lifecycle", &[], LifecycleStats::DESCRIPTORS),
        group("sql", &[], SqlStats::DESCRIPTORS),
        group("faults (plan installed)", &["site"], &[FAULTS]),
        group("latency summaries", &[], &[LATENCY, QUEUE_WAIT]),
        group(
            "per-operator",
            &["operator"],
            &[OPERATOR_ROWS, OPERATOR_LATENCY],
        ),
        group("trace ring", &[], &[TRACE_RING_LEN]),
        group("profiler", &[], ProfileTotalsStats::DESCRIPTORS),
        group("incidents", &[], &[INCIDENTS_TOTAL, INCIDENTS_RETAINED]),
        group("environment", &["dispatch"], &[SIMD_INFO]),
    ]
}

/// `heading: <value> <what>, ...` — one report line from the samples a
/// family exports; `<what>` is the metric name without the family's
/// `prefix` and the `_total` suffix.
fn family_line<F: MetricFamily>(out: &mut String, heading: &str, prefix: &str, stats: &F) {
    let mut m = MetricsSnapshot::new();
    stats.export(&[], &mut m);
    let cells: Vec<String> = F::DESCRIPTORS
        .iter()
        .map(|d| {
            let v = m.value(d.name).unwrap_or_default();
            let digits = if v.fract() == 0.0 { 0 } else { 3 };
            let what = d.name.strip_prefix(prefix).unwrap_or(d.name);
            let what = what.strip_suffix("_total").unwrap_or(what);
            format!("{v:.digits$} {}", what.replace('_', " "))
        })
        .collect();
    out.push_str(&format!("{heading}: {}\n", cells.join(", ")));
}

/// `heading: p50 .. ms, p95 .. ms, p99 .. ms, max .. ms (N unit)`.
fn quantile_line(out: &mut String, heading: &str, h: &HistSnapshot, unit: &str) {
    let ms = |ns: u64| ns as f64 / 1e6;
    out.push_str(&format!(
        "{heading}: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms ({} {unit})\n",
        ms(h.p50),
        ms(h.p95),
        ms(h.p99),
        ms(h.max),
        h.count,
    ));
}

impl Server {
    /// Captures every server counter, cache rate, histogram quantile, and
    /// per-operator metric into one exportable [`MetricsSnapshot`] —
    /// render it with [`MetricsSnapshot::to_prometheus`] /
    /// [`MetricsSnapshot::to_json`] (or the [`Server::prometheus`] /
    /// [`Server::metrics_json`] shorthands).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let s = self.stats();
        let mut m = MetricsSnapshot::new();
        s.export(&[], &mut m);
        s.plan_cache.export(&[], &mut m);
        s.admission.export(&[], &mut m);
        s.lifecycle.export(&[], &mut m);
        s.sql.export(&[], &mut m);
        if let Some(f) = self.fault_stats() {
            for (site, injected) in FaultSite::ALL.iter().zip(f.per_site) {
                m.counter(
                    FAULTS.name,
                    FAULTS.help,
                    &[("site", site.label())],
                    injected,
                );
            }
        }
        m.summary_from_hist(LATENCY.name, LATENCY.help, &[], self.latency_histogram());
        m.summary_from_hist(
            QUEUE_WAIT.name,
            QUEUE_WAIT.help,
            &[],
            self.queue_wait_histogram(),
        );
        for (op, h) in self.exec_metrics().handles() {
            let labels = [("operator", op.as_str())];
            m.counter(
                OPERATOR_ROWS.name,
                OPERATOR_ROWS.help,
                &labels,
                h.rows_out(),
            );
            m.summary_from_hist(
                OPERATOR_LATENCY.name,
                OPERATOR_LATENCY.help,
                &labels,
                h.latency(),
            );
        }
        m.gauge(
            TRACE_RING_LEN.name,
            TRACE_RING_LEN.help,
            &[],
            self.trace_ring.len() as f64,
        );
        self.profile_totals().export(&[], &mut m);
        let incidents = self.incidents();
        m.counter(
            INCIDENTS_TOTAL.name,
            INCIDENTS_TOTAL.help,
            &[],
            incidents.total(),
        );
        m.gauge(
            INCIDENTS_RETAINED.name,
            INCIDENTS_RETAINED.help,
            &[],
            incidents.len() as f64,
        );
        m.gauge(
            SIMD_INFO.name,
            &format!("{}: {}", SIMD_INFO.help, s.simd),
            &[("dispatch", s.simd.as_str())],
            1.0,
        );
        let seq = self.snapshot_seq.fetch_add(1, Ordering::Relaxed);
        m.set_timestamp(self.now_ms(), seq);
        m
    }

    /// The metrics snapshot rendered in the Prometheus text exposition
    /// format (the scrape surface).
    pub fn prometheus(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// The metrics snapshot rendered as JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Human-readable server report: one line per counter family (the
    /// same fields the exporters carry), the latency quantiles, and the
    /// aggregated per-operator execution metrics.
    pub fn report(&self) -> String {
        let s = self.stats();
        let mut out = String::new();
        family_line(&mut out, "serving", "cx_serve_", &s);
        family_line(
            &mut out,
            "plan cache",
            "cx_serve_plan_cache_",
            &s.plan_cache,
        );
        family_line(&mut out, "admission", "cx_serve_admission_", &s.admission);
        family_line(&mut out, "lifecycle", "cx_serve_", &s.lifecycle);
        if s.sql.statements > 0 {
            family_line(&mut out, "sql", "cx_serve_sql_", &s.sql);
        }
        quantile_line(
            &mut out,
            "latency",
            &self.latency_histogram().snapshot(),
            "samples",
        );
        quantile_line(
            &mut out,
            "queue wait",
            &self.queue_wait_histogram().snapshot(),
            "samples",
        );
        let config = self.config();
        if config.tracing {
            out.push_str(&format!(
                "tracing: on, {} trace(s) retained (capacity {}), {} slow-query log entries\n",
                self.trace_ring.len(),
                self.trace_ring.capacity(),
                self.slow_log.lock().len(),
            ));
        }
        // One quantile line over *all* operators: every per-operator
        // latency histogram merged into a scratch histogram (bucketed
        // merge is exact — same geometry on both sides).
        let merged = Histogram::new();
        for (_, h) in self.exec_metrics().handles() {
            merged.merge(h.latency());
        }
        let all_operators = merged.snapshot();
        if all_operators.count > 0 {
            quantile_line(&mut out, "all operators", &all_operators, "executions");
        }
        if config.profiling {
            family_line(&mut out, "profiler", "cx_serve_", &self.profile_totals());
        }
        let incidents = self.incidents();
        if config.watchdog.is_some() || incidents.total() > 0 {
            out.push_str(&format!(
                "incidents: {} recorded by the watchdog, {} retained\n",
                incidents.total(),
                incidents.len(),
            ));
        }
        out.push_str(&format!("simd kernels: {}\n", s.simd));
        if let Some(plan) = self.fault_plan() {
            let f = plan.stats();
            let sites: Vec<String> = FaultSite::ALL
                .iter()
                .zip(f.per_site)
                .map(|(site, injected)| format!("{site} {injected}"))
                .collect();
            out.push_str(&format!(
                "fault injection [seed {}]: {} faults ({})\n",
                plan.seed(),
                f.total(),
                sites.join(", ")
            ));
        }
        out.push_str("operator metrics:\n");
        out.push_str(&self.exec_metrics().report());
        out
    }
}
