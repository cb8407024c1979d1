//! A flat metrics registry serializable to Prometheus text format and
//! JSON.
//!
//! The serving layer assembles a [`MetricsSnapshot`] on demand from its
//! live counters and histograms — families declared with
//! [`metric_family!`](crate::metric_family) export themselves into it —
//! and tests lint the Prometheus rendering with [`crate::promparse`].

use crate::family::MetricKind;
use crate::hist::Histogram;

crate::metric_descs! {
    /// Capture time stamped by [`MetricsSnapshot::set_timestamp`].
    pub STAMP_MS: gauge "cx_obs_snapshot_timestamp_ms" "Snapshot capture time (ms)",
    /// Capture sequence number stamped alongside [`STAMP_MS`].
    pub STAMP_SEQUENCE: counter "cx_obs_snapshot_sequence" "Snapshot sequence number",
}

/// The value of one metric sample.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A distribution summary: quantile points plus exact count/sum.
    Summary {
        /// `(quantile, value)` points, e.g. `(0.5, 1.2e6)`.
        quantiles: Vec<(f64, f64)>,
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
    },
}

/// One named metric with optional labels.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Prometheus-safe name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Label pairs, e.g. `[("site", "embed")]`.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: MetricValue,
}

/// An ordered collection of metrics captured at one point in time.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    metrics: Vec<Metric>,
    stamp: Option<(u64, u64)>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// All metrics, in insertion order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Stamps the snapshot with a capture time (milliseconds since an
    /// epoch chosen by the caller — wall clock in production, an injected
    /// fake in tests) and a monotonically increasing sequence number, so
    /// two diffed exports are orderable even when the clock is frozen.
    pub fn set_timestamp(&mut self, timestamp_ms: u64, sequence: u64) -> &mut Self {
        self.stamp = Some((timestamp_ms, sequence));
        self
    }

    /// The capture timestamp in milliseconds, if stamped.
    pub fn timestamp_ms(&self) -> Option<u64> {
        self.stamp.map(|(ts, _)| ts)
    }

    /// The capture sequence number, if stamped.
    pub fn sequence(&self) -> Option<u64> {
        self.stamp.map(|(_, seq)| seq)
    }

    /// Adds a counter.
    pub fn counter(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: u64,
    ) -> &mut Self {
        self.push(name, help, labels, MetricValue::Counter(value))
    }

    /// Adds a gauge.
    pub fn gauge(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        self.push(name, help, labels, MetricValue::Gauge(value))
    }

    /// Adds a summary (p50/p95/p99 + count/sum) from a histogram, plus a
    /// companion `<name>_max` gauge carrying the exact maximum.
    pub fn summary_from_hist(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        hist: &Histogram,
    ) -> &mut Self {
        let snap = hist.snapshot();
        let quantiles = vec![
            (0.5, snap.p50 as f64),
            (0.95, snap.p95 as f64),
            (0.99, snap.p99 as f64),
        ];
        self.push(
            name,
            help,
            labels,
            MetricValue::Summary {
                quantiles,
                count: snap.count,
                sum: snap.sum as f64,
            },
        );
        let max_name = format!("{name}_max");
        self.push(
            &max_name,
            &format!("{help} (exact maximum)"),
            labels,
            MetricValue::Gauge(snap.max as f64),
        )
    }

    fn push(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        value: MetricValue,
    ) -> &mut Self {
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
        self
    }

    /// The first sample matching `name` (any labels), as `f64`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v as f64,
                MetricValue::Gauge(v) => *v,
                MetricValue::Summary { sum, .. } => *sum,
            })
    }

    /// True when a sample named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per family, one
    /// sample line per metric, summaries expanded into `quantile`-labeled
    /// samples plus `_sum` / `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let header = |name: &str, help: &str, kind: MetricKind| {
            format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                escape_help(help),
                kind.as_str()
            )
        };
        if let Some((ts, seq)) = self.stamp {
            for (d, v) in [(STAMP_MS, ts), (STAMP_SEQUENCE, seq)] {
                out.push_str(&header(d.name, d.help, d.kind));
                out.push_str(&format!("{} {v}\n", d.name));
            }
        }
        let mut seen_header: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !seen_header.contains(&m.name.as_str()) {
                seen_header.push(&m.name);
                let kind = match m.value {
                    MetricValue::Counter(_) => MetricKind::Counter,
                    MetricValue::Gauge(_) => MetricKind::Gauge,
                    MetricValue::Summary { .. } => MetricKind::Summary,
                };
                out.push_str(&header(&m.name, &m.help, kind));
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        fmt_labels(&m.labels, None),
                        v
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        m.name,
                        fmt_labels(&m.labels, None),
                        fmt_f64(*v)
                    ));
                }
                MetricValue::Summary {
                    quantiles,
                    count,
                    sum,
                } => {
                    for (q, v) in quantiles {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            m.name,
                            fmt_labels(&m.labels, Some(*q)),
                            fmt_f64(*v)
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        fmt_labels(&m.labels, None),
                        fmt_f64(*sum)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        m.name,
                        fmt_labels(&m.labels, None),
                        count
                    ));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON array of
    /// `{name, labels, type, value | {quantiles, count, sum}}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        if let Some((ts, seq)) = self.stamp {
            out.push_str(&format!(
                "  \"timestamp_ms\": {ts},\n  \"sequence\": {seq},\n"
            ));
        }
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let labels = m
                .labels
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)))
                .collect::<Vec<_>>()
                .join(", ");
            let body = match &m.value {
                MetricValue::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
                MetricValue::Gauge(v) => {
                    format!("\"type\": \"gauge\", \"value\": {}", fmt_json_f64(*v))
                }
                MetricValue::Summary {
                    quantiles,
                    count,
                    sum,
                } => {
                    let qs = quantiles
                        .iter()
                        .map(|(q, v)| format!("\"p{}\": {}", (q * 100.0) as u32, fmt_json_f64(*v)))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!(
                        "\"type\": \"summary\", \"quantiles\": {{{qs}}}, \"count\": {count}, \"sum\": {}",
                        fmt_json_f64(*sum)
                    )
                }
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, {body}}}{}\n",
                escape_json(&m.name),
                if i + 1 == self.metrics.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn fmt_labels(labels: &[(String, String)], quantile: Option<f64>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "null".into()
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_json(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promparse;

    fn sample_snapshot() -> MetricsSnapshot {
        let h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(v);
        }
        let mut s = MetricsSnapshot::new();
        s.counter("cx_serve_queries_total", "Total queries served", &[], 42);
        s.counter(
            "cx_serve_faults_injected_total",
            "Injected faults",
            &[("site", "embed")],
            3,
        );
        s.gauge(
            "cx_serve_plan_cache_hit_rate",
            "Plan cache hit rate",
            &[],
            0.875,
        );
        s.summary_from_hist("cx_serve_query_latency_ns", "End-to-end latency", &[], &h);
        s
    }

    #[test]
    fn prometheus_rendering_has_headers_and_samples() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# HELP cx_serve_queries_total Total queries served"));
        assert!(text.contains("# TYPE cx_serve_queries_total counter"));
        assert!(text.contains("cx_serve_queries_total 42"));
        assert!(text.contains("cx_serve_faults_injected_total{site=\"embed\"} 3"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("cx_serve_query_latency_ns_sum"));
        assert!(text.contains("cx_serve_query_latency_ns_count 4"));
        assert!(text.contains("cx_serve_query_latency_ns_max"));
    }

    #[test]
    fn prometheus_roundtrips_through_parser() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        let parsed = promparse::parse(&text).expect("valid exposition format");
        assert_eq!(parsed.value("cx_serve_queries_total", &[]), Some(42.0));
        assert_eq!(
            parsed.value("cx_serve_faults_injected_total", &[("site", "embed")]),
            Some(3.0)
        );
        assert_eq!(
            parsed.value("cx_serve_query_latency_ns_count", &[]),
            Some(4.0)
        );
        assert!(parsed
            .value("cx_serve_query_latency_ns", &[("quantile", "0.99")])
            .is_some());
    }

    #[test]
    fn json_rendering_is_structured() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"name\": \"cx_serve_queries_total\""));
        assert!(json.contains("\"value\": 42"));
        assert!(json.contains("\"site\": \"embed\""));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn timestamp_stamp_appears_in_both_renderings() {
        let mut s = sample_snapshot();
        s.set_timestamp(1_234_567, 9);
        assert_eq!(s.timestamp_ms(), Some(1_234_567));
        assert_eq!(s.sequence(), Some(9));
        let text = s.to_prometheus();
        let parsed = promparse::parse(&text).expect("stamped exposition parses");
        assert_eq!(
            parsed.value("cx_obs_snapshot_timestamp_ms", &[]),
            Some(1_234_567.0)
        );
        assert_eq!(parsed.value("cx_obs_snapshot_sequence", &[]), Some(9.0));
        let json = s.to_json();
        assert!(json.contains("\"timestamp_ms\": 1234567"));
        assert!(json.contains("\"sequence\": 9"));
        // Unstamped snapshots render exactly as before.
        let bare = sample_snapshot();
        assert!(!bare.to_prometheus().contains("cx_obs_snapshot"));
        assert!(!bare.to_json().contains("timestamp_ms"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut s = MetricsSnapshot::new();
        s.gauge("g", "h", &[("k", "a\"b\\c")], 1.0);
        let text = s.to_prometheus();
        assert!(text.contains("g{k=\"a\\\"b\\\\c\"} 1"));
        promparse::parse(&text).expect("escaped labels parse");
    }
}
