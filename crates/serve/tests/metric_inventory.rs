//! The declare-once rule, checked from the outside: everything
//! `cx_serve::metric_inventory()` declares shows up on every surface —
//! Prometheus text, JSON, `cx.metrics`, the documented table — and
//! nothing shows up that it does not declare.

use context_engine::{Engine, EngineConfig};
use cx_embed::ClusteredTextModel;
use cx_obs::{promparse, MetricDesc, MetricFamily, MetricKind, MetricsSnapshot};
use cx_serve::{metric_inventory, FaultPlan, ServeConfig, Server, WatchdogConfig};
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use std::collections::HashSet;
use std::sync::Arc;

/// A server that has touched every subsystem, so every family — the
/// per-operator and per-fault-site ones included — has samples.
fn busy_server() -> Arc<Server> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
    let names = ["boots", "parka", "kitten", "sneakers", "coat", "puppy"];
    let products = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]),
        vec![
            Column::from_i64((0..names.len() as i64).collect()),
            Column::from_strings(names),
        ],
    )
    .unwrap();
    engine.register_table("products", products).unwrap();
    let server = Server::new(
        engine,
        ServeConfig {
            tracing: true,
            profiling: true,
            // Never fires on its own: the run below must stay quiet
            // between the snapshots the tests compare.
            watchdog: Some(WatchdogConfig {
                min_samples: u64::MAX,
                ..WatchdogConfig::default()
            }),
            ..ServeConfig::default()
        },
    );
    server.set_fault_plan(Some(Arc::new(FaultPlan::new(3, 0.0))));
    let q = server
        .table("products")
        .unwrap()
        .semantic_filter("name", "boots", "m", 0.8);
    server.execute(&q).unwrap();
    server.execute(&q).unwrap();
    let session = server.session();
    let template = session
        .table("products")
        .unwrap()
        .semantic_filter_param("name", 0, "m", 0.8);
    session
        .prepare(&template)
        .unwrap()
        .execute(&[Scalar::from("parka")])
        .unwrap();
    session
        .sql("SELECT name FROM products WHERE product_id > 2")
        .unwrap();
    server
}

/// The series a descriptor stands for: itself, or for a summary its
/// quantile series plus `_sum` / `_count` and the `_max` gauge.
fn series(d: &MetricDesc) -> Vec<String> {
    match d.kind {
        MetricKind::Summary => ["", "_sum", "_count", "_max"]
            .iter()
            .map(|suffix| format!("{}{suffix}", d.name))
            .collect(),
        _ => vec![d.name.to_string()],
    }
}

fn declared_series() -> HashSet<String> {
    metric_inventory()
        .iter()
        .flat_map(|g| g.metrics)
        .flat_map(series)
        .collect()
}

#[test]
fn exposition_carries_every_declared_metric_once_and_nothing_else() {
    let server = busy_server();
    let text = server.prometheus();
    let stats = server.stats();
    let profile = server.profile_totals();
    let parsed = promparse::parse(&text).expect("server exposition must parse");

    let mut seen_names = HashSet::new();
    for group in metric_inventory() {
        for d in group.metrics {
            assert!(seen_names.insert(d.name), "{} declared twice", d.name);
            let typed: Vec<_> = parsed.types.iter().filter(|(n, _)| n == d.name).collect();
            assert_eq!(typed.len(), 1, "{}: one # TYPE line", d.name);
            assert_eq!(typed[0].1, d.kind.as_str(), "{}: declared kind", d.name);

            // Exactly once per label set, under exactly the declared keys.
            let mut label_sets = HashSet::new();
            for s in parsed.samples.iter().filter(|s| s.name == d.name) {
                let keys: Vec<&str> = s
                    .labels
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .filter(|k| d.kind != MetricKind::Summary || *k != "quantile")
                    .collect();
                assert_eq!(keys, group.labels, "{}: label keys", d.name);
                assert!(
                    label_sets.insert(s.labels.clone()),
                    "{} {:?} twice",
                    d.name,
                    s.labels
                );
            }
            assert!(
                !label_sets.is_empty(),
                "{} declared but not exported",
                d.name
            );
            if group.labels.is_empty() {
                let expected = if d.kind == MetricKind::Summary { 3 } else { 1 };
                assert_eq!(
                    label_sets.len(),
                    expected,
                    "{}: unlabelled sample count",
                    d.name
                );
            }
        }
    }

    let declared = declared_series();
    for s in &parsed.samples {
        assert!(
            declared.contains(&s.name),
            "{} is exported but not declared",
            s.name
        );
    }

    // Every family's values survive the round trip: what the exposition
    // says equals what the same family exports from `server.stats()`.
    let mut expected = MetricsSnapshot::new();
    stats.export(&[], &mut expected);
    stats.plan_cache.export(&[], &mut expected);
    stats.admission.export(&[], &mut expected);
    stats.lifecycle.export(&[], &mut expected);
    stats.sql.export(&[], &mut expected);
    profile.export(&[], &mut expected);
    for m in expected.metrics() {
        let labels: Vec<(&str, &str)> = m
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            parsed.value(&m.name, &labels),
            expected.value(&m.name),
            "{} {labels:?} differs from server.stats()",
            m.name
        );
    }
    assert_eq!(
        parsed.value("cx_serve_queries_total", &[]),
        Some(stats.queries as f64)
    );
    assert_eq!(
        parsed.value("cx_serve_plan_cache_len", &[]),
        Some(stats.plan_cache.len as f64)
    );
    assert_eq!(
        parsed.value("cx_serve_sql_statements_total", &[]),
        Some(1.0)
    );
    assert!(profile.profiled_queries >= 4);
}

#[test]
fn json_and_cx_metrics_carry_the_declared_rows() {
    let server = busy_server();
    let declared = declared_series();

    // The stamp (the inventory's first group) is two top-level keys in
    // JSON rather than two rows.
    let json = server.metrics_json();
    for group in metric_inventory().iter().skip(1) {
        for d in group.metrics {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", d.name)),
                "{} not in JSON",
                d.name
            );
        }
    }
    assert!(json.contains("\"timestamp_ms\"") && json.contains("\"sequence\""));

    let result = server
        .execute(&server.table("cx.metrics").unwrap())
        .unwrap();
    let chunk = result.table.to_chunk().unwrap();
    let rows: HashSet<String> = chunk
        .column_by_name("name")
        .unwrap()
        .utf8_values()
        .unwrap()
        .iter()
        .cloned()
        .collect();
    for name in &declared {
        assert!(
            rows.contains(name),
            "{name} is declared but has no cx.metrics row"
        );
    }
    for name in &rows {
        assert!(
            declared.contains(name),
            "cx.metrics row {name} is not declared"
        );
    }
}

/// The inventory as `docs/ARCHITECTURE.md` must carry it.
fn documented_rows() -> Vec<String> {
    metric_inventory()
        .iter()
        .flat_map(|g| {
            let labels = if g.labels.is_empty() {
                "—".to_string()
            } else {
                format!("`{}`", g.labels.join("`, `"))
            };
            g.metrics.iter().map(move |d| {
                format!(
                    "| {} | `{}` | {} | {labels} | {} |",
                    g.title,
                    d.name,
                    d.kind.as_str(),
                    d.help
                )
            })
        })
        .collect()
}

#[test]
fn architecture_doc_inventory_matches_the_declarations() {
    let doc = include_str!("../../../docs/ARCHITECTURE.md");
    let section = doc
        .split("### Metric inventory")
        .nth(1)
        .and_then(|rest| rest.split("\n### ").next())
        .expect("docs/ARCHITECTURE.md has a `### Metric inventory` section");
    let documented: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with("| ") && l.contains("| `cx_"))
        .collect();
    let expected = documented_rows();
    let regenerate = || {
        format!(
            "replace the table under `### Metric inventory` with:\n\n\
             | family | metric | kind | labels | help |\n|---|---|---|---|---|\n{}\n",
            expected.join("\n")
        )
    };
    for row in &expected {
        assert!(
            documented.contains(&row.as_str()),
            "missing row: {row}\n\n{}",
            regenerate()
        );
    }
    for row in &documented {
        assert!(
            expected.iter().any(|e| e == row),
            "stale row: {row}\n\n{}",
            regenerate()
        );
    }
}
