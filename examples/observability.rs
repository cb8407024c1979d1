//! Observability: query traces, latency histograms, metrics export.
//!
//! With `ServeConfig::tracing` on, every query records a span tree —
//! plan-cache lookup, embedding warm-up, admission wait, execution and
//! the panel sweep beneath it — into a bounded trace ring, and anything
//! slower than `slow_query_threshold` is rendered EXPLAIN-ANALYZE-style
//! into the slow-query log. Latency histograms (end-to-end, queue wait,
//! per-operator) are always on, and
//! `Server::prometheus()` exports every counter the server owns.
//!
//! Run with: `cargo run --release --example observability`

use context_analytics::expr::{col, lit};
use context_analytics::{Engine, EngineConfig, ServeConfig, Server};
use cx_embed::ClusteredTextModel;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn main() -> cx_storage::Result<()> {
    // 1. The serving quickstart engine…
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("fasttext-like", space, 7)));
    let names = [
        "boots",
        "parka",
        "kitten",
        "sneakers",
        "windbreaker",
        "puppy",
        "oxfords",
        "coat",
    ];
    let products = cx_storage::Table::from_columns(
        cx_storage::Schema::new(vec![
            cx_storage::Field::new("product_id", cx_storage::DataType::Int64),
            cx_storage::Field::new("name", cx_storage::DataType::Utf8),
            cx_storage::Field::new("price", cx_storage::DataType::Float64),
        ]),
        vec![
            cx_storage::Column::from_i64((0..names.len() as i64).collect()),
            cx_storage::Column::from_strings(names),
            cx_storage::Column::from_f64(
                (0..names.len()).map(|i| 30.0 + 20.0 * i as f64).collect(),
            ),
        ],
    )?;
    engine.register_table("products", products)?;

    // 2. …served with tracing on. `slow_query_threshold: 0` logs every
    //    query; production would set something like 250ms.
    let server = Server::new(
        engine,
        ServeConfig {
            tracing: true,
            slow_query_threshold: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
    );

    // 3. A small concurrent storm: four sessions' statements in flight
    //    at once, each traced on its own.
    let targets = ["boots", "parka", "kitten", "sneakers"];
    let barrier = Arc::new(Barrier::new(targets.len()));
    std::thread::scope(|s| {
        for target in targets {
            let server = server.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                let session = server.session();
                let q = server
                    .table("products")
                    .expect("products registered")
                    .filter(col("price").lt(lit(160.0)))
                    .semantic_filter("name", target, "fasttext-like", 0.75)
                    .sort(&[("product_id", true)]);
                barrier.wait();
                session.execute(&q).expect("serve query");
            });
        }
    });

    // 4. The last trace, rendered EXPLAIN-ANALYZE-style. Every query in
    //    the ring carries the same span tree.
    if let Some(trace) = server.last_trace() {
        println!("== last query trace ==\n{}", trace.render());
    }
    println!(
        "slow-query log holds {} entries",
        server.slow_queries().len()
    );

    // 5. Always-on histograms: end-to-end latency quantiles, no tracing
    //    required.
    let lat = server.latency_histogram().snapshot();
    println!(
        "latency: {} queries, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
        lat.count,
        lat.p50 as f64 / 1e6,
        lat.p95 as f64 / 1e6,
        lat.p99 as f64 / 1e6,
        lat.max as f64 / 1e6,
    );

    // 6. The metrics surface: Prometheus text (validated by the in-tree
    //    parser) — `Server::metrics_json()` is the same snapshot as JSON.
    let prom = server.prometheus();
    cx_obs::promparse::parse(&prom).expect("exposition format is valid");
    let preview: Vec<&str> = prom.lines().take(12).collect();
    println!(
        "== prometheus snapshot (first lines) ==\n{}",
        preview.join("\n")
    );
    Ok(())
}
