//! Queryable introspection: the engine answering questions about
//! itself through the reserved `cx` schema.
//!
//! With tracing and profiling on, every served query leaves a trace
//! (spans, outcome, plan-cache verdict) and a resource profile (CPU
//! time, pairs scored, panel tiles, bytes charged). The `cx.*` system
//! tables snapshot that live state into ordinary relational tables at
//! scan time, so the same query API that serves product lookups also
//! serves `SELECT`s over the server's own internals. A watchdog thread
//! samples histograms in the background and files anything anomalous
//! into `cx.incidents`.
//!
//! Run with: `cargo run --release --example introspection`

use context_analytics::{Engine, EngineConfig, FaultPlan, ServeConfig, Server, WatchdogConfig};
use cx_embed::ClusteredTextModel;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn main() -> cx_storage::Result<()> {
    // 1. The serving quickstart engine.
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

    // 2. Served with the full introspection surface on: traces,
    //    per-query resource profiles, and a fast-ticking watchdog.
    let server = Server::new(
        engine,
        ServeConfig {
            tracing: true,
            profiling: true,
            watchdog: Some(WatchdogConfig {
                interval: Duration::from_millis(5),
                fault_burst: 1,
                ..WatchdogConfig::default()
            }),
            ..ServeConfig::default()
        },
    );

    // 3. A small storm so the tables have something to say.
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
                    .semantic_filter("name", target, "fasttext-like", 0.75)
                    .sort(&[("product_id", true)]);
                barrier.wait();
                for _ in 0..3 {
                    session.execute(&q).expect("serve query");
                }
            });
        }
    });

    // 4. The server queries itself. `cx.queries` is one row per traced
    //    query: end-to-end and queue-wait time, plan-cache verdict, the
    //    sweep's SIMD path, and the resource profile.
    let cx_queries = server
        .table("cx.queries")?
        .select_columns(&[
            "query",
            "outcome",
            "plan_cache",
            "total_ms",
            "cpu_ms",
            "pairs_scored",
        ])
        .limit(6);
    println!(
        "== cx.queries (latest traces) ==\n{}",
        server.execute(&cx_queries)?.table
    );

    // 5. `cx.metrics` is the Prometheus export as rows — every counter
    //    the server owns, queryable with the same filter/sort API.
    let cx_metrics = server
        .table("cx.metrics")?
        .filter(context_analytics::expr::col("kind").eq(context_analytics::expr::lit("counter")))
        .sort(&[("value", false)])
        .limit(8);
    println!(
        "== cx.metrics (largest counters) ==\n{}",
        server.execute(&cx_metrics)?.table
    );

    // 6. EXPLAIN ANALYZE: one query executed for real and rendered as
    //    its span tree (it would be traced even with `tracing` off).
    let session = server.session();
    let probe = server
        .table("products")?
        .semantic_filter("name", "puppy", "fasttext-like", 0.75)
        .sort(&[("product_id", true)]);
    println!(
        "== explain analyze ==\n{}",
        session.explain_analyze(&probe)?
    );

    // 7. A seeded fault storm trips the watchdog; the incident log is a
    //    table like any other.
    server.set_fault_plan(Some(Arc::new(FaultPlan::new(0xBAD, 1.0))));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut lap = 0usize;
    while server.incidents().total() == 0 && std::time::Instant::now() < deadline {
        // A distinct limit per lap defeats the result memo, so every lap
        // actually executes and consults the fault sites.
        let _ = server.execute(&probe.clone().limit(100 + lap));
        lap += 1;
        std::thread::sleep(Duration::from_millis(2));
    }
    server.set_fault_plan(None);
    let cx_incidents = server.table("cx.incidents")?.limit(4);
    println!(
        "== cx.incidents ==\n{}",
        server.execute(&cx_incidents)?.table
    );

    // 8. The same numbers, aggregated, in the human report.
    println!("{}", server.report());
    Ok(())
}
