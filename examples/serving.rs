//! Serving: many concurrent clients over one shared engine.
//!
//! `cx_serve` turns the one-shot engine into a query server: a shared
//! `Arc<Engine>` behind a [`Server`] with a plan cache (repeated queries
//! skip optimization and planning, exact replays skip execution) and
//! cost-based admission control. Every client embeds through the
//! engine's one shared embedding cache, so a text embedded for one
//! client is a cache hit for the others.
//!
//! Run with: `cargo run --release --example serving`

use context_analytics::expr::{col, lit};
use context_analytics::{Engine, EngineConfig, ServeConfig, Server};
use cx_embed::ClusteredTextModel;
use cx_exec::logical::{AggFunc, AggSpec};
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::{Arc, Barrier};

fn main() -> cx_storage::Result<()> {
    // 1. An engine, set up exactly as in the quickstart…
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("fasttext-like", space, 7)));
    let products = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64(vec![1, 2, 3, 4, 5, 6]),
            Column::from_strings([
                "boots",
                "parka",
                "kitten",
                "sneakers",
                "windbreaker",
                "puppy",
            ]),
            Column::from_f64(vec![89.5, 120.0, 40.0, 65.0, 30.0, 150.0]),
        ],
    )?;
    engine.register_table("products", products)?;

    // 2. …wrapped in a server. The engine stays fully usable underneath;
    //    the server adds the shared plan cache, result memos and the
    //    admission gate.
    let server = Server::new(engine, ServeConfig::default());

    // 3. Four concurrent clients, each with its own session, each running
    //    a small query mix — note the overlap between clients: that is
    //    what the plan cache, the result memos and the shared embedding
    //    cache exploit.
    let clients = 4;
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|s| {
        for c in 0..clients {
            let server = server.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                let session = server.session();
                let mix = [
                    server
                        .table("products")
                        .expect("products registered")
                        .filter(col("price").gt(lit(50.0)))
                        .semantic_filter("name", "clothes", "fasttext-like", 0.75),
                    server
                        .table("products")
                        .expect("products registered")
                        .semantic_group_by(
                            "name",
                            "fasttext-like",
                            0.85,
                            vec![
                                AggSpec::count_star("items"),
                                AggSpec::new(AggFunc::Avg, "price", "avg_price"),
                            ],
                        ),
                ];
                barrier.wait();
                for (i, query) in mix.iter().enumerate() {
                    let result = session.execute(query).expect("serve query");
                    println!(
                        "client {c} query {i}: {} rows in {:?} (plan cache {}, result memo {})",
                        result.table.num_rows(),
                        result.elapsed,
                        if result.plan_cache_hit { "hit" } else { "miss" },
                        if result.result_cache_hit {
                            "hit"
                        } else {
                            "miss"
                        },
                    );
                }
            });
        }
    });

    // 4. The server-level report: plan cache, result memo, admission,
    //    per-operator execution metrics.
    println!("\n{}", server.report());
    Ok(())
}
