//! Quickstart: register data and a model, mix relational and semantic
//! operators in one declarative query, and read the EXPLAIN output.
//!
//! Run with: `cargo run --release --example quickstart`

use context_analytics::engine::{Engine, EngineConfig};
use context_analytics::expr::{col, lit};
use cx_embed::ClusteredTextModel;
use cx_exec::logical::{AggFunc, AggSpec};
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::Arc;

fn main() -> cx_storage::Result<()> {
    // 1. An engine with full optimization.
    let engine = Engine::new(EngineConfig::default());

    // 2. A representation model. `table1_clusters` is the paper's Table I
    //    vocabulary (dog/cat/animal, shoes/jacket/clothes); the space
    //    built from it stands in for fastText-on-Wikipedia with verifiable
    //    semantics.
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 100, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("fasttext-like", space, 7)));

    // 3. A products table. Note the names: synonyms, not category words.
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

    // 4. Declarative query: "clothing items above 50, by semantic
    //    category". No product is literally named "clothes" — the semantic
    //    filter matches by latent-space similarity.
    let query = engine
        .table("products")?
        .filter(col("price").gt(lit(50.0)))
        .semantic_filter("name", "clothes", "fasttext-like", 0.75)
        .semantic_group_by(
            "name",
            "fasttext-like",
            0.85,
            vec![
                AggSpec::count_star("items"),
                AggSpec::new(AggFunc::Avg, "price", "avg_price"),
            ],
        );

    println!("{}", engine.explain(&query)?);

    let result = engine.execute(&query)?;
    println!(
        "result ({} clusters):\n{}",
        result.table.num_rows(),
        result.table
    );
    println!("rules fired: {:?}", result.rules_fired);
    println!("elapsed: {:?}", result.elapsed);
    Ok(())
}
