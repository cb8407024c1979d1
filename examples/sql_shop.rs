//! SQL front-end tour: the shop, in text.
//!
//! Everything the builder API can express — semantic filters, semantic
//! joins, semantic group-by, prepared statements — has SQL surface
//! syntax, served through [`Session::sql`]. Ad-hoc statements are
//! **auto-parameterized**: literals are lifted into parameter slots, so
//! statements that differ only in literals collapse into one cached
//! plan shape and run at prepared-statement speed.
//!
//! Run with: `cargo run --release --example sql_shop`
//!
//! [`Session::sql`]: context_analytics::Session::sql

use context_analytics::{Engine, EngineConfig, ServeConfig, Server, SqlResponse};
use cx_embed::ClusteredTextModel;
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::Arc;

fn main() -> cx_storage::Result<()> {
    // 1. The shop engine: a products table and a small labels table,
    //    plus one representation model for the semantic operators.
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
    let names = [
        "boots",
        "parka",
        "kitten",
        "sneakers",
        "coat",
        "puppy",
        "oxfords",
        "windbreaker",
    ];
    let products = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64((0..names.len() as i64).collect()),
            Column::from_strings(names),
            Column::from_f64((0..names.len()).map(|i| 25.0 + 15.0 * i as f64).collect()),
        ],
    )?;
    engine.register_table("products", products)?;
    let labels = Table::from_columns(
        Schema::new(vec![
            Field::new("label_id", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]),
        vec![
            Column::from_i64(vec![0, 1, 2]),
            Column::from_strings(["shoes", "jacket", "pets"]),
        ],
    )?;
    engine.register_table("labels", labels)?;

    let server = Server::new(engine, ServeConfig::default());
    let session = server.session();
    let rows = |response: SqlResponse| match response {
        SqlResponse::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    };

    // 2. Plain SQL, served through the same plan cache / admission
    //    machinery as builder queries.
    println!("== relational ==");
    let r =
        rows(session.sql(
            "SELECT name, price FROM products WHERE price > 60.0 ORDER BY price DESC LIMIT 3",
        )?);
    println!("{}", r.table);

    // 3. The semantic extensions: SEMANTIC LIKE (model-assisted filter),
    //    SEMANTIC JOIN (similarity join), GROUP BY SEMANTIC (clustered
    //    aggregation).
    println!("== SEMANTIC LIKE 'clothes' (threshold 0.75) ==");
    let r = rows(session.sql(
        "SELECT name, price FROM products \
         WHERE name SEMANTIC LIKE 'clothes' USING m (0.75) ORDER BY product_id",
    )?);
    println!("{}", r.table);

    println!("== SEMANTIC JOIN products x labels ==");
    let r = rows(session.sql(
        "SELECT name, label, similarity FROM products \
         SEMANTIC JOIN labels ON SIM(name, label) >= 0.8 ORDER BY name, label",
    )?);
    println!("{}", r.table);

    println!("== GROUP BY SEMANTIC name ==");
    let r = rows(session.sql(
        "SELECT name, COUNT(*), AVG(price) AS mean_price FROM products \
         GROUP BY SEMANTIC name USING m (0.4) ORDER BY name",
    )?);
    println!("{}", r.table);

    // 4. Auto-parameterization at work: five statements, one shape.
    //    Only the first optimizes; the rest bind their literal into the
    //    cached plan.
    for price in [40.0, 55.0, 70.0, 85.0, 100.0] {
        let r = rows(session.sql(&format!(
            "SELECT name FROM products WHERE price > {price:?} ORDER BY name"
        ))?);
        println!(
            "price > {price:>5}: {} rows (plan cache hit: {})",
            r.table.num_rows(),
            r.plan_cache_hit
        );
    }
    let stats = server.sql_stats();
    println!(
        "\nauto-parameterized {} of {} statements, shape hit rate {:.0}%",
        stats.auto_param,
        stats.statements,
        100.0 * stats.shape_hit_rate()
    );

    // 5. Explicit PREPARE / EXECUTE — the same machinery, named.
    session.sql(
        "PREPARE probe AS SELECT name FROM products WHERE name SEMANTIC LIKE $0 USING m (0.7)",
    )?;
    for probe in ["shoes", "jacket", "pets"] {
        let r = rows(session.sql(&format!("EXECUTE probe ('{probe}')"))?);
        println!("probe {probe:<7}: {} rows", r.table.num_rows());
    }

    // 6. EXPLAIN shows the optimized plan the cache stores — here the
    //    paper's Figure 2 shape, a semantic join ranked by similarity.
    //    `ORDER BY … LIMIT k` lowers into the join itself: only the k
    //    best pairs are materialized, and no Limit or Sort sits above it.
    println!("\n== EXPLAIN ==");
    match session.sql(
        "EXPLAIN SELECT name, price, label, similarity FROM products \
         SEMANTIC JOIN labels USING m ON SIM(name, label) >= 0.6 WHERE price > 30.0 \
         ORDER BY similarity DESC, name, label LIMIT 3",
    )? {
        SqlResponse::Explain(text) => println!("{text}"),
        other => panic!("expected explain, got {other:?}"),
    }

    println!("{}", server.report());
    Ok(())
}
