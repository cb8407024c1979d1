//! The paper's motivating example (Section II / Figure 2): one declarative
//! query over three sources — RDBMS products, a knowledge base, and a
//! product-image store with object detection — glued by semantic joins.
//!
//! Run with: `cargo run --release --example shop_analytics`

use context_analytics::engine::{Engine, EngineConfig, Query};
use context_analytics::expr::{col, lit};
use cx_datagen::{ShopConfig, ShopDataset};
use cx_embed::ClusteredTextModel;
use cx_optimizer::OptimizerConfig;
use cx_storage::Scalar;
use cx_vision::{DetectorNoise, ObjectDetector, MICROS_PER_DAY};
use std::sync::Arc;
use std::time::Instant;

const AFTER_DAY: i64 = 19_050;

fn build_engine(data: &ShopDataset) -> Engine {
    let engine = Engine::new(EngineConfig::default());
    let space = Arc::new(cx_datagen::build_space(&data.clusters, 100, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("shop-model", space, 7)));
    engine
        .register_table("products", data.products.clone())
        .unwrap();
    engine
        .register_table("transactions", data.transactions.clone())
        .unwrap();
    engine.register_kb("kb", data.kb.clone()).unwrap();
    let detector = ObjectDetector::with_noise(
        "detector",
        5,
        DetectorNoise {
            miss_rate: 0.02,
            spurious_rate: 0.05,
        },
    );
    engine
        .register_images("images", data.images.clone(), &detector)
        .unwrap();
    engine
}

/// "Which clothing products with price > 20 appear in customer images taken
/// after a date, where the image contains more than two objects?"
fn figure2_query(engine: &Engine) -> Query {
    let kb = engine
        .table("kb")
        .unwrap()
        .filter(col("category").eq(lit("clothes")));
    let detections = engine.table("images.detections").unwrap().filter(
        col("date_taken")
            .gt(lit(Scalar::Timestamp(AFTER_DAY * MICROS_PER_DAY)))
            .and(col("object_count").gt(lit(2i64))),
    );
    engine
        .table("products")
        .unwrap()
        .filter(col("price").gt(lit(20.0)))
        .semantic_join_scored(kb, "name", "label", "shop-model", 0.9, "kb_sim")
        .semantic_join_scored(detections, "name", "label", "shop-model", 0.8, "img_sim")
        .select_columns(&["product_id", "name", "price"])
        .distinct()
        .sort(&[("price", false)])
}

fn main() {
    let data = ShopDataset::generate(ShopConfig {
        n_products: 2_000,
        n_users: 300,
        n_transactions: 10_000,
        n_images: 1_500,
        start_day: 19_000,
        days: 100,
        seed: 11,
    })
    .unwrap();

    println!("== shop polystore ==");
    println!(
        "products={} transactions={} kb_triples={} images={}",
        data.products.num_rows(),
        data.transactions.num_rows(),
        data.kb.num_triples(),
        data.images.len()
    );

    let mut engine = build_engine(&data);
    println!("\n== EXPLAIN (optimized) ==");
    println!("{}", engine.explain(&figure2_query(&engine)).unwrap());

    // Optimized run.
    let t = Instant::now();
    let optimized = engine.execute(&figure2_query(&engine)).unwrap();
    let optimized_time = t.elapsed();

    // Naive run: every optimization off — the "careless analyst" pipeline
    // the paper warns about.
    engine.set_optimizer_config(OptimizerConfig::none());
    let t = Instant::now();
    let naive = engine.execute(&figure2_query(&engine)).unwrap();
    let naive_time = t.elapsed();

    println!("== results ==");
    println!("qualifying products: {}", optimized.table.num_rows());
    for i in 0..optimized.table.num_rows().min(10) {
        let row = optimized.table.row(i).unwrap();
        println!("  #{} {} @ {}", row[0], row[1], row[2]);
    }
    assert_eq!(optimized.table.num_rows(), naive.table.num_rows());

    println!("\n== optimization effect ==");
    println!(
        "optimized plan: {optimized_time:?} (rules: {:?})",
        optimized.rules_fired
    );
    println!("naive plan:     {naive_time:?}");
    println!(
        "speedup:        {:.1}x",
        naive_time.as_secs_f64() / optimized_time.as_secs_f64()
    );
}
