//! FIGURE 2 — the motivating 3-source query, executed end to end under
//! increasing optimization levels.
//!
//! "Which clothing products with a price greater than 20 appear in customer
//! images taken after a specific date, … such that other objects appear too"
//! — RDBMS ⋈ knowledge base ⋈ image detections, with semantic joins at
//! cosine 0.9 / 0.8 (the thresholds drawn in the paper's Figure 2).
//!
//! Reported per optimization level: wall time, embedding-model inferences
//! and similarity pairs evaluated — showing *why* pushdown wins (fewer
//! model invocations), not just that it wins.
//!
//! Usage: `cargo run --release -p cx-bench --bin fig2_motivating_query`

use context_engine::{Engine, EngineConfig, Query};
use cx_datagen::{ShopConfig, ShopDataset};
use cx_embed::ClusteredTextModel;
use cx_expr::{col, lit};
use cx_optimizer::OptimizerConfig;
use cx_storage::Scalar;
use cx_vision::{DetectorNoise, ObjectDetector, MICROS_PER_DAY};
use std::sync::Arc;
use std::time::Instant;

const AFTER_DAY: i64 = 19_050;

fn build_engine(data: &ShopDataset, config: EngineConfig) -> Engine {
    let engine = Engine::new(config);
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

/// The query exactly as the careless analyst of Section II writes it:
/// join everything first, state every predicate at the end. Whether the
/// filters run before or after the expensive semantic joins is the
/// optimizer's job — that is the experiment.
fn figure2_query(engine: &Engine) -> Query {
    let kb = engine.table("kb").unwrap();
    let detections = engine.table("images.detections").unwrap();
    engine
        .table("products")
        .unwrap()
        .semantic_join_scored(kb, "name", "label", "shop-model", 0.9, "kb_sim")
        .semantic_join_scored(detections, "name", "label", "shop-model", 0.8, "img_sim")
        .filter(
            col("price")
                .gt(lit(20.0))
                .and(col("category").eq(lit("clothes")))
                .and(col("date_taken").gt(lit(Scalar::Timestamp(AFTER_DAY * MICROS_PER_DAY))))
                .and(col("object_count").gt(lit(2i64))),
        )
        .select_columns(&["product_id"])
        .distinct()
}

fn main() {
    let data = ShopDataset::generate(ShopConfig {
        n_products: 1_000,
        n_users: 200,
        n_transactions: 5_000,
        n_images: 800,
        start_day: 19_000,
        days: 100,
        seed: 11,
    })
    .unwrap();

    println!("FIGURE 2 — motivating context-rich query across three sources");
    println!(
        "sources: products={} rows, kb={} label/category rows, detections over {} images\n",
        data.products.num_rows(),
        data.kb.label_category_table().unwrap().num_rows(),
        data.images.len()
    );

    let levels: [(&str, OptimizerConfig); 3] = [
        ("naive (no optimizations)", OptimizerConfig::none()),
        ("+ filter pushdown", {
            let mut c = OptimizerConfig::none();
            c.constant_folding = true;
            c.filter_pushdown = true;
            c
        }),
        ("+ pruning, cascades, DIP, parallel", OptimizerConfig::all()),
    ];

    println!(
        "{:<42} | {:>9} | {:>9} | {:>12} | {:>8} | {:>6}",
        "plan variant", "plan ms", "exec ms", "inferences", "rows", "rules"
    );
    println!("{}", "-".repeat(105));

    let mut reference_rows = None;
    for (name, config) in levels {
        let engine = build_engine(
            &data,
            EngineConfig {
                optimizer: config,
                ..EngineConfig::default()
            },
        );
        let cache = engine.embedding_cache("shop-model").unwrap();
        cache.clear();
        cache.model().stats().reset();
        let query = figure2_query(&engine);
        // Warm-up run (embedding cache, allocator), then best of 3.
        engine.execute(&query).unwrap();
        let inferences = cache.model().stats().invocations();
        // Planning time (optimize + sampling-based estimation + lowering).
        let t = Instant::now();
        engine.plan(&query).unwrap();
        let plan_secs = t.elapsed().as_secs_f64();
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..5 {
            let t = Instant::now();
            result = Some(engine.execute(&query).unwrap());
            best = best.min(t.elapsed().as_secs_f64());
        }
        let result = result.expect("at least one run");
        // execute() re-plans internally; subtract to isolate execution.
        let exec_secs = (best - plan_secs).max(0.0);
        println!(
            "{:<42} | {:>9.1} | {:>9.1} | {:>12} | {:>8} | {:>6}",
            name,
            plan_secs * 1e3,
            exec_secs * 1e3,
            inferences,
            result.table.num_rows(),
            result.rules_fired.len()
        );
        match reference_rows {
            None => reference_rows = Some(result.table.num_rows()),
            Some(r) => assert_eq!(r, result.table.num_rows(), "plan variants must agree"),
        }
    }

    // Ground-truth check.
    let truth = data.fig2_ground_truth(20.0, AFTER_DAY, 2).unwrap();
    println!(
        "\nlatent ground truth: {} qualifying products (engine found {})",
        truth.len(),
        reference_rows.unwrap_or(0)
    );
    println!("shape check: pushdown moves every predicate below the semantic joins,");
    println!("cutting the rows (and distinct values) that reach model inference and");
    println!("pair expansion — the same lesson as Figure 4, on the full query.");
}
