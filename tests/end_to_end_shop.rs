//! End-to-end integration test: the paper's motivating query (Figure 2)
//! over the generated shop polystore, verified against latent ground truth.

use context_analytics::engine::{Engine, EngineConfig};
use context_analytics::exec::logical::JoinType;
use context_analytics::expr::{col, lit};
use cx_datagen::{ShopConfig, ShopDataset};
use cx_embed::ClusteredTextModel;
use cx_optimizer::OptimizerConfig;
use cx_vision::{DetectorNoise, ObjectDetector, MICROS_PER_DAY};
use std::collections::BTreeSet;
use std::sync::Arc;

const AFTER_DAY: i64 = 19_050;
const MIN_PRICE: f64 = 20.0;
const MIN_OBJECTS: i64 = 2;

fn build_engine(dataset: &ShopDataset) -> Engine {
    let engine = Engine::new(EngineConfig::default());
    let space = Arc::new(cx_datagen::build_space(&dataset.clusters, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("shop-model", space, 7)));
    engine
        .register_table("products", dataset.products.clone())
        .unwrap();
    engine
        .register_table("transactions", dataset.transactions.clone())
        .unwrap();
    engine.register_kb("kb", dataset.kb.clone()).unwrap();
    // Noiseless detector so results are checkable against latent truth.
    let detector = ObjectDetector::with_noise(
        "detector",
        5,
        DetectorNoise {
            miss_rate: 0.0,
            spurious_rate: 0.0,
        },
    );
    engine
        .register_images("images", dataset.images.clone(), &detector)
        .unwrap();
    engine
}

/// The Figure 2 query: clothing products with price > 20 that appear in
/// customer images taken after a date with more than 2 detected objects.
fn figure2_query(engine: &Engine) -> context_analytics::Query {
    let kb = engine
        .table("kb")
        .unwrap()
        .filter(col("category").eq(lit("clothes")));
    let detections = engine.table("images.detections").unwrap().filter(
        col("date_taken")
            .gt(lit(cx_storage::Scalar::Timestamp(
                AFTER_DAY * MICROS_PER_DAY,
            )))
            .and(col("object_count").gt(lit(MIN_OBJECTS))),
    );
    engine
        .table("products")
        .unwrap()
        .filter(col("price").gt(lit(MIN_PRICE)))
        // ① products ⋈ KB: which products are clothing (semantic: the KB
        // uses different synonyms than product names).
        .semantic_join_scored(kb, "name", "label", "shop-model", 0.9, "kb_sim")
        // ② ⋈ images: product concept appears among detected objects.
        .semantic_join_scored(detections, "name", "label", "shop-model", 0.8, "img_sim")
        .select_columns(&["product_id"])
        .distinct()
}

fn dataset() -> ShopDataset {
    ShopDataset::generate(ShopConfig {
        n_products: 400,
        n_users: 50,
        n_transactions: 1000,
        n_images: 300,
        start_day: 19_000,
        days: 100,
        seed: 11,
    })
    .unwrap()
}

#[test]
fn motivating_query_matches_latent_ground_truth() {
    let data = dataset();
    let engine = build_engine(&data);
    let result = engine.execute(&figure2_query(&engine)).unwrap();

    let got: BTreeSet<i64> = result
        .table
        .column_by_name("product_id")
        .unwrap()
        .i64_values()
        .unwrap()
        .iter()
        .copied()
        .collect();
    let truth: BTreeSet<i64> = data
        .fig2_ground_truth(MIN_PRICE, AFTER_DAY, MIN_OBJECTS as usize)
        .unwrap()
        .into_iter()
        .collect();

    assert!(!truth.is_empty(), "ground truth must be non-trivial");
    // The engine's answer must match the latent ground truth: every truth
    // product found (the semantic space places same-cluster synonyms above
    // both thresholds) and nothing spurious below cluster separation.
    let missing: Vec<_> = truth.difference(&got).collect();
    let spurious: Vec<_> = got.difference(&truth).collect();
    let recall = 1.0 - missing.len() as f64 / truth.len() as f64;
    let precision = 1.0 - spurious.len() as f64 / got.len().max(1) as f64;
    assert!(recall > 0.95, "recall {recall}: missing {missing:?}");
    assert!(
        precision > 0.95,
        "precision {precision}: spurious {spurious:?}"
    );
}

#[test]
fn optimized_and_naive_plans_agree() {
    let data = dataset();
    let mut engine = build_engine(&data);
    let optimized = engine.execute(&figure2_query(&engine)).unwrap();
    engine.set_optimizer_config(OptimizerConfig::none());
    let naive = engine.execute(&figure2_query(&engine)).unwrap();

    let ids = |r: &context_analytics::QueryResult| -> BTreeSet<i64> {
        r.table
            .column_by_name("product_id")
            .unwrap()
            .i64_values()
            .unwrap()
            .iter()
            .copied()
            .collect()
    };
    assert_eq!(ids(&optimized), ids(&naive));
    assert!(!optimized.rules_fired.is_empty());
    assert!(naive.rules_fired.is_empty());
}

#[test]
fn pushdown_reduces_model_invocations() {
    let data = dataset();
    let engine = build_engine(&data);
    // Run the full query with pushdown on: the semantic join only embeds
    // values that survive the relational filters.
    let cache = engine.embedding_cache("shop-model").unwrap();
    cache.clear();
    engine.execute(&figure2_query(&engine)).unwrap();
    let optimized_embeddings = cache.model().stats().invocations();

    // Unoptimized engine: semantic joins see unfiltered inputs.
    let mut naive_engine = build_engine(&data);
    naive_engine.set_optimizer_config(OptimizerConfig::none());
    let naive_cache = naive_engine.embedding_cache("shop-model").unwrap();
    naive_cache.clear();
    naive_engine.execute(&figure2_query(&naive_engine)).unwrap();
    let naive_embeddings = naive_cache.model().stats().invocations();

    assert!(
        optimized_embeddings <= naive_embeddings,
        "optimized {optimized_embeddings} vs naive {naive_embeddings}"
    );
}

#[test]
fn date_filter_before_detection_cuts_detector_work() {
    // The NoDB-style lesson: detect only images passing the date filter.
    let data = dataset();
    let all = ObjectDetector::with_noise(
        "d",
        5,
        DetectorNoise {
            miss_rate: 0.0,
            spurious_rate: 0.0,
        },
    );
    let _ = all.detections_table(data.images.images()).unwrap();
    let filtered = ObjectDetector::with_noise(
        "d",
        5,
        DetectorNoise {
            miss_rate: 0.0,
            spurious_rate: 0.0,
        },
    );
    let _ = filtered
        .detections_table(data.images.taken_after(AFTER_DAY * MICROS_PER_DAY))
        .unwrap();
    assert!(
        filtered.invocations() < all.invocations() / 2 + all.invocations() / 4,
        "filtered {} vs all {}",
        filtered.invocations(),
        all.invocations()
    );
}

#[test]
fn transactions_join_products_relationally() {
    let data = dataset();
    let engine = build_engine(&data);
    let q = engine
        .table("transactions")
        .unwrap()
        .join(
            engine.table("products").unwrap(),
            &[("product_id", "product_id")],
            JoinType::Inner,
        )
        .aggregate(
            &["name"],
            vec![cx_exec::logical::AggSpec::count_star("purchases")],
        )
        .sort(&[("purchases", false)])
        .limit(5);
    let result = engine.execute(&q).unwrap();
    assert_eq!(result.table.num_rows(), 5);
}
