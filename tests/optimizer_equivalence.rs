//! Property-based test: the optimizer never changes query *results*.
//!
//! Random small relations and random query shapes are executed under the
//! fully-enabled optimizer and with everything disabled; the multisets of
//! output rows must be identical. This is the plan-equivalence invariant
//! every rewrite rule promises.

use context_analytics::engine::{Engine, EngineConfig};
use context_analytics::expr::{col, lit, Expr};
use cx_embed::ClusteredTextModel;
use cx_exec::logical::JoinType;
use cx_optimizer::OptimizerConfig;
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use proptest::prelude::*;
use std::sync::Arc;

const WORDS: &[&str] = &[
    "dog", "canine", "puppy", "cat", "feline", "boots", "sneakers", "parka", "coat", "mug",
];

fn engine_for(items: &[(i64, usize, f64)], labels: &[(usize, i64)]) -> Engine {
    let engine = Engine::new(EngineConfig::default());
    let specs = vec![
        cx_embed::ClusterSpec::new("dog", &["canine", "puppy"]),
        cx_embed::ClusterSpec::new("cat", &["feline"]),
        cx_embed::ClusterSpec::new("shoes", &["boots", "sneakers"]),
        cx_embed::ClusterSpec::new("jacket", &["parka", "coat"]),
        cx_embed::ClusterSpec::new("mug", &[]),
    ];
    let space = Arc::new(cx_datagen::build_space(&specs, 32, 9));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 3)));

    let items_table = Table::from_columns(
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64(items.iter().map(|(id, _, _)| *id).collect()),
            Column::from_strings(
                items
                    .iter()
                    .map(|(_, w, _)| WORDS[*w].to_string())
                    .collect::<Vec<_>>(),
            ),
            Column::from_f64(items.iter().map(|(_, _, p)| *p).collect()),
        ],
    )
    .unwrap();
    engine.register_table("items", items_table).unwrap();

    let labels_table = Table::from_columns(
        Schema::new(vec![
            Field::new("label", DataType::Utf8),
            Field::new("weight", DataType::Int64),
        ]),
        vec![
            Column::from_strings(
                labels
                    .iter()
                    .map(|(w, _)| WORDS[*w].to_string())
                    .collect::<Vec<_>>(),
            ),
            Column::from_i64(labels.iter().map(|(_, v)| *v).collect()),
        ],
    )
    .unwrap();
    engine.register_table("labels", labels_table).unwrap();
    engine
}

/// A small predicate grammar over the items table.
fn predicate_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0.0..100.0f64).prop_map(|v| col("price").gt(lit(v))),
        (0.0..100.0f64).prop_map(|v| col("price").lt_eq(lit(v))),
        (0..10usize).prop_map(|w| col("name").eq(lit(WORDS[w]))),
        (0..20i64).prop_map(|v| col("id").not_eq(lit(v))),
        Just(col("name").is_null().not()),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Sorted row fingerprints (order-insensitive result comparison).
fn fingerprint(table: &Table) -> Vec<String> {
    let mut rows: Vec<String> = (0..table.num_rows())
        .map(|i| {
            table
                .row(i)
                .unwrap()
                .iter()
                .map(|s| match s {
                    // Scores may differ in the last ulp between kernels;
                    // round for comparison.
                    Scalar::Float64(f) => format!("{:.4}", f),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn optimizer_preserves_filter_join_results(
        items in prop::collection::vec((0..50i64, 0..10usize, 0.0..100.0f64), 1..40),
        labels in prop::collection::vec((0..10usize, 0..100i64), 1..20),
        predicate in predicate_strategy(),
        join_weight in 0..100i64,
    ) {
        let mut engine = engine_for(&items, &labels);
        let build = |engine: &Engine| {
            let labels_q = engine.table("labels").unwrap()
                .filter(col("weight").gt_eq(lit(join_weight)));
            engine.table("items").unwrap()
                .join(labels_q, &[("name", "label")], JoinType::Inner)
                .filter(predicate.clone())
        };
        let optimized = engine.execute(&build(&engine)).unwrap();
        engine.set_optimizer_config(OptimizerConfig::none());
        let naive = engine.execute(&build(&engine)).unwrap();
        prop_assert_eq!(fingerprint(&optimized.table), fingerprint(&naive.table));
    }

    #[test]
    fn optimizer_preserves_semantic_results(
        items in prop::collection::vec((0..50i64, 0..10usize, 0.0..100.0f64), 1..30),
        labels in prop::collection::vec((0..10usize, 0..100i64), 1..15),
        price_cut in 0.0..100.0f64,
        threshold in 0.75..0.95f32,
    ) {
        let mut engine = engine_for(&items, &labels);
        let build = |engine: &Engine| {
            engine.table("items").unwrap()
                .semantic_join(engine.table("labels").unwrap(), "name", "label", "m", threshold)
                .filter(col("price").gt(lit(price_cut)))
        };
        let optimized = engine.execute(&build(&engine)).unwrap();
        engine.set_optimizer_config(OptimizerConfig::none());
        let naive = engine.execute(&build(&engine)).unwrap();
        prop_assert_eq!(fingerprint(&optimized.table), fingerprint(&naive.table));
    }

    #[test]
    fn optimizer_preserves_semantic_filter_cascades(
        items in prop::collection::vec((0..50i64, 0..10usize, 0.0..100.0f64), 1..30),
        target in 0..10usize,
        threshold in 0.7..0.99f32,
        predicate in predicate_strategy(),
    ) {
        let mut engine = engine_for(&items, &[(0, 1)]);
        let build = |engine: &Engine| {
            engine.table("items").unwrap()
                .semantic_filter("name", WORDS[target], "m", threshold)
                .filter(predicate.clone())
                .select(vec![(col("id"), "id"), (col("name"), "name")])
        };
        let optimized = engine.execute(&build(&engine)).unwrap();
        engine.set_optimizer_config(OptimizerConfig::none());
        let naive = engine.execute(&build(&engine)).unwrap();
        prop_assert_eq!(fingerprint(&optimized.table), fingerprint(&naive.table));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `ORDER BY … LIMIT k` over a projected semantic join — the shape the
    /// optimizer lifts the projection out of — answers row for row, bit
    /// for bit, with the optimizer on and off, keys projected or not.
    #[test]
    fn optimizer_preserves_ranked_projections(
        items in prop::collection::vec((0..50i64, 0..10usize, 0.0..100.0f64), 1..30),
        labels in prop::collection::vec((0..10usize, 0..100i64), 1..15),
        threshold in 0.5..0.95f32,
        k in 0..12usize,
    ) {
        let mut engine = engine_for(&items, &labels);
        let joined = |engine: &Engine| {
            engine.table("items").unwrap()
                .semantic_join(engine.table("labels").unwrap(), "name", "label", "m", threshold)
        };
        let projection =
            || vec![(col("id"), "item"), (col("label"), "tag"), (col("similarity"), "sim")];
        let shapes = |engine: &Engine| {
            [
                joined(engine)
                    .select(projection())
                    .sort(&[("sim", false), ("tag", true), ("item", true)])
                    .limit(k),
                joined(engine)
                    .sort(&[("weight", false), ("price", true)])
                    .select(projection())
                    .limit(k),
            ]
        };
        let optimized: Vec<Table> =
            shapes(&engine).iter().map(|q| engine.execute(q).unwrap().table).collect();
        engine.set_optimizer_config(OptimizerConfig::none());
        for (query, want) in shapes(&engine).iter().zip(&optimized) {
            let naive = engine.execute(query).unwrap().table;
            prop_assert_eq!(naive.num_rows(), want.num_rows());
            for r in 0..naive.num_rows() {
                prop_assert_eq!(naive.row(r).unwrap(), want.row(r).unwrap(), "row {}", r);
            }
        }
    }
}

/// A filter's `=` over a cross join is SQL equality (`1 = 1.0`,
/// `-0.0 = 0.0`, NaN equals nothing) whether or not equi-join extraction
/// turns it into a hash join.
#[test]
fn cross_join_equality_answers_as_sql_with_extraction_on_and_off() {
    use context_analytics::{ServeConfig, Server, SqlResponse};

    let engine = Engine::new(EngineConfig::default());
    let a = Table::from_columns(
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]),
        vec![
            Column::from_i64(vec![1, 2]),
            Column::from_f64(vec![-0.0, f64::NAN]),
        ],
    )
    .unwrap();
    let b = Table::from_columns(
        Schema::new(vec![Field::new("f", DataType::Float64)]),
        vec![Column::from_f64(vec![1.0, 0.0, f64::NAN])],
    )
    .unwrap();
    engine.register_table("a", a).unwrap();
    engine.register_table("b", b).unwrap();
    let session = Server::new(Arc::new(engine), ServeConfig::default()).session();
    for (predicate, want) in [("i = f", vec![(1, 1.0)]), ("x = f", vec![(1, 0.0)])] {
        for extraction in [true, false] {
            session.set_optimizer_config(OptimizerConfig {
                equijoin_extraction: extraction,
                ..OptimizerConfig::all()
            });
            let sql = format!("SELECT i, f FROM a CROSS JOIN b WHERE {predicate} ORDER BY i, f");
            let SqlResponse::Rows(r) = session.sql(&sql).unwrap() else {
                panic!("a SELECT returns rows");
            };
            let got: Vec<(i64, f64)> = (0..r.table.num_rows())
                .map(|row| match r.table.row(row).unwrap()[..] {
                    [Scalar::Int64(i), Scalar::Float64(f)] => (i, f),
                    ref other => panic!("unexpected row {other:?}"),
                })
                .collect();
            assert_eq!(got, want, "{predicate}, extraction {extraction}");
        }
    }
}
