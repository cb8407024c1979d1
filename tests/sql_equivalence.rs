//! Differential SQL harness: every SQL statement must be **bit-identical**
//! to its hand-built `Query` twin, across every execution mode:
//!
//! * ad hoc with auto-parameterization off (exact-fingerprint planning),
//! * ad hoc with auto-parameterization on (literals lifted, served
//!   through the prepared machinery),
//! * replayed (second run of the same text: plan cache + result memo),
//! * an 8-client concurrent storm.
//!
//! The reference for every twin is literal execution through a plain
//! serial engine. `Float64` cells are compared by bit pattern.

use context_analytics::exec::logical::{AggFunc, AggSpec, JoinType};
use context_analytics::expr::{col, lit};
use context_analytics::sql::{Bound, SchemaProvider};
use context_analytics::{Engine, EngineConfig, Query, ServeConfig, Server, SqlResponse};
use cx_embed::{ClusteredTextModel, HashNGramModel};
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use std::sync::Arc;

const NAMES: [&str; 12] = [
    "boots",
    "parka",
    "kitten",
    "sneakers",
    "coat",
    "puppy",
    "oxfords",
    "windbreaker",
    "blazer",
    "canine",
    "feline",
    "lace-ups",
];

fn fresh_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
    let products = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64((0..NAMES.len() as i64).collect()),
            Column::from_strings(NAMES),
            Column::from_f64((0..NAMES.len()).map(|i| 10.0 + 7.5 * i as f64).collect()),
        ],
    )
    .unwrap();
    engine.register_table("products", products).unwrap();
    let labels = Table::from_columns(
        Schema::new(vec![
            Field::new("label_id", DataType::Int64),
            Field::new("label", DataType::Utf8),
        ]),
        vec![
            Column::from_i64(vec![0, 1, 2, 3, 4, 5]),
            Column::from_strings(["shoes", "jacket", "pets", "clothes", "boots", "parka"]),
        ],
    )
    .unwrap();
    engine.register_table("labels", labels).unwrap();
    engine
}

/// The twin corpus: (SQL text, equivalent hand-built query). Every pair
/// must serve bit-identical tables through every mode below.
fn twins(engine: &Engine) -> Vec<(String, Query)> {
    let t = |name: &str| engine.table(name).unwrap();
    let mut out: Vec<(String, Query)> = Vec::new();
    let mut twin = |sql: &str, q: Query| out.push((sql.to_string(), q));

    // Relational filters: one shape, many literals (the auto-param
    // sweet spot), plus every comparison operator.
    for price in ["15.0", "25.5", "40.0", "60.0", "77.5"] {
        twin(
            &format!("SELECT name, price FROM products WHERE price > {price} ORDER BY name"),
            t("products")
                .filter(col("price").gt(lit(price.parse::<f64>().unwrap())))
                .sort(&[("name", true)])
                .select_columns(&["name", "price"]),
        );
    }
    twin(
        "SELECT * FROM products WHERE price < 30.0",
        t("products").filter(col("price").lt(lit(30.0))),
    );
    twin(
        "SELECT * FROM products WHERE price <= 25.0",
        t("products").filter(col("price").lt_eq(lit(25.0))),
    );
    twin(
        "SELECT * FROM products WHERE price >= 70.0",
        t("products").filter(col("price").gt_eq(lit(70.0))),
    );
    twin(
        "SELECT * FROM products WHERE name = 'boots'",
        t("products").filter(col("name").eq(lit("boots"))),
    );
    twin(
        "SELECT * FROM products WHERE name != 'boots'",
        t("products").filter(col("name").not_eq(lit("boots"))),
    );
    twin(
        "SELECT * FROM products WHERE price > 20.0 AND price < 60.0",
        t("products").filter(col("price").gt(lit(20.0)).and(col("price").lt(lit(60.0)))),
    );
    twin(
        "SELECT * FROM products WHERE name = 'boots' OR name = 'parka'",
        t("products").filter(
            col("name")
                .eq(lit("boots"))
                .or(col("name").eq(lit("parka"))),
        ),
    );
    twin(
        "SELECT * FROM products WHERE NOT (price > 40.0)",
        t("products").filter(col("price").gt(lit(40.0)).not()),
    );
    twin(
        "SELECT * FROM products WHERE name IS NULL",
        t("products").filter(col("name").is_null()),
    );
    twin(
        "SELECT * FROM products WHERE name IS NOT NULL",
        t("products").filter(col("name").is_null().not()),
    );
    // Arithmetic in predicates and projections.
    twin(
        "SELECT * FROM products WHERE price + 10.0 < 50.0",
        t("products").filter(col("price").add(lit(10.0)).lt(lit(50.0))),
    );
    twin(
        "SELECT * FROM products WHERE price * 2.0 >= 100.0",
        t("products").filter(col("price").mul(lit(2.0)).gt_eq(lit(100.0))),
    );
    twin(
        "SELECT * FROM products WHERE price - 5.0 > 20.0",
        t("products").filter(col("price").sub(lit(5.0)).gt(lit(20.0))),
    );
    twin(
        "SELECT * FROM products WHERE price / 2.0 < 20.0",
        t("products").filter(col("price").div(lit(2.0)).lt(lit(20.0))),
    );
    twin(
        "SELECT name AS n, price * 0.9 AS sale FROM products ORDER BY n",
        t("products").sort(&[("name", true)]).select(vec![
            (col("name"), "n"),
            (col("price").mul(lit(0.9)), "sale"),
        ]),
    );
    // Projection, DISTINCT, ORDER BY, LIMIT.
    twin(
        "SELECT name FROM products",
        t("products").select_columns(&["name"]),
    );
    twin(
        "SELECT DISTINCT name FROM products ORDER BY name",
        t("products")
            .select_columns(&["name"])
            .distinct()
            .sort(&[("name", true)]),
    );
    twin(
        "SELECT * FROM products ORDER BY price DESC, name ASC LIMIT 4",
        t("products")
            .sort(&[("price", false), ("name", true)])
            .limit(4),
    );
    twin(
        "SELECT name FROM products ORDER BY price DESC",
        t("products")
            .sort(&[("price", false)])
            .select_columns(&["name"]),
    );
    twin("SELECT * FROM products LIMIT 3", t("products").limit(3));
    // Semantic filters: probes, thresholds, k-limits.
    for (probe, threshold) in [
        ("shoes", 0.75),
        ("jacket", 0.8),
        ("pets", 0.7),
        ("clothes", 0.78),
    ] {
        twin(
            &format!(
                "SELECT * FROM products WHERE name SEMANTIC LIKE '{probe}' ({threshold}) \
                 ORDER BY product_id"
            ),
            t("products")
                .semantic_filter("name", probe, "m", threshold as f32)
                .sort(&[("product_id", true)]),
        );
    }
    for k in [1usize, 3, 5] {
        twin(
            &format!("SELECT * FROM products WHERE name SEMANTIC LIKE 'shoes' ({k}, 0.7)"),
            t("products")
                .semantic_filter("name", "shoes", "m", 0.7)
                .limit(k),
        );
    }
    twin(
        "SELECT name FROM products \
         WHERE name SEMANTIC LIKE 'jacket' USING m (0.8) AND price > 20.0 ORDER BY name",
        t("products")
            .filter(col("price").gt(lit(20.0)))
            .semantic_filter("name", "jacket", "m", 0.8)
            .sort(&[("name", true)])
            .select_columns(&["name"]),
    );
    // Aggregation: grouped, global, every aggregate function.
    twin(
        "SELECT name, COUNT(*) FROM products GROUP BY name ORDER BY name",
        t("products")
            .aggregate(&["name"], vec![AggSpec::count_star("count")])
            .sort(&[("name", true)]),
    );
    twin(
        "SELECT name, SUM(price) AS total, MIN(price) AS lo, MAX(price) AS hi \
         FROM products GROUP BY name ORDER BY name",
        t("products")
            .aggregate(
                &["name"],
                vec![
                    AggSpec::new(AggFunc::Sum, "price", "total"),
                    AggSpec::new(AggFunc::Min, "price", "lo"),
                    AggSpec::new(AggFunc::Max, "price", "hi"),
                ],
            )
            .sort(&[("name", true)]),
    );
    twin(
        "SELECT COUNT(*) AS n, AVG(price) AS mean FROM products",
        t("products").aggregate(
            &[],
            vec![
                AggSpec::count_star("n"),
                AggSpec::new(AggFunc::Avg, "price", "mean"),
            ],
        ),
    );
    twin(
        "SELECT COUNT(price) AS priced FROM products WHERE price > 50.0",
        t("products")
            .filter(col("price").gt(lit(50.0)))
            .aggregate(&[], vec![AggSpec::new(AggFunc::Count, "price", "priced")]),
    );
    // Semantic group-by: clusters plus per-cluster aggregates.
    twin(
        "SELECT name, cluster_id, COUNT(*) FROM products GROUP BY SEMANTIC name (0.4)",
        t("products").semantic_group_by("name", "m", 0.4, vec![AggSpec::count_star("count")]),
    );
    twin(
        "SELECT name, cluster_id, AVG(price) AS mean FROM products \
         GROUP BY SEMANTIC name USING m (0.5)",
        t("products").semantic_group_by(
            "name",
            "m",
            0.5,
            vec![AggSpec::new(AggFunc::Avg, "price", "mean")],
        ),
    );
    // Relational joins: every join type, plus a self-join collision.
    twin(
        "SELECT * FROM products INNER JOIN labels ON product_id = label_id",
        t("products").join(t("labels"), &[("product_id", "label_id")], JoinType::Inner),
    );
    twin(
        "SELECT * FROM products LEFT JOIN labels ON product_id = label_id",
        t("products").join(t("labels"), &[("product_id", "label_id")], JoinType::Left),
    );
    twin(
        "SELECT * FROM products SEMI JOIN labels ON product_id = label_id",
        t("products").join(
            t("labels"),
            &[("product_id", "label_id")],
            JoinType::LeftSemi,
        ),
    );
    twin(
        "SELECT * FROM products ANTI JOIN labels ON product_id = label_id",
        t("products").join(
            t("labels"),
            &[("product_id", "label_id")],
            JoinType::LeftAnti,
        ),
    );
    twin(
        "SELECT * FROM products CROSS JOIN labels WHERE price > 80.0",
        t("products")
            .cross_join(t("labels"))
            .filter(col("price").gt(lit(80.0))),
    );
    twin(
        "SELECT a.name, b.price AS bprice FROM products AS a \
         INNER JOIN products AS b ON a.product_id = b.product_id",
        t("products")
            .join(
                t("products"),
                &[("product_id", "product_id")],
                JoinType::Inner,
            )
            .select(vec![(col("name"), "name"), (col("right.price"), "bprice")]),
    );
    // Semantic joins: default and named score columns.
    twin(
        "SELECT * FROM products SEMANTIC JOIN labels ON SIM(name, label) >= 0.75",
        t("products").semantic_join(t("labels"), "name", "label", "m", 0.75),
    );
    twin(
        "SELECT * FROM products SEMANTIC JOIN labels USING m \
         ON SIM(name, label) > 0.8 SCORE closeness",
        t("products").semantic_join_scored(t("labels"), "name", "label", "m", 0.8, "closeness"),
    );
    // Set operations.
    twin(
        "SELECT name FROM products UNION ALL SELECT label AS name FROM labels \
         ORDER BY name LIMIT 10",
        t("products")
            .select_columns(&["name"])
            .union(t("labels").select(vec![(col("label"), "name")]))
            .sort(&[("name", true)])
            .limit(10),
    );
    twin(
        "SELECT product_id FROM products WHERE price < 20.0 \
         UNION ALL SELECT product_id FROM products WHERE price > 80.0",
        t("products")
            .filter(col("price").lt(lit(20.0)))
            .select_columns(&["product_id"])
            .union(
                t("products")
                    .filter(col("price").gt(lit(80.0)))
                    .select_columns(&["product_id"]),
            ),
    );
    out
}

/// Bit-strict table comparison (f64 by bit pattern, everything else by
/// scalar equality).
fn assert_tables_bit_identical(got: &Table, expected: &Table, context: &str) {
    assert_eq!(got.num_rows(), expected.num_rows(), "{context}: row count");
    assert_eq!(
        got.schema().names(),
        expected.schema().names(),
        "{context}: schema"
    );
    for r in 0..expected.num_rows() {
        let (g, e) = (got.row(r).unwrap(), expected.row(r).unwrap());
        for (c, (gs, es)) in g.iter().zip(&e).enumerate() {
            match (gs, es) {
                (Scalar::Float64(x), Scalar::Float64(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "{context}: row {r} col {c}")
                }
                _ => assert_eq!(gs, es, "{context}: row {r} col {c}"),
            }
        }
    }
}

/// Reference tables: every twin's builder query executed on a cold
/// serial engine.
fn reference(pairs: &[(String, Query)]) -> Vec<Table> {
    let serial = fresh_engine();
    pairs
        .iter()
        .map(|(_, q)| serial.execute(q).unwrap().table)
        .collect()
}

fn sql_rows(session: &context_analytics::Session, sql: &str) -> Arc<Table> {
    match session.sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        SqlResponse::Rows(r) => r.table,
        other => panic!("{sql}: expected rows, got {other:?}"),
    }
}

#[test]
fn corpus_is_large_enough() {
    let engine = fresh_engine();
    assert!(
        twins(&engine).len() >= 40,
        "only {} twins",
        twins(&engine).len()
    );
}

#[test]
fn adhoc_exact_matches_builder_twins() {
    let engine = fresh_engine();
    let pairs = twins(&engine);
    let expected = reference(&pairs);
    let server = Server::new(
        fresh_engine(),
        ServeConfig {
            sql_auto_param: false,
            ..ServeConfig::default()
        },
    );
    let session = server.session();
    for (i, (sql, _)) in pairs.iter().enumerate() {
        let got = sql_rows(&session, sql);
        assert_tables_bit_identical(&got, &expected[i], sql);
    }
    assert_eq!(server.sql_stats().auto_param, 0);
}

#[test]
fn auto_param_and_replay_match_builder_twins() {
    let engine = fresh_engine();
    let pairs = twins(&engine);
    let expected = reference(&pairs);
    let server = Server::new(fresh_engine(), ServeConfig::default());
    let session = server.session();
    // First pass: ad hoc through the auto-parameterized path.
    for (i, (sql, _)) in pairs.iter().enumerate() {
        let got = sql_rows(&session, sql);
        assert_tables_bit_identical(&got, &expected[i], &format!("cold: {sql}"));
    }
    let stats = server.sql_stats();
    assert!(stats.auto_param > 30, "{stats:?}");
    // Second pass: identical text replays from the plan cache + result
    // memo (prepared statements hit their per-binding memo, exact
    // fallbacks the plan-level memo) and stays bit-identical.
    let hits_before = server.stats().result_cache_hits;
    for (i, (sql, _)) in pairs.iter().enumerate() {
        let got = sql_rows(&session, sql);
        assert_tables_bit_identical(&got, &expected[i], &format!("replay: {sql}"));
    }
    let replay_hits = server.stats().result_cache_hits - hits_before;
    assert_eq!(
        replay_hits,
        pairs.len() as u64,
        "every replay should be a memo hit"
    );
    // Every auto-parameterized replay resolved an already-cached shape.
    let stats = server.sql_stats();
    assert!(
        stats.auto_param_shape_hits >= stats.auto_param / 2,
        "replays must hit cached shapes: {stats:?}"
    );
}

#[test]
fn storm_of_eight_clients_stays_bit_identical() {
    let engine = fresh_engine();
    let pairs = Arc::new(twins(&engine));
    let expected = Arc::new(reference(&pairs));
    let server = Server::new(fresh_engine(), ServeConfig::default());
    let threads = 8;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                let server = server.clone();
                let pairs = pairs.clone();
                let expected = expected.clone();
                s.spawn(move || {
                    let session = server.session();
                    // Stagger the walk so clients overlap on different
                    // statements, not in lockstep.
                    for step in 0..pairs.len() {
                        let i = (step + c * 5) % pairs.len();
                        let (sql, _) = &pairs[i];
                        let got = sql_rows(&session, sql);
                        assert_tables_bit_identical(
                            &got,
                            &expected[i],
                            &format!("client {c}: {sql}"),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let stats = server.stats();
    assert_eq!(stats.sql.statements, (threads * pairs.len()) as u64);
    assert_eq!(stats.sql.errors, 0);
    // Eight clients over one corpus: the shape cache absorbs nearly
    // everything after the first sighting of each shape.
    assert!(
        stats.sql.shape_hit_rate() > 0.8,
        "shape hit rate {:.2} ({:?})",
        stats.sql.shape_hit_rate(),
        stats.sql
    );
}

/// The binder's view of a bare engine, so a test can run SQL text
/// through `Engine::execute`.
struct EngineSchemas<'a>(&'a Engine);

impl SchemaProvider for EngineSchemas<'_> {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.0.table(name).ok().and_then(|q| q.plan().schema().ok())
    }

    fn model_names(&self) -> Vec<String> {
        self.0.catalog().models().names()
    }
}

#[test]
fn served_semantic_join_matches_the_bare_engine() {
    // The auto-parameterized template costs `a_id >= $0` at a default
    // selectivity; the bare engine costs the literal through its
    // histogram. Served and bare execution must still agree bit for bit:
    // the served plan is lowered only once its parameters are bound.
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.register_model(Arc::new(HashNGramModel::new(42)));
    let rows = 2_000i64;
    for (table, prefix, modulus) in [("a", "a", 40), ("b", "b", 50)] {
        let t = Table::from_columns(
            Schema::new(vec![
                Field::new(format!("{prefix}_id"), DataType::Int64),
                Field::new(format!("{prefix}_name"), DataType::Utf8),
            ]),
            vec![
                Column::from_i64((0..rows).collect()),
                Column::from_strings((0..rows).map(|i| format!("item {}", i % modulus))),
            ],
        )
        .unwrap();
        engine.register_table(table, t).unwrap();
    }
    let sql = "SELECT a_id, b_id, similarity FROM a SEMANTIC JOIN b \
               ON SIM(a_name, b_name) >= 0.8 WHERE a_id >= 1990 ORDER BY a_id, b_id";
    let parsed = context_analytics::sql::parse(sql).unwrap();
    let bound = context_analytics::sql::bind(&parsed, &EngineSchemas(&engine)).unwrap();
    let Bound::Query(bound) = bound else {
        panic!("not a query: {sql}")
    };
    let expected = engine.execute(&Query::from_plan(bound.plan)).unwrap().table;
    assert!(expected.num_rows() > 0);
    let server = Server::new(engine, ServeConfig::default());
    let got = sql_rows(&server.session(), sql);
    assert_tables_bit_identical(&got, &expected, sql);
}
