//! Auto-parameterization regression tests: ad-hoc SQL statements that
//! differ only in literals must collapse into **one** prepared shape
//! (one optimizer run, one plan-cache entry), while statements that
//! genuinely differ in shape must not be conflated.
//!
//! `Session::sql` lifts literals out of the bound plan, fingerprints the
//! lifted template, and serves through the prepared-statement machinery —
//! so the assertions here are about `Server::sql_stats()` (auto-param and
//! shape-hit counters) and `Server::plan_cache_stats()` (how many times
//! the optimizer actually ran).

use context_analytics::{Engine, EngineConfig, ServeConfig, Server, SqlResponse};
use cx_embed::ClusteredTextModel;
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

fn fresh_server(config: ServeConfig) -> Arc<Server> {
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
    Server::new(engine, config)
}

fn rows(response: SqlResponse) -> context_analytics::ServeResult {
    match response {
        SqlResponse::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn forty_literals_one_shape() {
    let server = fresh_server(ServeConfig::default());
    let session = server.session();
    for i in 0..40 {
        let price = 5.0 + 2.0 * i as f64;
        let r = rows(
            session
                .sql(&format!(
                    "SELECT name, price FROM products WHERE price > {price:?} ORDER BY name"
                ))
                .unwrap(),
        );
        let expect = NAMES
            .iter()
            .enumerate()
            .filter(|(j, _)| 10.0 + 7.5 * *j as f64 > price)
            .count();
        assert_eq!(r.table.num_rows(), expect, "price > {price}");
    }
    let stats = server.sql_stats();
    assert_eq!(stats.statements, 40);
    assert_eq!(stats.auto_param, 40);
    assert_eq!(stats.auto_param_shape_hits, 39);
    assert!(
        stats.shape_hit_rate() >= 0.95,
        "shape hit rate {:.3} below the 95% bar",
        stats.shape_hit_rate()
    );
    // One optimizer run for the whole family: every later statement
    // reused the first statement's cached physical plan.
    assert_eq!(server.plan_cache_stats().misses, 1);
}

#[test]
fn int_and_float_literals_share_a_shape() {
    let server = fresh_server(ServeConfig::default());
    let session = server.session();
    // Int64 literal first: the cached template's parameter slot is
    // re-inferred per binding, so a Float64 literal must reuse it.
    let a = rows(
        session
            .sql("SELECT name FROM products WHERE price > 30")
            .unwrap(),
    );
    let b = rows(
        session
            .sql("SELECT name FROM products WHERE price > 45.5")
            .unwrap(),
    );
    assert_eq!(a.table.num_rows(), 9);
    assert_eq!(b.table.num_rows(), 7);
    let stats = server.sql_stats();
    assert_eq!(stats.auto_param, 2);
    assert_eq!(
        stats.auto_param_shape_hits, 1,
        "Int64 vs Float64 literal split the shape"
    );
    assert_eq!(server.plan_cache_stats().misses, 1);
    // And both results carry the schema the literal implies, not the
    // template's first-seen type.
    assert_eq!(a.table.schema().fields()[0].name, "name");
    assert_eq!(b.table.schema().fields()[0].name, "name");
}

#[test]
fn semantic_probes_share_a_shape_but_thresholds_do_not() {
    let server = fresh_server(ServeConfig::default());
    let session = server.session();
    // Same threshold, different probe text: the probe is lifted to a
    // parameter, so these are one shape.
    rows(
        session
            .sql("SELECT name FROM products WHERE name SEMANTIC LIKE 'shoes' USING m (0.75)")
            .unwrap(),
    );
    rows(
        session
            .sql("SELECT name FROM products WHERE name SEMANTIC LIKE 'jacket' USING m (0.75)")
            .unwrap(),
    );
    let after_probes = server.sql_stats();
    assert_eq!(after_probes.auto_param, 2);
    assert_eq!(
        after_probes.auto_param_shape_hits, 1,
        "probe text split the shape"
    );
    // A different threshold is part of the operator, not a literal: it
    // must NOT collapse into the same cached plan.
    rows(
        session
            .sql("SELECT name FROM products WHERE name SEMANTIC LIKE 'shoes' USING m (0.5)")
            .unwrap(),
    );
    let after_threshold = server.sql_stats();
    assert_eq!(after_threshold.auto_param, 3);
    assert_eq!(
        after_threshold.auto_param_shape_hits, 1,
        "a different threshold wrongly hit the 0.75 shape"
    );
    assert_eq!(server.plan_cache_stats().misses, 2);
}

#[test]
fn literal_free_statement_uses_exact_planning() {
    let server = fresh_server(ServeConfig::default());
    let session = server.session();
    let r = rows(
        session
            .sql("SELECT name FROM products ORDER BY name LIMIT 3")
            .unwrap(),
    );
    assert_eq!(r.table.num_rows(), 3);
    let stats = server.sql_stats();
    // LIMIT counts are liftable; a truly literal-free statement is not.
    let r2 = rows(session.sql("SELECT name, price FROM products").unwrap());
    assert_eq!(r2.table.num_rows(), NAMES.len());
    assert_eq!(server.sql_stats().exact_fallback, stats.exact_fallback + 1);
    // Replaying the literal-free text still hits the plan/result caches.
    let r3 = rows(session.sql("SELECT name, price FROM products").unwrap());
    assert!(
        r3.result_cache_hit,
        "replay of exact-planned text missed the result cache"
    );
}

#[test]
fn auto_param_off_plans_every_literal_exactly() {
    let config = ServeConfig {
        sql_auto_param: false,
        ..ServeConfig::default()
    };
    let server = fresh_server(config);
    let session = server.session();
    for price in [20.0f64, 35.0, 50.0] {
        rows(
            session
                .sql(&format!(
                    "SELECT name FROM products WHERE price > {price:?}"
                ))
                .unwrap(),
        );
    }
    let stats = server.sql_stats();
    assert_eq!(stats.statements, 3);
    assert_eq!(stats.auto_param, 0);
    assert_eq!(stats.auto_param_shape_hits, 0);
    assert_eq!(
        stats.shape_hit_rate(),
        1.0,
        "rate degenerates to 1.0 with no auto-param"
    );
    // Three distinct exact fingerprints → three optimizer runs.
    assert_eq!(server.plan_cache_stats().misses, 3);
}

#[test]
fn explicit_parameters_require_prepare() {
    let server = fresh_server(ServeConfig::default());
    let session = server.session();
    let err = session
        .sql("SELECT name FROM products WHERE price > $0")
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("PREPARE"),
        "error should point at PREPARE/EXECUTE: {msg}"
    );
    assert_eq!(server.sql_stats().errors, 1);
    // The PREPARE/EXECUTE path serves it fine — and still lands in the
    // same plan-cache machinery (one miss for the shape).
    session
        .sql("PREPARE by_price AS SELECT name FROM products WHERE price > $0")
        .unwrap();
    let r = rows(session.sql("EXECUTE by_price (40.0)").unwrap());
    assert_eq!(r.table.num_rows(), 7);
    // An ad-hoc statement of the same shape reuses the prepared plan.
    let before = server.plan_cache_stats().misses;
    rows(
        session
            .sql("SELECT name FROM products WHERE price > 62.5")
            .unwrap(),
    );
    assert_eq!(
        server.plan_cache_stats().misses,
        before,
        "ad-hoc auto-param statement should reuse the PREPAREd shape"
    );
    assert_eq!(server.sql_stats().auto_param_shape_hits, 1);
}

#[test]
fn execute_binds_are_type_checked_per_call() {
    let server = fresh_server(ServeConfig::default());
    let session = server.session();
    session
        .sql("PREPARE p AS SELECT name FROM products WHERE price > $0")
        .unwrap();
    let with_int = rows(session.sql("EXECUTE p (30)").unwrap());
    let with_float = rows(session.sql("EXECUTE p (45.5)").unwrap());
    assert_eq!(with_int.table.num_rows(), 9);
    assert_eq!(with_float.table.num_rows(), 7);
    // Sanity: the underlying scalars really were different types.
    assert_ne!(
        std::mem::discriminant(&Scalar::Int64(30)),
        std::mem::discriminant(&Scalar::Float64(45.5)),
    );
}
