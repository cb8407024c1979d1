//! Prepared statements (`cx_serve::Prepared`):
//!
//! * prepared execution must be **bit-identical** to ad-hoc execution of
//!   the equivalent literal query, across bindings and parameter kinds
//!   (semantic probes, comparison literals, limits),
//! * catalog registrations with outstanding `Prepared` handles must make
//!   the next execute re-optimize — never a stale plan, never a stale
//!   per-binding memo,
//! * a concurrent prepared storm with distinct bindings must stay
//!   bit-identical to serial literal execution.

use context_analytics::expr::{col, param};
use context_analytics::{Engine, EngineConfig, ServeConfig, Server};
use cx_embed::ClusteredTextModel;
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use std::sync::{Arc, Barrier};

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

fn products_table() -> Table {
    Table::from_columns(
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
    .unwrap()
}

fn fresh_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
    engine.register_table("products", products_table()).unwrap();
    engine
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

const TARGETS: [&str; 8] = [
    "boots", "parka", "kitten", "sneakers", "coat", "puppy", "shoes", "jacket",
];

#[test]
fn prepared_is_bit_identical_to_adhoc_across_bindings() {
    // Reference: literal queries through a plain serial engine, cold.
    let serial = fresh_engine();
    let expected: Vec<Table> = TARGETS
        .iter()
        .enumerate()
        .map(|(i, target)| {
            let price = 10.0 + 5.0 * i as f64;
            let limit = 1 + (i as i64 % 4) * 3;
            serial
                .execute(
                    &serial
                        .table("products")
                        .unwrap()
                        .semantic_filter("name", target, "m", 0.75)
                        .filter(col("price").gt(context_analytics::expr::lit(price)))
                        .sort(&[("product_id", true)])
                        .limit(limit as usize),
                )
                .unwrap()
                .table
        })
        .collect();

    // One prepared template over a second cold engine covers the whole
    // family: probe, comparison literal, and limit all parameterized.
    let server = Server::new(fresh_engine(), ServeConfig::default());
    let session = server.session();
    let template = session
        .table("products")
        .unwrap()
        .semantic_filter_param("name", 0, "m", 0.75)
        .filter(col("price").gt(param(1)))
        .sort(&[("product_id", true)])
        .limit_param(2);
    let prepared = session.prepare(&template).unwrap();
    assert_eq!(prepared.param_count(), 3);

    for (i, target) in TARGETS.iter().enumerate() {
        let price = 10.0 + 5.0 * i as f64;
        let limit = 1 + (i as i64 % 4) * 3;
        let got = prepared
            .execute(&[
                Scalar::from(*target),
                Scalar::Float64(price),
                Scalar::Int64(limit),
            ])
            .unwrap();
        assert_tables_bit_identical(&got.table, &expected[i], &format!("binding {i} ({target})"));
        // Every execution after prepare resolves through the cached shape.
        assert!(got.plan_cache_hit, "binding {i} missed the plan cache");
        assert!(!got.result_cache_hit);
    }

    // The storm of distinct bindings produced exactly one optimization.
    let stats = server.plan_cache_stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, TARGETS.len() as u64, "{stats:?}");
    assert!(stats.hit_rate() > 0.85, "{stats:?}");
}

#[test]
fn catalog_bump_with_outstanding_handle_reoptimizes_and_never_serves_stale_memo() {
    let server = Server::new(fresh_engine(), ServeConfig::default());
    let session = server.session();
    let template = session
        .table("products")
        .unwrap()
        .semantic_filter_param("name", 0, "m", 0.75)
        .sort(&[("product_id", true)]);
    let prepared = session.prepare(&template).unwrap();

    let bind = [Scalar::from("shoes")];
    let before = prepared.execute(&bind).unwrap();
    assert!(before.plan_cache_hit);
    // Populate the per-binding memo, then replay from it.
    assert!(prepared.execute(&bind).unwrap().result_cache_hit);
    let rows_before = before.table.num_rows();
    assert!(rows_before >= 3, "boots/sneakers/oxfords/lace-ups expected");

    // Re-register the table with different contents while the handle is
    // outstanding: the version bump must invalidate both the plan and the
    // binding memo.
    let shrunk = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64(vec![100]),
            Column::from_strings(["boots"]),
            Column::from_f64(vec![1.0]),
        ],
    )
    .unwrap();
    server.engine().register_table("products", shrunk).unwrap();

    let after = prepared.execute(&bind).unwrap();
    assert!(
        !after.plan_cache_hit,
        "stale prepared plan served after catalog change"
    );
    assert!(
        !after.result_cache_hit,
        "stale per-binding memo served after catalog change"
    );
    assert_eq!(after.table.num_rows(), 1);
    assert_eq!(after.table.row(0).unwrap()[0], Scalar::Int64(100));
    assert!(server.plan_cache_stats().invalidations >= 1);

    // And the rebuilt entry serves (fresh) memo replays again.
    assert!(prepared.execute(&bind).unwrap().result_cache_hit);
}

#[test]
fn prepared_storm_is_bit_identical_to_serial_execution() {
    let threads = 8;
    // Several rounds per client, so the threads' executions of the one
    // shared handle genuinely overlap.
    let rounds = 6;
    let binding = |client: usize, round: usize| (TARGETS[client], 10.0 + 10.0 * round as f64);

    // Reference: serial literal execution, cold engine.
    let serial = fresh_engine();
    let expected: Vec<Vec<Table>> = (0..threads)
        .map(|c| {
            (0..rounds)
                .map(|r| {
                    let (target, price) = binding(c, r);
                    serial
                        .execute(
                            &serial
                                .table("products")
                                .unwrap()
                                .semantic_filter("name", target, "m", 0.8)
                                .filter(col("price").gt(context_analytics::expr::lit(price)))
                                .sort(&[("product_id", true)]),
                        )
                        .unwrap()
                        .table
                })
                .collect()
        })
        .collect();

    let server = Server::new(fresh_engine(), ServeConfig::default());
    // One shared handle: prepared handles are Send + Sync.
    let prepared = Arc::new(
        server
            .session()
            .prepare(
                &server
                    .table("products")
                    .unwrap()
                    .semantic_filter_param("name", 0, "m", 0.8)
                    .filter(col("price").gt(param(1)))
                    .sort(&[("product_id", true)]),
            )
            .unwrap(),
    );

    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                let prepared = prepared.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    barrier.wait();
                    (0..rounds)
                        .map(|r| {
                            let (target, price) = binding(c, r);
                            prepared
                                .execute(&[Scalar::from(target), Scalar::Float64(price)])
                                .unwrap()
                                .table
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (c, handle) in handles.into_iter().enumerate() {
            let got = handle.join().unwrap();
            for (r, (g, e)) in got.iter().zip(&expected[c]).enumerate() {
                assert_tables_bit_identical(g, e, &format!("client {c} round {r}"));
            }
        }
    });

    let stats = server.stats();
    assert_eq!(stats.prepared_queries, (threads * rounds) as u64);
}
