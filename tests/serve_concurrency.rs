//! Concurrency stress tests for `cx_serve`:
//!
//! * N threads replaying the same query mix through one shared
//!   [`Server`] must produce results bit-identical to a serial
//!   [`Engine::execute`] loop, while the plan cache reports hits and,
//!   once one serial pass has embedded the mix's texts, the storm embeds
//!   nothing more,
//! * an 8-client same-table storm with **distinct literals per query**
//!   (the plan cache cannot help) must be bit-identical to a serial loop,
//! * memoized replays must never re-enter the admission gate,
//! * catalog registrations racing plan-cache lookups must never serve a
//!   stale plan,
//! * per-session optimizer-config overrides must partition the plan
//!   cache without cross-talk.

use context_analytics::expr::{col, lit};
use context_analytics::optimizer::OptimizerConfig;
use context_analytics::{Engine, EngineConfig, Query, ServeConfig, Server};
use cx_embed::ClusteredTextModel;
use cx_exec::logical::{AggFunc, AggSpec};
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn fresh_engine() -> Arc<Engine> {
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
        "loafers",
        "anorak",
        "tabby",
        "hound",
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
            Column::from_f64((0..names.len()).map(|i| 10.0 + 7.5 * i as f64).collect()),
        ],
    )
    .unwrap();
    engine.register_table("products", products).unwrap();

    let mut kb = cx_kb::KnowledgeBase::new();
    for item in ["boots", "sneakers", "oxfords", "loafers"] {
        kb.assert_is_a(item, "shoes");
    }
    for item in ["parka", "coat", "windbreaker", "anorak"] {
        kb.assert_is_a(item, "jacket");
    }
    kb.assert_is_a("shoes", "clothes");
    kb.assert_is_a("jacket", "clothes");
    engine.register_kb("kb", kb).unwrap();
    engine
}

/// The replayed mix: relational, semantic filter, semantic join, group-by —
/// with deliberate repeats so a plan cache has something to hit.
fn query_mix(engine: &Engine) -> Vec<Query> {
    let sem_filter = |threshold| {
        engine
            .table("products")
            .unwrap()
            .semantic_filter("name", "clothes", "m", threshold)
            .sort(&[("product_id", true)])
    };
    let join = || {
        let kb = engine
            .table("kb")
            .unwrap()
            .filter(col("category").eq(lit("clothes")));
        engine
            .table("products")
            .unwrap()
            .semantic_join(kb, "name", "label", "m", 0.9)
            .filter(col("price").gt(lit(20.0)))
            .sort(&[("product_id", true), ("label", true)])
    };
    let agg = || {
        engine
            .table("products")
            .unwrap()
            .semantic_group_by(
                "name",
                "m",
                0.85,
                vec![
                    AggSpec::count_star("items"),
                    AggSpec::new(AggFunc::Avg, "price", "avg_price"),
                ],
            )
            .sort(&[("cluster_id", true)])
    };
    vec![
        sem_filter(0.75),
        join(),
        agg(),
        sem_filter(0.75), // repeat → plan-cache hit
        sem_filter(0.8),
        join(), // repeat → plan-cache hit
    ]
}

fn table_rows(table: &Table) -> Vec<Vec<cx_storage::Scalar>> {
    (0..table.num_rows())
        .map(|r| table.row(r).unwrap())
        .collect()
}

#[test]
fn concurrent_serving_is_bit_identical_to_serial_execution() {
    // Reference: a serial engine, cold caches, plain `execute` loop.
    let serial = fresh_engine();
    let expected: Vec<_> = query_mix(&serial)
        .iter()
        .map(|q| table_rows(&serial.execute(q).unwrap().table))
        .collect();

    // Serving: a second cold engine behind a server, result memo off so
    // every storm statement executes.
    let engine = fresh_engine();
    let server = Server::new(
        engine,
        ServeConfig {
            cache_results: false,
            ..ServeConfig::default()
        },
    );
    let model_calls = || {
        server
            .engine()
            .embedding_cache("m")
            .unwrap()
            .model()
            .stats()
            .invocations()
    };
    let serial_calls = serial
        .embedding_cache("m")
        .unwrap()
        .model()
        .stats()
        .invocations();

    // One serial pass through the server embeds what the serial engine
    // embedded: each distinct text once.
    let session = server.session();
    for (i, q) in query_mix(server.engine()).iter().enumerate() {
        let got = table_rows(&session.execute(q).unwrap().table);
        assert_eq!(got, expected[i], "query {i} diverged from serial execution");
    }
    assert_eq!(model_calls(), serial_calls, "the serial pass re-embedded");

    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let server = server.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    let session = server.session();
                    let mix = query_mix(server.engine());
                    barrier.wait();
                    mix.iter()
                        .map(|q| table_rows(&session.execute(q).unwrap().table))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let got = handle.join().unwrap();
            assert_eq!(got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g, e, "query {i} diverged from serial execution");
            }
        }
    });

    // Plan cache: the serial pass and 8 threads × 6 queries over 4
    // distinct fingerprints must hit.
    let plan_stats = server.plan_cache_stats();
    assert!(plan_stats.hits >= 1, "plan cache never hit: {plan_stats:?}");
    assert_eq!(server.stats().queries, ((threads + 1) * 6) as u64);

    // The shared cache means the storm's 48 executions embedded nothing.
    assert_eq!(
        model_calls(),
        serial_calls,
        "the storm re-embedded cached strings"
    );
}

#[test]
fn admission_control_survives_a_thundering_herd() {
    let engine = fresh_engine();
    // A deliberately tiny admission capacity: queries must queue, finish,
    // and release — no deadlock, no starvation.
    let server = Server::new(
        engine,
        ServeConfig {
            admission_capacity: 1.0,
            // The result memo would skip the gate on replays; this test is
            // about the gate, so every query must execute.
            cache_results: false,
            ..ServeConfig::default()
        },
    );
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let server = server.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                let q = server
                    .table("products")
                    .unwrap()
                    .semantic_filter("name", "clothes", "m", 0.75);
                for _ in 0..20 {
                    server.execute(&q).unwrap();
                }
            });
        }
    });
    // Every query passed the gate and every permit was released — no
    // deadlock, no leaked cost, even at a capacity that forces queueing
    // whenever executions overlap. (Deterministic *blocking* behavior is
    // covered by cx_serve's CostGate unit tests; whether these particular
    // threads overlapped at the gate is scheduling luck, so it is not
    // asserted here.)
    let stats = server.admission_stats();
    assert_eq!(stats.admitted, 20 * threads as u64);
    assert_eq!(stats.active, 0);
    assert_eq!(stats.in_use, 0.0);
}

const TARGETS: [&str; 8] = [
    "boots", "parka", "kitten", "sneakers", "coat", "puppy", "shoes", "jacket",
];

/// Client `i`'s storm: same shapes as every other client, literals all
/// its own — so fingerprints (and the result memo) never collapse the
/// work.
fn storm(engine: &Engine, i: usize) -> Vec<Query> {
    let filter = |target: &str, threshold: f32| {
        engine
            .table("products")
            .unwrap()
            .semantic_filter("name", target, "m", threshold)
            .sort(&[("product_id", true)])
    };
    let join = |threshold: f32| {
        let kb = engine
            .table("kb")
            .unwrap()
            .filter(col("category").eq(lit("clothes")));
        engine
            .table("products")
            .unwrap()
            .semantic_join(kb, "name", "label", "m", threshold)
            .sort(&[("product_id", true), ("label", true)])
    };
    vec![
        filter(TARGETS[i], 0.8),
        join(0.85 + 0.01 * i as f32),
        filter(TARGETS[i], 0.75),
    ]
}

/// Bit-strict table comparison: scalar equality everywhere, f64 compared
/// by bits (similarity scores must match to the bit, not just ≈).
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

#[test]
fn distinct_literal_storm_is_bit_identical_to_serial_execution() {
    let threads = 8;

    // Reference: every client's storm through a serial engine, cold.
    let serial = fresh_engine();
    let expected: Vec<Vec<Table>> = (0..threads)
        .map(|i| {
            storm(&serial, i)
                .iter()
                .map(|q| serial.execute(q).unwrap().table)
                .collect()
        })
        .collect();

    // Storm: a second cold engine behind a server, every client released
    // at once by a barrier.
    let engine = fresh_engine();
    let server = Server::new(engine, ServeConfig::default());
    let barrier = Arc::new(Barrier::new(threads));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let server = server.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    let session = server.session();
                    let mine = storm(server.engine(), i);
                    barrier.wait();
                    mine.iter()
                        .map(|q| session.execute(q).unwrap().table)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let got = handle.join().unwrap();
            for (round, (g, e)) in got.iter().zip(&expected[i]).enumerate() {
                assert_tables_bit_identical(g, e, &format!("client {i} round {round}"));
            }
        }
    });

    let stats = server.stats();
    assert_eq!(stats.queries, (threads * 3) as u64);
    assert_eq!(stats.admission.active, 0);
    assert_eq!(stats.admission.in_use, 0.0);
}

#[test]
fn memoized_replays_never_touch_the_admission_gate() {
    let server = Server::new(fresh_engine(), ServeConfig::default());
    let q = server
        .table("products")
        .unwrap()
        .semantic_filter("name", "clothes", "m", 0.8)
        .sort(&[("product_id", true)]);

    let first = server.execute(&q).unwrap();
    assert!(!first.result_cache_hit);
    let admitted_after_first = server.admission_stats().admitted;
    assert!(admitted_after_first >= 1);

    // Replays — serial and concurrent — are served from the result memo
    // without re-estimating, re-weighing, or re-entering the gate.
    for _ in 0..3 {
        let replay = server.execute(&q).unwrap();
        assert!(replay.result_cache_hit);
    }
    std::thread::scope(|s| {
        for _ in 0..8 {
            let server = server.clone();
            let q = q.clone();
            s.spawn(move || {
                assert!(server.execute(&q).unwrap().result_cache_hit);
            });
        }
    });
    let stats = server.stats();
    assert_eq!(
        stats.admission.admitted, admitted_after_first,
        "memo replay hit the gate"
    );
    assert_eq!(stats.result_cache_hits, 11);
}

#[test]
fn catalog_registration_racing_lookups_never_serves_stale_plans() {
    let engine = fresh_engine();
    let schema = || Schema::new(vec![Field::new("marker", DataType::Int64)]);
    let hot =
        |marker: i64| Table::from_columns(schema(), vec![Column::from_i64(vec![marker])]).unwrap();
    engine.register_table("hot", hot(0)).unwrap();
    let server = Server::new(engine, ServeConfig::default());
    let q = server.table("hot").unwrap();

    // A writer re-registers `hot` with a monotone marker; `published`
    // trails completed registrations. Readers snapshot `published`
    // *before* executing: serving any marker older than that snapshot
    // would mean a version bump raced a fingerprint lookup into serving
    // a stale plan (or stale memo).
    let published = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let registrations = 300u64;
    let readers = 4;
    let start = Arc::new(Barrier::new(readers + 1));
    std::thread::scope(|s| {
        {
            let server = server.clone();
            let published = published.clone();
            let done = done.clone();
            let start = start.clone();
            s.spawn(move || {
                start.wait();
                for i in 1..=registrations {
                    server
                        .engine()
                        .register_table("hot", hot(i as i64))
                        .unwrap();
                    published.store(i, Ordering::Release);
                    // Pace the writer so lookups genuinely interleave with
                    // version bumps (an unpaced writer finishes before the
                    // first reader wakes).
                    std::thread::sleep(Duration::from_micros(200));
                }
                done.store(true, Ordering::Release);
            });
        }
        for _ in 0..readers {
            let server = server.clone();
            let published = published.clone();
            let done = done.clone();
            let start = start.clone();
            let q = q.clone();
            s.spawn(move || {
                start.wait();
                loop {
                    let floor = published.load(Ordering::Acquire);
                    let finished = done.load(Ordering::Acquire);
                    let result = server.execute(&q).unwrap();
                    let marker = match result.table.row(0).unwrap()[0] {
                        Scalar::Int64(m) => m as u64,
                        ref other => panic!("unexpected marker {other:?}"),
                    };
                    assert!(
                        marker >= floor,
                        "stale plan served: marker {marker} after registration {floor} completed"
                    );
                    if finished {
                        break;
                    }
                }
            });
        }
    });
    assert!(server.plan_cache_stats().invalidations > 0);
}

#[test]
fn per_session_config_override_partitions_the_plan_cache() {
    let server = Server::new(fresh_engine(), ServeConfig::default());
    let plain = server.session();
    let overriding = server.session();
    let default = plain.optimizer_config();
    // Any host's default differs from its own parallelism plus one.
    let wider = default.parallelism + 1;
    overriding.set_optimizer_config(OptimizerConfig {
        parallelism: wider,
        ..default
    });
    assert_eq!(overriding.optimizer_config().parallelism, wider);
    assert_eq!(plain.optimizer_config(), default);

    let q = server
        .table("products")
        .unwrap()
        .semantic_filter("name", "clothes", "m", 0.8)
        .sort(&[("product_id", true)]);

    // Same query text, different session configs: two distinct plan-cache
    // entries (the config fingerprint partitions the cache), each with
    // its own hit stream — and identical results, since parallelism
    // never changes a result.
    let a = plain.execute(&q).unwrap();
    let b = overriding.execute(&q).unwrap();
    assert!(!a.plan_cache_hit && !b.plan_cache_hit);
    assert_eq!(server.plan_cache_stats().len, 2);
    assert_tables_bit_identical(&b.table, &a.table, "overriding session");
    assert!(
        plain.execute(&q).unwrap().plan_cache_hit || plain.execute(&q).unwrap().result_cache_hit
    );
    assert!(
        overriding.execute(&q).unwrap().plan_cache_hit
            || overriding.execute(&q).unwrap().result_cache_hit
    );

    // Clearing the override rejoins the default partition.
    overriding.reset_optimizer_config();
    let back = overriding.execute(&q).unwrap();
    assert!(back.plan_cache_hit || back.result_cache_hit);
    assert_eq!(server.plan_cache_stats().len, 2);
}
