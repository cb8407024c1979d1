//! Query-lifecycle and fault-injection integration tests.
//!
//! Covers the robustness contract end to end:
//!
//! * typed lifecycle failures — deadline, cancellation, memory budget,
//!   queue-full shedding — each observed through the public serving API;
//! * the retry policy — a transient failure is retried exactly once;
//! * the chaos harness — seeded fault storms (panics, delays, transient
//!   errors at every [`FaultSite`]) across sixteen seeds, through which
//!   every *successful* query stays bit-identical to a fault-free solo
//!   run and the server keeps serving afterwards.

use context_engine::{Engine, EngineConfig, Query};
use cx_datagen::{generate_corpus, synthetic_clusters, CorpusConfig};
use cx_embed::ClusteredTextModel;
use cx_serve::{FaultPlan, QueryOptions, ServeConfig, Server};
use cx_storage::{CancelToken, Column, DataType, Error, Field, QueryError, Schema, Table};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A fresh engine over `n` product rows plus a label relation.
fn build_engine(n: usize) -> Arc<Engine> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let clusters = synthetic_clusters(30, 8, 0x5E21);
    let space = Arc::new(cx_datagen::build_space(&clusters, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));

    let vocab = cx_datagen::vocab::all_words(&clusters);
    let names = generate_corpus(
        &vocab,
        CorpusConfig {
            size: n,
            zipf_s: 1.0,
            max_words: 2,
            seed: 11,
        },
    );
    let products = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]),
        vec![
            Column::from_i64((0..n as i64).collect()),
            Column::from_strings(names),
            Column::from_f64((0..n).map(|i| 5.0 + (i % 200) as f64).collect()),
        ],
    )
    .unwrap();
    engine.register_table("products", products).unwrap();

    let labels = generate_corpus(
        &vocab,
        CorpusConfig {
            size: n.max(128),
            zipf_s: 0.6,
            max_words: 2,
            seed: 23,
        },
    );
    let label_table = Table::from_columns(
        Schema::new(vec![Field::new("label", DataType::Utf8)]),
        vec![Column::from_strings(labels)],
    )
    .unwrap();
    engine.register_table("labels", label_table).unwrap();
    engine
}

fn vocab() -> Vec<String> {
    cx_datagen::vocab::all_words(&synthetic_clusters(30, 8, 0x5E21))
}

/// A heavy query: a full semantic join sweep (panel × probes).
fn heavy_join(engine: &Engine, threshold: f32) -> Query {
    engine
        .table("products")
        .unwrap()
        .semantic_join(
            engine.table("labels").unwrap(),
            "name",
            "label",
            "m",
            threshold,
        )
        .sort(&[("product_id", true)])
        .limit(50)
}

/// The heavy query with nothing bounded: every matching pair is
/// materialized and sorted, so the statement is heavy by construction.
fn full_sorted_join(engine: &Engine, threshold: f32) -> Query {
    engine
        .table("products")
        .unwrap()
        .semantic_join(
            engine.table("labels").unwrap(),
            "name",
            "label",
            "m",
            threshold,
        )
        .sort(&[("product_id", true)])
}

fn as_query_error(e: &Error) -> Option<&QueryError> {
    e.as_query()
}

fn assert_tables_equal(got: &Table, want: &Table, tag: &str) {
    assert_eq!(got.num_rows(), want.num_rows(), "{tag}: row count");
    for r in 0..want.num_rows() {
        assert_eq!(got.row(r).unwrap(), want.row(r).unwrap(), "{tag}: row {r}");
    }
}

#[test]
fn deadline_expires_solo_query_with_bounded_overshoot() {
    let engine = build_engine(2000);
    let server = Server::new(engine.clone(), ServeConfig::default());
    // Warm the plan so the deadline budget is spent in execution, not
    // optimization.
    let q = full_sorted_join(&engine, 0.93);
    server.execute(&q).unwrap();

    let q2 = full_sorted_join(&engine, 0.931); // distinct literal: no memo replay
    let deadline = Duration::from_millis(5);
    let options = QueryOptions {
        timeout: Some(deadline),
        ..Default::default()
    };
    let started = Instant::now();
    let err = server.execute_with_options(&q2, &options).unwrap_err();
    assert_eq!(
        as_query_error(&err),
        Some(&QueryError::DeadlineExceeded),
        "{err}"
    );
    // Cooperative checks run per tile/chunk: the query must die well
    // before a full sweep would finish, not at some unbounded point.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "query outlived its deadline"
    );
    assert_eq!(server.lifecycle_stats().deadline_exceeded, 1);
    // The premise, checked: without a deadline the same statement runs
    // for at least four deadlines.
    let started = Instant::now();
    server.execute(&q2).unwrap();
    let full = started.elapsed();
    assert!(full >= 4 * deadline, "the heavy query ran in {full:?}");
    // The server keeps serving.
    assert!(server.execute(&q).is_ok());
}

#[test]
fn cancellation_stops_query_mid_flight() {
    let engine = build_engine(600);
    let server = Server::new(engine.clone(), ServeConfig::default());
    server.execute(&heavy_join(&engine, 0.93)).unwrap(); // warm plan

    let token = CancelToken::new();
    let options = QueryOptions {
        cancel: Some(token.clone()),
        ..Default::default()
    };
    let q = heavy_join(&engine, 0.9312);
    let handle = {
        let server = server.clone();
        std::thread::spawn(move || server.execute_with_options(&q, &options))
    };
    std::thread::sleep(Duration::from_millis(5));
    token.cancel();
    let result = handle.join().unwrap();
    match result {
        Err(e) => assert_eq!(as_query_error(&e), Some(&QueryError::Cancelled), "{e}"),
        // The query may legitimately have finished before the cancel
        // landed; rerun deterministically with a pre-tripped token.
        Ok(_) => {
            let token = CancelToken::new();
            token.cancel();
            let options = QueryOptions {
                cancel: Some(token),
                ..Default::default()
            };
            let err = server
                .execute_with_options(&heavy_join(&engine, 0.9313), &options)
                .unwrap_err();
            assert_eq!(as_query_error(&err), Some(&QueryError::Cancelled), "{err}");
        }
    }
    assert_eq!(server.lifecycle_stats().cancelled, 1);
}

#[test]
fn memory_budget_stops_oversized_query() {
    let engine = build_engine(600);
    let server = Server::new(engine.clone(), ServeConfig::default());
    let q = heavy_join(&engine, 0.93);
    // A few hundred bytes cannot hold the arena panels this sweep builds.
    let options = QueryOptions {
        memory_budget: Some(512),
        ..Default::default()
    };
    let err = server.execute_with_options(&q, &options).unwrap_err();
    match as_query_error(&err) {
        Some(QueryError::MemoryBudget { allocated, limit }) => {
            assert_eq!(*limit, 512);
            assert!(*allocated > 512, "budget tripped below its limit");
        }
        other => panic!("expected MemoryBudget, got {other:?}"),
    }
    assert_eq!(server.lifecycle_stats().budget_exceeded, 1);
    // The same query unconstrained succeeds — the budget was the only
    // reason to die.
    assert!(server.execute(&q).is_ok());
}

#[test]
fn server_default_timeout_applies_when_options_are_silent() {
    let engine = build_engine(600);
    let server = Server::new(
        engine.clone(),
        ServeConfig {
            default_timeout: Some(Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    );
    let err = server.execute(&heavy_join(&engine, 0.93)).unwrap_err();
    assert_eq!(
        as_query_error(&err),
        Some(&QueryError::DeadlineExceeded),
        "{err}"
    );
    // An explicit per-query timeout overrides the default.
    let options = QueryOptions {
        timeout: Some(Duration::from_secs(600)),
        ..Default::default()
    };
    assert!(server
        .execute_with_options(&heavy_join(&engine, 0.93), &options)
        .is_ok());
}

#[test]
fn bounded_queue_sheds_with_queue_full() {
    let engine = build_engine(300);
    // One query at a time, one queue slot: a simultaneous burst must shed.
    let server = Server::new(
        engine.clone(),
        ServeConfig {
            admission_capacity: 1.0,
            max_queued: 1,
            cache_results: false,
            ..ServeConfig::default()
        },
    );
    let q = heavy_join(&engine, 0.93);
    server.execute(&q).unwrap(); // warm the plan (and the gate releases)

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let server = server.clone();
                let barrier = barrier.clone();
                let q = q.clone();
                s.spawn(move || {
                    barrier.wait();
                    server.execute(&q)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let shed: Vec<_> = results
        .iter()
        .filter_map(|r| match r {
            Err(e) => match as_query_error(e) {
                Some(QueryError::QueueFull { queued, max }) => Some((*queued, *max)),
                other => panic!("only QueueFull errors expected, got {other:?}"),
            },
            Ok(_) => None,
        })
        .collect();
    let succeeded = results.iter().filter(|r| r.is_ok()).count();
    assert!(succeeded >= 1, "at least the gate holder must finish");
    assert!(
        !shed.is_empty(),
        "a 6-client burst over a 1-slot queue must shed"
    );
    for (queued, max) in shed {
        assert_eq!(max, 1);
        assert!(queued >= 1);
    }
    assert_eq!(
        server.admission_stats().shed as usize,
        results.len() - succeeded
    );
    // Shedding is backpressure, not damage: the next query is served.
    assert!(server.execute(&q).is_ok());
}

/// Fault-plan seeds the storm sweeps: `0xC0FFEE`, `7` and `99` plus
/// thirteen more. Faults are a pure function of `(seed, site, n)`, so a
/// seed that fails here is a reproducer. Each statement strikes admission
/// once per attempt (the embed site only on a plan-cache miss); every seed
/// listed faults within its first 90 admission draws (seed 7 first
/// faults at draw 60).
const STORM_SEEDS: [u64; 16] = [
    0xC0FFEE,
    7,
    99,
    1,
    2,
    3,
    5,
    11,
    13,
    42,
    101,
    1234,
    0xBEEF,
    0x5EED,
    0xDEAD_BEEF,
    31337,
];

#[test]
fn seeded_fault_storm_preserves_correctness_and_service() {
    let engine = build_engine(300);
    let server = Server::new(
        engine.clone(),
        ServeConfig {
            cache_results: false, // replays must really execute
            ..ServeConfig::default()
        },
    );
    let words = vocab();

    // Ground truth, computed fault-free through the engine directly.
    let queries: Vec<Query> = (0..10)
        .map(|i| {
            if i % 2 == 0 {
                heavy_join(&engine, 0.93 + 1e-4 * i as f32)
            } else {
                engine
                    .table("products")
                    .unwrap()
                    .semantic_filter("name", &words[i * 13 % words.len()], "m", 0.85)
                    .sort(&[("product_id", true)])
            }
        })
        .collect();
    let truth: Vec<Arc<Table>> = queries
        .iter()
        .map(|q| Arc::new(engine.execute(q).unwrap().table))
        .collect();

    const CLIENTS: usize = 3;
    const ROUNDS: usize = 3;
    for seed in STORM_SEEDS {
        // A 5% seeded storm: panics, delays, and transient errors at every
        // site. Replayable: same seed, same schedule.
        let plan = Arc::new(FaultPlan::new(seed, 0.05).with_delay(Duration::from_millis(1)));
        server.set_fault_plan(Some(plan));
        let retries_before = server.stats().lifecycle.retries;

        let barrier = Arc::new(Barrier::new(CLIENTS));
        let mut served = 0usize;
        let mut failed = 0usize;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let server = server.clone();
                    let barrier = barrier.clone();
                    let (queries, truth) = (&queries, &truth);
                    s.spawn(move || {
                        barrier.wait();
                        let mut ok = 0usize;
                        let mut err = 0usize;
                        for n in 0..ROUNDS * queries.len() {
                            let i = n % queries.len();
                            match server.execute(&queries[i]) {
                                Ok(result) => {
                                    // THE contract: a query the storm did not
                                    // kill is indistinguishable from a
                                    // fault-free solo run.
                                    assert_tables_equal(
                                        &result.table,
                                        &truth[i],
                                        &format!("seed {seed:#x} statement {n} (query {i})"),
                                    );
                                    ok += 1;
                                }
                                Err(e) => {
                                    // Faulted queries die with *typed* errors,
                                    // not unwinding threads.
                                    assert!(
                                        e.is_transient(),
                                        "seed {seed:#x}: non-transient failure: {e}"
                                    );
                                    err += 1;
                                }
                            }
                        }
                        (ok, err)
                    })
                })
                .collect();
            for h in handles {
                let (ok, err) = h.join().expect("client thread must not unwind");
                served += ok;
                failed += err;
            }
        });

        let faults = server.fault_stats().unwrap();
        let retries = server.stats().lifecycle.retries - retries_before;
        assert_eq!(
            served + failed,
            CLIENTS * ROUNDS * queries.len(),
            "seed {seed:#x}: lost statements"
        );
        assert!(
            faults.total() > 0,
            "seed {seed:#x}: storm injected nothing; widen it"
        );
        assert!(served > 0, "seed {seed:#x}: storm killed every query");
        // The retry-once policy recovered at least some transient faults
        // (first-attempt transients = retries; only double faults fail).
        assert!(
            retries as usize >= failed,
            "seed {seed:#x}: {failed} failures but only {retries} retries"
        );

        // Determinism: two fresh plans with the same seed replay the exact
        // same decision stream.
        let (replay, original) = (FaultPlan::new(seed, 0.05), FaultPlan::new(seed, 0.05));
        for site in cx_serve::FaultSite::ALL {
            for _ in 0..100 {
                assert_eq!(
                    replay.roll(site),
                    original.roll(site),
                    "seed {seed:#x}: {site:?}"
                );
            }
        }

        // The server outlives the storm: plan removed, service is clean.
        server.set_fault_plan(None);
        let after = server
            .execute(&queries[0])
            .unwrap_or_else(|e| panic!("seed {seed:#x}: post-storm query failed: {e}"));
        assert_tables_equal(
            &after.table,
            &truth[0],
            &format!("seed {seed:#x} post-storm"),
        );
    }
}

#[test]
fn transient_admission_failure_retries_once() {
    // At rate 0.5, seed 13's first admission draw is a transient fault and
    // its second draw proceeds: the first attempt fails, the one retry is
    // served.
    let engine = build_engine(200);
    let server = Server::new(
        engine.clone(),
        ServeConfig {
            cache_results: false,
            tracing: true,
            ..ServeConfig::default()
        },
    );
    let q = heavy_join(&engine, 0.93);
    // Plan first, so the faulted run resolves a cached plan and never
    // strikes the embed site.
    let solo = server.execute(&q).unwrap();

    server.set_fault_plan(Some(Arc::new(FaultPlan::new(13, 0.5))));
    let retried = server.execute(&q).expect("the retry must be served");
    let faults = server.fault_stats().unwrap();
    server.set_fault_plan(None);

    assert_tables_equal(&retried.table, &solo.table, "retried vs fault-free");
    assert_eq!(faults.per_site, [0, 1], "one admission fault, nothing else");
    let lifecycle = server.lifecycle_stats();
    assert_eq!(
        (lifecycle.retries, lifecycle.transient_failures),
        (1, 0),
        "{lifecycle:?}"
    );
    let trace = retried.trace.expect("tracing is on");
    let names: Vec<_> = trace.events().iter().map(|e| e.name).collect();
    assert_eq!(names, ["fault", "retry"], "{}", trace.render());
}

#[test]
fn embed_site_strikes_only_when_a_semantic_plan_is_built() {
    // At rate 1.0 every draw faults, so `per_site` counts draws: the
    // embed site is drawn once per semantic plan build, and never for a
    // relational plan or a plan-cache hit. A drawn fault may kill the
    // statement; only the draws are checked here.
    let engine = build_engine(200);
    let server = Server::new(
        engine.clone(),
        ServeConfig {
            cache_results: false,
            ..ServeConfig::default()
        },
    );
    let embed_draws = || server.fault_stats().unwrap().per_site[0];
    let semantic = |target: &str| {
        engine
            .table("products")
            .unwrap()
            .semantic_filter("name", target, "m", 0.85)
    };
    let warm = semantic("boots");
    server.execute(&warm).unwrap();

    server.set_fault_plan(Some(Arc::new(FaultPlan::new(3, 1.0))));
    let relational = engine
        .table("products")
        .unwrap()
        .filter(cx_expr::col("price").gt(cx_expr::lit(50.0)));
    let _ = server.execute(&relational);
    let faults = server.fault_stats().unwrap();
    assert_eq!(
        faults.per_site[0], 0,
        "a relational plan drew the embed site"
    );
    assert!(faults.per_site[1] > 0, "the relational statement never ran");

    let _ = server.execute(&warm);
    assert_eq!(embed_draws(), 0, "a plan-cache hit drew the embed site");

    let _ = server.execute(&semantic("parka"));
    assert!(
        embed_draws() >= 1,
        "a semantic plan build skipped the embed site"
    );
    server.set_fault_plan(None);
}
