//! Tracing-off overhead regression.
//!
//! This file is its own test binary (own process) on purpose: nothing in
//! here ever installs a trace, so the process-wide
//! `cx_obs::span_allocations()` observing zero growth proves every
//! instrumentation site on the serving path — plan cache, embed warm,
//! bind, admission, execute, the `cx_semantic` panel-sweep sites — really
//! does reduce to one
//! thread-local flag load when the query is not traced. Do not add
//! traced queries to this file; they belong in `obs_trace.rs`.

use context_engine::{Engine, EngineConfig};
use cx_embed::ClusteredTextModel;
use cx_serve::{ServeConfig, Server};
use cx_storage::{Column, DataType, Field, Scalar, Schema, Table};
use std::sync::{Arc, Barrier};

fn build_engine() -> Arc<Engine> {
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
        ]),
        vec![
            Column::from_i64((0..names.len() as i64).collect()),
            Column::from_strings(names),
        ],
    )
    .unwrap();
    engine.register_table("products", products).unwrap();
    engine
}

#[test]
fn tracing_off_allocates_no_spans() {
    let before = cx_obs::span_allocations();

    // Default config: tracing off. Exercise the plan cache (hit and
    // miss), the result memo, prepared statements, and a concurrent storm
    // so every span site on the serving path actually executes.
    let server = Server::new(build_engine(), ServeConfig::default());
    let q = server
        .table("products")
        .unwrap()
        .semantic_filter("name", "boots", "m", 0.8)
        .sort(&[("product_id", true)]);
    let first = server.execute(&q).unwrap();
    let replay = server.execute(&q).unwrap();
    assert!(first.trace.is_none() && replay.trace.is_none());

    let session = server.session();
    let template = session
        .table("products")
        .unwrap()
        .semantic_filter_param("name", 0, "m", 0.8);
    let prepared = session.prepare(&template).unwrap();
    prepared.execute(&[Scalar::from("parka")]).unwrap();

    // Concurrent storm: distinct literals per thread, so every statement
    // really executes while the others are in flight.
    let threads = 4;
    let barrier = Arc::new(Barrier::new(threads));
    let targets = ["boots", "parka", "kitten", "sneakers"];
    std::thread::scope(|s| {
        for target in targets.iter().take(threads) {
            let server = server.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                let q = server
                    .table("products")
                    .unwrap()
                    .semantic_filter("name", target, "m", 0.75);
                barrier.wait();
                server.execute(&q).unwrap();
            });
        }
    });

    assert_eq!(
        cx_obs::span_allocations(),
        before,
        "span sites allocated with tracing off"
    );
    assert!(server.last_trace().is_none());
    assert!(server.traces().is_empty());
    assert!(server.slow_queries().is_empty());

    // Histograms are always on regardless of tracing: cheap atomics.
    let lat = server.latency_histogram().snapshot();
    assert!(lat.count >= 7, "latency histogram missed queries: {lat:?}");
    assert!(server.queue_wait_histogram().snapshot().count >= 1);
}
