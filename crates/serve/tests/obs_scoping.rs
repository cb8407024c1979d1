//! Instrumentation is scoped to the server that asked for it.
//!
//! Two servers share this process: one with tracing and profiling on,
//! one default-configured. They serve at the same time, and the default
//! server must see none of it — no trace on its results, nothing in its
//! ring, zero profile totals — while every span the process records is
//! accounted for by the traced server's own traces.
//!
//! Its own test binary, like `obs_overhead.rs`: `span_allocations()` is
//! process-wide, so nothing else may record spans alongside.

use context_engine::{Engine, EngineConfig};
use cx_embed::ClusteredTextModel;
use cx_obs::QueryTrace;
use cx_serve::{ProfileTotalsStats, ServeConfig, Server};
use cx_storage::{Column, DataType, Field, Schema, Table};
use std::sync::{Arc, Barrier};

const NAMES: [&str; 8] = [
    "boots",
    "parka",
    "kitten",
    "sneakers",
    "coat",
    "puppy",
    "oxfords",
    "windbreaker",
];
const CLIENTS_PER_SERVER: usize = 2;
const ROUNDS: usize = 6;

fn server(config: ServeConfig) -> Arc<Server> {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let specs = cx_datagen::table1_clusters();
    let space = Arc::new(cx_datagen::build_space(&specs, 64, 42));
    engine.register_model(Arc::new(ClusteredTextModel::new("m", space, 7)));
    let products = Table::from_columns(
        Schema::new(vec![
            Field::new("product_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]),
        vec![
            Column::from_i64((0..NAMES.len() as i64).collect()),
            Column::from_strings(NAMES),
        ],
    )
    .unwrap();
    engine.register_table("products", products).unwrap();
    Server::new(engine, config)
}

/// One client: `ROUNDS` semantic filters with literals of its own, each
/// released by the barrier all four clients share, so both servers have
/// queries in flight at once. Returns the traces its results carried.
fn client(server: &Server, id: usize, round_start: &Barrier) -> Vec<Option<QueryTrace>> {
    (0..ROUNDS)
        .map(|round| {
            let target = NAMES[(id * ROUNDS + round) % NAMES.len()];
            let threshold = 0.7 + 0.01 * (id * ROUNDS + round) as f32;
            let q = server
                .table("products")
                .unwrap()
                .semantic_filter("name", target, "m", threshold);
            round_start.wait();
            server.execute(&q).unwrap().trace
        })
        .collect()
}

#[test]
fn a_default_server_does_not_observe_a_traced_one() {
    let traced = server(ServeConfig {
        tracing: true,
        profiling: true,
        ..ServeConfig::default()
    });
    let plain = server(ServeConfig::default());
    let spans_before = cx_obs::span_allocations();

    let round_start = Barrier::new(2 * CLIENTS_PER_SERVER);
    let results: Vec<Vec<Option<QueryTrace>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2 * CLIENTS_PER_SERVER)
            .map(|id| {
                let server = if id < CLIENTS_PER_SERVER {
                    &traced
                } else {
                    &plain
                };
                let round_start = &round_start;
                s.spawn(move || client(server, id, round_start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (traced_results, plain_results) = results.split_at(CLIENTS_PER_SERVER);

    // The default server: no trace anywhere, no profile.
    assert!(plain_results.iter().flatten().all(Option::is_none));
    assert!(plain.traces().is_empty() && plain.last_trace().is_none());
    assert_eq!(plain.profile_totals(), ProfileTotalsStats::default());

    // The traced server: every query traced and profiled, and its traces
    // hold every span the process recorded meanwhile.
    let queries = (CLIENTS_PER_SERVER * ROUNDS) as u64;
    let traced_spans: u64 = traced_results
        .iter()
        .flatten()
        .map(|t| t.as_ref().expect("tracing is on").spans().len() as u64)
        .sum();
    assert!(
        traced_spans >= 2 * queries,
        "plan_cache + execute at least: {traced_spans}"
    );
    assert_eq!(cx_obs::span_allocations() - spans_before, traced_spans);
    let totals = traced.profile_totals();
    assert_eq!(totals.profiled_queries, queries);
    assert!(totals.pairs_scored > 0, "{totals:?}");
}
